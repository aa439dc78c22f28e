"""Shared fixtures for the paper-artifact benchmarks.

Each ``bench_*.py`` regenerates one table or figure of the paper into
``benchmarks/results/`` (plain text) and exposes representative operations
to pytest-benchmark.  Sweeps are scaled down from the paper's sizes — a
Python engine is ~100x slower per tuple than PostgreSQL's C — with the
scaling factors recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.workloads import build_demo_database

RESULTS_DIR = Path(__file__).parent / "results"

#: Footer of every paper artifact (fig*, table*, ablation*): which
#: evaluator their compiled variants ran on.
PAPER_QF_LABEL = ("[compiled variants run the paper's inlined WITH RECURSIVE "
                  "/ ITERATE Qf: batch_compiled = off]")


@pytest.fixture(scope="session")
def demo():
    """One demo database shared by all benchmarks (seeded, profiler off).

    The paper's artifacts measure the paper's Qf, so the engine's default -
    every call to a recursive compiled function on the trampoline machine -
    is switched off here: left on, ``walk_c`` and ``walk_it`` would run the
    same machine rules and Fig. 10's RECURSIVE and ITERATE series, Table
    2's page writes and the ITERATE ablation would measure nothing.
    """
    built = build_demo_database(seed=7)
    built.db.profiler.enabled = False
    built.db.execute("SET batch_compiled = off")
    return built


@pytest.fixture(scope="session")
def write_json():
    """Write BENCH_<name>.json into results/ (machine-readable timings,
    speedups and rows/s — the cross-PR perf trajectory)."""
    from repro.bench.harness import write_bench_json

    def write(name: str, payload: dict) -> Path:
        path = write_bench_json(name, payload, RESULTS_DIR)
        print(f"\n--- {path.name} -> {path}")
        return path

    return write


@pytest.fixture(scope="session")
def write_artifact():
    def write(name: str, text: str) -> Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / name
        if name.startswith(("fig", "table", "ablation")) \
                and name.endswith(".txt"):
            text += "\n" + PAPER_QF_LABEL
        path.write_text(text + "\n")
        print(f"\n--- {name} ---------------------------------------------")
        print(text)
        return path

    return write


def walk_query(function: str, per_call: bool = False) -> str:
    """Driving query for walk variants ($1=win, $2=loose, $3=steps)."""
    call = f"{function}(row(0,0)::coord, $1, $2, $3)"
    if per_call:
        return f"SELECT {call}"
    return f"SELECT count({call}) FROM bench_calls AS b"


def parse_query(function: str, per_call: bool = False) -> str:
    call = f"{function}($1)"
    if per_call:
        return f"SELECT {call}"
    return f"SELECT count({call}) FROM bench_calls AS b"
