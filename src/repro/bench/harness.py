"""Measurement utilities behind every benchmark in ``benchmarks/``.

All timing helpers reseed the engine RNG before each run so interpreted and
compiled variants draw identical random sequences (``walk()`` depends on it)
and repetitions are comparable.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..sql.engine import Database
from ..sql.profiler import EXEC_END, EXEC_RUN, EXEC_START, INTERP

#: The four columns of the paper's Table 1.
TABLE1_PHASES = (EXEC_START, EXEC_RUN, EXEC_END, INTERP)


# ---------------------------------------------------------------------------
# Timing primitives
# ---------------------------------------------------------------------------


@dataclass
class Timing:
    """Wall-clock samples for one query (seconds)."""

    samples: list[float]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples)


def time_query(db: Database, sql: str, params: Sequence = (),
               runs: int = 5, seed: int = 42, warmup: int = 1) -> Timing:
    """Time *sql*; RNG reseeded per run; first ``warmup`` runs discarded."""
    samples = []
    for run in range(runs + warmup):
        db.reseed(seed)
        start = time.perf_counter()
        db.execute(sql, params)
        elapsed = time.perf_counter() - start
        if run >= warmup:
            samples.append(elapsed)
    return Timing(samples)


def counted(db: Database, sql: str) -> dict:
    """The profiler's counters over one execution of *sql* on a database
    that otherwise runs unprofiled - what the benches gate on (facts that
    do not depend on the host) beside the time ratios they report."""
    profiler = db.profiler
    profiler.enabled = True
    profiler.reset()
    try:
        db.execute(sql)
        return dict(profiler.counts)
    finally:
        profiler.enabled = False


# ---------------------------------------------------------------------------
# Machine-readable results
# ---------------------------------------------------------------------------


def write_bench_json(name: str, payload: dict,
                     directory: "str | os.PathLike | None" = None) -> Path:
    """Write ``BENCH_<name>.json`` so the perf trajectory is tracked as
    machine-readable data across PRs (timings in seconds, speedups,
    rows/s — whatever the benchmark measured).

    *directory* defaults to ``$BENCH_RESULTS_DIR`` or ``./results`` (the
    benchmarks run with ``benchmarks/`` as the working directory, so both
    land next to the plain-text artifacts).  CI uploads the ``BENCH_*``
    files as artifacts.
    """
    if directory is None:
        directory = os.environ.get("BENCH_RESULTS_DIR", "results")
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Table 1 / Figure 3: profile breakdowns
# ---------------------------------------------------------------------------


@dataclass
class ProfileBreakdown:
    """Share (%) of evaluation time per phase for one function call."""

    function: str
    shares: dict[str, float]
    counts: dict[str, int]

    def row(self) -> list:
        return [self.function] + [round(self.shares.get(p, 0.0), 2)
                                  for p in TABLE1_PHASES]


def profile_function_call(db: Database, sql: str, params: Sequence = (),
                          seed: int = 42, label: str = "") -> ProfileBreakdown:
    """Run one interpreted call and report the Table 1 phase shares.

    Percentages are normalized over the four executor/interpreter phases
    (the paper's columns), ignoring one-time parse/plan cost — the paper's
    numbers are steady-state too.
    """
    db.execute(sql, params)  # warm the caches (plans, parsed bodies)
    db.reseed(seed)
    db.profiler.reset()
    was_enabled = db.profiler.enabled
    db.profiler.enabled = True
    try:
        db.execute(sql, params)
    finally:
        db.profiler.enabled = was_enabled
    times = db.profiler.times
    total = sum(times.get(p, 0.0) for p in TABLE1_PHASES)
    shares = {p: (100.0 * times.get(p, 0.0) / total if total else 0.0)
              for p in TABLE1_PHASES}
    return ProfileBreakdown(label or sql, shares, dict(db.profiler.counts))


def statement_profile(db: Database, sql: str, params: Sequence = (),
                      seed: int = 42) -> list[tuple[str, float, float]]:
    """Figure 3: per-statement share of run time and its f→Qi overhead share.

    Returns ``(statement label, % of total, % overhead within statement)``
    sorted by source order of first execution.
    """
    db.execute(sql, params)  # warm caches
    db.reseed(seed)
    db.profiler.reset()
    was_enabled = db.profiler.enabled
    db.profiler.enabled = True
    profile: dict = {}
    db.plsql_statement_profile = profile
    try:
        db.execute(sql, params)
    finally:
        db.plsql_statement_profile = None
        db.profiler.enabled = was_enabled
    total = sum(sum(phases.values()) for phases in profile.values())
    out = []
    for label, phases in profile.items():
        stmt_total = sum(phases.values())
        overhead = phases.get(EXEC_START, 0.0) + phases.get(EXEC_END, 0.0)
        out.append((label,
                    100.0 * stmt_total / total if total else 0.0,
                    100.0 * overhead / stmt_total if stmt_total else 0.0))
    return out


# ---------------------------------------------------------------------------
# Figure 10: series sweeps
# ---------------------------------------------------------------------------


@dataclass
class SeriesResult:
    """One series point per x value, for several variants."""

    x_label: str
    x_values: list
    variants: dict[str, list[Timing]] = field(default_factory=dict)

    def relative(self, variant: str, baseline: str) -> list[float]:
        return [100.0 * v.mean / b.mean
                for v, b in zip(self.variants[variant],
                                self.variants[baseline])]


def measure_series(db: Database, x_values: Sequence,
                   variants: dict[str, Callable[[object], tuple[str, list]]],
                   runs: int = 5, seed: int = 42,
                   x_label: str = "iterations") -> SeriesResult:
    """For each x, time each variant.  A variant maps x -> (sql, params)."""
    result = SeriesResult(x_label, list(x_values))
    for name, make in variants.items():
        timings = []
        for x in x_values:
            sql, params = make(x)
            timings.append(time_query(db, sql, params, runs=runs, seed=seed))
        result.variants[name] = timings
    return result


# ---------------------------------------------------------------------------
# Figure 11: heat maps
# ---------------------------------------------------------------------------

CALLS_TABLE = "bench_calls"


def ensure_calls_table(db: Database, n: int) -> None:
    """(Re)fill the driving table used to multiply invocations."""
    if not db.catalog.has_table(CALLS_TABLE):
        db.catalog.create_table(CALLS_TABLE, ["i"], ["int"])
    table = db.catalog.get_table(CALLS_TABLE)
    table.truncate()
    for i in range(n):
        table.insert((i,))


@dataclass
class HeatmapResult:
    invocation_counts: list[int]
    iteration_counts: list[int]
    #: relative runtime %, indexed [invocation_index][iteration_index]
    grid: list[list[float]]


def measure_heatmap(db: Database, invocation_counts: Sequence[int],
                    iteration_counts: Sequence[int],
                    make_query: Callable[[str, int], tuple[str, list]],
                    slow_name: str, fast_name: str,
                    runs: int = 3, seed: int = 42) -> HeatmapResult:
    """Figure 11: relative runtime of *fast* vs *slow* over a 2-D sweep.

    ``make_query(function_name, iterations)`` returns the driving query and
    parameters; the query must call ``function_name`` once per row of the
    calls table.
    """
    grid: list[list[float]] = []
    for invocations in invocation_counts:
        ensure_calls_table(db, invocations)
        row = []
        for iterations in iteration_counts:
            slow_sql, slow_params = make_query(slow_name, iterations)
            fast_sql, fast_params = make_query(fast_name, iterations)
            slow = time_query(db, slow_sql, slow_params, runs=runs, seed=seed)
            fast = time_query(db, fast_sql, fast_params, runs=runs, seed=seed)
            row.append(100.0 * fast.minimum / slow.minimum)
        grid.append(row)
    return HeatmapResult(list(invocation_counts), list(iteration_counts), grid)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_heatmap(result: HeatmapResult, title: str = "") -> str:
    """Figure 11-style grid: rows = #invocations, columns = #iterations."""
    headers = ["inv\\iter"] + [str(i) for i in result.iteration_counts]
    rows = []
    for invocations, row in zip(result.invocation_counts, result.grid):
        rows.append([invocations] + [round(v) for v in row])
    return render_table(headers, rows, title)
