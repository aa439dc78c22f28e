"""Command-line driver: ``python -m repro.fuzz --seed N --cases K``.

Generates and checks cases until the case budget (or ``--time-budget``
seconds) runs out.  Every discrepancy is delta-debugged to a minimal
reproducer and written to ``--emit-dir`` as a ready-to-run pytest module;
the process exits non-zero when any discrepancy survives.  Re-running with
the same seed regenerates byte-identical cases, and any single case can be
replayed directly with ``--index``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.sql.profiler import (BATCHED_UDF_DISTINCT, BATCHED_UDF_ROWS,
                                FUZZ_ANALYZER_CHECKS, FUZZ_CASES,
                                FUZZ_COMPARISONS, FUZZ_DIALECT_EXPLAINED,
                                FUZZ_DISCREPANCIES, FUZZ_DML_CHECKS,
                                FUZZ_DML_TWIN_CHECKS, FUZZ_EXECUTIONS,
                                FUZZ_FUNCTIONS,
                                FUZZ_SQLITE_CHECKS, FUZZ_SQLITE_FUNCTIONS,
                                FUZZ_TWIN_CHECKS, MEMO_CARRIED_HITS, MEMO_HITS, MEMO_MISSES,
                                RANGE_SCANS_GIVEN_UP, VECTOR_FALLBACKS,
                                VECTOR_FUSED_ROWS, VECTOR_JOIN_ROWS,
                                VECTOR_ROWS, VECTOR_TYPED_ROWS, Profiler)

from .chaos import check_chaos_case
from .oracle import DifferentialChecker, check_txn_case
from .querygen import generate_case
from .reduce import Reducer, emit_pytest
from .txngen import generate_txn_case
from .wire import check_wire_case


def _drive(prefix: str, generate, check, on_failure, *, seed: int,
           cases: int, start_index: int, time_budget: float | None,
           max_failures: int, verbose: bool) -> int:
    """The case loop every axis shares; returns the number of failing
    cases.  *check* maps a case to its discrepancies, *on_failure* gets a
    failing case and its discrepancies after the first is printed, and
    *prefix* starts each case's log line (the axis name)."""
    started = time.monotonic()
    failures = 0
    for index in range(start_index, start_index + cases):
        if time_budget is not None and \
                time.monotonic() - started > time_budget:
            if verbose:
                print(f"time budget ({time_budget:.0f}s) reached after "
                      f"{index - start_index} cases")
            break
        case = generate(seed, index)
        try:
            discrepancies = check(case)
        except Exception as error:  # noqa: BLE001 — harness must survive
            failures += 1
            print(f"{prefix}case {index} (seed {case.seed}): harness error "
                  f"{type(error).__name__}: {error}", file=sys.stderr)
        else:
            if not discrepancies:
                continue
            failures += 1
            print(f"{prefix}case {index} (seed {case.seed}): "
                  f"{len(discrepancies)} discrepancies", file=sys.stderr)
            print(discrepancies[0].describe(), file=sys.stderr)
            on_failure(case, discrepancies)
        if failures >= max_failures:
            if verbose:
                print(f"stopping after {max_failures} failing cases",
                      file=sys.stderr)
            break
    return failures


#: The summary columns of the wire and chaos axes.
AXIS_COLUMNS = ((FUZZ_EXECUTIONS, "executions"),
                (FUZZ_COMPARISONS, "comparisons"))


def _print_script(case, discrepancies) -> None:
    print("  script:\n" + case.script(), file=sys.stderr)


def run_fuzz(seed: int = 0, cases: int = 200, *, use_sqlite: bool = True,
             reduce_failures: bool = True, emit_dir: str | None = None,
             time_budget: float | None = None, max_failures: int = 5,
             start_index: int = 0, verbose: bool = True,
             profiler: Profiler | None = None) -> int:
    """Run the fuzz loop; returns the number of failing cases.

    Importable so tests and CI drive the same loop as the CLI.
    """
    checker = DifferentialChecker(use_sqlite=use_sqlite, profiler=profiler)
    profiler = checker.profiler
    started = time.monotonic()
    emitted: list[str] = []

    def on_failure(case, discrepancies) -> None:
        if reduce_failures:
            reducer = Reducer(checker.check_case)
            case = reducer.reduce(case)
            remaining = checker.check_case(case) or discrepancies
            print(f"  reduced to {case.statement_count()} statements "
                  f"({reducer.checks_spent} oracle re-checks)",
                  file=sys.stderr)
            discrepancies = remaining
        if emit_dir is not None:
            path = Path(emit_dir)
            path.mkdir(parents=True, exist_ok=True)
            target = path / f"test_fuzz_repro_{case.seed}.py"
            target.write_text(emit_pytest(case, discrepancies))
            emitted.append(str(target))
            print(f"  reproducer written to {target}", file=sys.stderr)

    failures = _drive("", generate_case, checker.check_case, on_failure,
                      seed=seed, cases=cases, start_index=start_index,
                      time_budget=time_budget, max_failures=max_failures,
                      verbose=verbose)
    if verbose:
        counts = profiler.counts
        print(f"seed {seed}: {counts[FUZZ_CASES]} cases, "
              f"{counts[FUZZ_EXECUTIONS]} oracle executions, "
              f"{counts[FUZZ_COMPARISONS]} comparisons, "
              f"{counts[FUZZ_SQLITE_CHECKS]} sqlite cross-checks of "
              f"statements and function calls "
              f"({counts[FUZZ_DIALECT_EXPLAINED]} dialect diffs explained), "
              f"{counts[FUZZ_SQLITE_FUNCTIONS]} of {counts[FUZZ_FUNCTIONS]} "
              f"functions checked on sqlite, "
              f"{counts.get(FUZZ_ANALYZER_CHECKS, 0)} analyzer soundness "
              f"checks, "
              f"{counts[FUZZ_DML_CHECKS]} dml checks, "
              f"{counts[FUZZ_TWIN_CHECKS]} literal twins "
              f"({counts[FUZZ_DML_TWIN_CHECKS]} of modifications), "
              f"{counts[VECTOR_ROWS]} vector rows "
              f"({counts[VECTOR_TYPED_ROWS] / max(1, counts[VECTOR_ROWS]):.0%}"
              f" with a typed column, {counts[VECTOR_FUSED_ROWS]} fused, "
              f"{counts[VECTOR_FALLBACKS]} fallbacks), "
              f"{counts[VECTOR_JOIN_ROWS]} vector join rows, "
              f"{counts[RANGE_SCANS_GIVEN_UP]} range scans given up, "
              f"{counts[MEMO_HITS]} memo hits / {counts[MEMO_MISSES]} misses, "
              f"{counts[MEMO_CARRIED_HITS]} memo carried hits, "
              f"{counts[BATCHED_UDF_ROWS]} memoized calls / "
              f"{counts[BATCHED_UDF_DISTINCT]} activations, "
              f"{counts[FUZZ_DISCREPANCIES]} discrepancies, "
              f"{failures} failing cases "
              f"in {time.monotonic() - started:.1f}s")
        for target in emitted:
            print(f"  reproducer: {target}")
    return failures


def _run_axis(axis: str, columns, generate, check, profiler: Profiler,
              **loop) -> int:
    """One side axis (txn, wire, chaos): the shared loop, each failure
    printed with its script, and a summary line of *columns*
    (``(counter, label)`` pairs)."""
    started = time.monotonic()
    failures = _drive(f"{axis} ", generate, check, _print_script, **loop)
    if loop["verbose"]:
        counts = profiler.counts
        parts = [f"{counts[FUZZ_CASES]} cases"]
        parts += [f"{counts[counter]} {label}" for counter, label in columns]
        parts += [f"{counts[FUZZ_DISCREPANCIES]} discrepancies",
                  f"{failures} failing cases"]
        print(f"{axis} seed {loop['seed']}: {', '.join(parts)} "
              f"in {time.monotonic() - started:.1f}s")
    return failures


def run_txn_fuzz(seed: int = 0, cases: int = 500, *,
                 use_sqlite: bool = True, time_budget: float | None = None,
                 max_failures: int = 5, start_index: int = 0,
                 verbose: bool = True,
                 profiler: Profiler | None = None) -> int:
    """Run the multi-session transaction fuzz axis; returns failures.

    Each case is an interleaved BEGIN/COMMIT/ROLLBACK/SAVEPOINT script
    over several connections, checked against step expectations, a
    forced-autocommit serial replay of the committed statements, and a
    SQLite cross-check (see :func:`repro.fuzz.oracle.check_txn_case`).
    """
    profiler = profiler if profiler is not None else Profiler()
    return _run_axis(
        "txn", ((FUZZ_EXECUTIONS, "statements"),
                (FUZZ_COMPARISONS, "state comparisons"),
                (FUZZ_SQLITE_CHECKS, "sqlite cross-checks")),
        generate_txn_case,
        lambda case: check_txn_case(case, use_sqlite=use_sqlite,
                                    profiler=profiler),
        profiler, seed=seed, cases=cases, start_index=start_index,
        time_budget=time_budget, max_failures=max_failures, verbose=verbose)


def run_wire_fuzz(seed: int = 0, cases: int = 200, *,
                  time_budget: float | None = None, max_failures: int = 5,
                  start_index: int = 0, verbose: bool = True,
                  profiler: Profiler | None = None) -> int:
    """Run the wire-path fuzz axis; returns the number of failing cases.

    Each case from the regular query corpus runs on twin databases — one
    embedded, one behind a live :class:`repro.server.ServerThread` — and
    rows (text-rendered) and error taxonomy labels (via SQLSTATEs) must
    agree (see :func:`repro.fuzz.wire.check_wire_case`).
    """
    profiler = profiler if profiler is not None else Profiler()
    return _run_axis(
        "wire", AXIS_COLUMNS, generate_case,
        lambda case: check_wire_case(case, profiler=profiler),
        profiler, seed=seed, cases=cases, start_index=start_index,
        time_budget=time_budget, max_failures=max_failures, verbose=verbose)


def run_chaos_fuzz(seed: int = 0, cases: int = 200, *,
                   time_budget: float | None = None, max_failures: int = 5,
                   start_index: int = 0, verbose: bool = True,
                   profiler: Profiler | None = None) -> int:
    """Run the fault-injection chaos axis; returns failing cases.

    Each case from the regular corpus drives a durable twin (WAL +
    aggressive checkpointing + injected ``wal.checkpoint.*`` failures)
    and a memory twin through the same workload, then reopens the
    durable one and requires full agreement — plus a sampled wire check
    under injected send latency (see :mod:`repro.fuzz.chaos`).
    """
    profiler = profiler if profiler is not None else Profiler()
    return _run_axis(
        "chaos", AXIS_COLUMNS, generate_case,
        lambda case: check_chaos_case(case, profiler=profiler),
        profiler, seed=seed, cases=cases, start_index=start_index,
        time_budget=time_budget, max_failures=max_failures, verbose=verbose)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the SQL/PL-SQL engine: "
                    "random workloads checked across execution strategies, "
                    "the planner settings matrix, and SQLite.")
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed (default 0); same seed, same cases")
    parser.add_argument("--cases", type=int, default=200,
                        help="number of cases to generate (default 200)")
    parser.add_argument("--index", type=int, default=0,
                        help="first case index (replay one with --cases 1)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop generating new cases after this long")
    parser.add_argument("--emit-dir", default="fuzz_failures",
                        help="directory for minimized pytest reproducers "
                             "(default ./fuzz_failures)")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many failing cases")
    parser.add_argument("--no-sqlite", action="store_true",
                        help="skip the SQLite cross-check oracle")
    parser.add_argument("--no-reduce", action="store_true",
                        help="report discrepancies without delta-debugging")
    parser.add_argument("--dump", action="store_true",
                        help="print each generated case instead of checking")
    parser.add_argument("--txn", action="store_true",
                        help="fuzz the multi-session transaction axis "
                             "(interleaved BEGIN/COMMIT/ROLLBACK/SAVEPOINT "
                             "scripts against the committed-state oracle)")
    parser.add_argument("--server", action="store_true",
                        help="fuzz the wire path: run each case through a "
                             "live TCP server and compare rows and error "
                             "SQLSTATEs against the embedded engine")
    parser.add_argument("--chaos", action="store_true",
                        help="fuzz under fault injection: durable twin "
                             "with WAL checkpointing and injected "
                             "wal.checkpoint.*/server.send faults vs a "
                             "memory twin, reopened and compared")
    args = parser.parse_args(argv)
    if args.dump:
        for index in range(args.index, args.index + args.cases):
            if args.txn:
                sys.stdout.write(generate_txn_case(args.seed, index).script())
            else:
                sys.stdout.write(generate_case(args.seed, index).script())
        return 0
    loop = dict(seed=args.seed, cases=args.cases,
                time_budget=args.time_budget,
                max_failures=args.max_failures, start_index=args.index)
    if args.chaos:
        failures = run_chaos_fuzz(**loop)
    elif args.server:
        failures = run_wire_fuzz(**loop)
    elif args.txn:
        failures = run_txn_fuzz(use_sqlite=not args.no_sqlite, **loop)
    else:
        failures = run_fuzz(use_sqlite=not args.no_sqlite,
                            reduce_failures=not args.no_reduce,
                            emit_dir=args.emit_dir, **loop)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
