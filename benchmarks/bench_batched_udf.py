"""The trampoline machine's per-call site and its memo vs the inlined Qf.

The paper compiles a PL/SQL function f into one ``WITH RECURSIVE`` query
Qf.  The engine's scalar finalization splices Qf into the calling query as
a *correlated scalar subquery*, so ``SELECT f(x) FROM t`` re-materializes
the whole recursive trampoline once per input row.  With
``batch_compiled`` on (the default) every call site instead runs one
activation of the machine rules in place, and a site of a non-volatile
function keeps each activation's result, keyed by the argument values
(Hellerstein & Naughton's method caching, SIGMOD 1996): rows with repeated
arguments share one activation wherever the call sits, and the function's
machine template keeps the results for the statements that follow.

The workload is a loop-heavy integer function over a 10k-row table with
realistically skewed argument values (20 distinct), the shape the paper's
Figure 10/11 sweeps use, called from three positions: the select list,
an aggregate's argument (``sum(f(x))``) and WHERE.  Before the memo only
the select list shared activations (through a set-oriented stage that
this site replaced), and ``sum(f(x))`` ran 6.6x slower than it.

**Gated: the structural facts**, which do not depend on the host —
EXPLAIN names a per-call ``Trampoline`` at each of the three sites and
none under ``batch_compiled = off``; the machine and the inlined Qf return
identical results; the first execution of each site in a fresh database
makes 10,000 calls, runs 20 activations (one per distinct argument) and
takes at most 25 trampoline iterations per activation; and a repeat
execution makes the 10,000 calls, runs no activation and returns
identical rows.

**Reported: the times** — each site on the machine as a first execution
(every cached plan dropped before each run, so the memo starts empty),
the select list's repeat execution, ``sum(f(x))`` against the select-list
line (ROADMAP item 11's target was within 1.5x), and the machine against
the inlined Qf at the select-list and aggregate sites (the select-list
ratio was once gated at >= 10x).
"""

from __future__ import annotations

from repro.bench.harness import profiled, render_table, time_query
from repro.compiler import compile_plsql
from repro.sql import Database
from repro.sql.profiler import (BATCHED_UDF_DISTINCT, BATCHED_UDF_ROWS,
                                TRAMPOLINE_ITERATIONS)

ROWS = 10_000
DISTINCT = 20

#: Two running accumulators: every loop iteration is three let bindings,
#: which cost the scalar template three LATERAL rescans per call per
#: iteration and the machine three expression evaluations.
TETRA = """
CREATE FUNCTION tetra(n int) RETURNS int AS $$
DECLARE s int := 0; q int := 0; i int := 1;
BEGIN
  WHILE i <= n LOOP
    s := s + i;
    q := q + s;
    i := i + 1;
  END LOOP;
  RETURN q;
END;
$$ LANGUAGE plpgsql"""

#: The three call positions, each over all 10,000 rows.
SITES = {
    "select list": "SELECT tetra_c(x) FROM t",
    "sum(f(x))": "SELECT sum(tetra_c(x)) FROM t",
    "where": "SELECT count(*) FROM t WHERE tetra_c(x) > 100",
}


def _build_db() -> Database:
    db = Database(profile=False)
    db.execute("CREATE TABLE t(x int)")
    table = db.catalog.get_table("t")
    for i in range(ROWS):
        table.insert((i % DISTINCT + 1,))
    compile_plsql(TETRA, db).register(db, name="tetra_c")
    return db


def _timed(db: Database, machine: bool, query: str, runs: int = 3,
           cold: bool = True) -> float:
    db.settings.assign("batch_compiled", machine)
    return time_query(db, query, runs=runs, warmup=1, cold=cold).minimum


def test_memoized_call_sites(write_artifact, write_json, benchmark):
    # The gate: the counters of each site's first execution in a fresh
    # database and of a repeat; then both evaluators must agree.
    counts = {}
    for label, query in SITES.items():
        db = _build_db()
        on_machine, counts[label] = profiled(db, query)
        assert counts[label][BATCHED_UDF_ROWS] == ROWS, label
        assert counts[label][BATCHED_UDF_DISTINCT] == DISTINCT, label
        assert counts[label][TRAMPOLINE_ITERATIONS] <= 25 * DISTINCT, label
        again, repeat = profiled(db, query)
        assert again == on_machine, label
        assert repeat[BATCHED_UDF_ROWS] == ROWS, label
        assert repeat.get(BATCHED_UDF_DISTINCT, 0) == 0, label
        assert f"Trampoline tetra_c(x)  [machine, per call" \
            in db.explain(query), label
        db.execute("SET batch_compiled = off")
        assert db.query_all(query) == on_machine, label
        assert "Trampoline" not in db.explain(query), label

    machine_s = {label: _timed(db, True, query)
                 for label, query in SITES.items()}
    repeat_s = _timed(db, True, SITES["select list"], cold=False)
    inlined_s = {label: _timed(db, False, SITES[label], runs=1)
                 for label in ("select list", "sum(f(x))")}
    aggregate_ratio = machine_s["sum(f(x))"] / machine_s["select list"]

    rows = [[f"{label}: machine, memoized (default), first execution",
             round(seconds * 1000, 1)]
            for label, seconds in machine_s.items()]
    rows.append(["select list: machine, repeat execution (memo carried)",
                 round(repeat_s * 1000, 1)])
    rows += [[f"{label}: inlined Qf per row (batch_compiled=off)",
              round(seconds * 1000, 1)]
             for label, seconds in inlined_s.items()]
    rows += [
        ["sum(f(x)) / select list (machine)", round(aggregate_ratio, 2)],
        ["speedup at the select list (machine vs inlined Qf)",
         round(inlined_s["select list"] / machine_s["select list"], 1)],
        ["speedup at sum(f(x)) (machine vs inlined Qf)",
         round(inlined_s["sum(f(x))"] / machine_s["sum(f(x))"], 1)],
        ["calls / activations / trampoline iterations per site",
         f"{ROWS} / {DISTINCT} / "
         f"{counts['select list'][TRAMPOLINE_ITERATIONS]}"],
        ["calls / activations on a repeat execution", f"{ROWS} / 0"],
    ]
    write_artifact("bench_batched_udf.txt", render_table(
        ["variant", "ms (min) / count"], rows,
        title=f"Compiled UDF over a {ROWS}-row table at three call sites; "
              "gated on: per-call Trampoline in EXPLAIN at each, "
              f"{ROWS} calls, {DISTINCT} activations, <= 25 trampoline "
              "iterations per activation on the first execution, "
              f"{ROWS} calls, 0 activations and identical rows on a "
              "repeat"))

    write_json("batched_udf", {
        "rows": ROWS,
        "timings_s": {
            "select_list_machine": machine_s["select list"],
            "aggregate_arg_machine": machine_s["sum(f(x))"],
            "where_machine": machine_s["where"],
            "select_list_machine_repeat": repeat_s,
            "select_list_inlined_qf": inlined_s["select list"],
            "aggregate_arg_inlined_qf": inlined_s["sum(f(x))"],
        },
        "ratios": {"aggregate_arg_vs_select_list": aggregate_ratio},
        "speedups": {
            "select_list_vs_inlined_qf":
                inlined_s["select list"] / machine_s["select list"],
            "aggregate_arg_vs_inlined_qf":
                inlined_s["sum(f(x))"] / machine_s["sum(f(x))"],
        },
        "rows_per_s": {"select_list_machine":
                       ROWS / machine_s["select list"]},
    })

    db.execute("SET batch_compiled = on")
    benchmark.pedantic(lambda: db.query_all(SITES["select list"]), rounds=3,
                       iterations=1)
