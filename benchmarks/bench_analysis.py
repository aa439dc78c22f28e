"""Volatility inference widening batched-UDF execution, plus analyzer cost.

Before the static analyzer, the planner's batching eligibility test
(``planner._batchable``) had to treat any user-defined call in argument
position as potentially volatile: ``SELECT f_c(g(x)) FROM t`` could not
share one trampoline even when ``g`` was a one-line pure helper, because
nothing could *prove* it pure.  Volatility inference
(repro.analysis.volatility) closes that gap: ``g``'s body is classified
IMMUTABLE / no-raise / no-loop, ``column_bindings`` accepts the argument
expression, and the loop-heavy outer function runs as one set-oriented
trampoline with argument dedup (20 distinct arguments over 10k rows).

The A/B here isolates exactly that knowledge.  Both variants run the
same query with batching enabled; the baseline pins ``g`` to VOLATILE
(the planner's only safe assumption pre-analyzer), the contender lets
inference run.  The only difference between the two plans is whether
the analyzer's verdict widened batching.

The pessimistic side is not the inlined ``WITH RECURSIVE`` per row: a
site that may not batch runs one activation of the same machine rules per
row (350-450 ms here, against 120-140 ms batched and deduplicated), which is
why the ratio was a loose 2x and why both absolute times are printed
(``benchmarks/README.md`` has the history of the gate).

**Gated: the structural facts**, which do not depend on the host —
EXPLAIN shows ``BatchedUdf`` with ``volatility=immutable`` for the widened
plan and a per-call ``Trampoline`` for the pessimistic one; both plans
return identical results; and one profiled execution of each runs one
trampoline for the whole statement when widened (one batch of all rows,
20 activations, at most 25 lock-step iterations) and none when
pessimistic.

**Reported** — the widened-vs-pessimistic time ratio (once gated at
>= 2x) and the analyzer's cost: a full ``CHECK FUNCTION ALL`` sweep over
the paper workloads, per function (once gated at < 500 ms).
"""

from __future__ import annotations

import time

from repro.analysis import analyze_function
from repro.bench.harness import counted, render_table, time_query
from repro.compiler import compile_plsql
from repro.sql import Database
from repro.sql.profiler import (BATCHED_UDF_BATCHES, BATCHED_UDF_DISTINCT,
                                BATCHED_UDF_ROWS, TRAMPOLINE_ITERATIONS)

ROWS = 10_000

#: The loop-heavy outer function (compiled; carries a batched Qf).
OUTER = """
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

#: The inner helper: interpreted PL/pgSQL, no declared volatility — only
#: the analyzer can prove it pure.
INNER = """
CREATE FUNCTION shim(n int) RETURNS int AS $$
BEGIN
  RETURN n + 1;
END;
$$ LANGUAGE plpgsql"""

QUERY = "SELECT tetra_c(shim(x)) FROM t"


def _build_db() -> Database:
    db = Database(profile=False)
    db.execute("SET check_function_bodies = off")
    db.execute("CREATE TABLE t(x int)")
    table = db.catalog.get_table("t")
    for i in range(ROWS):
        table.insert((i % 20 + 1,))
    db.execute(INNER)
    compile_plsql(OUTER, db).register(db, name="tetra_c")
    return db


def _set_inner_volatility(db: Database, declared) -> None:
    """Pin or unpin the helper's volatility class (pre/post-analyzer)."""
    fdef = db.catalog.get_function("shim")
    fdef.declared_volatility = declared
    fdef.reset_analysis()
    db.clear_plan_cache()


def _timed(db: Database, runs: int = 3) -> float:
    db.clear_plan_cache()
    return time_query(db, QUERY, runs=runs, warmup=1).minimum


def test_inferred_volatility_widens_batching(write_artifact, write_json,
                                             benchmark, demo):
    db = _build_db()

    # Pessimistic baseline: helper assumed volatile (pre-analyzer rule).
    _set_inner_volatility(db, "volatile")
    explain_pessimistic = db.explain(QUERY)
    pessimistic_rows = db.query_all(QUERY)
    assert "BatchedUdf" not in explain_pessimistic
    assert "Trampoline tetra_c(<expr>)  [machine, per call" \
        in explain_pessimistic

    # Widened: inference proves the helper pure; the call site batches.
    _set_inner_volatility(db, None)
    explain_widened = db.explain(QUERY)
    widened_rows = db.query_all(QUERY)
    assert "BatchedUdf" in explain_widened
    assert "volatility=immutable" in explain_widened
    assert widened_rows == pessimistic_rows

    # The gate: one trampoline per statement when widened, none (one
    # activation per row) when pessimistic.
    widened = counted(db, QUERY)
    assert widened.get(BATCHED_UDF_BATCHES) == 1
    assert widened.get(BATCHED_UDF_ROWS) == ROWS
    assert widened.get(BATCHED_UDF_DISTINCT) == 20
    assert widened.get(TRAMPOLINE_ITERATIONS, 0) <= 25
    _set_inner_volatility(db, "volatile")
    assert counted(db, QUERY).get(BATCHED_UDF_BATCHES, 0) == 0

    pessimistic_s = _timed(db, runs=1)
    _set_inner_volatility(db, None)
    widened_s = _timed(db)
    speedup = pessimistic_s / widened_s

    # Analyzer cost: a full diagnostic sweep over the paper workloads.
    functions = [fdef for fdef in demo.db.catalog.functions.values()
                 if fdef.kind != "builtin"]
    for fdef in functions:
        fdef.reset_analysis()
    start = time.perf_counter()
    diagnostics = 0
    for fdef in functions:
        diagnostics += len(analyze_function(demo.db, fdef))
    sweep_s = time.perf_counter() - start
    per_function_s = sweep_s / len(functions)

    rows = [
        ["per-call machine (helper assumed volatile)",
         round(pessimistic_s * 1000, 1)],
        ["batched via inferred purity", round(widened_s * 1000, 1)],
        ["speedup (widened vs pessimistic)", round(speedup, 1)],
        ["functions analyzed / diagnostics",
         f"{len(functions)} / {diagnostics}"],
        ["analyzer ms per function", round(per_function_s * 1000, 2)],
    ]
    write_artifact("bench_analysis.txt", render_table(
        ["variant", "ms (min) / count"], rows,
        title=f"f(g(x)) over a {ROWS}-row table: volatility inference "
              "unlocks the batched trampoline; gated on: BatchedUdf "
              "volatility=immutable / per-call Trampoline in EXPLAIN, one "
              "trampoline per statement when widened"))

    write_json("analysis", {
        "rows": ROWS,
        "timings_s": {
            "pessimistic_per_call": pessimistic_s,
            "widened_batched": widened_s,
            "analyzer_sweep": sweep_s,
        },
        "speedups": {"widened_batching": speedup},
        "analyzer": {
            "functions": len(functions),
            "diagnostics": diagnostics,
            "s_per_function": per_function_s,
        },
        "rows_per_s": {"widened_batched": ROWS / widened_s},
    })

    _set_inner_volatility(db, None)
    benchmark.pedantic(lambda: db.query_all(QUERY), rounds=3, iterations=1)
