"""Volatility inference at a compiled call site, plus analyzer cost.

Before the call memo, the planner decided per call site whether a
compiled call could move into a set-oriented stage, and a user-defined
call in argument position blocked that unless the analyzer proved it
pure: ``SELECT f_c(g(x)) FROM t`` ran one activation per row when ``g``
was pinned VOLATILE and one shared trampoline when inference showed it
IMMUTABLE.  Every site now evaluates its arguments in place, on every
row, exactly where the row engine evaluates the call, so the argument's
volatility class decides nothing: what a site's memo keys on are the
argument *values*, and whether it keeps one at all depends on the callee
(``f``), not on its arguments.

The A/B here therefore checks that the knowledge no longer matters.  Both
variants run the same query; the baseline pins ``g`` to VOLATILE (the
planner's only safe assumption pre-analyzer), the contender lets inference
run.

**Gated: the structural facts**, which do not depend on the host —
EXPLAIN shows the per-call ``Trampoline`` with ``volatility=immutable``
(``f``'s class) in both variants, both return identical rows, the first
execution of each in a fresh database makes 10,000 calls and runs 20
activations (one per distinct argument value), and a repeat execution
runs none and returns identical rows (the memo ``f``'s machine template
carried over).

**Reported** — both times as first executions (every cached plan dropped
before each run) and their ratio (once gated at >= 2x, when it measured
the widened batching), and the analyzer's cost: a full ``CHECK FUNCTION
ALL`` sweep over the paper workloads, per function (once gated at
< 500 ms).
"""

from __future__ import annotations

import time

from repro.analysis import analyze_function
from repro.bench.harness import profiled, render_table, time_query
from repro.compiler import compile_plsql
from repro.sql import Database
from repro.sql.profiler import BATCHED_UDF_DISTINCT, BATCHED_UDF_ROWS

ROWS = 10_000

#: The loop-heavy outer function (compiled; runs on the machine).
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
    return time_query(db, QUERY, runs=runs, warmup=1, cold=True).minimum


def test_argument_volatility_decides_nothing(write_artifact, write_json,
                                             benchmark, demo):
    explains, results, counts = {}, {}, {}
    # Pessimistic: helper assumed volatile (pre-analyzer rule); inferred:
    # the analyzer proves it pure.  Each first runs in a fresh database.
    for variant, declared in (("pessimistic", "volatile"),
                              ("inferred", None)):
        db = _build_db()
        _set_inner_volatility(db, declared)
        explains[variant] = db.explain(QUERY)
        results[variant], counts[variant] = profiled(db, QUERY)
        again, repeat = profiled(db, QUERY)
        assert again == results[variant], variant
        assert repeat.get(BATCHED_UDF_ROWS) == ROWS, variant
        assert repeat.get(BATCHED_UDF_DISTINCT, 0) == 0, variant

    # The gate: the same site, the same rows, the same activations.
    for variant, plan in explains.items():
        assert "Trampoline tetra_c(<expr>)  [machine, per call; " \
            "volatility=immutable]" in plan, variant
        assert counts[variant].get(BATCHED_UDF_ROWS) == ROWS, variant
        assert counts[variant].get(BATCHED_UDF_DISTINCT) == 20, variant
    assert results["pessimistic"] == results["inferred"]

    _set_inner_volatility(db, "volatile")
    pessimistic_s = _timed(db)
    _set_inner_volatility(db, None)
    inferred_s = _timed(db)
    ratio = pessimistic_s / inferred_s

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
        ["helper assumed volatile", round(pessimistic_s * 1000, 1)],
        ["helper inferred immutable", round(inferred_s * 1000, 1)],
        ["ratio (pessimistic / inferred)", round(ratio, 2)],
        ["functions analyzed / diagnostics",
         f"{len(functions)} / {diagnostics}"],
        ["analyzer ms per function", round(per_function_s * 1000, 2)],
    ]
    write_artifact("bench_analysis.txt", render_table(
        ["variant", "ms (min) / count"], rows,
        title=f"f(g(x)) over a {ROWS}-row table: g's volatility decides "
              "nothing; gated on: per-call Trampoline volatility=immutable "
              f"in EXPLAIN, identical rows, {ROWS} calls and 20 "
              "activations on the first execution and 0 on a repeat in "
              "both variants"))

    write_json("analysis", {
        "rows": ROWS,
        "timings_s": {
            "pessimistic": pessimistic_s,
            "inferred": inferred_s,
            "analyzer_sweep": sweep_s,
        },
        "ratios": {"pessimistic_vs_inferred": ratio},
        "analyzer": {
            "functions": len(functions),
            "diagnostics": diagnostics,
            "s_per_function": per_function_s,
        },
        "rows_per_s": {"inferred": ROWS / inferred_s},
    })

    _set_inner_volatility(db, None)
    benchmark.pedantic(lambda: db.query_all(QUERY), rounds=3, iterations=1)
