"""Ablation — Froid-style chains vs the full pipeline on loop-free input,
plus the intermediate recursive-UDF form the paper warns about.

Three claims from Sections 1-2 are checked:

1. On loop-free functions, our pipeline degenerates to exactly a Froid
   chain (no WITH RECURSIVE in the emitted SQL) — same query, same cost.
2. Froid cannot compile iterative functions (LoopNotSupportedError).
3. The intermediate *directly recursive SQL UDF* form is dramatically
   slower than the CTE (per-call plan instantiation) and hits the stack
   depth limit at modest iteration counts — the reason the paper pushes on
   to WITH RECURSIVE.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import render_table, time_query
from repro.compiler import froid_compile
from repro.sql.errors import ExecutionError, LoopNotSupportedError
from repro.workloads import WORKLOADS

LOOPFREE_SOURCE = """
CREATE FUNCTION score(x int, lo int, hi int) RETURNS int AS $$
DECLARE
  bounded int;
BEGIN
  IF x < lo THEN
    bounded = lo;
  ELSIF x > hi THEN
    bounded = hi;
  ELSE
    bounded = x;
  END IF;
  RETURN bounded * bounded + (SELECT count(*) FROM bench_calls AS b);
END;
$$ LANGUAGE PLPGSQL
"""


def test_ablation_froid_report(demo, write_artifact, benchmark):
    db = demo.db
    from repro.bench.harness import ensure_calls_table
    ensure_calls_table(db, 16)

    if db.catalog.get_function("score") is None:
        db.execute(LOOPFREE_SOURCE)
    froid = froid_compile(LOOPFREE_SOURCE, db)
    froid.register(db, name="score_froid")

    # 1. Loop-free: no recursion machinery in the emitted SQL.
    sql = froid.sql()
    assert "RECURSIVE" not in sql.upper()

    def froid_call():
        db.execute("SELECT count(score_froid(b.i, 0, 10)) "
                   "FROM bench_calls AS b")

    benchmark.pedantic(froid_call, rounds=3, iterations=1)

    interp = time_query(db, "SELECT count(score(b.i, 0, 10)) "
                            "FROM bench_calls AS b", runs=5)
    compiled = time_query(db, "SELECT count(score_froid(b.i, 0, 10)) "
                              "FROM bench_calls AS b", runs=5)

    # 2. Froid rejects every iterative workload function.
    rejected = []
    for name, source in WORKLOADS.items():
        with pytest.raises(LoopNotSupportedError):
            froid_compile(source, db)
        rejected.append(name)

    # 3. The recursive-UDF intermediate form: slow and depth-limited.
    fib = demo.compiled["fibonacci"]
    wrapper = fib.register_udf_form(db)
    udf_time = time_query(db, f"SELECT {wrapper}(60)", runs=3)
    cte_time = time_query(db, "SELECT fibonacci_c(60)", runs=3)
    with pytest.raises(ExecutionError, match="stack depth"):
        db.execute(f"SELECT {wrapper}(100000)")

    rows = [
        ["score (loop-free), interpreted", round(interp.mean * 1000, 2)],
        ["score (loop-free), Froid chain", round(compiled.mean * 1000, 2)],
        ["fibonacci(60), recursive SQL UDF", round(udf_time.mean * 1000, 2)],
        ["fibonacci(60), WITH RECURSIVE", round(cte_time.mean * 1000, 2)],
    ]
    table = render_table(["variant", "ms"], rows,
                         "Ablation: Froid baseline and the UDF intermediate "
                         "form")
    table += ("\nFroid rejected (loops): " + ", ".join(rejected)
              + f"\nrecursive UDF at depth 100000: stack depth limit "
                f"(max_udf_depth={db.settings.get('max_udf_depth')})")
    write_artifact("ablation_froid.txt", table)

    # The UDF form pays per-call instantiation: visibly slower than the CTE.
    assert udf_time.minimum > cte_time.minimum
