"""The trampoline machine (batched and per call) vs the inlined Qf.

The paper compiles a PL/SQL function f into one ``WITH RECURSIVE`` query
Qf.  The engine's scalar finalization splices Qf into the calling query as
a *correlated scalar subquery*, so ``SELECT f(x) FROM t`` re-materializes
the whole recursive trampoline once per input row.  The ``BatchedUdf``
operator instead seeds one trampoline from all 10,000 rows at once — the
working set carries a caller row key ``k`` — and advances every pending
call in lock-step (``batch_compiled``, on by default).

The workload is a loop-heavy integer function over a 10k-row table with
realistically skewed argument values (20 distinct), the shape the paper's
Figure 10/11 sweeps use.  Set-orientation wins twice: the trampoline pays
its per-step machinery once per step for the whole relation instead of
once per call, and — because the whole argument relation is in hand and
batching requires non-volatile functions — rows with identical arguments
share one activation.

A call that may not batch (here an aggregate argument,
``SELECT sum(tetra_c(x)) FROM t``) has neither advantage: it runs one
activation of the same machine rules per row.  What it still saves over
the inlined Qf is the generic recursive-CTE machinery per step and the
re-planning of the spliced ``WITH RECURSIVE`` per statement.

Asserted here (the PR's acceptance criteria):

* the batched trampoline beats the per-row scalar path by >= 10x on the
  10k-row workload,
* at the non-batchable site the per-call machine beats the inlined Qf
  by >= 3x, over all 10,000 activations on both sides (no sharing: this
  is the machine without argument dedup's help),
* EXPLAIN names the ``BatchedUdf`` operator for the batched plan, the
  per-call ``Trampoline`` for the aggregate-argument plan, and neither
  for the scalar ones,
* the machine and the scalar path return identical results.
"""

from __future__ import annotations

from repro.bench.harness import render_table, time_query
from repro.compiler import compile_plsql
from repro.sql import Database
from repro.sql.profiler import (BATCHED_UDF_BATCHES, BATCHED_UDF_DISTINCT,
                                BATCHED_UDF_ROWS, TRAMPOLINE_ITERATIONS)

ROWS = 10_000

#: Two running accumulators: every loop iteration is three let bindings,
#: which cost the scalar template three LATERAL rescans per call per
#: iteration and the batched machine three expression evaluations.
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

QUERY = "SELECT tetra_c(x) FROM t"
#: A site that may not batch: the call is an aggregate's argument.
PER_CALL_QUERY = "SELECT sum(tetra_c(x)) FROM t"


def _build_db() -> Database:
    db = Database(profile=False)
    db.execute("CREATE TABLE t(x int)")
    table = db.catalog.get_table("t")
    for i in range(ROWS):
        table.insert((i % 20 + 1,))
    compile_plsql(TETRA, db).register(db, name="tetra_c")
    return db


def _timed(db: Database, batched: bool, runs: int = 3,
           query: str = QUERY) -> float:
    db.settings.assign("batch_compiled", batched)
    return time_query(db, query, runs=runs, warmup=1).minimum


def test_batched_udf_beats_scalar_path(write_artifact, write_json, benchmark):
    db = _build_db()

    # Sanity: both evaluation paths agree before we time anything.
    db.execute("SET batch_compiled = on")
    machine_rows = db.query_all(QUERY)
    explain_batched = db.explain(QUERY)
    per_call_sum = db.query_value(PER_CALL_QUERY)
    explain_per_call = db.explain(PER_CALL_QUERY)
    db.execute("SET batch_compiled = off")
    scalar_rows = db.query_all(QUERY)
    explain_scalar = db.explain(QUERY)
    assert machine_rows == scalar_rows
    assert per_call_sum == db.query_value(PER_CALL_QUERY) \
        == sum(row[0] for row in scalar_rows)
    assert "BatchedUdf" in explain_batched
    assert "Trampoline tetra_c(x)  [machine, per call" in explain_per_call
    assert "BatchedUdf" not in explain_per_call
    assert "BatchedUdf" not in explain_scalar
    assert "Trampoline" not in explain_scalar + db.explain(PER_CALL_QUERY)

    machine_s = _timed(db, batched=True)
    scalar_s = _timed(db, batched=False, runs=1)
    per_call_s = _timed(db, batched=True, query=PER_CALL_QUERY)
    inlined_s = _timed(db, batched=False, runs=1, query=PER_CALL_QUERY)
    speedup = scalar_s / machine_s
    per_call_speedup = inlined_s / per_call_s

    # One instrumented run for the new profiler counters.
    db.execute("SET batch_compiled = on")
    db.profiler.enabled = True
    db.profiler.reset()
    db.query_all(QUERY)
    counts = dict(db.profiler.counts)
    db.profiler.enabled = False
    assert counts[BATCHED_UDF_BATCHES] == 1
    assert counts[BATCHED_UDF_ROWS] == ROWS
    assert counts[BATCHED_UDF_DISTINCT] == 20
    # One lock-step trampoline: iterations equal the *longest* call, not
    # the sum over calls (20 loop iterations + the final empty check).
    assert counts[TRAMPOLINE_ITERATIONS] <= 25

    rows = [
        ["scalar subquery per row (seed path)", round(scalar_s * 1000, 1)],
        ["batched, trampoline machine (default)",
         round(machine_s * 1000, 1)],
        ["speedup (default batched vs scalar)", round(speedup, 1)],
        ["sum(f(x)): inlined Qf per row (batch_compiled=off)",
         round(inlined_s * 1000, 1)],
        ["sum(f(x)): per-call trampoline machine (default)",
         round(per_call_s * 1000, 1)],
        ["speedup (per-call machine vs inlined Qf)",
         round(per_call_speedup, 1)],
        ["trampoline iterations (batched)", counts[TRAMPOLINE_ITERATIONS]],
        ["batch size / distinct activations",
         f"{counts[BATCHED_UDF_ROWS]} / {counts[BATCHED_UDF_DISTINCT]}"],
    ]
    write_artifact("bench_batched_udf.txt", render_table(
        ["variant", "ms (min) / count"], rows,
        title=f"Compiled UDF over a {ROWS}-row table: "
              "one trampoline vs one per row"))

    write_json("batched_udf", {
        "rows": ROWS,
        "timings_s": {
            "scalar_per_row": scalar_s,
            "batched_machine": machine_s,
            "aggregate_arg_inlined_qf": inlined_s,
            "aggregate_arg_per_call_machine": per_call_s,
        },
        "speedups": {"batched": speedup,
                     "per_call_machine": per_call_speedup},
        "rows_per_s": {"batched_machine": ROWS / machine_s},
    })

    assert speedup >= 10.0, f"batched trampoline only {speedup:.1f}x faster"
    assert per_call_speedup >= 3.0, \
        f"per-call machine only {per_call_speedup:.1f}x faster than the " \
        f"inlined Qf ({per_call_s * 1000:.1f} vs {inlined_s * 1000:.1f} ms)"

    db.execute("SET batch_compiled = on")
    benchmark.pedantic(lambda: db.query_all(QUERY), rounds=3, iterations=1)
