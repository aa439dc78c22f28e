"""Vectorized executor core: what batch-at-a-time buys over row-at-a-time.

The paper's thesis is set-oriented beats tuple-at-a-time dispatch; PR 10
applies it to plain SELECT cores over base tables (executor/vector.py).
This benchmark runs the same 100k-row workloads under ``enable_vectorize``
on and off — same engine, same plans otherwise.

**Gated: the structural facts** the speedups rest on, read from ``EXPLAIN``
and the profiler's counters on one counted execution of each workload —
the plan says ``Vector``; the scan produced batches; no batch fell back to
the row engine; and on this all-int table every row travelled in a batch
whose columns carry the table's exact-int fact (``HeapTable.columns``), so
the kernels ran their typed shape.  These do not depend on the host.

**Reported: the time ratios.**  Vector vs row on five workloads —
**full-table aggregate** (``count(*) / sum / avg`` over every row: the
purest measure of per-row closure dispatch vs column-loop accumulation),
**filtered aggregate** (predicate rejects 2/3 of the table, sum the rest:
selection vectors feeding the fold), **filter+project** and **grouped
aggregate** (10 groups), which carry per-row output or bucketing costs the
batch engine cannot amortize away, and the **grouped aggregate under ORDER
BY**, whose Sort consumes the vectorized core's ten rows (it used to send
the whole core to the row engine).  The first two used to be gated at 5x
and read 4-7x from run to run on one commit (ROADMAP item 6); they keep a
loose 3x floor.  Beside them, **typed vs untyped**: the same statement on
``big_null``, the same table with one NULL per column, where every kernel
keeps its per-element guard — what testing a column's type once is worth.

All queries verify identical results under both settings before timing.
``BENCH_vectorized.json`` is emitted for the cross-PR perf trajectory.
"""

from __future__ import annotations

import gc
import time

from repro.bench.harness import counted, render_table
from repro.sql import Database
from repro.sql.profiler import (VECTOR_BATCHES, VECTOR_FALLBACKS, VECTOR_ROWS,
                                VECTOR_TYPED_ROWS)

ROWS = 100_000
REPS = 7

WORKLOADS = [
    ("full_table_aggregate",
     "SELECT count(*), sum(v), avg(v) FROM big"),
    ("filtered_aggregate",
     "SELECT sum(v) FROM big WHERE k % 3 = 0"),
    ("filter_project",
     "SELECT k, v FROM big WHERE v % 7 = 3"),
    ("grouped_aggregate",
     "SELECT v % 10, count(*), sum(k) FROM big GROUP BY v % 10"),
    ("grouped_aggregate_ordered",
     "SELECT v % 10, count(*), sum(k) FROM big GROUP BY v % 10 ORDER BY 1"),
]

#: Loose floors under the reported vector-vs-row ratios; the gate proper is
#: the structural facts (see the module docstring).
FLOORS = {"full_table_aggregate": 3.0, "filtered_aggregate": 3.0}


def _build() -> Database:
    db = Database(profile=False)
    db.execute("CREATE TABLE big(k int, v int)")
    conn = db.connect()
    conn.execute("BEGIN")
    for i in range(ROWS):
        conn.execute("INSERT INTO big VALUES ($1, $2)",
                     [i, (i * 37) % 1000])
    conn.execute("COMMIT")
    db.execute("CREATE TABLE big_null(k int, v int)")
    db.execute("INSERT INTO big_null "
               "SELECT CASE WHEN k = 1 THEN NULL ELSE k END, "
               "CASE WHEN k = 2 THEN NULL ELSE v END FROM big")
    return db


def _best(db: Database, query: str) -> float:
    db.execute(query)  # warm: plan cache + visibility cache
    best = float("inf")
    gc.collect()
    gc.disable()  # keep collector pauses out of the timed region
    try:
        for _ in range(REPS):
            start = time.perf_counter()
            db.execute(query)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def test_vectorized_speedups(write_artifact, write_json):
    db = _build()
    timings: dict[str, dict[str, float]] = {}
    speedups: dict[str, float] = {}
    typed_gains: dict[str, float] = {}
    facts: dict[str, dict[str, int]] = {}
    rows = []
    for name, query in WORKLOADS:
        untyped_query = query.replace("FROM big", "FROM big_null")
        db.execute("SET enable_vectorize = on")
        vec_rows = db.execute(query).rows
        untyped_rows = db.execute(untyped_query).rows
        assert any("Vectorized" in line
                   for line, in db.execute("EXPLAIN " + query).rows), \
            f"{name}: expected a vectorized plan"
        counts = counted(db, query)
        facts[name] = {counter: counts.get(counter, 0)
                       for counter in (VECTOR_BATCHES, VECTOR_ROWS,
                                       VECTOR_TYPED_ROWS, VECTOR_FALLBACKS)}
        assert counts.get(VECTOR_BATCHES, 0) > 0, f"{name}: no batches"
        assert counts.get(VECTOR_FALLBACKS, 0) == 0, f"{name}: fell back"
        assert counts.get(VECTOR_TYPED_ROWS, 0) == counts[VECTOR_ROWS] \
            == ROWS, f"{name}: untyped batches on the all-int table"
        assert counted(db, untyped_query).get(VECTOR_TYPED_ROWS, 0) == 0, \
            f"{name}: big_null has a NULL in every column"
        on_s = _best(db, query)
        untyped_s = _best(db, untyped_query)
        db.execute("SET enable_vectorize = off")
        assert db.execute(query).rows == vec_rows, \
            f"{name}: row/batch engines disagree"
        assert db.execute(untyped_query).rows == untyped_rows, \
            f"{name}: row/batch engines disagree on big_null"
        off_s = _best(db, query)
        speedup = off_s / on_s
        typed_gain = untyped_s / on_s
        timings[name] = {"vectorized_s": on_s, "row_s": off_s,
                         "vectorized_untyped_s": untyped_s}
        speedups[name] = speedup
        typed_gains[name] = typed_gain
        rows.append((name, f"{on_s * 1000:.1f}", f"{off_s * 1000:.1f}",
                     f"{speedup:.2f}x",
                     f"{FLOORS[name]:.0f}x" if name in FLOORS else "",
                     f"{untyped_s * 1000:.1f}", f"{typed_gain:.2f}x"))

    write_artifact("bench_vectorized.txt", render_table(
        ("workload", "vector[ms]", "row[ms]", "speedup", "floor",
         "untyped vector[ms]", "typed gain"),
        rows,
        title=f"Vectorized vs row-at-a-time execution "
              f"({ROWS} rows, best of {REPS}); gated on: Vector plan, "
              f"batches > 0, fallbacks = 0, typed rows = {ROWS}"))
    write_json("vectorized", {
        "rows": ROWS,
        "reps": REPS,
        "timings_s": timings,
        "speedups": speedups,
        "typed_vs_untyped": typed_gains,
        "counters": facts,
        "floors": FLOORS,
    })
    for name, floor in FLOORS.items():
        assert speedups[name] >= floor, (
            f"{name}: vectorized speedup {speedups[name]:.2f}x "
            f"below the {floor}x floor")
