"""Prepared statements and bulk parameter binding: the session surface's
claim to the paper's cost model.

Section 1 splits statement cost into parse/plan (once) and
ExecutorStart/Run/End (per execution).  A :class:`PreparedStatement` handle
is that split made explicit at the client surface: the plan is built once
and every ``EXECUTE`` pays only instantiation + pulling.  This benchmark
pins the claim with numbers:

* **point queries**: a 10k-iteration parameterized point-query loop over an
  indexed 10k-row table — prepared handle vs. uncached text execution
  (``SET plan_cache_size = 0``: every call re-parses and re-plans), with
  the text-plan-cache path as the middle reference.  Acceptance gate:
  a profiled pass of the prepared loop enters neither the PARSE nor the
  PLAN phase and counts no plan-cache miss (what "once" means), with
  prepared >= 3x over uncached as the floor.  The ratio alone is no
  gate: its denominator is parse + plan + run, so it *falls* whenever the
  front end gets cheaper (6.8-8.7x before the table-driven lexer and
  parser, 5.0-6.8x after, the prepared loop itself unchanged).
* **bulk INSERT**: ``Cursor.executemany`` (parsed and planned once, the
  plan run once per parameter set, one transaction) vs. a loop of
  single-row INSERT statements (each parsed, planned and committed alone).

``BENCH_prepared.json`` is emitted for the cross-PR perf trajectory.
"""

from __future__ import annotations

import time

from repro.bench.harness import render_table
from repro.sql import Database
from repro.sql.profiler import (PARSE, PLAN, PLAN_CACHE_MISS,
                                PREPARED_EXECUTIONS)

ROWS = 10_000
LOOKUPS = 10_000
BULK_ROWS = 2_000

POINT = "SELECT v FROM pts WHERE id >= $1 AND id <= $1"
INSERT = "INSERT INTO load VALUES ($1, $2)"


def _build_db() -> Database:
    db = Database(profile=False)
    db.execute("CREATE TABLE pts(id int, v int)")
    db.catalog.get_table("pts").insert_many(
        [(i, (i * 7919) % ROWS) for i in range(ROWS)])
    db.execute("CREATE INDEX pts_id ON pts(id)")
    db.execute("CREATE TABLE load(k int, v int)")
    db.execute("CREATE INDEX load_k ON load(k)")
    return db


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_prepared_beats_uncached_text(write_artifact, write_json):
    db = _build_db()
    conn = db.connect()
    ps = conn.prepare(POINT, name="point")

    # Sanity: all three execution modes agree before anything is timed.
    db.execute("SET plan_cache_size = 0")
    for probe in (0, 1, ROWS // 2, ROWS - 1):
        uncached_row = db.execute(POINT, [probe]).rows
        assert ps.execute([probe]).rows == uncached_row
    db.execute("RESET plan_cache_size")
    assert db.execute(POINT, [7]).rows == ps.execute([7]).rows

    def run_prepared():
        for i in range(LOOKUPS):
            ps.execute([i % ROWS])

    def run_text():
        for i in range(LOOKUPS):
            db.execute(POINT, [i % ROWS])

    # Steady state first (index built, handle planned), then time.
    run_prepared()
    prepared_s = _time(run_prepared)
    cached_s = _time(run_text)           # text path, plan cache warm
    db.execute("SET plan_cache_size = 0")
    uncached_s = _time(run_text)         # re-parse + re-plan per call
    db.execute("RESET plan_cache_size")
    prepared_speedup = uncached_s / prepared_s
    cached_speedup = uncached_s / cached_s

    # What the handle is for: a profiled pass of the same loop never
    # parses, never plans and never misses the plan cache.
    profiler = db.profiler
    profiler.enabled = True
    profiler.reset()
    run_prepared()
    profiler.enabled = False
    front_end_s = {phase: profiler.times.get(phase) for phase in (PARSE, PLAN)}
    plan_cache_misses = profiler.counts.get(PLAN_CACHE_MISS, 0)
    assert profiler.counts[PREPARED_EXECUTIONS] == LOOKUPS

    # Bulk INSERT: executemany's one plan run per parameter set vs. a loop
    # of single-row INSERTs (each parsed, planned, and committed alone).
    cur = conn.cursor()
    sets = [(i, i * 3) for i in range(BULK_ROWS)]

    def run_executemany():
        cur.executemany(INSERT, sets)

    def run_loop():
        for params in sets:
            db.execute(INSERT, params)

    executemany_s = _time(run_executemany)
    loop_s = _time(run_loop)
    assert cur.rowcount == BULK_ROWS
    assert db.query_value("SELECT count(*) FROM load") == 2 * BULK_ROWS
    bulk_speedup = loop_s / executemany_s

    per_call = 1e6 / LOOKUPS
    rows_table = [
        ["uncached text (plan_cache_size = 0)",
         round(uncached_s * per_call, 1)],
        ["text + statement plan cache", round(cached_s * per_call, 1)],
        ["  speedup vs uncached", round(cached_speedup, 1)],
        ["PreparedStatement handle", round(prepared_s * per_call, 1)],
        ["  speedup vs uncached", round(prepared_speedup, 1)],
        [f"looped INSERT x {BULK_ROWS}",
         round(loop_s * 1e6 / BULK_ROWS, 1)],
        [f"executemany x {BULK_ROWS}",
         round(executemany_s * 1e6 / BULK_ROWS, 1)],
        ["  speedup", round(bulk_speedup, 1)],
    ]
    write_artifact(
        "bench_prepared.txt",
        render_table(["configuration", "us/op"], rows_table,
                     title=f"Prepared execution: {LOOKUPS} point queries "
                           f"over {ROWS} rows"))
    write_json("prepared", {
        "rows": ROWS,
        "lookups": LOOKUPS,
        "bulk_rows": BULK_ROWS,
        "timings_s": {
            "point_uncached_text": uncached_s,
            "point_cached_text": cached_s,
            "point_prepared": prepared_s,
            "insert_loop": loop_s,
            "insert_executemany": executemany_s,
        },
        "prepared_loop": {
            "parse_phase_entered": front_end_s[PARSE] is not None,
            "plan_phase_entered": front_end_s[PLAN] is not None,
            "plan_cache_misses": plan_cache_misses,
        },
        "speedups": {
            "prepared_vs_uncached": prepared_speedup,
            "cached_text_vs_uncached": cached_speedup,
            "executemany_vs_loop": bulk_speedup,
        },
        "ops_per_s": {
            "point_prepared": LOOKUPS / prepared_s,
            "point_uncached_text": LOOKUPS / uncached_s,
            "insert_executemany": BULK_ROWS / executemany_s,
        },
    })

    # Acceptance gates: the prepared loop pays for no parse and no plan
    # (and is at least 3x ahead of uncached text for it), and executemany
    # is clearly ahead of row-at-a-time INSERT.
    assert front_end_s == {PARSE: None, PLAN: None}, front_end_s
    assert plan_cache_misses == 0, plan_cache_misses
    assert prepared_speedup >= 3, (
        f"prepared speedup {prepared_speedup:.1f}x < 3x "
        f"({uncached_s * 1e3:.0f} ms -> {prepared_s * 1e3:.0f} ms)")
    assert bulk_speedup >= 2, (
        f"executemany speedup {bulk_speedup:.1f}x < 2x "
        f"({loop_s * 1e3:.0f} ms -> {executemany_s * 1e3:.0f} ms)")
