"""Ordered access paths: sorted-index range scans, Top-N, sort elimination
and the trampoline's per-iteration range probes.

The paper's compiled UDFs become ``WITH RECURSIVE`` plans whose trampoline
re-evaluates its access paths every iteration (Fig. 10's walk scaling), so
per-probe cost multiplies by iteration count.  This benchmark measures the
ordered-access subsystem that removes the remaining O(n) scans:

* **range + Top-N workload** (the PR's acceptance gate, asserted >= 10x):
  a selective range predicate with ``ORDER BY .. LIMIT`` over 100k rows —
  bisect-backed ``IndexRangeScan`` + bounded-heap ``TopN`` against the
  seed's SeqScan + full sort (row engine: the seed configuration also
  turns ``enable_vectorize`` off, since a sort no longer keeps a scan off
  the vectorized core; that scan + sort and the batch hash join are
  reported beside the seed's),
* **index-ordered Top-N**: ``ORDER BY .. LIMIT k`` over a declared index —
  sort elimination makes the streaming LIMIT stop after k rows,
* **trampoline probes**: a recursive CTE whose every iteration runs a
  correlated range probe — O(log n + k) per iteration instead of O(n).

EXPLAIN must name ``IndexRangeScan``, ``TopN`` and ``MergeJoin``, and the
machine-readable ``BENCH_ordered_paths.json`` is emitted for the cross-PR
perf trajectory.
"""

from __future__ import annotations

from repro.bench.harness import render_table, time_query
from repro.sql import Database

ROWS = 100_000

RANGE_TOPN = ("SELECT id, v FROM events WHERE ts >= 500000 AND ts < 508000 "
              "ORDER BY v DESC LIMIT 10")
ORDERED_TOPN = "SELECT id FROM events ORDER BY v LIMIT 10"
HOPS = 25
TRAMPOLINE = f"""
WITH RECURSIVE hop(ts, n) AS (
  SELECT 0, 0
  UNION ALL
  SELECT (SELECT min(e.ts) FROM events e
          WHERE e.ts > hop.ts + 30000 AND e.ts < hop.ts + 60000),
         hop.n + 1
  FROM hop WHERE hop.n < {HOPS} AND hop.ts IS NOT NULL
) SELECT count(*), max(n) FROM hop"""
MERGE_JOIN = ("SELECT count(*) FROM events e JOIN marks m ON e.ts = m.ts")


def _build_db() -> Database:
    db = Database(profile=False)
    db.execute("CREATE TABLE events(id int, ts int, v int)")
    events = db.catalog.get_table("events")
    for i in range(ROWS):
        # Pseudo-random but deterministic: ts a permutation-ish spread over
        # [0, 1e6), v a shuffled value domain.
        events.insert((i, (i * 7919) % 1_000_000, (i * 104729) % ROWS))
    db.execute("CREATE TABLE marks(ts int)")
    marks = db.catalog.get_table("marks")
    for i in range(2_000):
        marks.insert((((i * 7919) % 1_000_000),))
    return db


def _fast(db: Database, enabled: bool, vectorize: bool = None) -> None:
    db.settings.assign("enable_rangescan", enabled)
    db.settings.assign("enable_sort_elim", enabled)
    db.settings.assign("enable_topn", enabled)
    db.settings.assign("enable_mergejoin", enabled)
    db.settings.assign("enable_vectorize",
                       enabled if vectorize is None else vectorize)


def test_ordered_paths_beat_scan_and_sort(write_artifact, write_json):
    db = _build_db()

    # Sanity: both configurations agree before anything is timed.
    _fast(db, True)
    fast_rows = db.query_all(RANGE_TOPN)
    explain_range = db.explain(RANGE_TOPN)
    trampoline_fast = db.query_all(TRAMPOLINE)
    db.execute("CREATE INDEX events_v ON events(v)")
    ordered_rows = db.query_all(ORDERED_TOPN)
    explain_ordered = db.explain(ORDERED_TOPN)
    db.execute("CREATE INDEX events_ts ON events(ts)")
    db.execute("CREATE INDEX marks_ts ON marks(ts)")
    explain_merge = db.explain(MERGE_JOIN)
    merge_count = db.query_value(MERGE_JOIN)
    # TopN shows where no index serves the order.
    explain_topn = db.explain(
        "SELECT id FROM events ORDER BY v + 0 LIMIT 10")
    _fast(db, False)
    slow_rows = db.query_all(RANGE_TOPN)
    slow_ordered = db.query_all(ORDERED_TOPN)
    trampoline_slow = db.query_all(TRAMPOLINE)
    slow_merge = db.query_value(MERGE_JOIN)
    assert fast_rows == slow_rows
    assert ordered_rows == slow_ordered
    assert trampoline_fast == trampoline_slow
    assert merge_count == slow_merge
    assert "IndexRangeScan" in explain_range
    assert "TopN" in explain_topn
    assert "MergeJoin" in explain_merge
    assert "IndexRangeScan" in explain_ordered
    assert "Sort" not in explain_ordered

    # Timings.  The warmup run builds / reuses the sorted indexes, so the
    # timed runs measure steady-state probes — the trampoline regime.
    _fast(db, True)
    range_fast = time_query(db, RANGE_TOPN, runs=3, warmup=1).minimum
    ordered_fast = time_query(db, ORDERED_TOPN, runs=3, warmup=1).minimum
    tramp_fast = time_query(db, TRAMPOLINE, runs=1, warmup=1).minimum
    merge_fast = time_query(db, MERGE_JOIN, runs=3, warmup=1).minimum
    _fast(db, False)
    range_slow = time_query(db, RANGE_TOPN, runs=3, warmup=1).minimum
    ordered_slow = time_query(db, ORDERED_TOPN, runs=3, warmup=1).minimum
    tramp_slow = time_query(db, TRAMPOLINE, runs=1, warmup=0).minimum
    merge_slow = time_query(db, MERGE_JOIN, runs=3, warmup=1).minimum
    _fast(db, False, vectorize=True)
    range_vector = time_query(db, RANGE_TOPN, runs=3, warmup=1).minimum
    merge_vector = time_query(db, MERGE_JOIN, runs=3, warmup=1).minimum

    range_speedup = range_slow / range_fast
    ordered_speedup = ordered_slow / ordered_fast
    tramp_speedup = tramp_slow / tramp_fast
    merge_speedup = merge_slow / merge_fast

    rows = [
        ["range + Top-N, SeqScan + Sort (seed)", round(range_slow * 1e3, 2)],
        ["range + Top-N, vectorized SeqScan + Sort",
         round(range_vector * 1e3, 2)],
        ["range + Top-N, IndexRangeScan + TopN", round(range_fast * 1e3, 2)],
        ["  speedup", round(range_speedup, 1)],
        ["ORDER BY .. LIMIT, full sort", round(ordered_slow * 1e3, 2)],
        ["ORDER BY .. LIMIT, index-ordered", round(ordered_fast * 1e3, 2)],
        ["  speedup", round(ordered_speedup, 1)],
        [f"trampoline {HOPS} range probes, O(n) each",
         round(tramp_slow * 1e3, 2)],
        ["trampoline probes via index, O(log n + k)",
         round(tramp_fast * 1e3, 2)],
        ["  speedup", round(tramp_speedup, 1)],
        ["equi-join 100k x 2k, hash", round(merge_slow * 1e3, 2)],
        ["equi-join 100k x 2k, batch hash (vectorized)",
         round(merge_vector * 1e3, 2)],
        ["equi-join 100k x 2k, merge", round(merge_fast * 1e3, 2)],
        ["  speedup", round(merge_speedup, 1)],
    ]
    write_artifact(
        "bench_ordered_paths.txt",
        render_table(["configuration", "ms"], rows,
                     title=f"Ordered access paths over {ROWS} rows"))
    write_json("ordered_paths", {
        "rows": ROWS,
        "timings_s": {
            "range_topn_seqscan_sort": range_slow,
            "range_topn_vectorized_seqscan_sort": range_vector,
            "range_topn_index": range_fast,
            "ordered_limit_sort": ordered_slow,
            "ordered_limit_index": ordered_fast,
            "trampoline_seqscan": tramp_slow,
            "trampoline_index": tramp_fast,
            "merge_join_hash": merge_slow,
            "merge_join_batch_hash": merge_vector,
            "merge_join_merge": merge_fast,
        },
        "speedups": {
            "range_topn": range_speedup,
            "ordered_limit": ordered_speedup,
            "trampoline": tramp_speedup,
            "merge_join": merge_speedup,
        },
        "rows_per_s": {
            "range_topn_seqscan_sort": ROWS / range_slow,
            "range_topn_index": ROWS / range_fast,
        },
    })

    # Acceptance gates: >= 10x on the 100k range + Top-N workload, and the
    # trampoline's per-iteration probes clearly off the O(n) cliff.
    assert range_speedup >= 10, (
        f"range + Top-N speedup {range_speedup:.1f}x < 10x "
        f"({range_slow * 1e3:.1f} ms -> {range_fast * 1e3:.1f} ms)")
    assert ordered_speedup >= 10, (
        f"index-ordered Top-N speedup {ordered_speedup:.1f}x < 10x")
    assert tramp_speedup >= 5, (
        f"trampoline probe speedup {tramp_speedup:.1f}x < 5x")
