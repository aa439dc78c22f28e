"""Ordered access paths: sorted-index range scans, Top-N, sort elimination
and the trampoline's per-iteration range probes, plus the equi-joins the
same indexes used to feed.

The paper's compiled UDFs become ``WITH RECURSIVE`` plans whose trampoline
re-evaluates its access paths every iteration (Fig. 10's walk scaling), so
per-probe cost multiplies by iteration count.  This benchmark measures the
ordered-access subsystem that removes the remaining O(n) scans.

**Gated: what the speedups rest on**, read from ``EXPLAIN`` and the
profiler's counters on one counted execution per statement (ROADMAP item
6: none of it depends on the host) —

* **range + Top-N**: a selective range predicate with ``ORDER BY ..
  LIMIT`` over 100k rows plans an ``IndexRangeScan`` (and a ``TopN``
  where no index serves the order),
* **index-ordered Top-N**: ``ORDER BY .. LIMIT k`` over a declared index
  plans an ``IndexRangeScan`` and no ``Sort``, and no row goes through a
  TopN heap - sort elimination makes the streaming LIMIT stop after k
  rows,
* **trampoline probes**: a recursive CTE whose every iteration runs a
  correlated range probe opens exactly one ``IndexRangeScan`` per hop,
  O(log n + k) each instead of an O(n) scan,
* **correlated join**: a 100k x 2k equi-join (both keys indexed) inside a
  scalar subquery re-opened for 20 outer rows, its small side filtered on
  the outer row, hashes the stable big side once for all 20.
* **range width sweep**: ``count(*), sum(v)`` over a constant ``ts`` range
  of 0.1% to 20% of the table plans a ``ChooseRange`` node, whose open runs
  the ``IndexRangeScan`` branch while the range holds at most ``1 /
  WIDE_RANGE_DIVISOR`` of the rows, and above that the vectorized core
  whose fused loop reads all ``ROWS`` rows (told apart by the counters of
  the branch that ran: one range scan, or one range scan given up).

**Reported: the times.**  Each ordered path against the seed's SeqScan +
full sort on the row engine (the seed configuration also turns
``enable_vectorize`` off, since a sort no longer keeps a scan off the
vectorized core; the vectorized scan + sort is reported beside it), the
100k x 2k join on the row and the batch hash join, and the correlated
join, and at each width of the sweep both the range scan (under the row
engine's aggregate) and the vectorized scan: the crossover that sets
``WIDE_RANGE_DIVISOR``.  ``BENCH_ordered_paths.json`` carries them for the
cross-PR perf trajectory.
"""

from __future__ import annotations

from repro.bench.harness import counted, render_table, time_query
from repro.sql import Database
from repro.sql.executor.scan import WIDE_RANGE_DIVISOR
from repro.sql.profiler import (HASHJOIN_BUILDS, INDEX_RANGE_SCANS,
                                RANGE_SCANS_GIVEN_UP, TOPN_INPUT_ROWS,
                                VECTOR_FUSED_ROWS)

ROWS = 100_000
OUTER_ROWS = 20

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
JOIN = "SELECT count(*) FROM events e JOIN marks m ON e.ts = m.ts"
CORRELATED_JOIN = ("SELECT c.cut, (SELECT count(*) FROM events e "
                   "JOIN marks m ON e.ts = m.ts WHERE m.ts < c.cut) "
                   "FROM cuts c ORDER BY c.cut")
#: Shares of the table the swept range holds (ts spreads over [0, 1e6)).
SWEEP = (0.001, 0.005, 0.01, 0.015, 0.03, 0.05, 0.1, 0.2)
SWEPT = "SELECT count(*), sum(v) FROM events WHERE ts >= 0 AND ts < {}"


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
    # The last cut is above every ts: its row is the whole join's count.
    db.execute("CREATE TABLE cuts(cut int)")
    db.catalog.get_table("cuts").insert_many(
        [((i + 1) * 1_000_000 // OUTER_ROWS,) for i in range(OUTER_ROWS)])
    return db


def _fast(db: Database, enabled: bool, vectorize: bool = None) -> None:
    db.settings.assign("enable_rangescan", enabled)
    db.settings.assign("enable_sort_elim", enabled)
    db.settings.assign("enable_topn", enabled)
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
    explain_join = db.explain(JOIN)
    join_count = db.query_value(JOIN)
    correlated = db.query_all(CORRELATED_JOIN)
    # TopN shows where no index serves the order.
    explain_topn = db.explain(
        "SELECT id FROM events ORDER BY v + 0 LIMIT 10")
    facts = {name: {counter: counted(db, sql).get(counter, 0)
                    for counter in (INDEX_RANGE_SCANS, TOPN_INPUT_ROWS,
                                    HASHJOIN_BUILDS)}
             for name, sql in (("ordered_limit", ORDERED_TOPN),
                               ("trampoline", TRAMPOLINE),
                               ("correlated_join", CORRELATED_JOIN))}
    _fast(db, False)
    slow_rows = db.query_all(RANGE_TOPN)
    slow_ordered = db.query_all(ORDERED_TOPN)
    trampoline_slow = db.query_all(TRAMPOLINE)
    row_join_count = db.query_value(JOIN)
    assert fast_rows == slow_rows
    assert ordered_rows == slow_ordered
    assert trampoline_fast == trampoline_slow
    assert join_count == row_join_count == correlated[-1][1]
    assert len(correlated) == OUTER_ROWS

    # The gate: plan shape and counts.
    assert "IndexRangeScan" in explain_range
    assert "TopN" in explain_topn
    assert "IndexRangeScan" in explain_ordered
    assert "Sort" not in explain_ordered
    assert "VectorHashJoin" in explain_join
    assert facts["ordered_limit"][TOPN_INPUT_ROWS] == 0, facts
    assert facts["trampoline"][INDEX_RANGE_SCANS] == HOPS, facts
    assert facts["correlated_join"][HASHJOIN_BUILDS] == 1, facts

    # Timings.  The warmup run builds / reuses the sorted indexes, so the
    # timed runs measure steady-state probes — the trampoline regime.
    _fast(db, True)
    range_fast = time_query(db, RANGE_TOPN, runs=3, warmup=1).minimum
    ordered_fast = time_query(db, ORDERED_TOPN, runs=3, warmup=1).minimum
    tramp_fast = time_query(db, TRAMPOLINE, runs=1, warmup=1).minimum
    join_batch = time_query(db, JOIN, runs=3, warmup=1).minimum
    correlated_s = time_query(db, CORRELATED_JOIN, runs=3, warmup=1).minimum
    _fast(db, False)
    range_slow = time_query(db, RANGE_TOPN, runs=3, warmup=1).minimum
    ordered_slow = time_query(db, ORDERED_TOPN, runs=3, warmup=1).minimum
    tramp_slow = time_query(db, TRAMPOLINE, runs=1, warmup=0).minimum
    join_row = time_query(db, JOIN, runs=3, warmup=1).minimum
    _fast(db, False, vectorize=True)
    range_vector = time_query(db, RANGE_TOPN, runs=3, warmup=1).minimum

    range_speedup = range_slow / range_fast
    ordered_speedup = ordered_slow / ordered_fast
    tramp_speedup = tramp_slow / tramp_fast
    join_speedup = join_row / join_batch

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
        ["equi-join 100k x 2k, row hash join", round(join_row * 1e3, 2)],
        ["equi-join 100k x 2k, batch hash join", round(join_batch * 1e3, 2)],
        ["  speedup", round(join_speedup, 1)],
        [f"same join in a subquery correlated over {OUTER_ROWS} rows, "
         f"one build", round(correlated_s * 1e3, 2)],
    ]
    sweep_rows, sweep_json = _range_width_sweep(db)
    rows += sweep_rows
    write_artifact(
        "bench_ordered_paths.txt",
        render_table(["configuration", "ms"], rows,
                     title=f"Ordered access paths over {ROWS} rows; gated on: "
                           f"IndexRangeScan and no Sort for the ordered "
                           f"LIMIT, no TopN input there, one range scan "
                           f"per trampoline hop, one hash build for the "
                           f"correlated join, IndexRangeScan up to "
                           f"1/{WIDE_RANGE_DIVISOR} of the rows and a fused "
                           f"vectorized core over all of them above"))
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
            "equi_join_hash": join_row,
            "equi_join_batch_hash": join_batch,
            "correlated_join_hash": correlated_s,
        },
        "speedups": {
            "range_topn": range_speedup,
            "ordered_limit": ordered_speedup,
            "trampoline": tramp_speedup,
            "equi_join_batch_vs_row": join_speedup,
        },
        "rows_per_s": {
            "range_topn_seqscan_sort": ROWS / range_slow,
            "range_topn_index": ROWS / range_fast,
        },
        "counters": facts,
        "range_width_sweep": sweep_json,
    })


def _range_width_sweep(db: Database):
    """Gate the branch each swept range width runs and time both paths:
    the range scan (``enable_vectorize = off``, the plan it replaces) and
    the vectorized scan (``enable_rangescan = off``).  Returns table rows
    and the JSON entries."""
    _fast(db, True)
    rows, entries = [], []
    for share in SWEEP:
        sql = SWEPT.format(int(share * 1_000_000))
        in_range = db.query_all(sql)[0][0]
        plan = db.explain(sql)
        assert "ChooseRange" in plan, plan
        counts = counted(db, sql)
        wide = counts.get(RANGE_SCANS_GIVEN_UP, 0) == 1
        if in_range * WIDE_RANGE_DIVISOR > ROWS:
            assert wide and not counts.get(INDEX_RANGE_SCANS), counts
            assert counts.get(VECTOR_FUSED_ROWS, 0) == ROWS, counts
        else:
            assert not wide and counts.get(INDEX_RANGE_SCANS) == 1, counts
        db.settings.assign("enable_vectorize", False)
        ranged = time_query(db, sql, runs=3, warmup=1).minimum
        db.settings.assign("enable_vectorize", True)
        db.settings.assign("enable_rangescan", False)
        scanned = time_query(db, sql, runs=3, warmup=1).minimum
        db.settings.assign("enable_rangescan", True)
        chosen = "vector" if wide else "range"
        rows.append([f"count(*), sum(v) over {share:.1%} of ts: range scan "
                     f"/ vectorized scan (plans {chosen})",
                     f"{ranged * 1e3:.2f} / {scanned * 1e3:.2f}"])
        entries.append({"share": share, "rows": in_range, "plan": chosen,
                        "range_scan_s": ranged, "vector_scan_s": scanned})
    return rows, entries
