"""MVCC transactions: what the version-chained heap costs, and what
batching commits buys.

The storage refactor replaced in-place row mutation with version chains
(xmin/xmax stamps checked against a snapshot on every scan).  Two claims
keep that refactor honest:

* **commit throughput**: ~2000 single-row INSERTs, three ways — one
  implicit transaction per statement (autocommit), one explicit
  ``BEGIN ... COMMIT`` block around the whole batch (one snapshot, one
  commit), and autocommit against a durable on-disk WAL (one
  ``fsync`` per commit).  Batching must not be slower than autocommit;
  the durable column shows the real price of the fsync-per-commit
  durability contract, including the cost of replaying the log on
  reopen.
* **version-chain scan overhead**: a warm ``SELECT count(v)`` over a
  50k-row table vs. the same query with ``HeapTable.rows``
  monkeypatched to return a plain pre-materialized list (and
  ``HeapTable.columns`` that list's pre-materialized typed columns, so
  both sides run the vector core's typed kernels) — i.e. the pre-MVCC
  storage layout with every visibility and cache-validity check deleted.
  Acceptance gate: warm MVCC scans stay within **1.3x** of the plain
  list.  (The cold number — first scan after a write, which pays one
  full visibility pass to rebuild the cache — is reported alongside,
  unasserted.)

``BENCH_txn.json`` is emitted for the cross-PR perf trajectory.
"""

from __future__ import annotations

import time

import repro.sql.storage as storage_mod
from repro.bench.harness import render_table
from repro.sql import Database

COMMITS = 2_000          # single-row INSERT commits per in-memory mode
DURABLE_COMMITS = 400    # per-commit fsync makes each one far pricier
SCAN_ROWS = 50_000
SCAN_REPS = 30

INSERT = "INSERT INTO tally VALUES ($1, $2)"
SCAN = "SELECT count(v) FROM big"


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_commit_throughput_and_scan_overhead(tmp_path, write_artifact,
                                             write_json):
    # -- commit throughput: autocommit vs one explicit block ------------
    db = Database(profile=False)
    db.execute("CREATE TABLE tally(k int, v int)")
    conn = db.connect()

    def run_autocommit():
        for i in range(COMMITS):
            db.execute(INSERT, [i, i * 3])

    def run_batched():
        conn.execute("BEGIN")
        for i in range(COMMITS):
            conn.execute(INSERT, [i, i * 3])
        conn.execute("COMMIT")

    run_autocommit()                       # steady state: plan cached
    db.execute("DELETE FROM tally")
    autocommit_s = _time(run_autocommit)
    batched_s = _time(run_batched)
    assert db.query_value("SELECT count(k) FROM tally") == 2 * COMMITS
    batched_speedup = autocommit_s / batched_s

    # -- durable autocommit: every commit fsyncs a WAL record -----------
    path = str(tmp_path / "bench_txn.wal")
    ddb = Database(path=path, profile=False)
    ddb.execute("CREATE TABLE tally(k int, v int)")

    def run_durable():
        for i in range(DURABLE_COMMITS):
            ddb.execute(INSERT, [i, i * 3])

    durable_s = _time(run_durable)
    ddb.wal.close()
    # Reopen replays the log — the durability contract, timed too.
    start = time.perf_counter()
    rdb = Database(path=path)
    replay_s = time.perf_counter() - start
    assert rdb.query_value("SELECT count(k) FROM tally") == DURABLE_COMMITS
    rdb.wal.close()

    # -- version-chain scan overhead vs a plain-list heap ---------------
    sdb = Database(profile=False)
    sdb.execute("CREATE TABLE big(k int, v int)")
    table = sdb.catalog.get_table("big")
    table.insert_many([(i, (i * 31) % 1000) for i in range(SCAN_ROWS)])
    expected = sdb.execute(SCAN).scalar()   # warm: plan + vis cache built

    def run_scan():
        for _ in range(SCAN_REPS):
            sdb.execute(SCAN)

    run_scan()
    mvcc_s = _time(run_scan)

    # Cold: every scan pays a full visibility pass to rebuild the cache
    # (the first-read-after-write path).  Informational only.
    def run_scan_cold():
        for _ in range(SCAN_REPS):
            table._vis_cache = None
            sdb.execute(SCAN)

    cold_s = _time(run_scan_cold)

    # Baseline: the pre-MVCC layout — rows as one plain list, no
    # versions, no snapshots, no visibility anywhere on the read path.
    plain_rows = list(table.rows)
    plain_columns = (plain_rows,) + table.columns(table.rows, True)[1:]
    original_rows = storage_mod.HeapTable.rows
    original_columns = storage_mod.HeapTable.columns
    try:
        storage_mod.HeapTable.rows = property(lambda self: plain_rows)
        storage_mod.HeapTable.columns = \
            lambda self, rows, build: plain_columns
        assert sdb.execute(SCAN).scalar() == expected
        run_scan()
        plain_s = _time(run_scan)
    finally:
        storage_mod.HeapTable.rows = original_rows
        storage_mod.HeapTable.columns = original_columns
    assert sdb.execute(SCAN).scalar() == expected
    overhead = mvcc_s / plain_s
    cold_overhead = cold_s / plain_s

    rows_table = [
        [f"autocommit x {COMMITS}", round(autocommit_s * 1e6 / COMMITS, 1)],
        [f"one BEGIN..COMMIT x {COMMITS}",
         round(batched_s * 1e6 / COMMITS, 1)],
        ["  speedup vs autocommit", round(batched_speedup, 2)],
        [f"durable WAL autocommit x {DURABLE_COMMITS}",
         round(durable_s * 1e6 / DURABLE_COMMITS, 1)],
        [f"  replay {DURABLE_COMMITS} commits on reopen (total ms)",
         round(replay_s * 1e3, 1)],
        [f"warm scan, {SCAN_ROWS} rows (MVCC)",
         round(mvcc_s * 1e6 / SCAN_REPS, 1)],
        [f"warm scan, {SCAN_ROWS} rows (plain list)",
         round(plain_s * 1e6 / SCAN_REPS, 1)],
        ["  MVCC overhead (x, gate <= 1.3)", round(overhead, 3)],
        ["cold scan: rebuild visibility cache",
         round(cold_s * 1e6 / SCAN_REPS, 1)],
        ["  cold overhead (x, unasserted)", round(cold_overhead, 2)],
    ]
    write_artifact(
        "bench_txn.txt",
        render_table(["configuration", "us/op"], rows_table,
                     title=f"MVCC transactions: {COMMITS} commits, "
                           f"{SCAN_ROWS}-row scans"))
    write_json("txn", {
        "commits": COMMITS,
        "durable_commits": DURABLE_COMMITS,
        "scan_rows": SCAN_ROWS,
        "scan_reps": SCAN_REPS,
        "timings_s": {
            "commit_autocommit": autocommit_s,
            "commit_batched": batched_s,
            "commit_durable": durable_s,
            "wal_replay": replay_s,
            "scan_warm_mvcc": mvcc_s,
            "scan_warm_plain": plain_s,
            "scan_cold_mvcc": cold_s,
        },
        "speedups": {
            "batched_vs_autocommit": batched_speedup,
        },
        "overheads": {
            "scan_warm_mvcc_vs_plain": overhead,
            "scan_cold_mvcc_vs_plain": cold_overhead,
        },
        "ops_per_s": {
            "commit_autocommit": COMMITS / autocommit_s,
            "commit_batched": COMMITS / batched_s,
            "commit_durable": DURABLE_COMMITS / durable_s,
        },
    })

    # Acceptance gates: batching commits must never cost meaningfully
    # more than paying per-statement transaction setup/commit (the two
    # run within a few percent of each other, so allow measurement
    # noise), and the warm read path must stay within 1.3x of a
    # visibility-free plain list.
    assert batched_s <= autocommit_s * 1.15, (
        f"batched block slower than autocommit "
        f"({autocommit_s * 1e3:.0f} ms -> {batched_s * 1e3:.0f} ms)")
    assert overhead <= 1.3, (
        f"warm version-chain scan overhead {overhead:.2f}x > 1.3x "
        f"({plain_s * 1e3:.1f} ms -> {mvcc_s * 1e3:.1f} ms)")
