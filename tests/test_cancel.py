"""Query cancellation, statement timeouts, and WAL checkpointing.

The robustness surface this suite pins down:

* ``statement_timeout`` (milliseconds, 0 = off) cancels a runaway
  statement cooperatively — the Volcano hot loops and the PL/pgSQL
  interpreter poll the session's :class:`~repro.sql.cancel.CancelToken`
  and raise :class:`~repro.sql.errors.QueryCanceledError` (SQLSTATE
  57014),
* a cancel inside an explicit transaction block undoes *only* the
  canceled statement; the block's earlier work survives to COMMIT,
* ``SET LOCAL statement_timeout`` scopes the deadline to the block,
* the wire server's out-of-band CancelRequest (BackendKeyData pid +
  secret on a fresh connection, PostgreSQL-style) trips the token from
  another thread, frees the worker slot, and ignores a wrong secret
  silently,
* ``CHECKPOINT`` compacts the WAL to a snapshot the recovery path
  replays byte-for-byte equivalently, refuses to run inside a block,
  and auto-triggers via ``wal_checkpoint_interval``.

Crash-at-every-fault-point coverage for checkpointing lives in
``test_recovery.py``; latency gates live in ``benchmarks/bench_cancel.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.server import ServerError, ServerThread, connect
from repro.sql import Database, wal
from repro.sql.errors import ExecutionError, QueryCanceledError
from repro.sql.executor import vector
from repro.sql.profiler import QUERIES_CANCELED, WAL_CHECKPOINTS, WAL_REPLAYED
from repro.sql.values import representation_key

#: ~2e9 iterations of the recursive-CTE loop: minutes of work if nothing
#: cancels it, so any test that completes at all proves the cancel path.
RUNAWAY = ("WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
           "SELECT n + 1 FROM r WHERE n < 2000000000) "
           "SELECT count(*) FROM r")


def wal_lines(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


# ---------------------------------------------------------------------------
# statement_timeout
# ---------------------------------------------------------------------------

class TestStatementTimeout:
    def test_timeout_cancels_runaway_recursive_cte(self, db):
        db.execute("SET statement_timeout = 50")
        before = db.profiler.counts[QUERIES_CANCELED]
        started = time.monotonic()
        with pytest.raises(QueryCanceledError, match="statement timeout"):
            db.execute(RUNAWAY)
        # 50ms deadline, generous CI margin — minutes without the token.
        assert time.monotonic() - started < 2.0
        assert db.profiler.counts[QUERIES_CANCELED] == before + 1

    def test_zero_disables_the_timeout(self, db):
        db.execute("SET statement_timeout = 50")
        db.execute("SET statement_timeout = 0")
        assert db.query_value(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
            "SELECT n + 1 FROM r WHERE n < 20000) "
            "SELECT count(*) FROM r") == 20000

    def test_timeout_cancels_plsql_interpreter(self, db):
        db.execute("""CREATE FUNCTION spin() RETURNS int AS $$
            BEGIN
              WHILE true LOOP
              END LOOP;
              RETURN 0;
            END; $$ LANGUAGE plpgsql""")
        db.execute("SET statement_timeout = 50")
        with pytest.raises(QueryCanceledError, match="statement timeout"):
            db.query_value("SELECT spin()")

    @pytest.mark.parametrize("statement", [
        "UPDATE big SET v = v + 1 WHERE v * 2 + 1 > id + 5",
        "DELETE FROM big WHERE v * 2 + 1 > id + 5"])
    def test_timeout_reaches_update_and_delete(self, db, statement):
        """A modifying statement polls the token while it collects its
        targets (it used to run its whole table scan in the storage
        layer, which polls nothing) and, cancelled, changes no row."""
        db.execute("CREATE TABLE big(id int, v int)")
        db.catalog.get_table("big").insert_many(
            [(i, i) for i in range(300_000)])
        checksum = "SELECT count(*), sum(v) FROM big"
        before = db.execute(checksum).rows
        db.execute("SET statement_timeout = 20")
        started = time.monotonic()
        with pytest.raises(QueryCanceledError, match="statement timeout"):
            db.execute(statement)
        assert time.monotonic() - started < 0.5
        db.execute("SET statement_timeout = 0")
        assert db.execute(checksum).rows == before

    def test_timeout_survives_show_roundtrip(self, db):
        db.execute("SET statement_timeout = 75")
        assert db.execute("SHOW statement_timeout").scalar() == "75"
        db.execute("RESET statement_timeout")
        assert db.execute("SHOW statement_timeout").scalar() == "0"

    def test_set_local_scopes_timeout_to_the_block(self, db):
        db.execute("CREATE TABLE t(x int)")
        conn = db.connect()
        cur = conn.cursor()
        cur.execute("BEGIN")
        cur.execute("SET LOCAL statement_timeout = 50")
        with pytest.raises(QueryCanceledError, match="statement timeout"):
            cur.execute(RUNAWAY)
        cur.execute("COMMIT")
        # Back outside the block the deadline is gone...
        assert conn.query_value("SHOW statement_timeout") == "0"
        # ...so a slow-ish statement runs to completion again.
        assert conn.query_value(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
            "SELECT n + 1 FROM r WHERE n < 20000) "
            "SELECT count(*) FROM r") == 20000


# ---------------------------------------------------------------------------
# Cancellation inside explicit transaction blocks
# ---------------------------------------------------------------------------

class TestCancelInTransactionBlock:
    def test_canceled_statement_keeps_blocks_earlier_work(self, db):
        db.execute("CREATE TABLE t(x int)")
        conn = db.connect()
        cur = conn.cursor()
        cur.execute("BEGIN")
        cur.execute("INSERT INTO t VALUES (1)")
        cur.execute("SET LOCAL statement_timeout = 50")
        with pytest.raises(QueryCanceledError):
            cur.execute(RUNAWAY)
        # The block is not aborted: the cancel rolled back only the
        # canceled statement, and the session keeps working in-block.
        cur.execute("INSERT INTO t VALUES (2)")
        cur.execute("COMMIT")
        assert db.query_all("SELECT x FROM t ORDER BY x") == [(1,), (2,)]

    def test_canceled_dml_is_undone_statement_level(self, db):
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("""CREATE FUNCTION slow(v int) RETURNS int AS $$
            DECLARE i int := 0;
            BEGIN
              WHILE true LOOP
                i := i + 1;
              END LOOP;
              RETURN v;
            END; $$ LANGUAGE plpgsql""")
        conn = db.connect()
        cur = conn.cursor()
        cur.execute("BEGIN")
        cur.execute("UPDATE t SET x = 10 WHERE x = 1")
        cur.execute("SET LOCAL statement_timeout = 50")
        with pytest.raises(QueryCanceledError):
            # Canceled mid-UPDATE: whatever rows it touched must unwind.
            cur.execute("UPDATE t SET x = slow(x)")
        cur.execute("COMMIT")
        assert db.query_all("SELECT x FROM t ORDER BY x") == \
            [(2,), (3,), (10,)]

    def test_cross_thread_trip_cancels_promptly(self, db):
        conn = db.connect()

        def tripper():
            time.sleep(0.05)
            conn.cancel.trip()  # what the wire server does on CancelRequest

        thread = threading.Thread(target=tripper)
        thread.start()
        started = time.monotonic()
        try:
            with pytest.raises(QueryCanceledError, match="user request"):
                conn.execute(RUNAWAY)
            assert time.monotonic() - started < 2.0
        finally:
            thread.join()
        # The next statement arms the token afresh — no sticky cancel.
        assert conn.query_value("SELECT 1") == 1

    def test_trip_between_statements_is_lost_at_next_arm(self, db):
        conn = db.connect()
        conn.cancel.trip()
        # PostgreSQL-compatible: a cancel racing the statement boundary
        # may be lost; arming at statement start clears the stale trip.
        assert conn.query_value("SELECT 1") == 1


class TestCancelInBatchJoin:
    def test_cancel_lands_mid_probe(self, db, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 4)
        db.execute("CREATE TABLE a(k int)")
        db.execute("CREATE TABLE b(k int)")
        for table in "ab":
            for _ in range(20):
                db.execute(f"INSERT INTO {table} VALUES (1)")
        conn = db.connect()
        emitted = []
        real = vector.VectorHashJoin._emit

        def emit(self, batch, ppos, bpos):
            emitted.append(len(bpos))
            if len(emitted) == 3:
                conn.cancel.trip()
            return real(self, batch, ppos, bpos)

        monkeypatch.setattr(vector.VectorHashJoin, "_emit", emit)
        db.profiler.reset()
        with pytest.raises(QueryCanceledError):
            conn.execute("SELECT count(*) FROM a JOIN b ON a.k = b.k")
        # 400 joined rows were due, in pieces of 20 (one probe row each).
        assert emitted == [20, 20, 20]
        assert db.profiler.counts["vector fallbacks"] == 0

    def test_cancel_lands_mid_build(self, db, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 4)
        db.execute("CREATE TABLE a(k int)")
        db.execute("CREATE TABLE b(k int)")
        for table in "ab":
            for i in range(20):
                db.execute(f"INSERT INTO {table} VALUES ($1)", [i])
        conn = db.connect()
        keyed = []
        real = vector.hash_keys

        def hash_keys(cols, classes, probe):
            keyed.append(probe)
            if len(keyed) == 2:
                conn.cancel.trip()
            return real(cols, classes, probe)

        monkeypatch.setattr(vector, "hash_keys", hash_keys)
        db.profiler.reset()
        with pytest.raises(QueryCanceledError):
            conn.execute("SELECT count(*) FROM a JOIN b ON a.k = b.k")
        # Two of the build side's five batches were keyed, nothing probed.
        assert keyed == [False, False]
        assert db.profiler.counts["hash join builds"] == 0
        assert db.profiler.counts["vector fallbacks"] == 0


# ---------------------------------------------------------------------------
# Wire-level cancellation (CancelRequest + BackendKeyData)
# ---------------------------------------------------------------------------

class TestWireCancellation:
    def test_backend_key_data_is_sent(self):
        db = Database(seed=0)
        with ServerThread(db) as address:
            with connect(*address) as c1, connect(*address) as c2:
                assert c1.backend_pid > 0
                assert c2.backend_pid > 0
                assert c1.backend_pid != c2.backend_pid

    def test_cancel_request_kills_query_and_frees_the_slot(self):
        db = Database(seed=0)
        with ServerThread(db, workers=2) as address:
            with connect(*address) as client:
                canceler = threading.Timer(0.1, client.cancel)
                canceler.start()
                try:
                    with pytest.raises(ServerError) as info:
                        client.query(RUNAWAY)
                finally:
                    canceler.join()
                assert info.value.sqlstate == "57014"
                assert info.value.severity == "ERROR"  # not fatal
                # The worker slot is reusable by this same session...
                assert client.query_rows("SELECT 1") == [("1",)]
            # ...and by a fresh one.
            with connect(*address) as fresh:
                assert fresh.query_rows("SELECT 2") == [("2",)]

    def test_wrong_secret_is_silently_ignored(self):
        db = Database(seed=0)
        with ServerThread(db) as address:
            with connect(*address) as client:
                # Backstop timeout so the test cannot hang: if the forged
                # cancel had any effect the error would say "user request".
                client.query("SET statement_timeout = 300")
                client.backend_secret ^= 0xDEADBEEF  # forge the key
                forger = threading.Timer(0.05, client.cancel)
                forger.start()
                try:
                    with pytest.raises(ServerError) as info:
                        client.query(RUNAWAY)
                finally:
                    forger.join()
                assert info.value.sqlstate == "57014"
                assert "statement timeout" in info.value.message
                assert client.query_rows("SELECT 1") == [("1",)]

    def test_unknown_pid_is_silently_ignored(self):
        db = Database(seed=0)
        with ServerThread(db) as address:
            with connect(*address) as client:
                client.backend_pid += 12345
                client.cancel()  # no such backend: dropped, no crash
                assert client.query_rows("SELECT 1") == [("1",)]

    def test_statement_timeout_travels_as_57014(self):
        db = Database(seed=0)
        with ServerThread(db) as address:
            with connect(*address) as client:
                client.query("SET statement_timeout = 50")
                with pytest.raises(ServerError) as info:
                    client.query(RUNAWAY)
                assert info.value.sqlstate == "57014"
                assert client.transaction_status == b"I"

    def test_interpreter_budget_travels_as_57014(self):
        db = Database(seed=0)
        db.execute("""CREATE FUNCTION spin() RETURNS int AS $$
            BEGIN
              WHILE true LOOP
              END LOOP;
              RETURN 0;
            END; $$ LANGUAGE plpgsql""")
        with ServerThread(db) as address:
            with connect(*address) as client:
                client.query("SET max_interp_statements = 5000")
                with pytest.raises(ServerError) as info:
                    client.query("SELECT spin()")
                assert info.value.sqlstate == "57014"
                assert "max_interp_statements" in info.value.message

    def test_cancel_mid_block_keeps_earlier_work_over_the_wire(self):
        db = Database(seed=0)
        db.execute("CREATE TABLE t(x int)")
        with ServerThread(db) as address:
            with connect(*address) as client:
                client.query("BEGIN")
                client.query("INSERT INTO t VALUES (1)")
                canceler = threading.Timer(0.1, client.cancel)
                canceler.start()
                try:
                    with pytest.raises(ServerError) as info:
                        client.query(RUNAWAY)
                finally:
                    canceler.join()
                assert info.value.sqlstate == "57014"
                # Friendlier than PostgreSQL: the block stays usable.
                assert client.transaction_status == b"T"
                client.query("INSERT INTO t VALUES (2)")
                client.query("COMMIT")
        assert db.query_all("SELECT x FROM t ORDER BY x") == [(1,), (2,)]


# ---------------------------------------------------------------------------
# WAL checkpointing
# ---------------------------------------------------------------------------

@pytest.fixture()
def durable(tmp_path):
    path = str(tmp_path / "db.wal")
    return Database(seed=0, path=path), path


#: A table holding every value kind: ints at +-2^63, signed zero, NaN and
#: the infinities, text with quotes, a newline and non-ASCII, bool, NULL,
#: a named composite row, nested arrays - and, the engine being
#: dynamically typed, an array and a row kept in an int column.
EVERY_KIND = [
    "CREATE TYPE pair AS (lo int, hi int)",
    "CREATE TABLE kinds(id int, i int, f float, s text, b bool, r pair, "
    "a int[])",
    "CREATE INDEX kinds_id ON kinds(id)",
    "CREATE INDEX kinds_s ON kinds(s)",
    "INSERT INTO kinds VALUES (1, -9223372036854775808, CAST('-0.0' AS "
    "float), 'it''s \"quoted\"', true, CAST(ROW(1, 2) AS pair), "
    "ARRAY[1, 2])",
    "INSERT INTO kinds VALUES (2, 9223372036854775808, CAST('NaN' AS float), "
    "'two\nlines', false, CAST(ROW(NULL, -3) AS pair), "
    "ARRAY[ARRAY[1, 2], ARRAY[3, NULL]])",
    "INSERT INTO kinds VALUES (3, 9223372036854775807, CAST('Infinity' AS "
    "float), 'na\u00efve \u2603 \u65e5\u672c', NULL, NULL, "
    "ARRAY[ARRAY[ARRAY[7]]])",
    "INSERT INTO kinds VALUES (4, NULL, CAST('-Infinity' AS float), '', "
    "NULL, NULL, ARRAY[]::int[])",
    "INSERT INTO kinds VALUES (5, NULL, NULL, NULL, NULL, NULL, NULL)",
    "INSERT INTO kinds VALUES (6, ARRAY[6, 6], 0.5, 'array in i', true, "
    "NULL, NULL)",
    "INSERT INTO kinds VALUES (7, CAST(ROW(7, 8) AS pair), 1e300, "
    "'row in i', false, NULL, ARRAY[NULL])",
] + [f"INSERT INTO kinds VALUES ({n}, {n * 1000}, {n / 4}, 'r{n}', "
     f"{str(n % 2 == 0).lower()}, CAST(ROW({n}, {-n}) AS pair), "
     f"ARRAY[{n}, {n + 1}])" for n in range(8, 16)] + [
    # Dead versions and updated rows in the middle of the heap.
    "UPDATE kinds SET s = s || '+', f = -f WHERE id IN (2, 9, 12)",
    "DELETE FROM kinds WHERE id IN (5, 14)",
]

#: Visible rows of ``kinds`` after EVERY_KIND.
KIND_ROWS = 13


def heap(db) -> list:
    """``kinds``' visible versions in heap order: (rid, row key)."""
    return [(version.rid, tuple(map(representation_key, version.data)))
            for version in db.catalog.get_table("kinds").visible_versions()]


def by_id(db) -> list:
    return [tuple(map(representation_key, row))
            for row in db.query_all("SELECT * FROM kinds ORDER BY id")]


class TestCheckpoint:
    def _populate(self, db):
        db.execute("CREATE TABLE t(a int, b text)")
        db.execute("CREATE INDEX t_b ON t(b)")
        for i in range(20):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        db.execute("UPDATE t SET b = 'updated' WHERE a < 5")
        db.execute("DELETE FROM t WHERE a >= 15")

    def test_checkpoint_compacts_and_recovery_agrees(self, durable):
        db, path = durable
        self._populate(db)
        expected = db.query_all("SELECT a, b FROM t ORDER BY a")
        before = wal_lines(path)
        db.execute("CHECKPOINT")
        assert wal_lines(path) < before  # history collapsed to a snapshot
        assert db.profiler.counts[WAL_CHECKPOINTS] == 1
        reopened = Database(seed=0, path=path)
        assert reopened.query_all("SELECT a, b FROM t ORDER BY a") == expected
        # The index came through the snapshot too.
        assert reopened.query_all(
            "SELECT a FROM t WHERE b = 'updated' ORDER BY a") == \
            [(i,) for i in range(5)]

    def test_appends_after_checkpoint_survive_reopen(self, durable):
        db, path = durable
        self._populate(db)
        db.execute("CHECKPOINT")
        db.execute("INSERT INTO t VALUES (100, 'post')")
        db.execute("DELETE FROM t WHERE a = 0")
        reopened = Database(seed=0, path=path)
        assert reopened.query_value(
            "SELECT count(*) FROM t WHERE b = 'post'") == 1
        assert reopened.query_value(
            "SELECT count(*) FROM t WHERE a = 0") == 0

    def test_functions_and_types_survive_checkpoint(self, durable):
        db, path = durable
        db.execute("CREATE TYPE pair AS (lo int, hi int)")
        db.execute("""CREATE FUNCTION twice(v int) RETURNS int AS $$
            BEGIN RETURN v * 2; END; $$ LANGUAGE plpgsql""")
        db.execute("CHECKPOINT")
        reopened = Database(seed=0, path=path)
        assert reopened.query_value("SELECT twice(21)") == 42
        assert "pair" in reopened.catalog.composite_types

    def test_double_checkpoint_is_stable(self, durable):
        db, path = durable
        self._populate(db)
        db.execute("CHECKPOINT")
        lines = wal_lines(path)
        db.execute("CHECKPOINT")
        assert wal_lines(path) == lines  # idempotent on a quiet log

    def test_checkpoint_rejected_inside_transaction_block(self, durable):
        db, _ = durable
        conn = db.connect()
        cur = conn.cursor()
        cur.execute("BEGIN")
        with pytest.raises(ExecutionError,
                           match="inside a transaction block"):
            cur.execute("CHECKPOINT")
        cur.execute("ROLLBACK")
        cur.execute("CHECKPOINT")  # fine once the block is closed

    def test_checkpoint_on_non_durable_database_is_a_noop(self, db):
        conn = db.connect()
        conn.execute("CHECKPOINT")
        assert any("not durable" in n for n in conn.notices)

    def test_checkpoint_tag_over_the_wire(self, durable):
        db, _ = durable
        with ServerThread(db) as address:
            with connect(*address) as client:
                [result] = client.query("CHECKPOINT")
                assert result.command_tag == "CHECKPOINT"

    def test_auto_checkpoint_after_interval(self, durable):
        db, path = durable
        db.execute("SET wal_checkpoint_interval = 25")
        db.execute("CREATE TABLE t(x int)")
        for i in range(60):
            db.execute(f"INSERT INTO t VALUES ({i})")
        assert db.profiler.counts[WAL_CHECKPOINTS] >= 1
        # Compaction dropped the per-statement commit markers for
        # history before the snapshot (uncompacted: 2 lines per insert),
        # and a reopen still sees every committed row.
        assert wal_lines(path) < 100
        reopened = Database(seed=0, path=path)
        assert reopened.query_value("SELECT count(*) FROM t") == 60

    def test_auto_checkpoint_defers_while_block_open(self, durable):
        db, path = durable
        db.execute("SET wal_checkpoint_interval = 10")
        db.execute("CREATE TABLE t(x int)")
        conn = db.connect()
        cur = conn.cursor()
        cur.execute("BEGIN")
        for i in range(40):
            cur.execute(f"INSERT INTO t VALUES ({i})")
        checkpoints_in_block = db.profiler.counts[WAL_CHECKPOINTS]
        cur.execute("COMMIT")
        # Never compacts under an open writer (the snapshot would have
        # to decide about uncommitted versions); the commit or a later
        # statement picks it up.
        assert checkpoints_in_block == 0
        db.execute("SELECT count(*) FROM t")  # post-commit statement
        assert db.profiler.counts[WAL_CHECKPOINTS] >= 1
        reopened = Database(seed=0, path=path)
        assert reopened.query_value("SELECT count(*) FROM t") == 40

    def test_replayed_count_is_one_per_row(self, durable):
        """An image counts one replayed record per row it restores: the
        same count per-row insert records gave this history."""
        db, path = durable
        self._populate(db)
        uncompacted = Database(seed=0, path=path)
        uncompacted.wal.close()
        # 2 + 2 DDL and markers, 20 x 2 inserts, 5 + 5 + 1 for the UPDATE,
        # 5 + 1 for the DELETE.
        assert uncompacted.profiler.counts[WAL_REPLAYED] == 61
        db.execute("CHECKPOINT")
        reopened = Database(seed=0, path=path)
        # Two DDL records, one per live row, the marker.
        assert reopened.profiler.counts[WAL_REPLAYED] == 18

    def test_a_reopened_snapshot_is_no_backlog(self, durable):
        """What counts towards the next auto-checkpoint after a reopen is
        the records past the snapshot's commit marker, not the rows the
        snapshot restored."""
        db, path = durable
        db.execute("CREATE TABLE big(x int)")
        db.catalog.get_table("big").insert_many([(i,) for i in range(20000)])
        db.execute("CHECKPOINT")
        db.execute("INSERT INTO big VALUES (-1)")
        db.wal.close()
        reopened = Database(seed=0, path=path)
        assert reopened.profiler.counts[WAL_REPLAYED] == 20000 + 4
        assert reopened.wal._since_checkpoint == 2  # the INSERT, its marker
        reopened.execute("SET wal_checkpoint_interval = 2000")
        reopened.execute("INSERT INTO big VALUES (-2)")
        assert reopened.profiler.counts[WAL_CHECKPOINTS] == 0
        assert reopened.query_value("SELECT count(*) FROM big") == 20002

    @pytest.mark.parametrize("image_rows", [1, 7, KIND_ROWS - 1, KIND_ROWS,
                                            KIND_ROWS + 1])
    def test_images_round_trip_every_value_kind(self, durable, monkeypatch,
                                                image_rows):
        monkeypatch.setattr(wal, "IMAGE_ROWS", image_rows)
        db, path = durable
        twin = Database(seed=0)
        for sql in EVERY_KIND:
            db.execute(sql)
            twin.execute(sql)
        before = heap(db)
        assert len(before) == KIND_ROWS
        db.execute("CHECKPOINT")
        with open(path, encoding="utf-8") as fh:
            images = sum('"t":"img"' in line for line in fh)
        assert images == -(-KIND_ROWS // image_rows)
        db.wal.close()

        reopened = Database(seed=0, path=path)
        # Rows equal value for value, in heap order, under their rids.
        assert heap(reopened) == before
        assert reopened.query_value(
            "SELECT (r).hi FROM kinds WHERE id = 2") == -3
        # The indexes were rebuilt and answer.
        for query, expected in [
                ("SELECT s FROM kinds WHERE id = 9", [("r9+",)]),
                ("SELECT id FROM kinds WHERE s = 'two\nlines+'", [(2,)])]:
            assert "IndexScan" in reopened.explain(query)
            assert reopened.query_all(query) == expected

        # Writes after the reopen name the restored rids; a second reopen
        # agrees with a twin that never left memory.
        for sql in ["UPDATE kinds SET a = ARRAY[id], b = NOT b "
                    "WHERE id % 3 = 0",
                    "DELETE FROM kinds WHERE id IN (1, 7, 15)"]:
            reopened.execute(sql)
            twin.execute(sql)
        reopened.wal.close()
        again = Database(seed=0, path=path)
        assert by_id(again) == by_id(twin)
        assert len(heap(again)) == KIND_ROWS - 3
        again.wal.close()
