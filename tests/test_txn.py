"""MVCC transactions: snapshot isolation, savepoints, conflicts, WAL.

Acceptance demos for the transaction PR:

* two connections — uncommitted writes invisible, visible after COMMIT,
  gone after ROLLBACK,
* one snapshot per explicit block (repeatable reads: a commit landing
  mid-block stays invisible until the block ends),
* SAVEPOINT / RELEASE / ROLLBACK TO partial rollback,
* first-writer-wins write-write conflicts raise SerializationError,
* SET LOCAL is genuinely transaction-scoped,
* WAL durable mode: committed work survives reopen, rolled-back work
  does not, and indexes are rebuilt by replay.
"""

from __future__ import annotations

import pytest

from repro.sql import Database
from repro.sql.errors import (ExecutionError, NameResolutionError,
                              SerializationError)
from repro.sql.profiler import (SNAPSHOT_SCANS, TXN_BEGUN, TXN_COMMITTED,
                                TXN_ROLLED_BACK, WAL_RECORDS, WAL_REPLAYED)


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t(a int, b int)")
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    return database


def count(conn):
    return conn.execute("SELECT count(a) FROM t").scalar()


# ---------------------------------------------------------------------------
# Visibility across connections
# ---------------------------------------------------------------------------


class TestVisibility:
    def test_uncommitted_insert_is_invisible_to_other_sessions(self, db):
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (4, 40)")
        assert count(c1) == 4          # own writes visible to itself
        assert count(c2) == 3          # not to anyone else
        assert count(db.connect()) == 3
        c1.execute("COMMIT")
        assert count(c2) == 4

    def test_rolled_back_insert_never_becomes_visible(self, db):
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (4, 40)")
        c1.execute("ROLLBACK")
        assert count(c1) == 3
        assert count(c2) == 3

    def test_uncommitted_delete_and_update_invisible(self, db):
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c1.execute("DELETE FROM t WHERE a = 1")
        c1.execute("UPDATE t SET b = 99 WHERE a = 2")
        assert count(c1) == 2
        assert c1.execute("SELECT b FROM t WHERE a = 2").scalar() == 99
        assert count(c2) == 3
        assert c2.execute("SELECT b FROM t WHERE a = 2").scalar() == 20
        c1.execute("COMMIT")
        assert count(c2) == 2
        assert c2.execute("SELECT b FROM t WHERE a = 2").scalar() == 99

    def test_snapshot_isolation_repeatable_reads(self, db):
        """The block's snapshot is taken at its first statement and held:
        a commit landing mid-block stays invisible until the block ends."""
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        assert count(c1) == 3          # snapshot captured here
        c2.execute("INSERT INTO t VALUES (4, 40)")   # autocommit
        assert count(c2) == 4
        assert count(c1) == 3          # still the old view
        c1.execute("COMMIT")
        assert count(c1) == 4

    def test_own_writes_visible_to_later_statements(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (4, 40)")
        c1.execute("UPDATE t SET b = b + 1 WHERE a = 4")
        assert c1.execute("SELECT b FROM t WHERE a = 4").scalar() == 41
        c1.execute("ROLLBACK")
        assert db.execute("SELECT count(b) FROM t WHERE a = 4").scalar() == 0

    def test_update_preserves_scan_order(self, db):
        """The replacement version sits where the original did (the seed
        engine mutated in place; scans must not observe reordering)."""
        db.execute("UPDATE t SET b = b + 1 WHERE a = 2")
        assert db.execute("SELECT a FROM t").rows == [(1,), (2,), (3,)]

    def test_index_scans_respect_snapshots(self, db):
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (2, 999)")
        # Hash-index path (correlated equality) and range path both must
        # filter the uncommitted version out for c2 and in for c1.
        probe = "SELECT count(b) FROM t WHERE a >= 2 AND a <= 2"
        assert c1.execute(probe).scalar() == 2
        assert c2.execute(probe).scalar() == 1
        c1.execute("COMMIT")
        assert c2.execute(probe).scalar() == 2


# ---------------------------------------------------------------------------
# Block handling, statement atomicity
# ---------------------------------------------------------------------------


class TestBlocks:
    def test_begin_inside_block_warns(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("BEGIN")
        assert any("already a transaction" in n for n in c1.notices)
        c1.execute("ROLLBACK")

    def test_commit_outside_block_warns(self, db):
        c1 = db.connect()
        c1.execute("COMMIT")
        assert any("no transaction" in n for n in c1.notices)

    def test_connection_api_commit_rollback(self, db):
        c1 = db.connect()
        assert not c1.in_transaction
        c1.begin()
        assert c1.in_transaction
        c1.execute("INSERT INTO t VALUES (4, 40)")
        c1.commit()
        assert not c1.in_transaction
        assert count(db.connect()) == 4
        c1.begin()
        c1.execute("DELETE FROM t")
        c1.rollback()
        assert count(db.connect()) == 4

    def test_commit_rollback_are_noops_outside_block(self, db):
        c1 = db.connect()
        c1.commit()
        c1.rollback()
        assert c1.notices == []        # PEP-249 shape, not SQL COMMIT

    def test_close_rolls_back_open_transaction(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("DELETE FROM t")
        c1.close()
        assert count(db.connect()) == 3

    def test_failed_statement_rolls_back_only_itself(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (4, 40)")
        with pytest.raises(ExecutionError):
            c1.execute("INSERT INTO t SELECT a, 1/0 FROM t")
        assert count(c1) == 4          # the good insert survived
        c1.execute("COMMIT")
        assert count(db.connect()) == 4

    def test_autocommit_statement_error_rolls_back_everything(self, db):
        with pytest.raises(ExecutionError):
            db.execute("UPDATE t SET b = 1/0 WHERE a >= 0")
        assert db.execute("SELECT sum(b) FROM t").scalar() == 60

    def test_profiler_counters(self, db):
        db.profiler.reset()
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (4, 40)")
        c1.execute("COMMIT")
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (5, 50)")
        c1.execute("ROLLBACK")
        counts = db.profiler.counts
        assert counts[TXN_BEGUN] == 2
        assert counts[TXN_COMMITTED] == 1
        assert counts[TXN_ROLLED_BACK] == 1

    def test_snapshot_scan_counter_moves(self, db):
        db.profiler.reset()
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (4, 40)")
        assert count(c1) == 4
        c1.execute("COMMIT")
        assert db.profiler.counts[SNAPSHOT_SCANS] >= 1


# ---------------------------------------------------------------------------
# Savepoints
# ---------------------------------------------------------------------------


class TestSavepoints:
    def test_partial_rollback(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (4, 40)")
        c1.execute("SAVEPOINT sp1")
        c1.execute("INSERT INTO t VALUES (5, 50)")
        c1.execute("DELETE FROM t WHERE a = 1")
        assert count(c1) == 4
        c1.execute("ROLLBACK TO sp1")
        assert count(c1) == 4 - 0      # insert of 5 and delete of 1 undone
        assert c1.execute(
            "SELECT count(b) FROM t WHERE a = 5").scalar() == 0
        assert c1.execute(
            "SELECT count(b) FROM t WHERE a = 1").scalar() == 1
        c1.execute("COMMIT")
        c2 = db.connect()
        assert count(c2) == 4
        assert c2.execute("SELECT count(b) FROM t WHERE a = 5").scalar() == 0

    def test_rollback_to_keeps_the_savepoint(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("SAVEPOINT sp1")
        c1.execute("INSERT INTO t VALUES (5, 50)")
        c1.execute("ROLLBACK TO SAVEPOINT sp1")
        c1.execute("INSERT INTO t VALUES (6, 60)")
        c1.execute("ROLLBACK TO sp1")  # still defined (PostgreSQL rule)
        assert count(c1) == 3
        c1.execute("COMMIT")

    def test_release_forgets_the_savepoint(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("SAVEPOINT sp1")
        c1.execute("RELEASE SAVEPOINT sp1")
        with pytest.raises(ExecutionError, match="does not exist"):
            c1.execute("ROLLBACK TO sp1")
        c1.execute("ROLLBACK")

    def test_savepoint_outside_block_is_an_error(self, db):
        c1 = db.connect()
        with pytest.raises(ExecutionError, match="transaction blocks"):
            c1.execute("SAVEPOINT sp1")
        with pytest.raises(ExecutionError, match="transaction blocks"):
            c1.execute("ROLLBACK TO sp1")

    def test_nested_savepoints_unwind_in_order(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("SAVEPOINT a")
        c1.execute("INSERT INTO t VALUES (4, 40)")
        c1.execute("SAVEPOINT b")
        c1.execute("INSERT INTO t VALUES (5, 50)")
        c1.execute("ROLLBACK TO a")    # destroys b, undoes both inserts
        with pytest.raises(ExecutionError, match="does not exist"):
            c1.execute("ROLLBACK TO b")
        assert count(c1) == 3
        c1.execute("COMMIT")


# ---------------------------------------------------------------------------
# Write-write conflicts (first-writer-wins)
# ---------------------------------------------------------------------------


class TestConflicts:
    def test_concurrent_update_conflict(self, db):
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c2.execute("BEGIN")
        c1.execute("UPDATE t SET b = 111 WHERE a = 1")
        with pytest.raises(SerializationError):
            c2.execute("UPDATE t SET b = 222 WHERE a = 1")
        c1.execute("COMMIT")
        c2.execute("ROLLBACK")
        assert db.execute("SELECT b FROM t WHERE a = 1").scalar() == 111

    def test_update_after_concurrent_commit_conflicts(self, db):
        """The row's deleter committed after our snapshot: still a
        serialization failure (the version we see is no longer current)."""
        c1, c2 = db.connect(), db.connect()
        c2.execute("BEGIN")
        assert count(c2) == 3          # snapshot captured
        c1.execute("UPDATE t SET b = 111 WHERE a = 1")   # autocommit wins
        with pytest.raises(SerializationError):
            c2.execute("DELETE FROM t WHERE a = 1")
        c2.execute("ROLLBACK")

    def test_disjoint_rows_do_not_conflict(self, db):
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c2.execute("BEGIN")
        c1.execute("UPDATE t SET b = 111 WHERE a = 1")
        c2.execute("UPDATE t SET b = 222 WHERE a = 2")
        c1.execute("COMMIT")
        c2.execute("COMMIT")
        rows = db.execute("SELECT b FROM t ORDER BY a").rows
        assert rows == [(111,), (222,), (30,)]

    def test_loser_can_retry_after_rollback(self, db):
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c1.execute("UPDATE t SET b = 111 WHERE a = 1")
        c2.execute("BEGIN")
        with pytest.raises(SerializationError):
            c2.execute("UPDATE t SET b = 222 WHERE a = 1")
        c1.execute("COMMIT")
        c2.execute("ROLLBACK")
        c2.execute("UPDATE t SET b = 222 WHERE a = 1")   # fresh snapshot
        assert db.execute("SELECT b FROM t WHERE a = 1").scalar() == 222


# ---------------------------------------------------------------------------
# SET LOCAL transaction scoping
# ---------------------------------------------------------------------------


class TestSetLocal:
    def test_set_local_reverts_at_commit(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("SET LOCAL enable_rangescan = off")
        assert c1.execute("SHOW enable_rangescan").scalar() == "off"
        c1.execute("COMMIT")
        assert c1.execute("SHOW enable_rangescan").scalar() == "on"

    def test_set_local_reverts_at_rollback(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("SET LOCAL enable_rangescan = off")
        c1.execute("ROLLBACK")
        assert c1.execute("SHOW enable_rangescan").scalar() == "on"

    def test_plain_set_survives_the_block(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("SET enable_rangescan = off")
        c1.execute("COMMIT")
        assert c1.execute("SHOW enable_rangescan").scalar() == "off"

    def test_set_local_outside_block_still_warns(self, db):
        c1 = db.connect()
        c1.execute("SET LOCAL enable_rangescan = off")
        assert any("SET LOCAL has no effect" in n for n in c1.notices)
        assert c1.execute("SHOW enable_rangescan").scalar() == "on"

    def test_root_session_set_local_in_block(self, db):
        db.execute("BEGIN")
        db.execute("SET LOCAL enable_rangescan = off")
        assert db.execute("SHOW enable_rangescan").scalar() == "off"
        db.execute("ROLLBACK")
        assert db.execute("SHOW enable_rangescan").scalar() == "on"


# ---------------------------------------------------------------------------
# Transactional DDL
# ---------------------------------------------------------------------------


class TestTransactionalDdl:
    def test_create_table_rolls_back(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("CREATE TABLE u(x int)")
        c1.execute("INSERT INTO u VALUES (1)")
        c1.execute("ROLLBACK")
        assert not db.catalog.has_table("u")

    def test_drop_table_rolls_back_with_rows_and_indexes(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("DROP TABLE t")
        c1.execute("ROLLBACK")
        assert count(db.connect()) == 3
        assert "t_b" in db.catalog.indexes
        assert "IndexRangeScan" in db.explain(
            "SELECT b FROM t WHERE b > 15 ORDER BY b")

    def test_create_index_rolls_back(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("CREATE INDEX t_b ON t(b)")
        c1.execute("ROLLBACK")
        assert "t_b" not in db.catalog.indexes

    def test_drop_index_and_function_roll_back(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("CREATE FUNCTION f(n int) RETURNS int LANGUAGE SQL "
                   "AS 'SELECT n + 1'")
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("DROP INDEX t_b")
        c1.execute("DROP FUNCTION f")
        c1.execute("CREATE OR REPLACE FUNCTION g(n int) RETURNS int "
                   "LANGUAGE SQL AS 'SELECT n'")
        c1.execute("ROLLBACK")
        assert "t_b" in db.catalog.indexes
        assert db.execute("SELECT f(1)").scalar() == 2
        assert db.catalog.get_function("g") is None

    def test_replaced_function_rolls_back_to_the_prior(self, db):
        db.execute("CREATE FUNCTION f(n int) RETURNS int LANGUAGE SQL "
                   "AS 'SELECT n + 1'")
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("CREATE OR REPLACE FUNCTION f(n int) RETURNS int "
                   "LANGUAGE SQL AS 'SELECT n + 100'")
        assert c1.execute("SELECT f(1)").scalar() == 101
        c1.execute("ROLLBACK")
        assert db.execute("SELECT f(1)").scalar() == 2

    def test_rollback_to_savepoint_undoes_ddl(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("SAVEPOINT s")
        c1.execute("CREATE TABLE u(x int)")
        c1.execute("SELECT x FROM u")
        c1.execute("ROLLBACK TO SAVEPOINT s")
        with pytest.raises(NameResolutionError, match="unknown table 'u'"):
            c1.execute("SELECT x FROM u")
        c1.execute("ROLLBACK")
        assert not db.catalog.has_table("u")

    def test_drop_missing_function_if_exists(self, db):
        assert db.execute("DROP FUNCTION IF EXISTS nope").rows == []

    def test_outside_a_block(self, db):
        db.execute("ROLLBACK")
        assert db.notices[-1] == "WARNING: there is no transaction in progress"
        with pytest.raises(ExecutionError, match="RELEASE SAVEPOINT"):
            db.execute("RELEASE SAVEPOINT s")

    def test_committed_ddl_sticks(self, db):
        c1 = db.connect()
        c1.execute("BEGIN")
        c1.execute("CREATE TABLE u(x int)")
        c1.execute("INSERT INTO u VALUES (1), (2)")
        c1.execute("COMMIT")
        assert db.execute("SELECT count(x) FROM u").scalar() == 2


# ---------------------------------------------------------------------------
# WAL durability (in-process reopen; the crash suite forks subprocesses)
# ---------------------------------------------------------------------------


class TestWalDurability:
    def test_committed_work_survives_reopen(self, tmp_path, db_path=None):
        path = str(tmp_path / "t.wal")
        db1 = Database(path=path)
        db1.execute("CREATE TABLE t(a int, b int)")
        db1.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        db1.execute("UPDATE t SET b = 99 WHERE a = 2")
        db1.execute("DELETE FROM t WHERE a = 1")
        assert db1.profiler.counts[WAL_RECORDS] > 0
        db1.wal.close()
        db2 = Database(path=path)
        assert db2.profiler.counts[WAL_REPLAYED] > 0
        assert db2.execute("SELECT a, b FROM t").rows == [(2, 99)]

    def test_rolled_back_transaction_not_replayed(self, tmp_path):
        path = str(tmp_path / "t.wal")
        db1 = Database(path=path)
        db1.execute("CREATE TABLE t(a int)")
        c1 = db1.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (1)")
        c1.execute("ROLLBACK")
        db1.execute("INSERT INTO t VALUES (2)")
        db1.wal.close()
        db2 = Database(path=path)
        assert db2.execute("SELECT a FROM t").rows == [(2,)]

    def test_replay_rebuilds_declared_indexes(self, tmp_path):
        path = str(tmp_path / "t.wal")
        db1 = Database(path=path)
        db1.execute("CREATE TABLE t(a int, b int)")
        db1.execute("CREATE INDEX t_b ON t(b)")
        db1.execute("INSERT INTO t VALUES (1, 30), (2, 10), (3, 20)")
        db1.wal.close()
        db2 = Database(path=path)
        assert "t_b" in db2.catalog.indexes
        explain = db2.explain("SELECT b FROM t WHERE b > 5 ORDER BY b")
        assert "IndexRangeScan" in explain
        assert db2.execute(
            "SELECT b FROM t WHERE b > 5 ORDER BY b").rows == \
            [(10,), (20,), (30,)]

    def test_batched_transaction_is_one_fsync_group(self, tmp_path):
        path = str(tmp_path / "t.wal")
        db1 = Database(path=path)
        db1.execute("CREATE TABLE t(a int)")
        c1 = db1.connect()
        c1.execute("BEGIN")
        for i in range(10):
            c1.execute("INSERT INTO t VALUES ($1)", (i,))
        c1.execute("COMMIT")
        db1.wal.close()
        db2 = Database(path=path)
        assert db2.execute("SELECT count(a) FROM t").scalar() == 10

    def test_ddl_replays(self, tmp_path):
        path = str(tmp_path / "t.wal")
        db1 = Database(path=path)
        db1.execute("CREATE TABLE t(a int)")
        db1.execute("CREATE TABLE gone(x int)")
        db1.execute("DROP TABLE gone")
        db1.execute("CREATE TYPE pair AS (x int, y int)")
        db1.execute(
            "CREATE FUNCTION double(n int) RETURNS int LANGUAGE SQL "
            "AS 'SELECT n * 2'")
        db1.wal.close()
        db2 = Database(path=path)
        assert db2.catalog.has_table("t")
        assert not db2.catalog.has_table("gone")
        assert db2.catalog.get_type("pair") is not None
        assert db2.execute("SELECT double(21)").scalar() == 42

    def test_dropped_index_and_function_stay_dropped(self, tmp_path):
        path = str(tmp_path / "t.wal")
        db1 = Database(path=path)
        db1.execute("CREATE TABLE t(a int)")
        db1.execute("CREATE INDEX t_a ON t(a)")
        db1.execute("DROP INDEX t_a")
        db1.execute("CREATE FUNCTION f(n int) RETURNS int LANGUAGE SQL "
                    "AS 'SELECT n'")
        db1.execute("DROP FUNCTION f")
        db1.wal.close()
        db2 = Database(path=path)
        assert "t_a" not in db2.catalog.indexes
        assert db2.catalog.get_function("f") is None

    def test_rows_and_arrays_survive_reopen(self, tmp_path):
        path = str(tmp_path / "t.wal")
        db1 = Database(path=path)
        db1.execute("CREATE TYPE pair AS (x int, y text)")
        db1.execute("CREATE TABLE t(p pair, a int[])")
        db1.execute("INSERT INTO t VALUES (ROW(1, 'a')::pair, ARRAY[1, 2]), "
                    "(ROW(2, NULL)::pair, ARRAY[3])")
        rows = db1.query_all("SELECT p, a FROM t")
        db1.wal.close()
        db2 = Database(path=path)
        assert db2.query_all("SELECT p, a FROM t") == rows
        assert db2.query_value("SELECT (p).y FROM t WHERE (p).x = 1") == "a"
