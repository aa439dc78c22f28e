"""The commit fsync runs with the execution lock released.

A durable commit made inside a session activation appends its WAL record
under the lock, then fsyncs it with the lock released; until the fsync is
done the commit stays in progress to every snapshot (see
``repro.sql.txn``).  These tests hold the flush open with a
``wal.sync:delay`` fault and check the contract around it:

* a read-only statement of another session runs during the fsync and sees
  the pre-commit row,
* a writer (or a statement calling a user function) settles the pending
  commit first: it waits for the fsync and builds on the committed row,
  never meeting a SerializationError,
* the committing session reads its own write, and its caller (``execute``
  or the wire's CommandComplete) returns only after the fsync,
* no auto-checkpoint runs while a commit is pending.

Then the failure side: an fsync that fails breaks the log (SQLSTATE
58030) — the commit is rolled back in memory instead of staying in
progress forever, writes are refused until reopen, reads keep working,
and replay decides what reached the disk.
"""

from __future__ import annotations

import contextlib
import errno
import os
import threading
import time

import pytest

from repro.faults import FAULTS
from repro.server import ServerError, ServerThread, connect
from repro.server.protocol import sqlstate_for
from repro.sql import Database
from repro.sql.errors import LogFlushError
from repro.sql.profiler import (COMMITS_SYNCED_UNLOCKED,
                                PENDING_COMMITS_SETTLED, WAL_CHECKPOINTS)

#: How long the delayed fsync holds a commit pending.
DELAY = 0.4


@pytest.fixture
def durable(tmp_path):
    db = Database(path=str(tmp_path / "flush.wal"))
    db.execute("CREATE TABLE t(id int, x int)")
    db.execute("CREATE INDEX t_id ON t(id)")
    db.execute("INSERT INTO t VALUES (1, 1), (2, 2)")
    yield db
    FAULTS.disarm()
    db.wal.close()


@pytest.fixture
def fsync_times(monkeypatch):
    """Call to start recording when each ``os.fsync`` returns; gives the
    list the times go into."""
    def start():
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            synced.append(time.monotonic())

        monkeypatch.setattr(os, "fsync", fsync)
        return synced
    return start


def value(db, key=1):
    return db.execute("SELECT x FROM t WHERE id = $1", (key,)).scalar()


def commit_held_open(db, sql):
    """Run *sql* on a new session in a thread whose commit fsync is
    delayed by DELAY; returns the thread once the commit is pending."""
    FAULTS.arm("wal.sync", "delay", at=1, delay_s=DELAY)
    conn = db.connect()
    errors = []

    def run():
        try:
            conn.execute(sql)
        except Exception as error:  # noqa: BLE001 - reported by join
            errors.append(error)

    thread = threading.Thread(target=run)
    thread.errors = errors
    thread.start()
    deadline = time.monotonic() + 10
    while db.txnman.pending is None:
        assert time.monotonic() < deadline, "the commit never went pending"
        time.sleep(0.001)
    return thread


def finish(thread):
    thread.join(10)
    assert not thread.is_alive()
    assert thread.errors == []


#: The read every door of the matrix below runs, one way or another.
READ = "SELECT x FROM t WHERE id = $1"


def _prepared(db, stack):
    handle = db.connect().prepare(READ)
    handle.execute([1])
    return lambda: handle.execute([1]).scalar()


def _warm_text(db, stack):
    conn = db.connect()
    for _ in range(2):  # admitted to the text cache on second sight
        conn.execute(READ, (1,))
    return lambda: conn.execute(READ, (1,)).scalar()


def _text_execute(db, stack):
    conn = db.connect()
    conn.execute(f"PREPARE rd AS {READ}")
    conn.execute("EXECUTE rd(1)")
    return lambda: conn.execute("EXECUTE rd(1)").scalar()


def _wire_execute(db, stack):
    client = stack.enter_context(
        connect(*stack.enter_context(ServerThread(db, workers=2))))
    client.query(f"PREPARE rd AS {READ}")
    client.query("EXECUTE rd(1)")
    # Two statements in one payload: the EXECUTE fast path declines.
    return lambda: int(client.query("EXECUTE rd(1); EXECUTE rd(1)")[-1]
                       .scalar())


def _wire_text(db, stack):
    client = stack.enter_context(
        connect(*stack.enter_context(ServerThread(db, workers=2))))
    sql = "SELECT x FROM t WHERE id = 1"
    for _ in range(2):  # admitted to the text cache on second sight
        client.query(sql)
    return lambda: int(client.query(sql)[0].scalar())


def _script(db, stack):
    conn = db.connect()
    return lambda: conn.execute_script(
        "SELECT x FROM t WHERE id = 1")[0].scalar()


def _executemany(db, stack):
    cursor = db.connect().cursor()

    def read():
        cursor.executemany(READ, [(1,)])
    return read


def _cold_text(db, stack):
    conn = db.connect()
    return lambda: conn.execute(READ + " AND x = x", (1,)).scalar()


def _udf_prepared(db, stack):
    db.execute("CREATE FUNCTION same(n int) RETURNS int "
               "LANGUAGE SQL AS 'SELECT n'")
    handle = db.connect().prepare("SELECT same(x) FROM t WHERE id = $1")
    handle.execute([1])
    return lambda: handle.execute([1]).scalar()


class TestBesideAPendingCommit:
    def test_prepared_read_runs_during_the_fsync(self, durable):
        reader = durable.connect().prepare(
            "SELECT x FROM t WHERE id = $1")
        assert reader.execute([1]).scalar() == 1
        thread = commit_held_open(durable,
                                  "UPDATE t SET x = 2 WHERE id = 1")
        start = time.monotonic()
        assert reader.execute([1]).scalar() == 1  # the pre-commit row
        assert time.monotonic() - start < DELAY / 2
        assert thread.is_alive() and durable.txnman.pending is not None
        finish(thread)
        assert reader.execute([1]).scalar() == 2
        assert durable.profiler.counts[COMMITS_SYNCED_UNLOCKED] == 1
        assert durable.profiler.counts[PENDING_COMMITS_SETTLED] == 0

    @pytest.mark.parametrize("door, beside", [
        (_prepared, True), (_warm_text, True), (_text_execute, True),
        (_wire_execute, True), (_wire_text, True), (_script, False),
        (_executemany, False), (_cold_text, False), (_udf_prepared, False),
    ], ids=lambda case: case.__name__[1:] if callable(case)
        else "beside" if case else "waits")
    def test_door_matrix(self, durable, door, beside):
        """A read whose record holds a current read-only plan runs during
        the fsync and sees the pre-commit row, whichever door it takes;
        one the engine still has to plan (or that calls a user function)
        settles the commit first and sees the committed row."""
        with contextlib.ExitStack() as stack:
            read = door(durable, stack)
            thread = commit_held_open(durable,
                                      "UPDATE t SET x = 2 WHERE id = 1")
            start = time.monotonic()
            seen = read()
            took = time.monotonic() - start
            finish(thread)
        if door is not _executemany:  # which hands back no rows
            assert seen == (1 if beside else 2)
        if beside:
            assert took < DELAY / 2
            assert durable.profiler.counts[PENDING_COMMITS_SETTLED] == 0
        else:
            assert took > DELAY / 2
            assert durable.profiler.counts[PENDING_COMMITS_SETTLED] == 1

    def test_writer_settles_and_builds_on_the_committed_row(self, durable):
        writer = durable.connect()
        thread = commit_held_open(durable,
                                  "UPDATE t SET x = 2 WHERE id = 1")
        start = time.monotonic()
        writer.execute("UPDATE t SET x = x + 10 WHERE id = 1")
        assert time.monotonic() - start > DELAY / 2  # waited for the fsync
        finish(thread)
        assert value(durable) == 12
        assert durable.profiler.counts[PENDING_COMMITS_SETTLED] == 1
        report = durable.profiler.report()
        assert PENDING_COMMITS_SETTLED in report
        assert COMMITS_SYNCED_UNLOCKED in report

    def test_select_calling_a_user_function_waits(self, durable):
        durable.execute("CREATE FUNCTION twice(n int) RETURNS int "
                        "LANGUAGE SQL AS 'SELECT n * 2'")
        reader = durable.connect().prepare(
            "SELECT twice(x) FROM t WHERE id = $1")
        assert not reader.plan().read_only
        thread = commit_held_open(durable,
                                  "UPDATE t SET x = 5 WHERE id = 1")
        start = time.monotonic()
        assert reader.execute([1]).scalar() == 10  # the committed row
        assert time.monotonic() - start > DELAY / 2
        finish(thread)
        assert durable.profiler.counts[PENDING_COMMITS_SETTLED] == 1

    def test_the_committing_session_reads_its_own_write(self, durable):
        conn = durable.connect()
        reader = conn.prepare("SELECT x FROM t WHERE id = $1")
        assert reader.plan().read_only
        with conn._activated():
            conn.execute("UPDATE t SET x = 7 WHERE id = 1")
            # Still inside the activation: the commit is pending, and the
            # session's own read-only statement settles it.
            assert durable.txnman.pending is not None
            assert reader.execute([1]).scalar() == 7
            assert durable.txnman.pending is None
        assert durable.profiler.counts[PENDING_COMMITS_SETTLED] == 0

    def test_no_auto_checkpoint_while_a_commit_is_pending(self, durable):
        durable.execute("SET wal_checkpoint_interval = 1")
        durable.execute("CHECKPOINT")
        before = durable.profiler.counts[WAL_CHECKPOINTS]
        reader = durable.connect().prepare(
            "SELECT x FROM t WHERE id = $1")
        assert reader.plan().read_only
        thread = commit_held_open(durable,
                                  "UPDATE t SET x = 3 WHERE id = 1")
        # A statement finishing beside the pending commit is where an
        # auto-checkpoint would run; it must defer.
        assert reader.execute([2]).scalar() == 2
        assert durable.txnman.pending is not None
        assert durable.profiler.counts[WAL_CHECKPOINTS] == before
        finish(thread)
        # The deferred checkpoint ran when the commit was finalized.
        assert durable.profiler.counts[WAL_CHECKPOINTS] == before + 1
        assert durable.txnman.pending is None

    def test_execute_returns_after_the_fsync(self, durable, fsync_times):
        synced = fsync_times()
        FAULTS.arm("wal.sync", "delay", at=1, delay_s=DELAY)
        conn = durable.connect()
        conn.execute("UPDATE t SET x = 4 WHERE id = 1")
        returned = time.monotonic()
        assert len(synced) == 1 and synced[0] <= returned
        assert durable.profiler.counts[COMMITS_SYNCED_UNLOCKED] == 1

    def test_command_complete_follows_the_fsync(self, durable, fsync_times):
        with ServerThread(durable, workers=2) as address:
            with connect(*address) as client:
                synced = fsync_times()
                FAULTS.arm("wal.sync", "delay", at=1, delay_s=DELAY)
                [result] = client.query("UPDATE t SET x = 6 WHERE id = 1")
                received = time.monotonic()
        assert result.command_tag == "UPDATE 1"
        assert len(synced) == 1 and synced[0] <= received
        assert value(durable) == 6


def test_stress_writers_and_readers_beside_pending_commits(tmp_path):
    """Three autocommit writers and two prepared readers on one durable
    database, with a short switch interval: no writer meets a
    SerializationError, no increment is lost (in memory or after replay),
    and each reader's sums only grow - a snapshot taken beside a pending
    commit sees a prefix of the commit order."""
    import sys

    path = str(tmp_path / "stress.wal")
    db = Database(path=path)
    db.execute("CREATE TABLE acct(id int, bal int)")
    db.execute("CREATE INDEX acct_id ON acct(id)")
    db.execute("INSERT INTO acct VALUES (0, 0), (1, 0), (2, 0), (3, 0)")
    writes, writers = 40, 3
    done = threading.Event()
    errors, sums = [], []

    def write(w):
        conn = db.connect()
        update = conn.prepare("UPDATE acct SET bal = bal + 1 WHERE id = $1")
        try:
            for i in range(writes):
                update.execute([(w + i) % 4])
        except Exception as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    def read():
        total = db.connect().prepare("SELECT sum(bal) FROM acct")
        seen = []
        while not done.is_set():
            seen.append(total.execute().scalar())
        sums.append(seen)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read) for _ in range(2)]
        writing = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        for thread in readers + writing:
            thread.start()
        for thread in writing:
            thread.join(60)
        done.set()
        for thread in readers:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + writing)
    assert errors == []
    assert len(sums) == 2
    for seen in sums:
        assert seen == sorted(seen)
    expected = writes * writers
    assert db.query_value("SELECT sum(bal) FROM acct") == expected
    assert db.txnman.pending is None and not db.txnman.active_xids
    db.wal.close()
    reopened = Database(path=path)
    assert reopened.query_value("SELECT sum(bal) FROM acct") == expected
    reopened.wal.close()


class TestFailedFsync:
    """PostgreSQL's rule: an fsync failure is fatal for the log."""

    @staticmethod
    def _break_fsync(monkeypatch):
        def fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", fsync)

    def _check_broken(self, db, path):
        mgr = db.txnman
        # Nothing stays in progress: vacuum, auto-checkpoint and the
        # visible-rows cache are not held off.
        assert mgr.pending is None and not mgr.active_xids
        assert mgr.open_count == 0
        # Reads keep working and see the last acknowledged state.
        assert value(db) == 1
        # Every write meets the one classified error, never a
        # "row updated by concurrent transaction".
        for sql in ("UPDATE t SET x = 3 WHERE id = 1",
                    "INSERT INTO t VALUES (9, 9)",
                    "CREATE TABLE u(a int)",
                    "CHECKPOINT"):
            with pytest.raises(LogFlushError):
                db.connect().execute(sql)
        assert not db.catalog.has_table("u")
        assert mgr.pending is None and not mgr.active_xids
        db.wal.close()
        # Replay decides: the commit's marker reached the file.
        reopened = Database(path=path)
        assert value(reopened) == 2
        reopened.wal.close()

    def test_failed_fsync_outside_a_session(self, durable, monkeypatch):
        path = durable.wal.path
        self._break_fsync(monkeypatch)
        with pytest.raises(LogFlushError) as info:
            durable.execute("UPDATE t SET x = 2 WHERE id = 1")
        assert sqlstate_for(info.value) == "58030"
        assert isinstance(info.value.__cause__, OSError)
        monkeypatch.undo()
        self._check_broken(durable, path)

    def test_failed_fsync_of_a_pending_commit(self, durable, monkeypatch):
        path = durable.wal.path
        conn = durable.connect()
        self._break_fsync(monkeypatch)
        with pytest.raises(LogFlushError):
            conn.execute("UPDATE t SET x = 2 WHERE id = 1")
        monkeypatch.undo()
        self._check_broken(durable, path)

    def test_failure_met_by_a_settling_statement(self, durable,
                                                 monkeypatch):
        """The pending commit's fsync fails while another session's writer
        waits to settle it: both get the error, and the commit is rolled
        back in memory."""
        self._break_fsync(monkeypatch)
        thread = commit_held_open(durable,
                                  "UPDATE t SET x = 2 WHERE id = 1")
        with pytest.raises(LogFlushError):
            durable.connect().execute("UPDATE t SET x = 3 WHERE id = 2")
        thread.join(10)
        assert [type(e) for e in thread.errors] == [LogFlushError]
        assert durable.profiler.counts[PENDING_COMMITS_SETTLED] == 1
        assert durable.txnman.pending is None
        assert not durable.txnman.active_xids
        assert value(durable) == 1 and value(durable, 2) == 2

    def test_injected_sync_error_breaks_the_log(self, durable):
        FAULTS.arm("wal.sync", "error-once")
        with pytest.raises(LogFlushError):
            durable.connect().execute("UPDATE t SET x = 2 WHERE id = 1")
        assert value(durable) == 1
        with pytest.raises(LogFlushError):
            durable.execute("DELETE FROM t")

    def test_wire_client_gets_58030(self, durable, monkeypatch):
        with ServerThread(durable, workers=2) as address:
            with connect(*address) as client:
                self._break_fsync(monkeypatch)
                with pytest.raises(ServerError) as info:
                    client.query("UPDATE t SET x = 2 WHERE id = 1")
                assert info.value.sqlstate == "58030"
                monkeypatch.undo()
                with pytest.raises(ServerError) as info:
                    client.query("DELETE FROM t WHERE id = 2")
                assert info.value.sqlstate == "58030"
                assert client.query_rows(
                    "SELECT x FROM t WHERE id = 1") == [("1",)]
