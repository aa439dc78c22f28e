"""Concurrent wire-session stress suite.

Many clients hammer one :class:`repro.server.ServerThread` at once and
the tests assert the properties the server's threading model promises:

* point queries from N concurrent sessions all answer correctly and the
  ``SERVER_QUERIES`` profiler counter is *exactly* N x M afterwards (a
  locking regression test — a torn ``counts[k] += 1`` undercounts),
* interleaved explicit transactions keep snapshot isolation across the
  wire: a concurrent reader never observes a half-applied transfer,
* write-write conflicts surface as proper ErrorResponses with SQLSTATE
  40001 and leave the connection usable,
* pool admission control rejects over-limit startups with 53300 and
  frees the slot when a connection leaves,
* idle sessions are reaped with 57P05 while active ones are not,
* the profiler's bump lock and the seq-scan visibility cache hold up
  under thread pressure (the PR's storage thread-safety audit pins both
  to ``Database._exec_lock`` — see the module docstring of
  ``repro.sql.storage``).

The suite uses the production :class:`~repro.server.client.WireClient`
(byte-level conformance lives in ``test_server_protocol.py``; here the
client is a means, not the subject).
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.server import ServerError, ServerThread, connect
from repro.sql import Database
from repro.sql.profiler import (Profiler, SERVER_QUERIES, SERVER_REJECTED)
from wireclient import RawWireClient, decode_fields

N_ACCOUNTS = 8
INITIAL_BALANCE = 100


@pytest.fixture()
def bank():
    """A fresh server over an ``accounts`` table per test."""
    db = Database(seed=0)
    db.execute("CREATE TABLE accounts(id int, val int)")
    db.execute("CREATE INDEX accounts_id ON accounts(id)")
    for i in range(N_ACCOUNTS):
        db.execute(f"INSERT INTO accounts VALUES ({i}, {INITIAL_BALANCE})")
    with ServerThread(db, workers=4) as address:
        yield db, address


def run_threads(workers):
    """Start, join, and re-raise the first worker exception."""
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "worker thread wedged"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Point-query storm + counter exactness
# ---------------------------------------------------------------------------

class TestPointQueryStorm:
    N_THREADS = 8
    QUERIES_EACH = 25

    def test_concurrent_point_queries(self, bank):
        db, address = bank
        before = db.profiler.counts[SERVER_QUERIES]

        def worker(tid):
            def run():
                with connect(*address) as client:
                    client.query(
                        "PREPARE pt(int) AS "
                        "SELECT val FROM accounts WHERE id = $1")
                    for i in range(self.QUERIES_EACH):
                        rows = client.query_rows(
                            f"EXECUTE pt({(tid + i) % N_ACCOUNTS})")
                        assert rows == [(str(INITIAL_BALANCE),)]
            return run

        run_threads([worker(t) for t in range(self.N_THREADS)])
        # Exact accounting: one PREPARE + QUERIES_EACH executes per
        # thread.  A non-atomic counter bump loses increments here.
        expected = self.N_THREADS * (1 + self.QUERIES_EACH)
        assert db.profiler.counts[SERVER_QUERIES] - before == expected


# ---------------------------------------------------------------------------
# Interleaved transactions: isolation + conflicts over the wire
# ---------------------------------------------------------------------------

class TestInterleavedTransactions:
    N_WORKERS = 4
    TRANSFERS_EACH = 10

    def test_transfers_preserve_invariant_under_conflicts(self, bank):
        """Snapshot isolation across the wire: concurrent money transfers
        retried through 40001 conflicts never tear the total, and a
        concurrent reader session never sees a half-applied transfer."""
        db, address = bank
        total = N_ACCOUNTS * INITIAL_BALANCE
        committed = []
        stop_readers = threading.Event()

        def transfer_worker(tid):
            rng = random.Random(tid)

            def run():
                # query_retry owns the 40001-backoff-ROLLBACK loop the
                # seed hand-rolled here; anything but a serialization
                # conflict still surfaces (and fails the test).
                with connect(*address) as client:
                    for _ in range(self.TRANSFERS_EACH):
                        src, dst = rng.sample(range(N_ACCOUNTS), 2)
                        client.query_retry(
                            f"BEGIN; "
                            f"UPDATE accounts SET val = val - 1 "
                            f"WHERE id = {src}; "
                            f"UPDATE accounts SET val = val + 1 "
                            f"WHERE id = {dst}; "
                            f"COMMIT", attempts=50)
                    committed.append(self.TRANSFERS_EACH)
            return run

        def reader():
            with connect(*address) as client:
                while not stop_readers.is_set():
                    observed = int(client.query_rows(
                        "SELECT sum(val) FROM accounts")[0][0])
                    assert observed == total, \
                        f"reader saw torn total {observed}"

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        try:
            run_threads([transfer_worker(t)
                         for t in range(self.N_WORKERS)])
        finally:
            stop_readers.set()
            reader_thread.join(timeout=30)
        assert committed == [self.TRANSFERS_EACH] * self.N_WORKERS
        final = int(db.execute("SELECT sum(val) FROM accounts").scalar())
        assert final == total

    def test_conflict_is_a_proper_error_response(self, bank):
        """Deterministic first-writer-wins over two wire sessions."""
        _, address = bank
        with connect(*address) as c1, connect(*address) as c2:
            c1.query("BEGIN")
            c1.query("UPDATE accounts SET val = 111 WHERE id = 0")
            c2.query("BEGIN")
            with pytest.raises(ServerError) as info:
                c2.query("UPDATE accounts SET val = 222 WHERE id = 0")
            assert info.value.sqlstate == "40001"
            assert info.value.severity == "ERROR"  # not connection-fatal
            # The loser's block is still open; it can roll back and retry.
            assert c2.transaction_status == b"T"
            c2.query("ROLLBACK")
            c1.query("COMMIT")
            assert c2.query_rows(
                "SELECT val FROM accounts WHERE id = 0") == [("111",)]

    def test_open_transaction_does_not_leak_across_sessions(self, bank):
        _, address = bank
        with connect(*address) as writer, connect(*address) as reader:
            writer.query("BEGIN")
            writer.query("UPDATE accounts SET val = 0 WHERE id = 3")
            assert reader.query_rows(
                "SELECT val FROM accounts WHERE id = 3") == \
                [(str(INITIAL_BALANCE),)]
            # A reader snapshot opened before the commit stays put.
            reader.query("BEGIN")
            reader.query_rows("SELECT val FROM accounts WHERE id = 3")
            writer.query("COMMIT")
            assert reader.query_rows(
                "SELECT val FROM accounts WHERE id = 3") == \
                [(str(INITIAL_BALANCE),)]
            reader.query("COMMIT")
            assert reader.query_rows(
                "SELECT val FROM accounts WHERE id = 3") == [("0",)]


# ---------------------------------------------------------------------------
# Pool admission control
# ---------------------------------------------------------------------------

class TestAdmissionControl:
    def test_over_limit_startup_rejected_with_53300(self):
        db = Database(seed=0)
        with ServerThread(db, max_connections=2) as address:
            rejected_before = db.profiler.counts[SERVER_REJECTED]
            with connect(*address) as c1, connect(*address) as c2:
                assert c1.query_rows("SELECT 1") == [("1",)]
                with pytest.raises(ServerError) as info:
                    connect(*address)
                assert info.value.sqlstate == "53300"
                assert info.value.severity == "FATAL"
                assert db.profiler.counts[SERVER_REJECTED] == \
                    rejected_before + 1
                # c2 is unaffected by the rejection next door.
                assert c2.query_rows("SELECT 2") == [("2",)]

    def test_slot_is_released_on_disconnect(self):
        db = Database(seed=0)
        with ServerThread(db, max_connections=1) as address:
            connect(*address).close()
            # The release happens on the server loop after the client
            # socket closes; admission may trail by a beat.
            deadline = time.monotonic() + 5
            while True:
                try:
                    client = connect(*address)
                    break
                except ServerError as exc:
                    assert exc.sqlstate == "53300"
                    assert time.monotonic() < deadline, \
                        "slot never released"
                    time.sleep(0.02)
            with client:
                assert client.query_rows("SELECT 1") == [("1",)]


# ---------------------------------------------------------------------------
# Idle-timeout reaping
# ---------------------------------------------------------------------------

class TestIdleTimeout:
    def test_idle_session_reaped_with_57p05(self):
        db = Database(seed=0)
        with ServerThread(db, idle_timeout=0.3) as address:
            c = RawWireClient(*address)
            c.handshake()
            type_byte, payload = c.read_message()  # blocks until reaped
            assert type_byte == b"E"
            fields = decode_fields(payload)
            assert fields["S"] == "FATAL"
            assert fields["C"] == "57P05"
            assert c.eof()

    def test_active_session_is_not_reaped(self):
        db = Database(seed=0)
        with ServerThread(db, idle_timeout=0.4) as address:
            with connect(*address) as client:
                # Stay active well past several timeout windows.
                deadline = time.monotonic() + 1.2
                while time.monotonic() < deadline:
                    assert client.query_rows("SELECT 1") == [("1",)]
                    time.sleep(0.1)

    def test_inflight_query_is_not_reaped(self):
        """A session is busy, not idle, while its query grinds on a
        worker — several timeout windows may pass with no bytes moving
        on the socket, and the reaper must count that as activity."""
        db = Database(seed=0)
        with ServerThread(db, idle_timeout=0.25) as address:
            with connect(*address) as client:
                rows = client.query_rows(
                    "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
                    "SELECT n + 1 FROM r WHERE n < 100000) "
                    "SELECT count(*) FROM r")  # ~1s: 4x the idle window
                assert rows == [("100000",)]
                # ...and the connection is still alive afterwards.
                assert client.query_rows("SELECT 1") == [("1",)]


# ---------------------------------------------------------------------------
# Locking regression tests (profiler counters, visibility cache)
# ---------------------------------------------------------------------------

class TestLockingRegressions:
    def test_profiler_bump_is_atomic_under_threads(self):
        """8 threads x 10k bumps must count exactly — ``counts[k] += 1``
        is a read-modify-write and loses increments without the lock."""
        profiler = Profiler()
        n_threads, n_bumps = 8, 10_000
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force frequent preemption
        try:
            run_threads([
                lambda: [profiler.bump(SERVER_QUERIES)
                         for _ in range(n_bumps)]
            ] * n_threads)
        finally:
            sys.setswitchinterval(old_interval)
        assert profiler.counts[SERVER_QUERIES] == n_threads * n_bumps

    def test_seq_scan_visibility_cache_under_concurrent_sessions(self):
        """Readers sharing the per-table visible-rows cache while a
        writer invalidates it: every observed count is a committed
        state, and the cache never crashes or goes stale."""
        db = Database(seed=0)
        db.execute("CREATE TABLE grow(x int)")
        n_rows = 60
        with ServerThread(db, workers=4) as address:
            stop = threading.Event()
            observed = []

            def reader():
                with connect(*address) as client:
                    while not stop.is_set():
                        observed.append(int(client.query_rows(
                            "SELECT count(*) FROM grow")[0][0]))

            def writer():
                try:
                    with connect(*address) as client:
                        for i in range(n_rows):
                            client.query(f"INSERT INTO grow VALUES ({i})")
                finally:
                    stop.set()

            run_threads([reader, reader, writer])
            assert observed, "readers never got a turn"
            assert all(0 <= n <= n_rows for n in observed)
            assert db.execute("SELECT count(*) FROM grow").scalar() == n_rows

    def test_carried_memo_under_concurrent_sessions(self):
        """Readers pair fsm's size with parse_c's answers in one statement
        while a writer takes the ',' transitions out of fsm and puts them
        back: every pair is one of the two consistent ones, so no reader
        was answered from a memo another state of fsm left behind."""
        from repro.sql.profiler import MEMO_CARRIED_HITS
        from test_memoize import PARSE_C, carry_db
        db = carry_db()
        sql = PARSE_C.replace("SELECT id,",
                              "SELECT (SELECT count(*) FROM fsm), id,")
        commas = ", ".join(repr(row).replace('"', "'") for row in
                           db.query_all("SELECT source, symbol, target "
                                        "FROM fsm WHERE symbol = ','"))
        toggles = ("DELETE FROM fsm WHERE symbol = ','",
                   f"INSERT INTO fsm VALUES {commas}")
        with ServerThread(db, workers=4) as address:
            expected = {}
            with connect(*address) as client:
                for toggle in toggles:
                    rows = client.query_rows(sql)
                    expected[rows[0][0]] = rows
                    client.query(toggle)
            assert len(expected) == 2
            stop = threading.Event()
            observed = []

            def reader():
                with connect(*address) as client:
                    while not stop.is_set():
                        rows = client.query_rows(sql)
                        assert rows == expected[rows[0][0]], rows
                        observed.append(rows[0][0])

            def writer():
                try:
                    with connect(*address) as client:
                        for _ in range(15):
                            for toggle in toggles:
                                client.query(toggle)
                                time.sleep(0.002)
                finally:
                    stop.set()

            db.profiler.reset()
            old_interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                run_threads([reader, reader, reader, writer])
            finally:
                sys.setswitchinterval(old_interval)
        assert len(set(observed)) == 2
        assert db.profiler.counts[MEMO_CARRIED_HITS] > 0
