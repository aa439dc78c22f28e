"""The text cache behind both text doors - ``Database.execute`` and a
wire ``Query`` payload with no ``;`` inside it.

A miss only records its key in a ghost list bounded by
``plan_cache_size``; a text is admitted when it comes back while its key
is still there (2Q's A1out), and only with the plan its run built.  A hit
runs the cached statement record without parsing or planning.
"""

from __future__ import annotations

import pytest

from repro.server import ServerError, ServerThread, connect, handler
from repro.sql import Database
from repro.sql.errors import SqlError
from repro.sql.planner import Planner
from repro.sql.profiler import PLAN, PLAN_CACHE_HIT, PLAN_CACHE_MISS


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t(a int, b int)")
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    return database


@pytest.fixture
def server(db):
    with ServerThread(db, workers=2) as address:
        yield address


@pytest.fixture
def client(server):
    with connect(*server) as wire:
        yield wire


def cached(db) -> tuple[int, int]:
    """(records in the text cache, keys in its ghost list)"""
    return len(db._plan_cache), len(db._plan_cache._ghosts)


def test_a_select_whose_planning_fails_is_never_admitted(db):
    db.profiler.reset()
    for _ in range(3):
        with pytest.raises(SqlError):
            db.execute("SELECT a FROM missing")
    assert db.profiler.counts[PLAN_CACHE_MISS] == 3
    assert db.profiler.counts[PLAN_CACHE_HIT] == 0
    assert cached(db) == (0, 0)


def test_admitted_on_second_sight_hit_on_the_third(db):
    db.profiler.reset()
    for _ in range(3):
        db.execute("SELECT b FROM t WHERE a = 2")
    assert db.profiler.counts[PLAN_CACHE_MISS] == 2
    assert db.profiler.counts[PLAN_CACHE_HIT] == 1
    assert cached(db) == (1, 0)


class TestOverTheWire:
    def test_third_send_is_a_hit_without_parse_or_plan(self, db, client,
                                                       monkeypatch):
        sql = "SELECT b FROM t WHERE a = 2"
        parsed, planned = [], []
        parse_script, plan_statement = handler.parse_script, \
            Planner.plan_statement
        monkeypatch.setattr(handler, "parse_script", lambda text: (
            parsed.append(text), parse_script(text))[1])
        monkeypatch.setattr(Planner, "plan_statement", lambda self, stmt: (
            planned.append(stmt), plan_statement(self, stmt))[1])
        for _ in range(2):
            assert client.query(sql)[0].rows == [("20",)]
        assert (len(parsed), len(planned)) == (2, 2)
        db.profiler.reset()
        [result] = client.query(sql)
        assert result.rows == [("20",)] and result.command_tag == "SELECT 1"
        assert (len(parsed), len(planned)) == (2, 2)
        assert db.profiler.counts[PLAN_CACHE_HIT] == 1
        assert db.profiler.counts[PLAN_CACHE_MISS] == 0
        assert PLAN not in db.profiler.times

    def test_one_shot_texts_keep_no_plan(self, db, client):
        client.query("SET plan_cache_size = 4")
        for i in range(3 * 4):
            client.query(f"SELECT a + {i} FROM t")
        assert cached(db) == (0, 4)

    def test_size_zero_keeps_cache_and_ghosts_empty(self, db, client):
        client.query("SET plan_cache_size = 0")
        db.profiler.reset()
        for _ in range(3):
            client.query("SELECT a FROM t")
        assert cached(db) == (0, 0)
        assert db.profiler.counts[PLAN_CACHE_MISS] == 3
        assert db.profiler.counts[PLAN_CACHE_HIT] == 0

    def test_a_planner_flag_is_part_of_the_key(self, db, client):
        sql = "SELECT a FROM t ORDER BY b LIMIT 2"

        def explain():
            return client.query(f"EXPLAIN {sql}")[0].rows

        for _ in range(3):
            client.query(sql)
        plan_on = explain()
        client.query("SET enable_topn = off")
        db.profiler.reset()
        assert client.query(sql)[0].rows == [("1",), ("2",)]
        assert db.profiler.counts[PLAN_CACHE_MISS] == 1
        assert db.profiler.counts[PLAN_CACHE_HIT] == 0
        assert explain() != plan_on
        client.query("RESET enable_topn")
        db.profiler.reset()
        assert client.query(sql)[0].rows == [("1",), ("2",)]
        assert db.profiler.counts[PLAN_CACHE_HIT] == 1
        assert explain() == plan_on

    def test_a_dropped_table_answers_like_a_fresh_text(self, db, client,
                                                      server):
        sql = "SELECT a FROM t"
        for _ in range(3):
            client.query(sql)
        assert db.profiler.counts[PLAN_CACHE_HIT] >= 1
        with connect(*server) as other:
            other.query("DROP TABLE t")
        codes = []
        for text in (sql, "SELECT b FROM t"):
            with pytest.raises(ServerError) as raised:
                client.query(text)
            codes.append(raised.value.sqlstate)
        assert codes[0] == codes[1]

    def test_a_two_statement_payload_is_never_admitted(self, db, client):
        db.profiler.reset()
        for _ in range(3):
            results = client.query("SELECT 1; SELECT a FROM t WHERE a = 3")
            assert [r.rows for r in results] == [[("1",)], [("3",)]]
        assert cached(db) == (0, 0)
        assert db.profiler.counts[PLAN_CACHE_HIT] == 0
