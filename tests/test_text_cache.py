"""The text cache behind both text doors - ``Database.execute`` and a
wire ``Query`` payload with no ``;`` inside it.

A record is keyed by the statement's shape (its literals are parameters)
and the guard of its plan (the literals a plan-time choice read).  A miss
only records its key in a ghost list bounded by ``plan_cache_size``; a
key is admitted when it comes back while it is still there (2Q's A1out),
and only with the plan its run built.  A hit lexes the text and runs the
cached statement record without parsing or planning.
"""

from __future__ import annotations

import re

import pytest

from repro.server import ServerError, ServerThread, connect, handler
from repro.sql import Database, ast as A
from repro.sql import parser as sql_parser
from repro.sql.errors import PlanError, SqlError
from repro.sql.planner import Planner
from repro.sql.profiler import (PLAN, PLAN_CACHE_HIT, PLAN_CACHE_MISS,
                                RANGE_SCANS_GIVEN_UP)


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t(a int, b int)")
    # Loaded through the table, so that the cache starts empty.
    database.catalog.get_table("t").insert_many([(1, 10), (2, 20), (3, 30)])
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
        # Twelve shapes (the alias differs), each sent once.
        client.query("SET plan_cache_size = 4")
        for i in range(3 * 4):
            client.query(f"SELECT a + {i} AS c{i} FROM t")
        assert cached(db) == (0, 4)

    def test_texts_differing_in_literals_share_one_record(self, db, client):
        for i in range(2):
            assert client.query(f"SELECT b + {i} FROM t WHERE a = 2")[0] \
                .rows == [(str(20 + i),)]
        db.profiler.reset()
        for i in range(5, 8):
            assert client.query(f"SELECT b + {i} FROM t WHERE a = 3")[0] \
                .rows == [(str(30 + i),)]
        assert db.profiler.counts[PLAN_CACHE_HIT] == 3
        assert cached(db) == (1, 0)

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


# ---------------------------------------------------------------------------
# Shapes: literals as parameters, guards where a plan reads a value
# ---------------------------------------------------------------------------


def admitted(db, sql: str, params=()):
    """Run *sql* twice, so that its shape is admitted; returns the rows."""
    db.execute(sql, params)
    return db.query_all(sql, params)


def fresh(db, sql: str, params=()):
    """The rows of *sql* planned as written, with no cache (lowering the
    size empties the cache, as a session's ``SET`` does)."""
    conn = db.connect()
    conn.execute("SET plan_cache_size = 0")
    return conn.query_all(sql, params)


def bounds_hidden(explained: str) -> str:
    return re.sub(r"<expr>|-?\b\d+\b", "?", explained)


def record(db, sql: str, params=()):
    """The statement record a hit on *sql* runs (the cache is probed)."""
    statement, _, _ = db._plan_cache.lookup(sql, params, db.settings.active)
    return statement


class TestShapes:
    def test_a_hit_neither_parses_nor_plans(self, db, monkeypatch):
        admitted(db, "SELECT b FROM t WHERE a = 1")
        descents, plans = [], []
        monkeypatch.setattr(sql_parser.SqlParser, "parse_statement",
                            lambda self: descents.append(self))
        monkeypatch.setattr(Planner, "plan_statement",
                            lambda self, stmt: plans.append(stmt))
        db.profiler.reset()
        for key in (1, 2, 3):
            assert db.query_all(f"SELECT b FROM t WHERE a = {key}") \
                == [(10 * key,)]
        assert (descents, plans) == ([], [])
        assert db.profiler.counts[PLAN_CACHE_HIT] == 3
        assert cached(db) == (1, 0)

    def test_an_int_and_a_text_literal_are_two_shapes(self, db):
        admitted(db, "SELECT a, 10 FROM t WHERE a = 1")
        assert record(db, "SELECT a, 20 FROM t WHERE a = 2") is not None
        assert record(db, "SELECT a, '20' FROM t WHERE a = 2") is None
        assert record(db, "SELECT a, 2.5 FROM t WHERE a = 2") is None
        assert admitted(db, "SELECT a, '20' FROM t WHERE a = 2") \
            == [(2, "20")]
        assert cached(db) == (2, 0)

    @pytest.mark.parametrize("sql, values", [
        # An ordinal names an output column.
        ("SELECT k, b FROM u ORDER BY {} DESC, 1 LIMIT 5", (1, 2, -1)),
        # A constant LIMIT bounds the Top-N heap.
        ("SELECT k FROM u ORDER BY b DESC, k LIMIT {}", (1, 3, 0)),
        # A range holding more than 2% of the index keeps the vectorized
        # SeqScan.
        ("SELECT count(*), sum(b) FROM u WHERE k >= {} AND k < 600",
         (590, 100, 599)),
    ])
    def test_a_value_the_plan_reads_makes_a_variant(self, db, sql, values):
        db.execute("CREATE TABLE u(k int, b int)")
        db.execute("INSERT INTO u VALUES " + ", ".join(
            f"({k}, {k % 7})" for k in range(1, 1001)))
        db.execute("CREATE INDEX u_k ON u(k)")
        uncached = db.connect()
        uncached.execute("SET plan_cache_size = 0")
        planned = set()
        for value in values * 2:
            text = sql.format(value)
            try:
                expected = uncached.query_all(text)
            except SqlError as error:
                with pytest.raises(type(error), match=re.escape(str(error))):
                    admitted(db, text)
                continue
            assert admitted(db, text) == expected
            # The plan a fresh text gets; only a bound's display differs.
            assert bounds_hidden(record(db, text).explain()) \
                == bounds_hidden(db.explain(text))
            planned.add(value)
        # One record per value that planned (a run may fail after).
        assert len(db._plan_cache) >= len(planned) > 1
        assert len({key[0] for key in db._plan_cache._entries}) == 1

    def test_an_order_by_ordinal_stays_a_literal(self, db):
        admitted(db, "SELECT a, b FROM t ORDER BY 2 DESC")
        [item] = record(db, "SELECT a, b FROM t ORDER BY 2 DESC").ast.order_by
        assert item.expr == A.Literal(2)
        assert db.query_all("SELECT a, b FROM t ORDER BY 1 DESC") \
            == [(3, 30), (2, 20), (1, 10)]
        with pytest.raises(PlanError, match="position 3"):
            db.execute("SELECT a, b FROM t ORDER BY 3")

    def test_caller_parameters_come_first(self, db):
        sql = "SELECT a, b + {} FROM t WHERE a >= $1 AND b < $2 ORDER BY a"
        for bump, low, high in ((1, 1, 25), (2, 2, 35), (3, 1, 15)):
            text = sql.format(bump)
            assert admitted(db, text, [low, high]) \
                == fresh(db, text, [low, high])
        assert len(db._plan_cache) == 1
        with pytest.raises(SqlError, match=r"no value supplied for "
                                           r"parameter \$2"):
            db.execute(sql.format(4), [1])

    def test_a_string_agg_separator_is_planned_as_written(self, db):
        sql = "SELECT string_agg(a::text, {}) FROM t"
        for separator in ("','", "'-'", "','"):
            text = sql.format(separator)
            assert admitted(db, text) == fresh(db, text)
        assert db.query_all(sql.format("'; '")) == [("1; 2; 3",)]
        assert len(db._plan_cache) == 2

    def test_a_shape_that_does_not_plan_is_planned_as_written(
            self, db, monkeypatch):
        def refuse(self, stmt, literals):
            raise PlanError("refused")

        monkeypatch.setattr(Planner, "plan_bound", refuse)
        db.profiler.reset()
        for key in (1, 1, 2, 2):
            assert db.query_all(f"SELECT b FROM t WHERE a = {key}") \
                == [(10 * key,)]
        assert db.profiler.counts[PLAN_CACHE_MISS] == 4
        assert cached(db) == (0, 0)

    def test_ddl_empties_the_cache(self, db):
        admitted(db, "SELECT b FROM t WHERE a = 1")
        admitted(db, "SELECT a FROM t ORDER BY b LIMIT 2")
        assert cached(db) == (2, 0)
        db.execute("CREATE TABLE v(x int)")
        assert cached(db) == (0, 0)
        assert db._plan_cache._guards == {}


# ---------------------------------------------------------------------------
# DML: a hit does what a fresh plan of the same text does
# ---------------------------------------------------------------------------


def effects(db, texts, tables=("t",)) -> list:
    """Run *texts* in turn: what each did (its rows, or its error's class
    and message), then every table of *tables* as its heap holds it (read
    from the table, not through the cache)."""
    done = []
    for text in texts:
        try:
            done.append(db.query_all(text))
        except SqlError as error:
            done.append((type(error).__name__, str(error)))
    return done + [list(db.catalog.get_table(name).rows) for name in tables]


def assert_hits_equal_fresh(setup: str, texts, tables=("t",),
                            hits: int = 1) -> Database:
    """*texts* do the same on a database loaded by the ``;``-separated
    *setup*, where at least *hits* of them are text-cache hits, as on one
    that plans every text as written; returns the first."""
    cached, uncached = Database(), Database()
    for db in (cached, uncached):
        db.execute_script(setup)
    uncached.execute("SET plan_cache_size = 0")
    cached.profiler.reset()
    assert effects(cached, texts, tables) == effects(uncached, texts, tables)
    assert cached.profiler.counts[PLAN_CACHE_HIT] >= hits
    return cached


WIDE = "CREATE TABLE u(k int, b int); INSERT INTO u VALUES " + ", ".join(
    f"({k}, {k % 7})" for k in range(1, 1001)) + "; CREATE INDEX u_k ON u(k)"


class TestDml:
    @pytest.mark.parametrize("column", ["i", "f", "s"])
    @pytest.mark.parametrize("values", [
        ("7", "8", "9"), ("2.5", "0.25", "3.0"), ("'x'", "'12'", "''"),
        ("-1", "-2", "-7")])
    def test_a_literal_of_each_kind_into_each_column_type(self, column,
                                                          values):
        texts = [f"INSERT INTO w({column}) VALUES ({value})"
                 for value in values]
        texts += [f"UPDATE w SET {column} = {value} WHERE i = {value}"
                  for value in values]
        assert_hits_equal_fresh("CREATE TABLE w(i int, f float, s text)",
                                texts, tables=("w",), hits=2)

    def test_a_negative_literal_is_a_shape_of_its_own(self):
        texts = [f"UPDATE t SET b = b + {delta} WHERE a = 2"
                 for delta in ("1", "2", "-3", "-4", "- 5", "-6", "7")]
        db = assert_hits_equal_fresh(
            "CREATE TABLE t(a int, b int); INSERT INTO t VALUES (2, 20)",
            texts, hits=3)
        # `b + int` and `b + - int`: two shapes, one record each.
        assert cached(db) == (2, 0)

    def test_an_index_probed_update(self):
        texts = [f"UPDATE u SET b = b * {k} WHERE k = {k}"
                 for k in (3, 5, 700, 5, 2000)]
        db = assert_hits_equal_fresh(WIDE, texts, tables=("u",), hits=3)
        assert "IndexScan on u (k)" in record(db, texts[0]).explain()

    def test_a_wide_range_in_a_delete_makes_a_variant(self):
        # Each run deletes one row of the range its subquery counts.
        sql = ("DELETE FROM u WHERE k = {0} + (SELECT count(*) FROM u "
               "WHERE k >= {0} AND k < 600) % 5")
        texts = [sql.format(low) for low in (590, 590, 590, 100, 100, 100)]
        db = assert_hits_equal_fresh(WIDE, texts, tables=("u",), hits=2)
        assert [record.literals.guards for record
                in db._plan_cache._entries.values()] \
            == [{1: 590, 2: 600}, {1: 100, 2: 600}]
        assert len({key[0] for key in db._plan_cache._entries}) == 1
        assert db.profiler.counts[RANGE_SCANS_GIVEN_UP] >= 1

    def test_an_insert_select_top_n_count_is_a_guard(self):
        sql = "INSERT INTO v SELECT k, b FROM u ORDER BY b DESC, k LIMIT {}"
        texts = [sql.format(n) for n in (3, 1, 3, 1, 3, 0, 1)]
        db = assert_hits_equal_fresh(WIDE + "; CREATE TABLE v(k int, b int)",
                                     texts, tables=("v",), hits=2)
        assert [record.literals.guards for record
                in db._plan_cache._entries.values()] == [{0: 3}, {0: 1}]

    def test_division_by_zero_on_every_hit(self):
        texts = [f"UPDATE t SET b = b / 0 WHERE a = {a}" for a in (1, 2, 3, 1)]
        db = assert_hits_equal_fresh(
            "CREATE TABLE t(a int, b int); "
            "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", texts, hits=2)
        assert cached(db) == (1, 0)

    def test_a_hit_inside_a_rolled_back_transaction(self):
        texts = ["UPDATE t SET b = b + 1 WHERE a = 1",
                 "UPDATE t SET b = b + 2 WHERE a = 2", "BEGIN",
                 "UPDATE t SET b = b + 3 WHERE a = 3",
                 "INSERT INTO t VALUES (4, 40)",
                 "INSERT INTO t VALUES (5, 50)",
                 "SELECT * FROM t", "ROLLBACK",
                 "INSERT INTO t VALUES (6, 60)"]
        db = assert_hits_equal_fresh(
            "CREATE TABLE t(a int, b int); "
            "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", texts, hits=2)
        assert db.query_all("SELECT * FROM t") \
            == [(1, 11), (2, 22), (3, 30), (6, 60)]

    def test_a_record_is_replanned_after_ddl(self):
        setup = ("CREATE TABLE t(a int, b int); "
                 "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        texts = [f"UPDATE t SET b = b + {a} WHERE a = {a}" for a in (1, 2, 3)]
        db = Database()
        db.execute_script(setup)
        effects(db, texts)
        kept = record(db, texts[0])
        db.execute("CREATE INDEX t_a ON t(a)")
        assert record(db, texts[0]) is None
        effects(db, texts)
        assert record(db, texts[0]) not in (None, kept)
        # A table made anew with its columns swapped: the record's target
        # positions are the new table's.
        ddl = ["CREATE INDEX t_a ON t(a)", "DROP TABLE t",
               "CREATE TABLE t(b int, a int)",
               "INSERT INTO t VALUES (10, 1), (20, 2), (30, 3)"]
        assert_hits_equal_fresh(setup, texts + ddl + texts, hits=2)

    def test_over_the_wire(self, db, client):
        for key in (1, 2, 3):
            [result] = client.query(
                f"UPDATE t SET b = b + {key} WHERE a = {key}")
            assert result.command_tag == "UPDATE 1"
        [result] = client.query("DELETE FROM t WHERE a = 3")
        assert result.command_tag == "DELETE 1"
        for key in (4, 5, 6):
            [result] = client.query(f"INSERT INTO t VALUES ({key}, 0)")
            assert result.command_tag == "INSERT 0 1"
        assert db.profiler.counts[PLAN_CACHE_HIT] == 2
        # UPDATE and INSERT kept, DELETE seen once.
        assert cached(db) == (2, 1)
        assert db.query_all("SELECT * FROM t") \
            == [(1, 11), (2, 22), (4, 0), (5, 0), (6, 0)]
