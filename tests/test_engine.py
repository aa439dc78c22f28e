"""Database facade: DDL/DML, plan cache, profiler, function dispatch."""

import pytest

from repro.sql import Database
from repro.sql.errors import (CatalogError, ExecutionError,
                              NameResolutionError, PlsqlError)


class TestDdlDml:
    def test_create_insert_select_roundtrip(self, db):
        db.execute("CREATE TABLE p(a int, b float, c text, d bool)")
        db.execute("INSERT INTO p VALUES (1, 2.5, 'x', true)")
        assert db.query_all("SELECT * FROM p") == [(1, 2.5, "x", True)]

    def test_create_table_if_not_exists(self, db):
        db.execute("CREATE TABLE q(a int)")
        db.execute("CREATE TABLE IF NOT EXISTS q(a int)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE q(a int)")

    def test_insert_column_subset(self, db):
        db.execute("CREATE TABLE r(a int, b text)")
        db.execute("INSERT INTO r(b) VALUES ('only')")
        assert db.query_all("SELECT a, b FROM r") == [(None, "only")]

    def test_insert_coerces_types(self, db):
        db.execute("CREATE TABLE s(a int, b text)")
        db.execute("INSERT INTO s VALUES (2.0, 5)")
        assert db.query_all("SELECT * FROM s") == [(2, "5")]

    def test_insert_from_select(self, tdb):
        tdb.execute("CREATE TABLE copy(x int, y text)")
        result = tdb.execute("INSERT INTO copy SELECT x, y FROM t WHERE x < 3")
        assert result.rows == [(2,)]
        assert len(tdb.query_all("SELECT * FROM copy")) == 2

    def test_update(self, tdb):
        result = tdb.execute("UPDATE t SET y = 'zz' WHERE x > 2")
        assert result.rows == [(2,)]
        assert tdb.query_all("SELECT y FROM t WHERE x = 3") == [("zz",)]

    def test_update_with_expression(self, tdb):
        tdb.execute("UPDATE t SET x = x * 10")
        assert tdb.query_value("SELECT sum(x) FROM t") == 100

    def test_delete(self, tdb):
        result = tdb.execute("DELETE FROM t WHERE y IS NULL")
        assert result.rows == [(1,)]
        assert tdb.query_value("SELECT count(*) FROM t") == 3

    def test_drop_table(self, tdb):
        tdb.execute("DROP TABLE t")
        with pytest.raises(NameResolutionError):
            tdb.query_all("SELECT * FROM t")
        tdb.execute("DROP TABLE IF EXISTS t")  # no error

    def test_composite_type_in_table(self, db):
        db.execute("CREATE TYPE pt AS (x int, y int)")
        db.execute("CREATE TABLE m(p pt, v int)")
        db.execute("INSERT INTO m VALUES (row(1,2)::pt, 10)")
        assert db.query_value("SELECT m.p.y FROM m") == 2
        assert db.query_value(
            "SELECT v FROM m WHERE p = row(1,2)::pt") == 10

    def test_execute_script(self, db):
        results = db.execute_script(
            "CREATE TABLE a(x int); INSERT INTO a VALUES (1); "
            "SELECT x FROM a;")
        assert len(results) == 3
        assert results[-1].rows == [(1,)]


class TestResult:
    def test_scalar_helpers(self, tdb):
        assert tdb.execute("SELECT 42").scalar() == 42
        with pytest.raises(ExecutionError):
            tdb.execute("SELECT x FROM t").scalar()
        assert tdb.execute("SELECT x FROM t WHERE false").first() is None
        assert len(tdb.execute("SELECT x FROM t")) == 4


class TestPlanCache:
    def test_cache_hit_on_repeat(self, tdb):
        tdb.profiler.reset()
        for x in range(4):  # admitted on second sight
            tdb.query_all("SELECT x FROM t WHERE x = $1", [x])
        assert tdb.profiler.counts["plan cache miss"] == 2
        assert tdb.profiler.counts["plan cache hit"] == 2

    def test_ddl_invalidates_cache(self, tdb):
        tdb.query_all("SELECT x FROM t")
        tdb.execute("CREATE TABLE other(z int)")
        tdb.profiler.reset()
        tdb.query_all("SELECT x FROM t")
        assert tdb.profiler.counts["plan cache miss"] == 1

    def test_cache_disabled(self, tdb):
        tdb.execute("SET plan_cache_size = 0")
        tdb.profiler.reset()
        tdb.query_all("SELECT x FROM t")
        tdb.query_all("SELECT x FROM t")
        assert tdb.profiler.counts["plan cache miss"] == 2


class TestProfiler:
    def test_phases_cover_execution(self, tdb):
        tdb.profiler.reset()
        tdb.query_all("SELECT x FROM t ORDER BY x")
        times = tdb.profiler.times
        assert times["ExecutorRun"] > 0
        assert times["ExecutorStart"] > 0

    def test_exclusive_attribution(self, db):
        # nested phases must not double count
        profiler = db.profiler
        profiler.reset()
        import time
        with profiler.phase("Interp"):
            time.sleep(0.01)
            with profiler.phase("ExecutorRun"):
                time.sleep(0.01)
        total = profiler.total_time()
        assert 0.018 < total < 0.08
        assert profiler.times["Interp"] < total

    def test_report_renders(self, tdb):
        tdb.query_all("SELECT 1")
        report = tdb.profiler.report()
        assert "ExecutorRun" in report

    def test_percentages_sum(self, tdb):
        tdb.profiler.reset()
        tdb.query_all("SELECT x FROM t")
        shares = tdb.profiler.percentages()
        assert abs(sum(shares.values()) - 100.0) < 1e-6


class TestFunctions:
    def test_sql_function(self, db):
        db.execute("CREATE FUNCTION add2(a int, b int) RETURNS int AS "
                   "'SELECT a + b' LANGUAGE SQL")
        assert db.query_value("SELECT add2(3, 4)") == 7

    def test_sql_function_parameter_inside_over_clause(self, tdb):
        """Binding parameters by name reaches an inline OVER (...): min of
        the running sum is 1 ascending (k > 0), 4 descending (k < 0)."""
        tdb.execute(
            "CREATE FUNCTION low(k int) RETURNS int AS 'SELECT min(s) FROM "
            "(SELECT sum(x) OVER (ORDER BY x * k) AS s FROM t) AS q' "
            "LANGUAGE SQL")
        assert tdb.query_all("SELECT low(1), low(-1)") == [(1, 4)]

    def test_sql_function_arity_check(self, db):
        db.execute("CREATE FUNCTION one() RETURNS int AS 'SELECT 1' "
                   "LANGUAGE SQL")
        with pytest.raises(Exception):
            db.query_value("SELECT one(5)")

    def test_function_replace(self, db):
        db.execute("CREATE FUNCTION f() RETURNS int AS 'SELECT 1' "
                   "LANGUAGE SQL")
        db.execute("CREATE OR REPLACE FUNCTION f() RETURNS int AS "
                   "'SELECT 2' LANGUAGE SQL")
        assert db.query_value("SELECT f()") == 2
        with pytest.raises(CatalogError):
            db.execute("CREATE FUNCTION f() RETURNS int AS 'SELECT 3' "
                       "LANGUAGE SQL")

    def test_drop_function(self, db):
        db.execute("CREATE FUNCTION g() RETURNS int AS 'SELECT 1' "
                   "LANGUAGE SQL")
        db.execute("DROP FUNCTION g")
        with pytest.raises(NameResolutionError):
            db.query_value("SELECT g()")

    def test_unsupported_language(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE FUNCTION h() RETURNS int AS 'x' LANGUAGE c")

    def test_sql_function_must_be_scalar(self, db):
        db.execute("CREATE TABLE many(v int)")
        db.execute("INSERT INTO many VALUES (1), (2)")
        db.execute("CREATE FUNCTION bad() RETURNS int AS "
                   "'SELECT v FROM many' LANGUAGE SQL")
        with pytest.raises(ExecutionError):
            db.query_value("SELECT bad()")

    def test_recursive_sql_udf_depth_limit(self, db):
        db.execute("CREATE FUNCTION down(n int) RETURNS int AS "
                   "'SELECT CASE WHEN n <= 0 THEN 0 ELSE down(n - 1) END' "
                   "LANGUAGE SQL")
        assert db.query_value("SELECT down(10)") == 0
        with pytest.raises(ExecutionError, match="stack depth"):
            db.query_value("SELECT down(100000)")

    def test_q_to_f_switch_counted(self, db):
        db.execute("CREATE FUNCTION inc(n int) RETURNS int AS "
                   "'SELECT n + 1' LANGUAGE SQL")
        db.execute("CREATE TABLE nums(v int)")
        db.execute("INSERT INTO nums VALUES (1), (2), (3)")
        db.profiler.reset()
        db.query_all("SELECT inc(v) FROM nums")
        assert db.profiler.counts["switch Q->f"] == 3


class TestSeedsAndState:
    def test_reseed_reproducibility(self, db):
        db.reseed(5)
        a = db.query_value("SELECT random()")
        db.reseed(5)
        assert db.query_value("SELECT random()") == a

    def test_databases_are_isolated(self):
        db1, db2 = Database(), Database()
        db1.execute("CREATE TABLE only1(x int)")
        with pytest.raises(NameResolutionError):
            db2.query_all("SELECT * FROM only1")

    def test_explain_renders_tree(self, tdb):
        text = tdb.explain("SELECT x FROM t WHERE x = 1 ORDER BY x")
        assert "IndexScan" in text or "SeqScan" in text
