"""Executor semantics: scans, joins, grouping, ordering, set ops, subqueries."""

import pytest

from repro.sql.errors import (ExecutionError, NameResolutionError, PlanError)


class TestBasicSelect:
    def test_scan_and_filter(self, tdb):
        assert tdb.query_all("SELECT x FROM t WHERE x > 2 ORDER BY x") == \
            [(3,), (4,)]

    def test_null_where_filters_out(self, tdb):
        # y = 'a' is NULL for the NULL row -> excluded
        assert tdb.query_all("SELECT x FROM t WHERE y <> 'a' ORDER BY x") == \
            [(2,), (3,)]

    def test_projection_expressions(self, tdb):
        rows = tdb.query_all("SELECT x * 10, upper(y) FROM t WHERE x = 2")
        assert rows == [(20, "B")]

    def test_star_and_qualified_star(self, tdb):
        assert tdb.execute("SELECT * FROM t").columns == ["x", "y"]
        assert tdb.execute("SELECT t.* FROM t").columns == ["x", "y"]

    def test_output_column_names(self, tdb):
        result = tdb.execute("SELECT x AS a, x + 1, sum(x) FROM t GROUP BY x "
                             "ORDER BY 1 LIMIT 1")
        assert result.columns == ["a", "?column?", "sum"]

    def test_table_alias_required_resolution(self, tdb):
        assert tdb.query_all("SELECT u.x FROM t AS u WHERE u.x = 1") == [(1,)]
        with pytest.raises(NameResolutionError):
            tdb.query_all("SELECT t.x FROM t AS u")

    def test_unknown_column(self, tdb):
        with pytest.raises(NameResolutionError):
            tdb.query_all("SELECT nope FROM t")

    def test_unknown_table(self, tdb):
        with pytest.raises(NameResolutionError):
            tdb.query_all("SELECT * FROM missing")

    def test_duplicate_alias_rejected(self, tdb):
        with pytest.raises(PlanError):
            tdb.query_all("SELECT 1 FROM t, t")

    def test_distinct(self, tdb):
        tdb.execute("INSERT INTO t VALUES (1, 'a')")
        assert tdb.query_all("SELECT DISTINCT x FROM t WHERE x = 1") == [(1,)]

    def test_table_less_select(self, db):
        assert db.query_all("SELECT 1, 'two'") == [(1, "two")]
        assert db.query_all("SELECT 1 WHERE false") == []


class TestOrderLimit:
    def test_order_by_column_and_position(self, tdb):
        assert tdb.query_all("SELECT x FROM t ORDER BY x DESC") == \
            [(4,), (3,), (2,), (1,)]
        assert tdb.query_all("SELECT x FROM t ORDER BY 1 DESC LIMIT 2") == \
            [(4,), (3,)]

    def test_order_by_alias(self, tdb):
        rows = tdb.query_all("SELECT -x AS neg FROM t ORDER BY neg")
        assert rows == [(-4,), (-3,), (-2,), (-1,)]

    def test_order_by_expression_not_in_select(self, tdb):
        rows = tdb.query_all("SELECT y FROM t WHERE x < 3 ORDER BY -x")
        assert rows == [("b",), ("a",)]

    def test_order_nulls(self, tdb):
        rows = tdb.query_all("SELECT y FROM t ORDER BY y")
        assert rows[-1] == (None,)  # NULLS LAST default for ASC
        rows = tdb.query_all("SELECT y FROM t ORDER BY y DESC")
        assert rows[0] == (None,)
        rows = tdb.query_all("SELECT y FROM t ORDER BY y NULLS FIRST")
        assert rows[0] == (None,)

    def test_limit_offset(self, tdb):
        assert tdb.query_all("SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 1") \
            == [(2,), (3,)]
        assert tdb.query_all("SELECT x FROM t ORDER BY x LIMIT 0") == []
        assert tdb.query_all("SELECT x FROM t ORDER BY x LIMIT ALL OFFSET 3") \
            == [(4,)]

    def test_limit_param(self, tdb):
        assert len(tdb.query_all("SELECT x FROM t LIMIT $1", [2])) == 2

    def test_negative_limit_rejected(self, tdb):
        with pytest.raises(ExecutionError):
            tdb.query_all("SELECT x FROM t LIMIT -1")

    def test_distinct_order_by_must_be_in_select(self, tdb):
        with pytest.raises(PlanError):
            tdb.query_all("SELECT DISTINCT y FROM t ORDER BY x + 1")


class TestJoins:
    @pytest.fixture()
    def jdb(self, db):
        db.execute("CREATE TABLE a(id int, v text)")
        db.execute("CREATE TABLE b(id int, w text)")
        db.execute("INSERT INTO a VALUES (1, 'a1'), (2, 'a2'), (3, 'a3')")
        db.execute("INSERT INTO b VALUES (2, 'b2'), (3, 'b3'), (3, 'b3x')")
        return db

    def test_inner_join(self, jdb):
        rows = jdb.query_all("SELECT a.id, b.w FROM a JOIN b ON a.id = b.id "
                             "ORDER BY a.id, b.w")
        assert rows == [(2, "b2"), (3, "b3"), (3, "b3x")]

    def test_left_join_null_fill(self, jdb):
        rows = jdb.query_all("SELECT a.id, b.w FROM a LEFT JOIN b "
                             "ON a.id = b.id ORDER BY a.id, b.w")
        assert rows == [(1, None), (2, "b2"), (3, "b3"), (3, "b3x")]

    def test_cross_join_cardinality(self, jdb):
        assert len(jdb.query_all("SELECT 1 FROM a CROSS JOIN b")) == 9
        assert len(jdb.query_all("SELECT 1 FROM a, b")) == 9

    def test_join_condition_three_valued(self, jdb):
        jdb.execute("INSERT INTO a VALUES (NULL, 'an')")
        # NULL id never matches
        rows = jdb.query_all("SELECT count(*) FROM a JOIN b ON a.id = b.id")
        assert rows == [(3,)]

    def test_lateral_references_left(self, jdb):
        rows = jdb.query_all(
            "SELECT a.id, s.double FROM a, "
            "LATERAL (SELECT a.id * 2 AS double) AS s ORDER BY a.id")
        assert rows == [(1, 2), (2, 4), (3, 6)]

    def test_left_join_lateral_empty_right(self, jdb):
        rows = jdb.query_all(
            "SELECT a.id, s.w FROM a LEFT JOIN LATERAL "
            "(SELECT b.w FROM b WHERE b.id = a.id AND b.w LIKE '%x') AS s "
            "ON true ORDER BY a.id")
        assert rows == [(1, None), (2, None), (3, "b3x")]

    def test_nested_join_tree(self, jdb):
        rows = jdb.query_all(
            "SELECT count(*) FROM (a JOIN b ON a.id = b.id) "
            "JOIN a AS a2 ON a2.id = a.id")
        assert rows == [(3,)]

    def test_subquery_in_from(self, jdb):
        rows = jdb.query_all(
            "SELECT q.n FROM (SELECT count(*) AS n FROM a) AS q")
        assert rows == [(3,)]

    def test_row_expansion_extension(self, db):
        rows = db.query_all("SELECT s.a, s.b FROM (SELECT row(1, 'x')) "
                            "AS s(a, b)")
        assert rows == [(1, "x")]

    def test_row_expansion_null(self, db):
        rows = db.query_all(
            "SELECT s.a, s.b FROM (SELECT CAST(NULL AS int)) AS s(a, b)")
        assert rows == [(None, None)]

    def test_row_expansion_arity_mismatch(self, db):
        with pytest.raises(ExecutionError):
            db.query_all("SELECT * FROM (SELECT row(1, 2, 3)) AS s(a, b)")


class TestAggregation:
    def test_plain_aggregates(self, tdb):
        row = tdb.query_all("SELECT count(*), count(y), sum(x), avg(x), "
                            "min(x), max(x) FROM t")[0]
        assert row == (4, 3, 10, 2.5, 1, 4)

    def test_empty_input_aggregates(self, tdb):
        row = tdb.query_all("SELECT count(*), sum(x), min(x) FROM t "
                            "WHERE false")[0]
        assert row == (0, None, None)

    def test_group_by(self, db):
        db.execute("CREATE TABLE s(g text, v int)")
        db.execute("INSERT INTO s VALUES ('a',1),('a',2),('b',3),(NULL,4),"
                   "(NULL,5)")
        rows = db.query_all("SELECT g, sum(v) FROM s GROUP BY g ORDER BY g")
        assert rows == [("a", 3), ("b", 3), (None, 9)]  # NULLs group together

    def test_group_by_expression(self, tdb):
        rows = tdb.query_all("SELECT x % 2, count(*) FROM t GROUP BY x % 2 "
                             "ORDER BY 1")
        assert rows == [(0, 2), (1, 2)]

    def test_having(self, tdb):
        rows = tdb.query_all("SELECT x % 2 AS p, sum(x) FROM t GROUP BY x % 2 "
                             "HAVING sum(x) > 5 ORDER BY p")
        assert rows == [(0, 6)]

    def test_count_distinct(self, tdb):
        tdb.execute("INSERT INTO t VALUES (1, 'dup')")
        assert tdb.query_value("SELECT count(DISTINCT x) FROM t") == 4

    def test_bool_and_or(self, tdb):
        assert tdb.query_value("SELECT bool_and(x > 0) FROM t") is True
        assert tdb.query_value("SELECT bool_or(x > 3) FROM t") is True

    def test_array_and_string_agg(self, tdb):
        assert tdb.query_value(
            "SELECT array_agg(x) FROM (SELECT x FROM t ORDER BY x) AS q") \
            == [1, 2, 3, 4]
        assert tdb.query_value(
            "SELECT string_agg(y, ',') FROM (SELECT y FROM t WHERE y IS NOT "
            "NULL ORDER BY y) AS q") == "a,b,c"

    def test_ungrouped_column_rejected(self, tdb):
        with pytest.raises(NameResolutionError):
            tdb.query_all("SELECT y, sum(x) FROM t GROUP BY x")

    def test_nested_aggregate_rejected(self, tdb):
        with pytest.raises(PlanError):
            tdb.query_all("SELECT sum(count(*)) FROM t")

    def test_having_without_group_by(self, tdb):
        assert tdb.query_all("SELECT sum(x) FROM t HAVING sum(x) > 100") == []

    def test_aggregate_of_expression_over_groups(self, tdb):
        rows = tdb.query_all(
            "SELECT (x % 2) + 10, sum(x * 2) FROM t GROUP BY x % 2 ORDER BY 1")
        assert rows == [(10, 12), (11, 8)]


class TestSetOps:
    def test_union_all_and_union(self, db):
        assert db.query_all("SELECT 1 UNION ALL SELECT 1") == [(1,), (1,)]
        assert db.query_all("SELECT 1 UNION SELECT 1") == [(1,)]

    def test_intersect_except(self, db):
        assert db.query_all("SELECT 1 UNION ALL SELECT 2 INTERSECT SELECT 2") \
            == [(2,)]
        rows = db.query_all(
            "(SELECT 1 UNION ALL SELECT 2) EXCEPT SELECT 2")
        assert rows == [(1,)]

    def test_width_mismatch(self, db):
        with pytest.raises(PlanError):
            db.query_all("SELECT 1 UNION ALL SELECT 1, 2")

    def test_order_by_over_set_op(self, db):
        rows = db.query_all("SELECT 2 AS v UNION ALL SELECT 1 ORDER BY v")
        assert rows == [(1,), (2,)]
        rows = db.query_all("SELECT 2 UNION ALL SELECT 1 ORDER BY 1 DESC")
        assert rows == [(2,), (1,)]

    def test_values_in_from(self, db):
        rows = db.query_all(
            "SELECT v.a + v.b FROM (VALUES (1, 2), (3, 4)) AS v(a, b) "
            "ORDER BY 1")
        assert rows == [(3,), (7,)]


class TestSubqueries:
    def test_scalar_subquery(self, tdb):
        assert tdb.query_value("SELECT (SELECT max(x) FROM t)") == 4

    def test_scalar_subquery_empty_is_null(self, tdb):
        assert tdb.query_value(
            "SELECT (SELECT x FROM t WHERE false)") is None

    def test_scalar_subquery_multirow_errors(self, tdb):
        with pytest.raises(ExecutionError, match="more than one row"):
            tdb.query_value("SELECT (SELECT x FROM t)")

    def test_correlated_scalar_subquery(self, tdb):
        rows = tdb.query_all(
            "SELECT u.x, (SELECT count(*) FROM t WHERE t.x < u.x) "
            "FROM t AS u ORDER BY u.x")
        assert rows == [(1, 0), (2, 1), (3, 2), (4, 3)]

    def test_exists(self, tdb):
        assert tdb.query_value(
            "SELECT EXISTS (SELECT 1 FROM t WHERE x = 3)") is True
        assert tdb.query_value(
            "SELECT EXISTS (SELECT 1 FROM t WHERE x = 99)") is False

    def test_in_subquery(self, tdb):
        assert tdb.query_value("SELECT 3 IN (SELECT x FROM t)") is True
        assert tdb.query_value("SELECT 99 IN (SELECT x FROM t)") is False
        # NULL in the subquery makes a non-match unknown
        tdb.execute("CREATE TABLE n(v int)")
        tdb.execute("INSERT INTO n VALUES (1), (NULL)")
        assert tdb.query_value("SELECT 9 IN (SELECT v FROM n)") is None

    def test_deeply_nested_correlation(self, tdb):
        rows = tdb.query_all(
            "SELECT u.x FROM t AS u WHERE EXISTS ("
            "  SELECT 1 FROM t AS v WHERE v.x = u.x + 1 AND EXISTS ("
            "    SELECT 1 FROM t AS w WHERE w.x = v.x + 1)) ORDER BY u.x")
        assert rows == [(1,), (2,)]


class TestIndexPushdown:
    def test_equality_lookup_results_match_seqscan(self, tdb):
        plan = tdb.explain("SELECT y FROM t WHERE x = $1")
        assert "IndexScan" in plan
        assert tdb.query_all("SELECT y FROM t WHERE x = $1", [2]) == [("b",)]
        assert tdb.query_all("SELECT y FROM t WHERE x = $1", [99]) == []

    def test_null_key_matches_nothing(self, tdb):
        assert tdb.query_all("SELECT y FROM t WHERE x = $1", [None]) == []

    def test_residual_predicate_kept(self, tdb):
        tdb.execute("INSERT INTO t VALUES (2, 'z')")
        rows = tdb.query_all("SELECT y FROM t WHERE x = 2 AND y > 'b'")
        assert rows == [("z",)]

    def test_self_referencing_equality_not_pushed(self, tdb):
        plan = tdb.explain("SELECT y FROM t WHERE x = x")
        assert "IndexScan" not in plan

    def test_index_invalidation_on_dml(self, tdb):
        assert tdb.query_all("SELECT y FROM t WHERE x = 7", []) == []
        tdb.execute("INSERT INTO t VALUES (7, 'new')")
        assert tdb.query_all("SELECT y FROM t WHERE x = 7", []) == [("new",)]
        tdb.execute("DELETE FROM t WHERE x = 7")
        assert tdb.query_all("SELECT y FROM t WHERE x = 7", []) == []


class TestBulkPull:
    """``PlanState.next_rows`` / ``fetch_all`` over an operator that only
    has ``next()``."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    def test_a_plain_operator_is_asked_once_per_row_and_once_more(self, n):
        from repro.sql.executor.base import ROWS_PER_PULL, PlanState

        class Counting(PlanState):
            __slots__ = ("left", "calls")

            def next(self):
                self.calls += 1
                if not self.left:
                    return None
                self.left -= 1
                return (self.left,)

        state = Counting(None)
        state.left, state.calls = n, 0
        assert state.fetch_all() == [(i,) for i in reversed(range(n))]
        assert state.calls == n + 1  # as the row-at-a-time loop did
        state.left, state.calls = n, 0
        assert state.next() == ((n - 1,) if n else None)  # the two mix
        rows = state.next_rows()
        assert len(rows) == min(max(n - 1, 0), ROWS_PER_PULL)
