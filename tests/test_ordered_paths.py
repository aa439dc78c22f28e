"""Ordered access paths: sorted indexes, CREATE INDEX DDL, range scans,
sort elimination, Top-N, and equi-joins over indexed keys.

Covers the planner's access-path choices (visible in EXPLAIN), the
executor semantics of the new operators, the DDL surface, and — the PR's
regression focus — index freshness across every DML path (INSERT, UPDATE,
DELETE, TRUNCATE, rollback, vacuum) for the hash and the sorted indexes,
both maintained where versions are created and rebuilt only where the
heap is.
"""

from __future__ import annotations

import pytest

from repro.sql import Database
from repro.sql.errors import CatalogError, ExecutionError, TypeError_
from repro.sql.profiler import (HASH_INDEX_BUILDS, HASHJOIN_BUILDS,
                                INDEX_RANGE_SCANS, RANGE_SCANS_GIVEN_UP,
                                SORTED_INDEX_BUILDS, TOPN_INPUT_ROWS,
                                TOPN_SCANS, VECTOR_FUSED_ROWS)


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t(a int, b int)")
    for i in range(100):
        database.execute("INSERT INTO t VALUES ($1, $2)", (i % 10, i))
    return database


def _outcome(db, sql):
    try:
        return sorted(db.query_all(sql))
    except TypeError_ as error:
        return str(error)


class TestEqualityProbeAgreesWithScan:
    """The hash IndexScan answers ``col = value`` exactly like SeqScan +
    filter does for the same predicate written ``col + 0 = value``."""

    @pytest.mark.parametrize("value,expected", [
        ("'a'", "cannot compare int with str"),
        ("true", "cannot compare int with bool"),
        ("5.0", [(5, 5 + 10 * i) for i in range(10)]),
        ("NULL", []),
    ])
    def test_indexed_and_scanned_agree(self, db, value, expected):
        indexed = f"SELECT a, b FROM t WHERE a = {value}"
        scanned = f"SELECT a, b FROM t WHERE a + 0 = {value}"
        assert "IndexScan on t (a)" in db.explain(indexed)
        assert "IndexScan" not in db.explain(scanned)
        assert _outcome(db, indexed) == _outcome(db, scanned) == expected

    def test_empty_table_compares_nothing(self, db):
        db.execute("DELETE FROM t")
        assert db.query_all("SELECT b FROM t WHERE a = 'a'") == []
        assert db.query_all("SELECT b FROM t WHERE a + 0 = 'a'") == []


# ---------------------------------------------------------------------------
# CREATE INDEX / DROP INDEX DDL
# ---------------------------------------------------------------------------


class TestIndexDdl:
    def test_create_and_drop_are_catalogued(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        assert "t_b" in db.catalog.indexes
        index_def = db.catalog.indexes["t_b"]
        assert index_def.table == "t"
        assert index_def.columns == (1,)
        assert index_def.descending == (False,)
        db.execute("DROP INDEX t_b")
        assert "t_b" not in db.catalog.indexes

    def test_duplicate_name_rejected_unless_if_not_exists(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("CREATE INDEX IF NOT EXISTS t_b ON t(b)")  # no raise

    def test_drop_unknown_rejected_unless_if_exists(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX nope")
        db.execute("DROP INDEX IF EXISTS nope")  # no raise

    def test_unknown_table_or_column_rejected(self, db):
        with pytest.raises(Exception):
            db.execute("CREATE INDEX x ON missing(a)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX x ON t(missing)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX x ON t(a, a)")

    def test_drop_table_drops_its_indexes(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("DROP TABLE t")
        assert "t_b" not in db.catalog.indexes

    def test_desc_and_multicolumn_keys_parse(self, db):
        db.execute("CREATE INDEX t_ab ON t(a ASC, b DESC)")
        index_def = db.catalog.indexes["t_ab"]
        assert index_def.columns == (0, 1)
        assert index_def.descending == (False, True)

    def test_create_index_invalidates_plan_cache(self, db):
        sql = "SELECT b FROM t ORDER BY b LIMIT 1"
        assert "IndexRangeScan" not in db.explain(sql)
        db.execute("CREATE INDEX t_b ON t(b)")
        assert "IndexRangeScan" in db.explain(sql)
        db.execute("DROP INDEX t_b")
        assert "IndexRangeScan" not in db.explain(sql)


# ---------------------------------------------------------------------------
# Range index scans
# ---------------------------------------------------------------------------


class TestIndexRangeScan:
    # Two of t's 100 rows: narrow enough that the aggregate keeps the range
    # scan (a wider one goes to the vectorized scan, TestWideRangeToVector).
    def test_explain_names_the_operator_and_bounds(self, db):
        plan = db.explain("SELECT count(*) FROM t WHERE b >= 10 AND b < 12")
        assert "IndexRangeScan on t" in plan
        assert "b >=" in plan and "b <" in plan

    def test_between_becomes_a_closed_range(self, db):
        plan = db.explain("SELECT count(*) FROM t WHERE b BETWEEN 5 AND 6")
        assert "IndexRangeScan" in plan
        assert db.query_value(
            "SELECT count(*) FROM t WHERE b BETWEEN 5 AND 6") == 2

    def test_negated_between_stays_a_seqscan_filter(self, db):
        plan = db.explain("SELECT count(*) FROM t WHERE b NOT BETWEEN 5 AND 8")
        assert "IndexRangeScan" not in plan

    def test_equality_pushdown_outranks_the_range_path(self, db):
        plan = db.explain("SELECT count(*) FROM t WHERE a = 5 AND b > 3")
        assert "IndexScan on t (a)" in plan
        assert db.query_value(
            "SELECT count(*) FROM t WHERE a = 5 AND b > 3") == 10

    def test_volatile_bound_is_not_hoisted(self, db):
        plan = db.explain("SELECT count(*) FROM t WHERE b < random()")
        assert "IndexRangeScan" not in plan

    def test_volatile_equality_key_is_not_hoisted(self):
        """A probe key is evaluated once per open, a WHERE conjunct once
        per row: ``random()`` in an equality stays in the filter, so the
        query answers what the unindexable ``id + 0`` form answers."""
        db = Database(seed=1)
        db.execute("CREATE TABLE r(id int, v int)")
        db.execute("INSERT INTO r VALUES " + ", ".join(
            f"({i % 10}, {i})" for i in range(1000)))
        db.execute("CREATE INDEX r_id ON r(id)")
        sql = "SELECT count(*) FROM r WHERE {} = floor(random() * 10)::int"
        plan = db.explain(sql.format("id"))
        assert "SeqScan on r" in plan and "IndexScan" not in plan
        answers = []
        for seed in range(5):
            db.reseed(seed)
            answers.append(db.query_value(sql.format("id")))
            db.reseed(seed)
            assert db.query_value(sql.format("id + 0")) == answers[-1]
        assert len(set(answers)) > 1  # a hoisted draw always counts 100

    @pytest.mark.parametrize("where, hidden, probe", [
        ("a = (SELECT max(k) FROM s)", "a + 0 = (SELECT max(k) FROM s)",
         True),
        ("b < (SELECT max(k) FROM s)", "b + 0 < (SELECT max(k) FROM s)",
         False),
    ])
    def test_uncorrelated_subquery_key_is_one_probe(self, db, where, hidden,
                                                     probe):
        """An uncorrelated subquery of pure calls is an equality key read
        once per open, as PostgreSQL's InitPlan is; a range bound holds no
        subquery.  Either way it answers what the filter does."""
        db.execute("CREATE TABLE s(k int)")
        db.execute("INSERT INTO s VALUES (3), (7)")
        sql = "SELECT count(*) FROM t WHERE {}"
        plan = db.explain(sql.format(where))
        assert ("IndexScan on t (a)" in plan) == probe
        assert ("SeqScan on t" in plan) != probe
        assert db.query_value(sql.format(where)) \
            == db.query_value(sql.format(hidden)) > 0

    def test_volatile_call_inside_a_subquery_key_is_not_hoisted(self, db):
        db.execute("CREATE TABLE s(k int)")
        plan = db.explain("SELECT count(*) FROM t WHERE a = "
                          "(SELECT max(k) FROM s WHERE k < random() * 10)")
        assert "SeqScan on t" in plan and "IndexScan" not in plan

    def test_flag_disables_the_path(self, db):
        db.execute("SET enable_rangescan = off")
        plan = db.explain("SELECT count(*) FROM t WHERE b >= 10 AND b < 20")
        assert "IndexRangeScan" not in plan

    def test_null_bound_matches_nothing(self, db):
        assert db.query_all("SELECT b FROM t WHERE b > NULL") == []

    def test_empty_range(self, db):
        assert db.query_all("SELECT b FROM t WHERE b > 90 AND b < 80") == []

    def test_incomparable_probe_raises_like_a_seqscan(self, db):
        with pytest.raises(TypeError_):
            db.query_all("SELECT b FROM t WHERE b < 'zzz'")

    def test_counters(self, db):
        db.profiler.reset()
        db.query_all("SELECT b FROM t WHERE b >= 10 AND b < 20")
        assert db.profiler.counts[SORTED_INDEX_BUILDS] == 1
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 1
        db.query_all("SELECT b FROM t WHERE b >= 10 AND b < 20")
        # Second run probes the maintained index without rebuilding.
        assert db.profiler.counts[SORTED_INDEX_BUILDS] == 1
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 2

    def test_correlated_range_probe_reprobes_per_outer_row(self, db):
        db.execute("CREATE TABLE lo(cut int)")
        db.execute("INSERT INTO lo VALUES (95), (97), (99)")
        rows = db.query_all(
            "SELECT lo.cut, (SELECT count(*) FROM t WHERE b > lo.cut) "
            "FROM lo ORDER BY 1")
        assert rows == [(95, 4), (97, 2), (99, 0)]


class TestWideRangeToVector:
    """An aggregating core whose range bounds are literals or parameters
    is planned both ways under a ChooseRange node, which gives a wide
    range up for the vectorized scan when it opens; a narrow range, NULL
    and incomparable bounds keep the range scan, and correlated bounds and
    a core the vector engine cannot run have no choice to make."""

    WIDE = ("SELECT count(*), sum(a) FROM t WHERE b >= 10 AND b < 90",
            "SELECT a, count(*), sum(b) FROM t WHERE b > 5 AND b <= 60 "
            "GROUP BY a ORDER BY a")

    @pytest.mark.parametrize("sql", WIDE)
    def test_wide_constant_range_runs_fused(self, db, sql):
        plan = db.explain(sql)
        assert "ChooseRange" in plan and "VectorScan on t" in plan
        db.profiler.reset()
        rows = db.query_all(sql)
        assert db.profiler.counts[VECTOR_FUSED_ROWS] == 100
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 0
        assert db.profiler.counts[RANGE_SCANS_GIVEN_UP] == 1
        db.execute("SET enable_rangescan = off")
        assert "ChooseRange" not in db.explain(sql)
        assert db.query_all(sql) == rows
        db.execute("SET enable_vectorize = off")
        assert "IndexRangeScan" not in db.explain(sql)
        assert db.query_all(sql) == rows
        db.execute("SET enable_rangescan = on")
        plan = db.explain(sql)
        assert "IndexRangeScan" in plan and "ChooseRange" not in plan
        assert db.query_all(sql) == rows

    def test_narrow_range_keeps_the_range_scan(self, db):
        sql = "SELECT count(*), sum(a) FROM t WHERE b >= 40 AND b < 42"
        assert "ChooseRange" in db.explain(sql)
        db.profiler.reset()
        assert db.query_all(sql) == [(2, 1)]
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 1
        assert db.profiler.counts[RANGE_SCANS_GIVEN_UP] == 0
        db.execute("SET enable_rangescan = off")
        assert db.query_all(sql) == [(2, 1)]

    def test_streaming_core_keeps_the_range_scan(self, db):
        plan = db.explain("SELECT a FROM t WHERE b >= 10 AND b < 90")
        assert "IndexRangeScan" in plan and "ChooseRange" not in plan

    def test_parameter_bounds_are_sized_at_open(self, db):
        db.execute("PREPARE span(int, int) AS SELECT count(*) FROM t "
                   "WHERE b >= $1 AND b < $2")
        assert "ChooseRange" in db.explain("EXECUTE span(10, 90)")
        db.profiler.reset()
        assert db.query_value("EXECUTE span(10, 90)") == 80
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 0
        assert db.profiler.counts[RANGE_SCANS_GIVEN_UP] == 1
        assert db.query_value("EXECUTE span(40, 42)") == 2
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 1
        assert db.profiler.counts[RANGE_SCANS_GIVEN_UP] == 1

    def test_correlated_bounds_keep_the_range_scan(self, db):
        db.execute("CREATE TABLE lo(cut int)")
        db.execute("INSERT INTO lo VALUES (5), (50)")
        sql = ("SELECT cut, (SELECT count(*) FROM t WHERE b > lo.cut) "
               "FROM lo ORDER BY 1")
        assert "ChooseRange" not in db.explain(sql)
        db.profiler.reset()
        assert db.query_all(sql) == [(5, 94), (50, 49)]
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 2

    def test_null_and_incomparable_bounds_keep_the_range_scan(self, db):
        db.profiler.reset()
        assert db.query_value(
            "SELECT count(*) FROM t WHERE b > NULL AND b < 90") == 0
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 1
        with pytest.raises(TypeError_, match="cannot compare"):
            db.query_all("SELECT count(*) FROM t WHERE b < 'zzz'")
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 2
        assert db.profiler.counts[RANGE_SCANS_GIVEN_UP] == 0

    def test_row_only_core_keeps_the_range_scan(self, db):
        sql = ("SELECT count(*) FROM t WHERE b >= 10 AND b < 90 "
               "AND a < (SELECT 5)")
        plan = db.explain(sql)
        assert "IndexRangeScan on t" in plan and "ChooseRange" not in plan
        db.profiler.reset()
        assert db.query_value(sql) == 40
        assert db.profiler.counts[RANGE_SCANS_GIVEN_UP] == 0


# ---------------------------------------------------------------------------
# Sort elimination and Top-N
# ---------------------------------------------------------------------------


class TestOrderedDelivery:
    def test_declared_index_eliminates_the_sort(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        plan = db.explain("SELECT b FROM t ORDER BY b")
        assert "Sort" not in plan and "IndexRangeScan" in plan
        assert db.query_all("SELECT b FROM t ORDER BY b LIMIT 3") == \
            [(0,), (1,), (2,)]
        assert db.query_all("SELECT b FROM t ORDER BY b DESC LIMIT 3") == \
            [(99,), (98,), (97,)]

    def test_desc_index_serves_both_directions(self, db):
        db.execute("CREATE INDEX t_b ON t(b DESC)")
        assert "IndexRangeScan" in db.explain("SELECT b FROM t ORDER BY b")
        assert "IndexRangeScan" in db.explain(
            "SELECT b FROM t ORDER BY b DESC")

    def test_multicolumn_prefix_matches(self, db):
        db.execute("CREATE INDEX t_ab ON t(a, b DESC)")
        assert "Sort" not in db.explain(
            "SELECT a, b FROM t ORDER BY a, b DESC")
        assert "Sort" not in db.explain(
            "SELECT a, b FROM t ORDER BY a DESC, b")
        # Mismatched direction pattern keeps the sort.
        assert "Sort" in db.explain("SELECT a, b FROM t ORDER BY a, b")

    def test_nulls_placement_override_keeps_the_sort(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        assert "Sort" in db.explain("SELECT b FROM t ORDER BY b NULLS FIRST")
        assert "Sort" not in db.explain("SELECT b FROM t ORDER BY b NULLS LAST")

    def test_distinct_keeps_the_sort(self, db):
        db.execute("CREATE INDEX t_a ON t(a)")
        assert "Sort" in db.explain("SELECT DISTINCT a FROM t ORDER BY a")

    def test_no_index_means_sort_stays(self, db):
        assert "Sort" in db.explain("SELECT b FROM t ORDER BY b")

    def test_range_scan_column_feeds_order_by(self, db):
        plan = db.explain(
            "SELECT b FROM t WHERE b >= 10 AND b < 20 ORDER BY b DESC")
        assert "Sort" not in plan and "IndexRangeScan" in plan
        assert db.query_all(
            "SELECT b FROM t WHERE b >= 10 AND b < 20 ORDER BY b DESC "
            "LIMIT 3") == [(19,), (18,), (17,)]

    def test_flag_disables_elimination(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("SET enable_sort_elim = off")
        assert "Sort" in db.explain("SELECT b FROM t ORDER BY b")


class TestTopN:
    def test_explain_names_topn_for_constant_limits(self, db):
        plan = db.explain("SELECT a, b FROM t ORDER BY a + b LIMIT 5")
        assert "TopN (n=5)" in plan

    def test_offset_widens_the_heap(self, db):
        plan = db.explain("SELECT b FROM t ORDER BY b LIMIT 5 OFFSET 7")
        assert "TopN (n=12)" in plan
        assert db.query_all(
            "SELECT b FROM t ORDER BY b LIMIT 5 OFFSET 7") == \
            [(7,), (8,), (9,), (10,), (11,)]

    def test_non_constant_limit_keeps_the_full_sort(self, db):
        plan = db.explain("SELECT b FROM t ORDER BY b LIMIT 1 + 1")
        assert "TopN" not in plan and "Sort" in plan

    def test_param_limit_keeps_the_full_sort(self, db):
        assert db.execute("SELECT b FROM t ORDER BY b LIMIT $1", (2,)).rows \
            == [(0,), (1,)]

    def test_limit_zero(self, db):
        assert db.query_all("SELECT b FROM t ORDER BY a + b LIMIT 0") == []

    def test_ties_match_the_stable_sort(self, db):
        # Equal keys keep arrival order, exactly like the full sort.
        rows_topn = db.query_all("SELECT a, b FROM t ORDER BY a LIMIT 12")
        db.execute("SET enable_topn = off")
        rows_sort = db.query_all("SELECT a, b FROM t ORDER BY a LIMIT 12")
        assert rows_topn == rows_sort

    @pytest.mark.parametrize("order", [
        "n NULLS FIRST, b", "n DESC NULLS LAST, b DESC", "n DESC, b",
        "a NULLS FIRST, n DESC NULLS FIRST, b"])
    def test_explicit_nulls_placement_matches_the_full_sort(self, db, order):
        # Sort and TopN share one key closure, default placement or not.
        sql = (f"SELECT CASE WHEN b % 3 = 0 THEN NULL ELSE b % 7 END AS n, "
               f"a, b FROM t ORDER BY {order} LIMIT 15")
        assert "TopN" in db.explain(sql)
        rows_topn = db.query_all(sql)
        db.execute("SET enable_topn = off")
        assert db.query_all(sql) == rows_topn
        nulls = [row[0] is None for row in rows_topn]
        if order.startswith("n NULLS FIRST"):
            assert all(nulls)
        elif order.startswith("n DESC NULLS LAST"):
            assert not any(nulls)

    def test_count_beyond_the_input_and_zero(self, db):
        sql = "SELECT a, b FROM t ORDER BY a DESC, b LIMIT {}"
        assert "TopN (n=500)" in db.explain(sql.format(500))
        everything = db.query_all(sql.format(500))
        assert len(everything) == 100
        assert db.query_all(sql.format(0)) == []
        db.execute("SET enable_topn = off")
        assert db.query_all(sql.format(500)) == everything

    def test_set_operation_output_goes_through_topn(self, db):
        sql = ("SELECT b FROM t UNION ALL SELECT b FROM t "
               "ORDER BY b DESC LIMIT 2")
        assert "TopN" in db.explain(sql)
        assert db.query_all(sql) == [(99,), (99,)]

    def test_counters(self, db):
        db.profiler.reset()
        db.query_all("SELECT b FROM t ORDER BY a + b LIMIT 5")
        assert db.profiler.counts[TOPN_SCANS] == 1
        assert db.profiler.counts[TOPN_INPUT_ROWS] == 100

    def test_flag_disables_topn(self, db):
        db.execute("SET enable_topn = off")
        assert "TopN" not in db.explain(
            "SELECT b FROM t ORDER BY a + b LIMIT 5")


# ---------------------------------------------------------------------------
# Equi-joins over indexed keys
# ---------------------------------------------------------------------------


def _join_strategies(db, sql):
    """*sql*'s :func:`_outcome` under the batch hash join, the row hash
    join and the nested loop, in that order."""
    answers = []
    for settings in ({}, {"enable_vectorize": False},
                     {"enable_hashjoin": False, "enable_pushdown": False}):
        for name, value in settings.items():
            db.settings.assign(name, value)
        answers.append(_outcome(db, sql))
        db.execute("RESET ALL")
    return answers


class TestJoinOverIndexedKeys:
    """A sorted index on both join keys changes no join plan: the equi-join
    is a hash join whose answer is the nested loop's, duplicates, NULL
    keys, residual conditions and LEFT JOIN included."""

    @pytest.fixture
    def joined(self, db):
        db.execute("CREATE TABLE s(a int, v int)")
        for i in range(30):
            db.execute("INSERT INTO s VALUES ($1, $2)", (i % 12, i))
        db.execute("CREATE INDEX t_a ON t(a)")
        db.execute("CREATE INDEX s_a ON s(a)")
        return db

    def test_plans_a_hash_join_over_scans(self, joined):
        plan = joined.explain("SELECT count(*) FROM t JOIN s ON t.a = s.a")
        assert "VectorHashJoin INNER JOIN (t.a = s.a)" in plan
        assert "IndexRangeScan" not in plan

    def test_agrees_with_nested_loop(self, joined):
        sql = ("SELECT t.a, t.b, s.v FROM t JOIN s ON t.a = s.a "
               "ORDER BY t.b, s.v")
        batch, row, nested = _join_strategies(joined, sql)
        assert batch == row == nested and len(nested) == 260

    def test_where_derived_key_over_cross_join(self, joined):
        sql = "SELECT count(*) FROM t, s WHERE t.a = s.a"
        assert "HashJoin" in joined.explain(sql)
        assert len(set(map(repr, _join_strategies(joined, sql)))) == 1

    def test_residual_condition_filters_pairs(self, joined):
        sql = "SELECT count(*) FROM t JOIN s ON t.a = s.a AND t.b < s.v"
        assert "HashJoin" in joined.explain(sql)
        batch, row, nested = _join_strategies(joined, sql)
        assert batch == row == nested

    def test_the_index_does_not_change_the_plan(self, joined):
        sql = "SELECT count(*) FROM t JOIN s ON t.a = s.a"
        plan = joined.explain(sql)
        joined.execute("DROP INDEX s_a")
        assert joined.explain(sql) == plan

    def test_left_join_builds_the_nullable_side(self, joined):
        sql = ("SELECT t.b, s.v FROM t LEFT JOIN s ON t.a = s.a "
               "ORDER BY t.b, s.v")
        assert "HashJoin LEFT JOIN (t.a = s.a) [build=right]" in \
            joined.explain(sql)
        batch, row, nested = _join_strategies(joined, sql)
        assert batch == row == nested

    def test_null_keys_never_match(self, joined):
        joined.execute("INSERT INTO t VALUES (NULL, -1)")
        joined.execute("INSERT INTO s VALUES (NULL, -2)")
        sql = "SELECT count(*) FROM t JOIN s ON t.a = s.a"
        batch, row, nested = _join_strategies(joined, sql)
        assert batch == row == nested == [(260,)]

    def test_null_fields_inside_composite_keys_never_match(self):
        """An array key with a NULL field compares NULL, never equal."""
        db = Database()
        db.execute("CREATE TABLE l(a int[])")
        db.execute("CREATE TABLE r(a int[])")
        db.catalog.get_table("l").insert_many([([1, None],), ([3, 4],)])
        db.catalog.get_table("r").insert_many([([1, 2],), ([3, 4],)])
        db.execute("CREATE INDEX l_a ON l(a)")
        db.execute("CREATE INDEX r_a ON r(a)")
        batch, row, nested = _join_strategies(
            db, "SELECT count(*) FROM l JOIN r ON l.a = r.a")
        assert batch == row == nested == [(1,)]

    def test_incomparable_keys_raise_under_every_strategy(self, joined):
        joined.execute("CREATE TABLE w(a text)")
        joined.execute("INSERT INTO w VALUES ('x')")
        joined.execute("CREATE INDEX w_a ON w(a)")
        answers = _join_strategies(
            joined, "SELECT count(*) FROM t JOIN w ON t.a = w.a")
        assert answers == ["cannot compare int with str"] * 3

    def test_counter(self, joined):
        joined.profiler.reset()
        joined.query_value("SELECT count(*) FROM t JOIN s ON t.a = s.a")
        assert joined.profiler.counts[HASHJOIN_BUILDS] == 1

    def test_flag_disables_the_hash_join(self, joined):
        joined.execute("SET enable_hashjoin = off")
        plan = joined.explain("SELECT count(*) FROM t JOIN s ON t.a = s.a")
        assert "NestLoop" in plan and "HashJoin" not in plan


# ---------------------------------------------------------------------------
# Index freshness across DML (the PR's regression bugfix)
# ---------------------------------------------------------------------------


class TestIndexFreshnessAfterDml:
    """Probes after UPDATE / DELETE / INSERT / TRUNCATE must see the new
    state on every access path: hash and sorted indexes alike are
    maintained in place.  Plans stay cached throughout — the probe, not
    the plan, must refresh.
    """

    EQ = "SELECT count(*) FROM t WHERE b = $1"
    RANGE = "SELECT count(*) FROM t WHERE b >= 40 AND b < 50"
    ORDERED = "SELECT b FROM t ORDER BY b LIMIT 1"

    @pytest.fixture
    def indexed(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        # Warm every access path (and the plan cache) before mutating.
        assert db.execute(self.EQ, (40,)).scalar() == 1
        assert db.query_value(self.RANGE) == 10
        assert db.query_all(self.ORDERED) == [(0,)]
        return db

    def test_after_update(self, indexed):
        indexed.execute("UPDATE t SET b = b + 1000 WHERE b = 40")
        assert indexed.execute(self.EQ, (40,)).scalar() == 0
        assert indexed.execute(self.EQ, (1040,)).scalar() == 1
        assert indexed.query_value(self.RANGE) == 9

    def test_after_delete(self, indexed):
        indexed.execute("DELETE FROM t WHERE b >= 45")
        assert indexed.execute(self.EQ, (50,)).scalar() == 0
        assert indexed.query_value(self.RANGE) == 5
        indexed.execute("DELETE FROM t WHERE b = 0")
        assert indexed.query_all(self.ORDERED) == [(1,)]

    def test_after_insert(self, indexed):
        indexed.execute("INSERT INTO t VALUES (0, -5)")
        assert indexed.execute(self.EQ, (-5,)).scalar() == 1
        assert indexed.query_all(self.ORDERED) == [(-5,)]

    def test_after_truncate_via_api(self, indexed):
        indexed.catalog.get_table("t").truncate()
        assert indexed.execute(self.EQ, (40,)).scalar() == 0
        assert indexed.query_value(self.RANGE) == 0
        assert indexed.query_all(self.ORDERED) == []

    def test_sorted_index_agrees_with_seqscan_after_mixed_dml(self, indexed):
        indexed.execute("UPDATE t SET b = b - 7 WHERE a = 3")
        indexed.execute("DELETE FROM t WHERE b % 4 = 1")
        indexed.execute("INSERT INTO t VALUES (1, 42)")
        with_index = indexed.query_value(self.RANGE)
        ordered = indexed.query_all("SELECT b FROM t ORDER BY b")
        indexed.execute("SET enable_rangescan = off")
        indexed.execute("SET enable_sort_elim = off")
        assert indexed.query_value(self.RANGE) == with_index
        assert indexed.query_all("SELECT b FROM t ORDER BY b") == ordered

    def test_direct_table_api_insert_is_seen(self, indexed):
        # The workloads and benchmarks insert through HeapTable directly;
        # sorted indexes must be maintained on that path too.
        indexed.catalog.get_table("t").insert((9, 4242))
        assert indexed.execute(self.EQ, (4242,)).scalar() == 1
        assert indexed.query_all(
            "SELECT b FROM t ORDER BY b DESC LIMIT 1") == [(4242,)]


class TestIndexUpkeep:
    """Both index kinds follow one rule: a version is filed where it is
    created, an index is rebuilt where the heap's version list is (vacuum,
    TRUNCATE), and a probe never rebuilds.  Every probe below is compared
    with the sequential scan of the same predicate (``b + 0`` hides the
    column from access-path selection)."""

    KEYS = (40, 41, 1040, 4242, -1)

    @pytest.fixture
    def indexed(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        self.agree(db)                      # builds the hash index on b
        db.profiler.reset()
        return db

    def agree(self, conn) -> None:
        for key in self.KEYS:
            truth = conn.query_all(
                f"SELECT a, b FROM t WHERE b + 0 = {key}")
            assert conn.query_all(
                f"SELECT a, b FROM t WHERE b = {key}") == truth
            assert conn.query_all(
                f"SELECT a, b FROM t WHERE b >= {key} AND b <= {key}") == truth
        assert conn.query_all("SELECT b FROM t ORDER BY b") == sorted(
            conn.query_all("SELECT b FROM t WHERE b + 0 = b"))

    def builds(self, db) -> tuple[int, int]:
        return (db.profiler.counts[HASH_INDEX_BUILDS],
                db.profiler.counts[SORTED_INDEX_BUILDS])

    def test_the_plans_probe_both_kinds(self, indexed):
        assert "IndexScan on t (b)" in indexed.explain(
            "SELECT a FROM t WHERE b = 40")
        assert "IndexRangeScan on t" in indexed.explain(
            "SELECT a FROM t WHERE b >= 40 AND b <= 40")

    def test_old_and_new_key_after_update_of_the_indexed_column(
            self, indexed):
        indexed.execute("UPDATE t SET b = b + 1000 WHERE b = 40")
        assert indexed.query_all("SELECT a FROM t WHERE b = 40") == []
        assert indexed.query_all("SELECT a FROM t WHERE b = 1040") == [(0,)]
        self.agree(indexed)
        assert self.builds(indexed) == (0, 0)

    def test_after_delete(self, indexed):
        indexed.execute("DELETE FROM t WHERE b = 41")
        assert indexed.query_all("SELECT a FROM t WHERE b = 41") == []
        self.agree(indexed)
        assert self.builds(indexed) == (0, 0)

    def test_after_a_rolled_back_insert(self, indexed):
        conn = indexed.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (7, 4242)")
        assert conn.query_all("SELECT a FROM t WHERE b = 4242") == [(7,)]
        conn.execute("ROLLBACK")
        assert indexed.query_all("SELECT a FROM t WHERE b = 4242") == []
        self.agree(indexed)
        assert self.builds(indexed) == (0, 0)

    def test_inside_the_writing_transaction_before_commit(self, indexed):
        writer, reader = indexed.connect(), indexed.connect()
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET b = 1040 WHERE b = 40")
        writer.execute("DELETE FROM t WHERE b = 41")
        writer.execute("INSERT INTO t VALUES (7, 4242)")
        self.agree(writer)
        assert writer.query_all("SELECT a FROM t WHERE b = 1040") == [(0,)]
        assert writer.query_all("SELECT a FROM t WHERE b = 41") == []
        self.agree(reader)
        assert reader.query_all("SELECT a FROM t WHERE b = 40") == [(0,)]
        assert reader.query_all("SELECT a FROM t WHERE b = 4242") == []
        writer.execute("COMMIT")
        self.agree(reader)
        assert reader.query_all("SELECT a FROM t WHERE b = 4242") == [(7,)]
        assert self.builds(indexed) == (0, 0)

    def test_vacuum_rebuilds_each_index_once(self, indexed):
        table = indexed.catalog.get_table("t")
        indexed.execute("UPDATE t SET b = b + 1000 WHERE b = 40")
        indexed.execute("DELETE FROM t WHERE b >= 60 AND b + 0 < 90")
        # Vacuum ran as the DELETE's transaction finished: the dead
        # versions are gone from the heap and from both indexes.
        assert len(table._versions) == len(table) == 70
        assert len(table.equality_index((1,)).buckets) == 70
        assert len(table.sorted_index((1,))) == 70
        assert self.builds(indexed) == (1, 0)   # sorted: rebuilt in place
        self.agree(indexed)
        assert self.builds(indexed) == (1, 0)

    def test_truncate_rebuilds_to_empty(self, indexed):
        indexed.catalog.get_table("t").truncate()
        self.agree(indexed)
        assert indexed.query_all("SELECT a FROM t WHERE b = 40") == []
        indexed.execute("INSERT INTO t VALUES (1, 40)")
        assert indexed.query_all("SELECT a FROM t WHERE b = 40") == [(1,)]
        self.agree(indexed)
        assert self.builds(indexed) == (1, 0)

    def test_a_write_never_rebuilds_the_hash_index(self, indexed):
        for key in range(100, 115):        # too few dead versions to vacuum
            indexed.execute("INSERT INTO t VALUES (0, $1)", (key,))
            indexed.execute("UPDATE t SET a = a + 1 WHERE b = $1", (key,))
            assert indexed.execute("SELECT a FROM t WHERE b = $1",
                                   (key,)).rows == [(1,)]
        assert self.builds(indexed) == (0, 0)

    @pytest.mark.parametrize("column", ["a", "b"])
    def test_grown_index_raises_like_a_fresh_one(self, db, column):
        """Comparability classes are kept as versions are added: probing
        an int column with a string fails alike through an index that
        grew row by row and through one built over the finished table."""
        db.execute("CREATE TABLE g(a int, b int)")
        assert db.query_all(f"SELECT 1 FROM g WHERE {column} = 'a'") == []
        for i in range(5):
            db.execute("INSERT INTO g VALUES ($1, $1)", (i,))
        db.execute("UPDATE g SET a = a + 1, b = b + 1")
        grown = _outcome(db, f"SELECT a FROM g WHERE {column} = 'a'")
        fresh = _outcome(db, f"SELECT a FROM t WHERE {column} = 'a'")
        scanned = _outcome(db, f"SELECT a FROM g WHERE {column} + 0 = 'a'")
        assert grown == fresh == scanned == "cannot compare int with str"
        assert _outcome(db, f"SELECT a FROM g WHERE {column} = 3.0") == [(3,)]


class TestReviewRegressions:
    def test_nan_keys_keep_the_index_consistent(self, db):
        """NaN floats order like compare() (greater than every number, one
        equality class), so inserting one must not break the bisect
        invariant of a maintained sorted index."""
        db.execute("CREATE TABLE f(k float)")
        for value in ("5.0", "1.0", "9.0"):
            db.execute(f"INSERT INTO f VALUES ({value})")
        db.execute("INSERT INTO f VALUES (1e308 * 10 - 1e308 * 10)")  # NaN
        db.execute("INSERT INTO f VALUES (3.0)")
        db.execute("INSERT INTO f VALUES (7.0)")
        probe = "SELECT k FROM f WHERE k >= 2 AND k <= 8"
        fast = sorted(db.query_all(probe))
        db.execute("SET enable_rangescan = off")
        assert fast == sorted(db.query_all(probe)) == [(3.0,), (5.0,), (7.0,)]

    def test_drop_index_keeps_structures_other_declarations_share(self, db):
        db.execute("CREATE INDEX i1 ON t(b)")
        db.execute("CREATE INDEX i2 ON t(b)")
        db.execute("DROP INDEX i1")
        # i2 still serves ordered delivery.
        assert "IndexRangeScan" in db.explain("SELECT b FROM t ORDER BY b")
        db.execute("DROP INDEX i2")
        assert "Sort" in db.explain("SELECT b FROM t ORDER BY b")

    def test_create_index_counts_builds_only_once(self, db):
        db.profiler.reset()
        db.query_all("SELECT b FROM t WHERE b > 90")  # lazy auto-build
        assert db.profiler.counts[SORTED_INDEX_BUILDS] == 1
        db.execute("CREATE INDEX t_b ON t(b)")  # adopts the existing one
        assert db.profiler.counts[SORTED_INDEX_BUILDS] == 1
        db.execute("CREATE INDEX t_a ON t(a)")  # genuinely new
        assert db.profiler.counts[SORTED_INDEX_BUILDS] == 2

    def test_bulk_insert_maintains_indexes_in_one_pass(self, db):
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("INSERT INTO t SELECT a, b + 1000 FROM t")
        fast = db.query_all("SELECT b FROM t WHERE b >= 1090 ORDER BY b")
        db.execute("SET enable_rangescan = off")
        db.execute("SET enable_sort_elim = off")
        assert fast == db.query_all(
            "SELECT b FROM t WHERE b >= 1090 ORDER BY b")

    def test_auto_index_is_dropped_on_bulk_dml_declared_one_survives(self, db):
        table = db.catalog.get_table("t")
        db.query_all("SELECT b FROM t WHERE b > 90")       # lazy auto index
        db.execute("CREATE INDEX t_a ON t(a)")             # pinned
        assert table.sorted_index_if_exists((1,)) is not None
        db.execute("UPDATE t SET b = b + 1")               # bulk delta
        # The auto index deferred its rebuild; the declared one survived.
        assert table.sorted_index_if_exists((1,)) is None
        assert table.sorted_index_if_exists((0,)) is not None
        # Correctness is unaffected: the next probe rebuilds lazily.
        assert db.query_value("SELECT count(*) FROM t WHERE b > 91") == 9

    def test_insert_many_arity_error_leaves_indexes_and_heap_aligned(self, db):
        """A mid-batch arity error must not append rows the indexes never
        saw: validation happens before any append, so the whole batch is
        rejected and every access path still agrees with the heap."""
        db.execute("CREATE INDEX t_b ON t(b)")
        db.query_value("SELECT count(*) FROM t WHERE b = 1")  # warm hash idx
        table = db.catalog.get_table("t")
        with pytest.raises(CatalogError):
            table.insert_many([(0, 1000), (0, 1001), (0, 1002, 3)])
        assert len(table) == 100
        assert db.query_value("SELECT count(*) FROM t WHERE b = 1000") == 0
        assert db.query_value("SELECT count(*) FROM t WHERE b >= 1000") == 0

    def test_bulk_update_agrees_after_rebuild_path(self, db):
        """A delta touching most rows takes the rebuild fallback; results
        must match a fresh scan."""
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("UPDATE t SET b = b % 7")
        fast = db.query_all("SELECT b FROM t WHERE b >= 2 AND b <= 4")
        db.execute("SET enable_rangescan = off")
        assert sorted(fast) == sorted(
            db.query_all("SELECT b FROM t WHERE b >= 2 AND b <= 4"))


class TestLimitErrorsUnchanged:
    def test_negative_limit_still_raises_at_runtime(self, db):
        with pytest.raises(ExecutionError):
            db.query_all("SELECT b FROM t ORDER BY b LIMIT -1")


class TestSortEqualsTopN:
    """Sort and TopN order rows through one key function, whatever the
    direction, the NULLS placement, the mix of value kinds in a key column
    and the size of the chunks TopN takes its input in."""

    #: (k, id): ``k`` is exact ints for the first rows a chunk holds, then
    #: a NULL, a float equal to an int key, text, more ints and NULLs;
    #: ``g`` has three values, so equal keys straddle every chunk boundary.
    KEYS = [3, 1, 2, 1, None, 2.0, "b", 0, 3, None, 1.5, "a", 2, -1, None, 7]

    ORDERS = ["k", "k DESC", "k NULLS FIRST", "k NULLS LAST",
              "k DESC NULLS FIRST", "k DESC NULLS LAST",
              "g, k DESC", "g DESC, k NULLS FIRST", "g"]

    @pytest.fixture
    def mixed(self):
        from repro.sql.executor import base
        database = Database()
        database.execute("CREATE TABLE m(id int, g int, k int)")
        table = database.catalog.tables["m"]  # no coercion to int
        for i, key in enumerate(self.KEYS):
            table.insert((i, i % 3, key))
        return database, base

    @pytest.mark.parametrize("chunk", [1, 2, 4, 5, 256])
    @pytest.mark.parametrize("order", ORDERS)
    def test_every_limit_is_a_prefix_of_the_full_sort(self, mixed,
                                                      monkeypatch, order,
                                                      chunk):
        db, base = mixed
        monkeypatch.setattr(base, "ROWS_PER_PULL", chunk, raising=False)
        sql = f"SELECT id, g, k FROM m ORDER BY {order}"
        db.execute("SET enable_topn = off")
        full = db.query_all(sql)
        assert sorted(row[0] for row in full) == list(range(len(self.KEYS)))
        for enable_vectorize in ("on", "off"):
            db.execute(f"SET enable_vectorize = {enable_vectorize}")
            for enable_topn in ("on", "off"):
                db.execute(f"SET enable_topn = {enable_topn}")
                assert repr(db.query_all(sql)) == repr(full)
                for count in (0, 1, 5, len(full), len(full) + 3):
                    limited = f"{sql} LIMIT {count}"
                    assert ("TopN" in db.explain(limited)) \
                        == (enable_topn == "on")
                    assert repr(db.query_all(limited)) \
                        == repr(full[:count]), (limited, enable_topn)

    def test_the_order_itself(self, mixed):
        db, _ = mixed
        up = [row[0] for row in db.query_all("SELECT k FROM m ORDER BY k, id")]
        assert [repr(v) for v in up] == [repr(v) for v in [
            -1, 0, 1, 1, 1.5, 2, 2.0, 2, 3, 3, 7, "a", "b",
            None, None, None]]
        down = [row[0] for row in
                db.query_all("SELECT k FROM m ORDER BY k DESC, id")]
        assert [repr(v) for v in down] == [repr(v) for v in [
            None, None, None, "b", "a", 7, 3, 3, 2, 2.0, 2, 1.5, 1, 1, 0,
            -1]]
        first = db.query_all("SELECT k FROM m ORDER BY k NULLS FIRST LIMIT 4")
        assert first == [(None,), (None,), (None,), (-1,)]
        last = db.query_all("SELECT k FROM m ORDER BY k DESC NULLS LAST, id "
                            "LIMIT 20")
        assert [row[0] for row in last] == down[3:] + [None] * 3


class TestWindowOrderOnThePapersWalk:
    """``window.py`` orders frames with the sort keys ORDER BY uses: the
    running sums of the paper's ``walk`` (Figure 3), taken over
    ``ORDER BY a.there DESC`` - a descending ROW key - stay what a plain
    Python fold over the same rows gives."""

    def test_descending_frames(self):
        from repro.workloads.robot import setup_robot
        database = Database()
        setup_robot(database)
        rows = database.query_all(
            "SELECT a.here, a.action, a.there, a.prob FROM actions AS a")
        groups: dict = {}
        for here, action, there, prob in rows:
            groups.setdefault((tuple(here), action), []).append(
                (tuple(there), prob))
        checked = 0
        for (here, action), targets in sorted(groups.items()):
            targets.sort(reverse=True)
            expected, low = [], 0.0
            for position, (there, prob) in enumerate(targets, 1):
                expected.append((there, low, low + prob, position))
                low += prob
            got = database.query_all(
                "SELECT a.there, COALESCE(SUM(a.prob) OVER lt, 0.0), "
                "SUM(a.prob) OVER geq, row_number() OVER geq "
                "FROM actions AS a "
                f"WHERE a.here = ROW({here[0]}, {here[1]})::coord "
                f"AND a.action = '{action}' "
                "WINDOW geq AS (ORDER BY a.there DESC), "
                "lt AS (geq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW) "
                "ORDER BY 4")
            assert [(tuple(there), lo, hi, n) for there, lo, hi, n in got] \
                == expected, (here, action)
            checked += len(got) > 1
        assert checked > 10
