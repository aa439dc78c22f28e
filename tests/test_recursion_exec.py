"""WITH [RECURSIVE | ITERATE] semantics and buffer-page accounting."""

import pytest

from repro.sql.errors import ExecutionError, PlanError


class TestPlainCtes:
    def test_basic_cte(self, tdb):
        rows = tdb.query_all(
            "WITH big(v) AS (SELECT x FROM t WHERE x > 2) "
            "SELECT v FROM big ORDER BY v")
        assert rows == [(3,), (4,)]

    def test_cte_referenced_twice_materialized_once(self, tdb):
        rows = tdb.query_all(
            "WITH r(v) AS (SELECT random()) "
            "SELECT a.v = b.v FROM r AS a, r AS b")
        assert rows == [(True,)]  # same materialization on both scans

    def test_chained_ctes(self, db):
        rows = db.query_all(
            "WITH a(x) AS (SELECT 1), b(y) AS (SELECT x + 1 FROM a) "
            "SELECT y FROM b")
        assert rows == [(2,)]

    def test_cte_shadows_table(self, tdb):
        rows = tdb.query_all("WITH t(x) AS (SELECT 99) SELECT x FROM t")
        assert rows == [(99,)]

    def test_cte_column_count_mismatch(self, db):
        with pytest.raises(PlanError):
            db.query_all("WITH c(a, b) AS (SELECT 1) SELECT * FROM c")

    def test_cte_visible_in_subquery(self, db):
        assert db.query_value(
            "WITH c(v) AS (SELECT 5) SELECT (SELECT v FROM c)") == 5


class TestRecursiveCtes:
    def test_counting(self, db):
        rows = db.query_all(
            "WITH RECURSIVE s(i) AS (SELECT 1 UNION ALL "
            "SELECT i + 1 FROM s WHERE i < 5) SELECT i FROM s ORDER BY i")
        assert rows == [(1,), (2,), (3,), (4,), (5,)]

    def test_union_distinct_terminates_cycles(self, db):
        db.execute("CREATE TABLE e(src int, dst int)")
        db.execute("INSERT INTO e VALUES (1,2),(2,3),(3,1)")  # a cycle!
        rows = db.query_all(
            "WITH RECURSIVE reach(n) AS (SELECT 1 UNION "
            "SELECT e.dst FROM reach, e WHERE e.src = reach.n) "
            "SELECT n FROM reach ORDER BY n")
        assert rows == [(1,), (2,), (3,)]

    def test_multiple_rows_per_step(self, db):
        rows = db.query_all(
            "WITH RECURSIVE tree(n, d) AS (SELECT 1, 0 UNION ALL "
            "SELECT n * 2, d + 1 FROM tree WHERE d < 2 "
            "UNION ALL SELECT n * 2 + 1, d + 1 FROM tree WHERE d < 2) "
            "SELECT count(*) FROM tree")
        # full binary tree of depth 2: 1 + 2 + 4 = 7
        assert rows == [(7,)]

    def test_all_terms_self_referencing_rejected(self, db):
        with pytest.raises(PlanError, match="base term"):
            db.query_all("WITH RECURSIVE r(n) AS (SELECT n FROM r UNION ALL "
                         "SELECT n + 1 FROM r) SELECT * FROM r")

    def test_term_order_does_not_matter(self, db):
        # Extension over PostgreSQL: terms are classified by self-reference,
        # not position, so base-after-recursive also works.
        db.execute("SET max_recursion_iterations = 50")
        rows = db.query_all(
            "WITH RECURSIVE r(n) AS (SELECT n + 1 FROM r WHERE n < 3 "
            "UNION ALL SELECT 1) SELECT n FROM r ORDER BY n")
        assert rows == [(1,), (2,), (3,)]

    def test_runaway_recursion_guarded(self, db):
        db.execute("SET max_recursion_iterations = 100")
        with pytest.raises(ExecutionError, match="iterations"):
            db.query_all("WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
                         "SELECT n + 1 FROM r) SELECT count(*) FROM r")

    def test_non_union_recursive_body_rejected(self, db):
        with pytest.raises(PlanError):
            db.query_all("WITH RECURSIVE r(n) AS (SELECT n + 1 FROM r) "
                         "SELECT * FROM r")

    def test_correlated_recursive_cte(self, tdb):
        # Engine extension: the CTE body references the outer query -
        # exactly what inlined compiled functions need.
        rows = tdb.query_all(
            "SELECT u.x, (WITH RECURSIVE c(i) AS (SELECT 1 UNION ALL "
            "SELECT i + 1 FROM c WHERE i < u.x) SELECT max(i) FROM c) "
            "FROM t AS u ORDER BY u.x")
        assert rows == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_recursive_keyword_required_for_self_reference(self, db):
        with pytest.raises(Exception):
            db.query_all("WITH r(n) AS (SELECT 1 UNION ALL SELECT n + 1 "
                         "FROM r WHERE n < 3) SELECT * FROM r")


class TestWithIterate:
    def test_keeps_last_step_only(self, db):
        rows = db.query_all(
            "WITH ITERATE s(i) AS (SELECT 1 UNION ALL "
            "SELECT i + 1 FROM s WHERE i < 5) SELECT i FROM s")
        assert rows == [(5,)]

    def test_multi_row_steps(self, db):
        rows = db.query_all(
            "WITH ITERATE s(i, step) AS (SELECT 1, 0 UNION ALL "
            "SELECT i + 1, step + 1 FROM s WHERE step < 3) "
            "SELECT count(*), max(i) FROM s")
        assert rows == [(1, 4)]

    def test_zero_iterations(self, db):
        rows = db.query_all(
            "WITH ITERATE s(i) AS (SELECT 10 UNION ALL "
            "SELECT i FROM s WHERE false) SELECT i FROM s")
        assert rows == [(10,)]  # base is the last non-empty step

    def test_iterate_writes_no_pages(self, db):
        db.buffers.reset()
        db.query_all("WITH ITERATE s(i, pad) AS (SELECT 1, repeat('x', 512) "
                     "UNION ALL SELECT i + 1, pad FROM s WHERE i < 200) "
                     "SELECT i FROM s")
        assert db.buffers.pages_written == 0

    def test_recursive_does_write_pages(self, db):
        db.buffers.reset()
        db.query_all("WITH RECURSIVE s(i, pad) AS (SELECT 1, repeat('x', 512) "
                     "UNION ALL SELECT i + 1, pad FROM s WHERE i < 200) "
                     "SELECT count(*) FROM s")
        # ~200 rows x ~540 bytes / 8192 per page
        assert db.buffers.pages_written >= 10

    def test_same_answer_as_recursive_for_tail_recursion(self, db):
        recursive = db.query_all(
            "WITH RECURSIVE f(a, b, i) AS (SELECT 0, 1, 0 UNION ALL "
            "SELECT b, a + b, i + 1 FROM f WHERE i < 20) "
            "SELECT a FROM f WHERE i = 20")
        iterate = db.query_all(
            "WITH ITERATE f(a, b, i) AS (SELECT 0, 1, 0 UNION ALL "
            "SELECT b, a + b, i + 1 FROM f WHERE i < 20) "
            "SELECT a FROM f WHERE i = 20")
        assert recursive == iterate == [(6765,)]


class TestPageAccounting:
    def test_quadratic_growth_for_shrinking_strings(self, db):
        def pages(n: int) -> int:
            db.buffers.reset()
            db.query_all(
                "WITH RECURSIVE p(rest) AS (SELECT repeat('a', $1) UNION ALL "
                "SELECT substr(rest, 2) FROM p WHERE length(rest) > 0) "
                "SELECT count(*) FROM p", [n])
            return db.buffers.pages_written

        p1, p2 = pages(400), pages(800)
        assert p2 > 3 * p1  # quadratic: 2x input -> ~4x pages

    def test_byte_charges_match_model(self, db):
        from repro.sql.storage import ROW_OVERHEAD
        db.buffers.reset()
        db.execute("CREATE TABLE z(a int, b text)")
        db.execute("INSERT INTO z VALUES (1, 'xyz')")
        assert db.buffers.bytes_written == ROW_OVERHEAD + 8 + 4
