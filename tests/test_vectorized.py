"""The vectorized executor core (executor/vector.py): plan shape, the
profiler's batch counters, the statement-level row fallback, snapshot
freshness under same-transaction DML, cancellation, typed columns, and the
batch hash join with ORDER BY / LIMIT above it.

Numeric parity lives in ``test_fuzz_regressions.py`` (the adversarial
bigint sweep) and ``test_differential.py`` (randomized row/batch
differential incl. the batch-size boundary sweep); this file pins the
executor's *mechanics*.
"""

from __future__ import annotations

import pytest

from repro.sql import Database
from repro.sql.errors import ExecutionError, QueryCanceledError, SqlError
from repro.sql.executor import base, vector


@pytest.fixture()
def vdb(db):
    db.execute("CREATE TABLE t(a int, b int)")
    for i in range(10):
        db.execute("INSERT INTO t VALUES ($1, $2)", [i, i % 3])
    return db


def _explain(db, sql: str) -> str:
    return "\n".join(r[0] for r in db.execute("EXPLAIN " + sql).rows)


# ---------------------------------------------------------------------------
# Plan shape / EXPLAIN labels
# ---------------------------------------------------------------------------


class TestPlanShape:
    def test_explain_labels_the_vector_pipeline(self, vdb):
        text = _explain(vdb, "SELECT a FROM t WHERE a % 2 = 0")
        assert "VectorizedSelect" in text
        assert "VectorFilter" in text
        assert "VectorProject" in text
        assert f"VectorScan on t (batch={vector.BATCH_SIZE})" in text

    def test_explain_labels_vector_aggregation(self, vdb):
        text = _explain(vdb, "SELECT b, sum(a) FROM t GROUP BY b")
        assert "VectorizedAggregate+Select" in text
        assert "VectorAggregate (1 keys, 1 calls)" in text

    def test_setting_toggles_the_plan(self, vdb):
        sql = "SELECT sum(a) FROM t"
        assert "VectorScan" in _explain(vdb, sql)
        vdb.execute("SET enable_vectorize = off")
        assert "VectorScan" not in _explain(vdb, sql)
        vdb.execute("RESET enable_vectorize")
        assert "VectorScan" in _explain(vdb, sql)

    def test_row_only_shapes_keep_the_row_plan(self, vdb):
        # LEFT and nested-loop joins, index-scan / subquery / CTE leaves,
        # window functions and subqueries all keep the outermost core on
        # the row engine.
        vdb.execute("CREATE TABLE u(x int)")
        for sql in [
            "SELECT t.a FROM t LEFT JOIN u ON t.a = u.x",
            "SELECT t.a FROM t JOIN u ON t.a < u.x",
            "SELECT t.a FROM t, u WHERE t.a = u.x AND t.b = 1 + (SELECT 1)",
            "SELECT t.a FROM t JOIN (SELECT x FROM u) AS s ON t.a = s.x",
            "WITH w AS (SELECT x FROM u) SELECT t.a FROM t JOIN w "
            "ON t.a = w.x",
            "SELECT t.a FROM t JOIN LATERAL (SELECT t.a AS x) AS l "
            "ON t.a = l.x",
            "SELECT a FROM t WHERE a = 3 ORDER BY b",
            "SELECT a, row_number() OVER (ORDER BY a) FROM t",
            "SELECT a, (SELECT max(x) FROM u) FROM t",
            "SELECT random() FROM t",
        ]:
            core = next(line for line in _explain(vdb, sql).splitlines()
                        if "Select" in line)
            assert "Vectorized" not in core, sql

    def test_vectorized_axis_is_plan_affecting(self, vdb):
        assert any(s.name == "enable_vectorize" and values == (False, True)
                   for s, values in vdb.settings.plan_axes())


# ---------------------------------------------------------------------------
# Profiler counters
# ---------------------------------------------------------------------------


class TestProfilerCounters:
    def test_batches_and_rows_counted(self, vdb, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 4)
        vdb.profiler.reset()
        assert vdb.query_value("SELECT sum(a) FROM t") == 45
        assert vdb.profiler.counts["vector batches"] == 3  # 4 + 4 + 2
        assert vdb.profiler.counts["vector rows"] == 10

    def test_row_engine_does_not_bump(self, vdb):
        vdb.execute("SET enable_vectorize = off")
        vdb.profiler.reset()
        vdb.execute("SELECT sum(a) FROM t")
        assert vdb.profiler.counts["vector batches"] == 0


# ---------------------------------------------------------------------------
# Row fallback on evaluation errors
# ---------------------------------------------------------------------------


class TestRowFallback:
    def test_error_parity_with_the_row_engine(self, vdb):
        vdb.execute("INSERT INTO t VALUES (NULL, 0)")
        sql = "SELECT 10 / b FROM t"  # b = 0 rows divide by zero
        with pytest.raises(ExecutionError) as vec_err:
            vdb.execute(sql)
        vdb.execute("SET enable_vectorize = off")
        with pytest.raises(ExecutionError) as row_err:
            vdb.execute(sql)
        assert str(vec_err.value) == str(row_err.value)

    def test_limit_laziness_preserved(self, db):
        # The row engine never reaches the poisoned third row under
        # LIMIT 2; the batch engine evaluates the whole batch eagerly,
        # hits the error, and must fall back to reproduce the lazy
        # row-at-a-time outcome.
        db.execute("CREATE TABLE z(a int)")
        for v in (1, 2, 0, 5):
            db.execute("INSERT INTO z VALUES ($1)", [v])
        sql = "SELECT 10 / a FROM z LIMIT 2"
        assert db.query_all(sql) == [(10,), (5,)]
        db.execute("SET enable_vectorize = off")
        assert db.query_all(sql) == [(10,), (5,)]

    @pytest.mark.parametrize("sql", [
        "SELECT (CASE WHEN a > 2 THEN a ELSE b END) LIKE 'x' FROM w LIMIT 1",
        "SELECT substr(b, CASE WHEN a > 2 THEN 'q' ELSE 1 END) FROM w LIMIT 1",
    ])
    def test_ill_typed_rows_beyond_the_limit_fall_back(self, db, sql):
        # Rows with a > 2 feed LIKE an int / substr a non-numeric start.
        # The kernels raise classified errors (once Python's TypeError /
        # ValueError, which the SqlError net let through), so the batch
        # falls back and the row engine stops at LIMIT 1 before them.
        db.execute("CREATE TABLE w(a int, b text)")
        for i in range(6):
            db.execute("INSERT INTO w VALUES ($1, 'abcdef')", [i])
        assert "Vectorized" in _explain(db, sql)
        vectorized = db.query_all(sql)
        db.execute("SET enable_vectorize = off")
        assert db.query_all(sql) == vectorized
        assert len(vectorized) == 1

    def test_scan_level_error_falls_back(self, vdb, monkeypatch):
        def boom(self):
            raise ExecutionError("injected scan failure")

        monkeypatch.setattr(vector.VectorScan, "next_batch", boom)
        assert vdb.query_value("SELECT sum(a) FROM t") == 45

    @pytest.mark.parametrize("pull", [1, 4, base.ROWS_PER_PULL])
    def test_streaming_fallback_resumes_after_emitted_rows(self, vdb,
                                                           monkeypatch, pull):
        # Let two batches stream out vectorized, then poison the scan:
        # the fallback must skip exactly the rows already emitted - handed
        # on singly, or in bulk with the rows gathered before the failure.
        monkeypatch.setattr(vector, "BATCH_SIZE", 3)
        monkeypatch.setattr(base, "ROWS_PER_PULL", pull)
        original = vector.VectorScan.next_batch
        calls = {"n": 0}

        def flaky(self):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ExecutionError("injected mid-stream failure")
            return original(self)

        monkeypatch.setattr(vector.VectorScan, "next_batch", flaky)
        assert vdb.query_all("SELECT a FROM t") == [(i,) for i in range(10)]
        calls["n"] = 0
        vdb.profiler.reset()
        assert vdb.query_all("SELECT a FROM t ORDER BY b DESC, a LIMIT 4") \
            == [(2,), (5,), (8,), (1,)]
        assert vdb.profiler.counts["vector fallbacks"] == 1


# ---------------------------------------------------------------------------
# Snapshot freshness: batches never outlive same-transaction DML
# ---------------------------------------------------------------------------


class TestSnapshotFreshness:
    def test_in_txn_update_then_aggregate(self, vdb):
        # The batch pipeline reads HeapTable.rows at *open* time, so an
        # aggregate inside an explicit transaction must see the
        # transaction's own prior UPDATE (and re-reading after more DML
        # must not serve a stale cached batch).
        for setting in ("on", "off"):
            vdb.execute(f"SET enable_vectorize = {setting}")
            conn = vdb.connect()
            conn.execute("BEGIN")
            conn.execute("UPDATE t SET a = a + 100")
            assert conn.execute("SELECT sum(a) FROM t").scalar() == 1045, \
                setting
            conn.execute("INSERT INTO t VALUES (1000, 9)")
            assert conn.execute("SELECT sum(a) FROM t").scalar() == 2045, \
                setting
            conn.execute("ROLLBACK")
            assert conn.execute("SELECT sum(a) FROM t").scalar() == 45, \
                setting

    def test_autocommit_dml_between_scans(self, vdb):
        assert vdb.query_value("SELECT sum(a) FROM t") == 45
        vdb.execute("DELETE FROM t WHERE a >= 5")
        assert vdb.query_value("SELECT sum(a) FROM t") == 10
        vdb.execute("UPDATE t SET a = a * 2")
        assert vdb.query_value("SELECT sum(a) FROM t") == 20


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


class TestCancellation:
    def test_cancel_propagates_and_never_falls_back(self, vdb, monkeypatch):
        # QueryCanceledError must escape the fallback's SqlError net —
        # were it swallowed, the row engine would quietly re-run the
        # statement to completion and this would return 45.
        def canceled(self):
            raise QueryCanceledError("canceling statement")

        monkeypatch.setattr(vector.VectorScan, "next_batch", canceled)
        with pytest.raises(QueryCanceledError):
            vdb.execute("SELECT sum(a) FROM t")

    def test_scan_polls_once_per_batch(self, vdb, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 2)
        polls = {"n": 0}
        from repro.sql import cancel as cancel_mod

        real_check = cancel_mod.CancelToken.check

        def counting_check(self):
            polls["n"] += 1
            return real_check(self)

        monkeypatch.setattr(cancel_mod.CancelToken, "check", counting_check)
        vdb.execute("SELECT sum(a) FROM t")
        assert polls["n"] >= 5  # one per 2-row batch over 10 rows


# ---------------------------------------------------------------------------
# Typed columns: the table's per-column "all exact ints" fact, trusted once
# per column instead of tested once per element
# ---------------------------------------------------------------------------

ROWS = 15

#: Everything the typed shapes touch: tagged arithmetic and comparison
#: feeding the compress() selection, the int folds, grouped keys by value,
#: a shared argument, streaming projection.
TYPED_QUERIES = [
    "SELECT count(*), sum(v), avg(v), count(v) FROM f",
    "SELECT count(*), sum(v) FROM f WHERE k + v < 60",
    "SELECT count(*), sum(k * 2 - v), avg(-v) FROM f WHERE k % 3 = 0",
    "SELECT g, count(*), sum(v), avg(v), count(v) FROM f GROUP BY g",
    "SELECT v, count(*), sum(k) FROM f WHERE k + v >= 10 GROUP BY v",
    "SELECT g, k / 2, sum(v + 1) FROM f GROUP BY g, k / 2",
    "SELECT k, v + 1, k < v FROM f WHERE v <> 3",
    "SELECT min(v), max(v), count(DISTINCT v), sum(DISTINCT g) FROM f",
]


def _table(db, odd):
    """``f(k, g, v)``: ROWS rows of exact ints, the last row's ``v``
    replaced by *odd* — through the storage API, since INSERT would coerce
    a bool or a float to the column's declared int."""
    db.execute("CREATE TABLE f(k int, g int, v int)")
    table = db.catalog.tables["f"]
    for i in range(ROWS - 1):
        table.insert((i, i % 3, (i * 7) % 11))
    table.insert((ROWS - 1, (ROWS - 1) % 3, odd))
    return table


def _outcome(db, sql):
    """The statement's rows (by ``repr``: 1, 1.0 and True differ) or its
    error, asserted equal under ``enable_vectorize`` on and off."""
    seen = []
    for setting in ("on", "off"):
        db.execute(f"SET enable_vectorize = {setting}")
        try:
            seen.append(repr(db.query_all(sql)))
        except SqlError as error:
            seen.append(f"{type(error).__name__}: {error}")
    db.execute("RESET enable_vectorize")
    assert seen[0] == seen[1], sql
    return seen[0]


class TestTypedColumns:
    @pytest.mark.parametrize("size", [1, 7, ROWS - 1, ROWS, ROWS + 1])
    @pytest.mark.parametrize("odd", [5, None, True, 2.5, 2 ** 63, -2 ** 63],
                             ids=repr)
    def test_one_odd_value_in_the_last_batch(self, db, monkeypatch, odd,
                                             size):
        monkeypatch.setattr(vector, "BATCH_SIZE", size)
        table = _table(db, odd)
        for sql in TYPED_QUERIES:
            assert "Vectorized" in _explain(db, sql)
            _outcome(db, sql)
        # k and g are all exact ints; v only if the odd value is one.
        assert table._col_cache[2] == [True, True, type(odd) is int]

    def test_typed_batches_are_counted(self, db):
        _table(db, 5)
        db.profiler.reset()
        db.query_all("SELECT sum(v) FROM f WHERE k + v < 60")
        assert db.profiler.counts["vector typed rows"] == ROWS
        assert db.profiler.counts["vector fallbacks"] == 0

    @pytest.mark.parametrize("arg", ["x", "v * 1.5", "x + v"])
    def test_float_folds_stay_sequential(self, db, monkeypatch, arg):
        # 1e16 + 1.0 + 1.0 .. is order-sensitive: a blocked or reordered
        # float sum would not reproduce the row engine's digits.
        monkeypatch.setattr(vector, "BATCH_SIZE", 4)
        db.execute("CREATE TABLE f(g int, v int, x float)")
        table = db.catalog.tables["f"]
        for i in range(ROWS):
            table.insert((i % 2, 10 ** 16 if i == 2 else i,
                          (1e16, 1.0, -1e16, 0.1)[i % 4]))
        _outcome(db, f"SELECT sum({arg}), avg({arg}) FROM f")
        _outcome(db, f"SELECT g, sum({arg}), avg({arg}) FROM f GROUP BY g")

    def test_float_total_refuses_the_int_fold(self):
        # An untyped first batch may leave a float total behind; the int
        # fold must not take over from it.
        from repro.sql.expr import IntColumn
        from repro.sql.functions import AvgAgg, SumAgg
        ints = IntColumn([1, 2, 3])
        assert repr(vector._accumulate(SumAgg(), 1e16, ints)) \
            == repr(1e16 + 1 + 2 + 3)
        assert repr(vector._accumulate(AvgAgg(), (1, 1e16), ints)) \
            == repr((4, 1e16 + 1 + 2 + 3))
        assert vector._accumulate(SumAgg(), None, IntColumn()) is None
        assert vector._accumulate(SumAgg(), None, ints) == 6
        assert vector._accumulate(AvgAgg(), (2, 2 ** 63), ints) \
            == (5, 2 ** 63 + 6)

    def test_update_to_null_and_back_flips_the_fact(self, db):
        table = _table(db, 5)
        sql = "SELECT count(v), sum(v), avg(v) FROM f WHERE k + v >= 0"
        before = _outcome(db, sql)
        assert table._col_cache[2] == [True, True, True]
        db.execute("UPDATE f SET v = NULL WHERE k = 3")
        assert _outcome(db, sql) != before
        assert table._col_cache[2] == [True, True, False]
        db.execute("UPDATE f SET v = 10 WHERE k = 3")
        assert _outcome(db, sql) == before
        assert table._col_cache[2] == [True, True, True]
        assert table._col_cache[0] is table.rows

    def test_uncached_row_lists_get_no_columns(self, db):
        table = _table(db, 5)
        sql = "SELECT count(v), sum(v) FROM f WHERE k + v >= 0"
        committed = _outcome(db, sql)
        cached = table._col_cache
        reader, writer = db.connect(), db.connect()
        reader.execute("BEGIN")
        assert repr(reader.execute(sql).rows) == committed  # snapshot taken
        writer.execute("BEGIN")
        writer.execute("UPDATE f SET v = NULL WHERE k = 3")
        # Uncommitted writes: the writer's row list is nobody's cache entry.
        assert repr(writer.execute(sql).rows) != committed
        assert repr(reader.execute(sql).rows) == committed
        assert table._col_cache is cached
        assert table.columns(table.rows, True) is None
        writer.execute("COMMIT")
        # The reader's older snapshot is not served the new list's columns.
        assert repr(reader.execute(sql).rows) == committed
        reader.execute("COMMIT")
        assert _outcome(db, sql) != committed
        assert table._col_cache[2] == [True, True, False]

    def test_streaming_projection_builds_no_columns(self, db):
        table = _table(db, 5)
        _outcome(db, "SELECT sum(v) FROM f")
        assert table._col_cache is not None
        db.execute("INSERT INTO f VALUES (99, 0, 1)")
        sql = "SELECT v + 1 FROM f LIMIT 3"
        assert "VectorProject" in _explain(db, sql)
        assert db.query_all(sql) == [(1,), (8,), (4,)]
        assert table._col_cache is None  # dropped with the old row list
        # ...but a streaming scan uses what a draining scan left behind.
        db.query_all("SELECT sum(v) FROM f")
        db.profiler.reset()
        assert db.query_all(sql) == [(1,), (8,), (4,)]
        assert db.profiler.counts["vector typed rows"] == ROWS + 1

    def test_row_engine_builds_no_columns(self, db):
        table = _table(db, 5)
        db.execute("SET enable_vectorize = off")
        for sql in TYPED_QUERIES:
            db.query_all(sql)
        assert table._col_cache is None

    @pytest.mark.parametrize("sql", [
        "SELECT sum(v), avg(v), count(v) FROM f",
        "SELECT g, sum(v), avg(v), count(v) FROM f GROUP BY g",
        "SELECT sum(v + k), avg(v + k), sum(k + v) FROM f WHERE g + 1 > 0",
    ])
    def test_shared_argument_is_evaluated_once(self, db, monkeypatch, sql):
        _table(db, 5)
        expected = _outcome(db, sql)
        fetched = []
        real = vector.Batch.column

        def counting(self, rel, index, sel):
            fetched.append(index)
            return real(self, rel, index, sel)

        monkeypatch.setattr(vector.Batch, "column", counting)
        assert repr(db.query_all(sql)) == expected
        assert fetched.count(2) == (2 if "k + v" in sql else 1)  # v

    @pytest.mark.parametrize("group", ["", " GROUP BY g"])
    @pytest.mark.parametrize("select, differ", [
        ("sum(v / 2), sum(v / 2.0)", True),
        ("sum(v + 1), avg(v + 1.0), sum(v + 1.0)", True),
        ("sum(v * 0), sum(v * -0.0)", True),
        ("count(v = 1), count(v = true)", False),  # the second is an error
        ("count(v + 1), count(v + '1')", False),
    ])
    def test_arguments_equal_but_for_a_literal_type_are_not_shared(
            self, db, select, differ, group):
        # Literal(2) == Literal(2.0) == Literal(True) as dataclasses; the
        # calls must still each get the form of their own argument.
        _table(db, 5)
        sql = f"SELECT {select} FROM f{group}"
        assert "Vectorized" in _explain(db, sql)
        _outcome(db, sql)
        if differ:
            for row in db.query_all(sql):
                assert repr(row[0]) != repr(row[-1])

    @pytest.mark.parametrize("size", [1, 7, ROWS])
    def test_error_in_a_later_batch_falls_back(self, db, monkeypatch, size):
        monkeypatch.setattr(vector, "BATCH_SIZE", size)
        _table(db, 5)
        db.profiler.reset()
        assert _outcome(db, "SELECT sum(1 / (k - 9)) FROM f") \
            == "ExecutionError: division by zero"
        assert _outcome(db, "SELECT 1 / (k - 9) FROM f") \
            == "ExecutionError: division by zero"
        # Row 9 lies beyond the LIMIT: the row engine never divides by 0.
        assert _outcome(db, "SELECT 1 / (k - 9) FROM f LIMIT 3") \
            == "[(0,), (0,), (0,)]"
        assert db.profiler.counts["vector fallbacks"] == (3 if size > 9
                                                          else 2)


# ---------------------------------------------------------------------------
# The batch hash join: joins and ORDER BY no longer send a core to the row
# engine
# ---------------------------------------------------------------------------

JROWS = 15

#: 2- and 3-way joins: duplicate keys on both sides, NULL keys, multi-column
#: keys, an ON residual, WHERE conjuncts on both leaves, aggregates over the
#: join, ORDER BY .. LIMIT above it, a streaming LIMIT.
JOIN_QUERIES = [
    "SELECT o.id, c.name FROM o JOIN c ON o.cust = c.id",
    "SELECT o.id, c.name FROM c JOIN o ON o.cust = c.id",
    "SELECT o.id, c.id, o.v + c.seg FROM o, c WHERE o.cust = c.id "
    "AND o.k < 60 AND c.seg <> 1",
    "SELECT o.id, c.name FROM o JOIN c ON o.cust = c.id AND o.v = c.seg",
    "SELECT o.id, c.name FROM o JOIN c ON o.cust = c.id AND o.v > c.seg "
    "WHERE o.k + c.seg < 70",
    "SELECT o.id, c.name, s.label, o.v FROM o JOIN c ON o.cust = c.id "
    "JOIN s ON c.seg = s.id WHERE o.k < 80 AND s.w < 8",
    "SELECT o.id, s.label FROM s JOIN (c JOIN o ON o.cust = c.id) "
    "ON c.seg = s.id WHERE c.name <> 'c2'",
    "SELECT count(*), sum(o.v), avg(o.k + c.seg), min(c.name) "
    "FROM o JOIN c ON o.cust = c.id",
    "SELECT c.seg, count(*), sum(o.v) FROM o JOIN c ON o.cust = c.id "
    "JOIN s ON c.seg = s.id GROUP BY c.seg",
    "SELECT s.label, count(*), sum(o.v) FROM o JOIN c ON o.cust = c.id "
    "JOIN s ON c.seg = s.id GROUP BY s.label ORDER BY 2 DESC, 1 LIMIT 2",
    "SELECT o.id, c.name, s.label, o.v FROM o JOIN c ON o.cust = c.id "
    "JOIN s ON c.seg = s.id WHERE o.k < 80 ORDER BY o.v DESC, o.id LIMIT 4",
    "SELECT o.id, c.name FROM o JOIN c ON o.cust = c.id "
    "ORDER BY c.name DESC NULLS LAST, o.id",
    "SELECT DISTINCT c.seg FROM o JOIN c ON o.cust = c.id ORDER BY 1",
    "SELECT o.id, c.name FROM o JOIN c ON o.cust = c.id LIMIT 3",
    "SELECT o.id FROM o JOIN c ON o.cust = c.id WHERE c.id < 0",  # no build
    "SELECT o.id FROM o JOIN c ON o.cust = c.id WHERE o.id < 0",  # no probe
]


def _join_tables(db):
    """``o`` (JROWS rows), ``c`` (6), ``s`` (3): ``o.cust`` repeats and is
    NULL in places, ``c.id`` has a duplicate and a NULL, ``c.seg`` repeats."""
    db.execute("CREATE TABLE o(id int, cust int, k int, v int)")
    db.execute("CREATE TABLE c(id int, seg int, name text)")
    db.execute("CREATE TABLE s(id int, label text, w int)")
    for i in range(JROWS):
        db.execute("INSERT INTO o VALUES ($1, $2, $3, $4)",
                   [i, None if i % 7 == 3 else i % 5, (i * 37) % 100, i % 4])
    for row in [(0, 0, "c0"), (1, 1, "c1"), (2, 1, "c2"), (2, 2, "c2b"),
                (None, 0, "cn"), (4, None, None)]:
        db.execute("INSERT INTO c VALUES ($1, $2, $3)", list(row))
    for row in [(0, "s0", 3), (1, "s1", 9), (2, "s2", 5)]:
        db.execute("INSERT INTO s VALUES ($1, $2, $3)", list(row))


class TestVectorJoin:
    @pytest.mark.parametrize("pull", [1, 3, base.ROWS_PER_PULL])
    @pytest.mark.parametrize("size", [1, 7, JROWS - 1, JROWS, JROWS + 1])
    def test_joins_equal_the_row_engine(self, db, monkeypatch, size, pull):
        monkeypatch.setattr(vector, "BATCH_SIZE", size)
        monkeypatch.setattr(base, "ROWS_PER_PULL", pull)
        _join_tables(db)
        db.profiler.reset()
        for sql in JOIN_QUERIES:
            assert "VectorHashJoin" in _explain(db, sql), sql
            _outcome(db, sql)
        assert db.profiler.counts["vector fallbacks"] == 0
        assert db.profiler.counts["vector join rows"] > 0

    def test_both_build_sides(self, db):
        _join_tables(db)
        left = "SELECT o.id, c.name FROM c JOIN o ON o.cust = c.id"
        right = "SELECT o.id, c.name FROM o JOIN c ON o.cust = c.id"
        assert "[build=left]" in _explain(db, left)
        assert "[build=right]" in _explain(db, right)
        # Same pairs, in the probe side's (o's) order either way.
        assert _outcome(db, left) == _outcome(db, right)

    def test_analytic_shape_runs_under_topn(self, db):
        _join_tables(db)
        sql = ("SELECT o.id, c.name, s.label, o.v FROM o "
               "JOIN c ON o.cust = c.id JOIN s ON c.seg = s.id "
               "WHERE o.k < 80 AND s.w < 8 ORDER BY o.v DESC, o.id LIMIT 4")
        lines = _explain(db, sql).splitlines()
        assert lines[1].strip().startswith("-> TopN (n=4)")
        assert lines[2].strip().startswith("-> VectorizedSelect")
        assert sum("VectorHashJoin" in line for line in lines) == 2
        assert sum("(pushed-down filter)" in line for line in lines) == 2
        db.profiler.reset()
        _outcome(db, sql)
        assert db.profiler.counts["vector fallbacks"] == 0
        assert db.profiler.counts["hash join builds"] == 4  # 2 per engine

    def test_grouped_aggregate_sorts_the_vector_engines_output(self, db):
        # ROADMAP item 2's second mis-selection: ORDER BY over a grouped
        # aggregate used to send the whole core to the row engine.
        _table(db, 5)
        for tail, above in [("ORDER BY g", "Sort"),
                            ("ORDER BY 2 DESC LIMIT 3", "TopN (n=3)")]:
            sql = f"SELECT g, count(*), sum(v) FROM f GROUP BY g {tail}"
            lines = _explain(db, sql).splitlines()
            assert any(above in line for line in lines[:2]), sql
            assert any("VectorizedAggregate+Select" in line
                       for line in lines[1:3]), sql
            db.profiler.reset()
            _outcome(db, sql)
            assert db.profiler.counts["vector batches"] > 0
            assert db.profiler.counts["vector fallbacks"] == 0

    def test_streaming_limit_probes_one_batch(self, db, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 4)
        _join_tables(db)
        sql = "SELECT o.id, c.name FROM o JOIN c ON o.cust = c.id LIMIT 3"
        expected = _outcome(db, sql)
        db.profiler.reset()
        assert repr(db.query_all(sql)) == expected
        # Two batches drain c (6 rows, the build side), one probes o.
        assert db.profiler.counts["vector batches"] == 3
        assert db.profiler.counts["hash join build rows"] == 5  # c.id NULL

    def test_key_class_mismatch_falls_back_to_the_row_engines_error(self, db):
        _join_tables(db)
        sql = "SELECT o.id FROM o JOIN c ON o.cust = c.name"
        assert "VectorHashJoin" in _explain(db, sql)
        db.profiler.reset()
        assert _outcome(db, sql) == "TypeError_: cannot compare int with str"
        assert db.profiler.counts["vector fallbacks"] == 1

    def test_key_class_mismatch_beyond_the_limit_is_silent(self, db,
                                                           monkeypatch):
        # One text key in o's last row: the batch join probes it with the
        # rest of its batch and falls back; the row engine stops at LIMIT 3
        # before reaching it.
        monkeypatch.setattr(vector, "BATCH_SIZE", JROWS + 1)
        _join_tables(db)
        db.catalog.tables["o"].insert((99, "zero", 1, 1))
        sql = "SELECT o.id, c.name FROM o JOIN c ON o.cust = c.id"
        db.profiler.reset()
        assert _outcome(db, sql) == "TypeError_: cannot compare str with int"
        assert len(eval(_outcome(db, sql + " LIMIT 3"))) == 3
        assert db.profiler.counts["vector fallbacks"] == 2

    def test_same_transaction_dml_is_seen(self, db):
        _join_tables(db)
        sql = ("SELECT count(*), sum(o.v) FROM o JOIN c ON o.cust = c.id "
               "WHERE c.seg < 2")
        conn = db.connect()
        before = conn.execute(sql).rows
        conn.execute("BEGIN")
        conn.execute("UPDATE c SET seg = 5 WHERE id = 1")
        conn.execute("INSERT INTO o VALUES (50, 0, 1, 100)")
        inside = conn.execute(sql).rows
        conn.execute("SET enable_vectorize = off")
        assert conn.execute(sql).rows == inside != before
        conn.execute("ROLLBACK")
        conn.execute("RESET enable_vectorize")
        assert conn.execute(sql).rows == before

    def test_other_doors_answer_the_same(self, db):
        # INSERT .. SELECT and a prepared handle run the same plans.
        _join_tables(db)
        select = ("SELECT o.id, c.name, o.v FROM o JOIN c ON o.cust = c.id "
                  "WHERE o.k < $1 ORDER BY o.v DESC, o.id")
        conn = db.connect()
        handle = conn.prepare(select)
        assert "VectorHashJoin" in handle.explain()
        db.execute("CREATE TABLE sink(id int, name text, v int)")
        seen = []
        for setting in ("on", "off"):
            conn.execute(f"SET enable_vectorize = {setting}")
            db.execute(f"SET enable_vectorize = {setting}")
            db.execute("DELETE FROM sink")
            db.execute("INSERT INTO sink " + select.replace("$1", "70"))
            seen.append((repr(handle.execute([70]).rows),
                         repr(handle.execute([30]).rows),
                         repr(db.query_all("SELECT * FROM sink"))))
        assert seen[0] == seen[1]
        assert seen[0][0] == seen[0][2] != seen[0][1]

    def test_build_is_kept_across_rescans(self, db):
        # The joining subquery is the re-opened right side of a nested
        # loop: its uncorrelated build side is hashed once per execution.
        _join_tables(db)
        sql = ("SELECT s.id, j.name FROM s JOIN (SELECT o.v, c.name FROM o "
               "JOIN c ON o.cust = c.id) AS j ON j.v < s.id")
        text = _explain(db, sql)
        assert "NestLoop" in text and "VectorHashJoin" in text
        for setting in ("on", "off"):
            db.execute(f"SET enable_vectorize = {setting}")
            db.profiler.reset()
            db.query_all(sql)
            assert db.profiler.counts["hash join builds"] == 1, setting
        _outcome(db, sql)
