"""INSERT, UPDATE and DELETE semantics, through every door into the engine.

A statement means the same thing however it arrives: as text, as a parsed
AST, through a prepared handle or through SQL ``PREPARE`` / ``EXECUTE``.
Each semantic case below therefore runs once per door (the ``run``
fixture).  What is pinned: a statement reads the table as it stood before
the statement (self-referencing subqueries, ``SET a = b, b = a``), is
all-or-nothing (an error on the last target leaves the heap and both
kinds of index untouched), keeps heap order whatever access path found
its targets, and sees and conflicts on row versions exactly as a SELECT
with the same predicate would.  The ``EXPLAIN`` cases pin the plan a
modifying statement runs: ``Update`` / ``Delete`` over the target scan
the planner chose, ``Insert`` over its source.
"""

from __future__ import annotations

import pytest

from repro.server import ServerThread, connect
from repro.server.protocol import SQLSTATE_FOR_LABEL
from repro.sql import Database
from repro.sql.errors import (ExecutionError, SerializationError,
                              error_class)
from repro.sql.parser import parse_statement

ROWS = [(1, 10, 100), (2, 20, 200), (3, 30, 300), (4, 40, 400),
        (5, 50, 500)]


def make_db() -> Database:
    """``t(id, a, b)`` with a declared sorted index on ``id``; the hash
    index on ``id`` exists from the first equality probe on."""
    db = Database(seed=0)
    db.execute("CREATE TABLE t(id int, a int, b int)")
    db.execute("CREATE INDEX t_id ON t(id)")
    db.execute("INSERT INTO t VALUES " + ", ".join(map(str, ROWS)))
    assert db.query_all("SELECT a FROM t WHERE id = 3") == [(30,)]
    return db


@pytest.fixture()
def db() -> Database:
    return make_db()


def _by_text(db, sql):
    return db.execute(sql)


def _by_ast(db, sql):
    return db.execute_ast(parse_statement(sql))


def _by_handle(db, sql):
    return db.connect().prepare(sql).execute()


def _by_sql_prepare(db, sql):
    db.execute(f"PREPARE door AS {sql}")
    try:
        return db.execute("EXECUTE door")
    finally:
        db.execute("DEALLOCATE door")


DOORS = {"text": _by_text, "ast": _by_ast, "handle": _by_handle,
         "sql_prepare": _by_sql_prepare}


@pytest.fixture(params=sorted(DOORS))
def run(request, db):
    """``run(sql) -> affected rows`` through one of the doors."""
    door = DOORS[request.param]

    def run(sql: str) -> int:
        result = door(db, sql)
        assert result.columns == ["count"]
        return result.scalar()

    return run


def heap(db) -> list[tuple]:
    """The table in heap order (no ORDER BY, no index)."""
    return db.query_all("SELECT id, a, b FROM t")


def probes(db) -> dict:
    """What each access path says the table holds: the sequential scan,
    the hash index (one probe per id ever used here) and the sorted
    index, ranged and as ordered delivery."""
    return {
        "seq": sorted(db.query_all("SELECT id, a, b FROM t WHERE id + 0 > 0")),
        "hash": [db.query_all(f"SELECT id, a, b FROM t WHERE id = {k}")
                 for k in [*range(0, 13), 100]],
        "range": db.query_all(
            "SELECT id, a, b FROM t WHERE id BETWEEN 0 AND 1000"),
        "ordered": db.query_all("SELECT id, a, b FROM t ORDER BY id"),
    }


def assert_paths_agree(db) -> None:
    seen = probes(db)
    truth = seen["seq"]
    assert sorted(row for hit in seen["hash"] for row in hit) == truth
    assert sorted(seen["range"]) == truth
    assert sorted(seen["ordered"]) == truth
    assert [r[0] for r in seen["ordered"]] == sorted(r[0] for r in truth)


# ---------------------------------------------------------------------------
# Semantics, per door
# ---------------------------------------------------------------------------

class TestSemantics:
    def test_delete_subquery_sees_the_pre_statement_table(self, db, run):
        # avg(a) = 30 over the table as it was; were the average
        # recomputed as rows go, 30 itself would eventually fall below it.
        assert run("DELETE FROM t WHERE a < (SELECT avg(a) FROM t)") == 2
        assert heap(db) == ROWS[2:]
        assert_paths_agree(db)

    def test_update_subquery_sees_the_pre_statement_table(self, db, run):
        assert run("UPDATE t SET a = (SELECT max(a) FROM t) + id") == 5
        assert [r[1] for r in heap(db)] == [51, 52, 53, 54, 55]

    def test_assignments_read_the_old_row(self, db, run):
        assert run("UPDATE t SET a = b, b = a") == 5
        assert heap(db) == [(i, b, a) for i, a, b in ROWS]

    def test_error_on_last_target_leaves_heap_and_indexes(self, db, run):
        before = probes(db)
        with pytest.raises(ExecutionError, match="division by zero"):
            run("UPDATE t SET id = id + 10, a = 10 / (5 - id)")
        assert heap(db) == ROWS
        assert probes(db) == before
        with pytest.raises(ExecutionError, match="division by zero"):
            run("DELETE FROM t WHERE 10 / (5 - id) > 0")
        assert heap(db) == ROWS
        assert probes(db) == before

    def test_key_equals_null_matches_nothing(self, db, run):
        assert run("UPDATE t SET a = 0 WHERE id = NULL") == 0
        assert run("DELETE FROM t WHERE id = NULL") == 0
        assert heap(db) == ROWS

    @pytest.mark.parametrize("predicate", ["id = 3", "id BETWEEN 2 AND 4",
                                           "id > 3", "b = 300 AND id = 3"])
    def test_heap_order_does_not_depend_on_the_access_path(
            self, db, run, predicate):
        """The replacement version sits where its predecessor sat,
        whether the target came from an index or from a scan."""
        hidden = predicate.replace("id ", "id + 0 ")
        other = make_db()
        count = run(f"UPDATE t SET a = a + 1 WHERE {predicate}")
        assert count == other.execute(
            f"UPDATE t SET a = a + 1 WHERE {hidden}").scalar() > 0
        assert heap(db) == heap(other)
        assert [r[0] for r in heap(db)] == [1, 2, 3, 4, 5]
        assert run(f"DELETE FROM t WHERE {predicate}") == count
        other.execute(f"DELETE FROM t WHERE {hidden}")
        assert heap(db) == heap(other)
        assert_paths_agree(db)

    @pytest.mark.parametrize("low,high", [(3, 6), (3, 30)])
    def test_targets_arriving_out_of_heap_order(self, low, high):
        """A range scan hands over its targets in key order; few or many
        (the heap places up to eight replacements one by one and rebuilds
        its list beyond that), each lands behind its own predecessor."""
        def scrambled():
            db = Database(seed=0)
            db.execute("CREATE TABLE s(id int, k int, n int)")
            db.execute("CREATE INDEX s_k ON s(k)")
            db.catalog.get_table("s").insert_many(
                [(i, (i * 7) % 40, 0) for i in range(40)])
            return db

        keyed, hidden = scrambled(), scrambled()
        assert "IndexRangeScan on s (k >= " in keyed.explain(
            f"UPDATE s SET n = 1 WHERE k BETWEEN {low} AND {high}")
        for n in (1, 2):
            count = keyed.execute(f"UPDATE s SET n = {n} WHERE k BETWEEN "
                                  f"{low} AND {high}").scalar()
            assert count == high - low + 1 == hidden.execute(
                f"UPDATE s SET n = {n} WHERE k + 0 BETWEEN {low} AND {high}"
            ).scalar()
            rows = keyed.query_all("SELECT id, k, n FROM s")
            assert rows == hidden.query_all("SELECT id, k, n FROM s")
            assert [r[0] for r in rows] == list(range(40))
            assert sum(r[2] for r in rows) == n * count

    def test_update_of_the_indexed_column(self, db, run):
        assert run("UPDATE t SET id = id + 5 WHERE id >= 4") == 2
        assert_paths_agree(db)
        assert db.query_all("SELECT a FROM t WHERE id = 4") == []
        assert db.query_all("SELECT a FROM t WHERE id = 9") == [(40,)]
        assert run("UPDATE t SET a = 0 WHERE id = 9") == 1
        assert run("UPDATE t SET a = 0 WHERE id = 4") == 0
        assert run("DELETE FROM t WHERE id = 10") == 1
        assert_paths_agree(db)

    def test_insert_select_from_its_own_target(self, db, run):
        assert run("INSERT INTO t SELECT id + 5, a, b FROM t") == 5
        assert [r[0] for r in heap(db)] == list(range(1, 11))
        assert run("INSERT INTO t(id) VALUES (11), (12)") == 2
        assert heap(db)[-1] == (12, None, None)
        assert_paths_agree(db)

    def test_insert_arity_error_inserts_nothing(self, db, run):
        with pytest.raises(ExecutionError, match="INSERT expects 2 values"):
            run("INSERT INTO t(id, a) SELECT id + 5, a, b FROM t")
        assert heap(db) == ROWS


# ---------------------------------------------------------------------------
# Transactions: visibility and conflicts through the index
# ---------------------------------------------------------------------------

class TestTransactions:
    def test_own_writes_are_visible_through_the_index(self, db):
        writer, reader = db.connect(), db.connect()
        writer.execute("BEGIN")
        assert writer.execute(
            "UPDATE t SET id = 100, a = 1 WHERE id = 1").scalar() == 1
        # The writer finds its new version by the new key and not by the
        # old one; everyone else still sees the committed row.
        assert writer.query_all("SELECT a FROM t WHERE id = 100") == [(1,)]
        assert writer.query_all("SELECT a FROM t WHERE id = 1") == []
        assert reader.query_all("SELECT a FROM t WHERE id = 1") == [(10,)]
        assert reader.query_all("SELECT a FROM t WHERE id = 100") == []
        assert writer.execute(
            "UPDATE t SET a = 2 WHERE id = 100").scalar() == 1
        assert writer.execute(
            "UPDATE t SET a = 3 WHERE id = 1").scalar() == 0
        assert writer.execute("DELETE FROM t WHERE id = 2").scalar() == 1
        assert writer.query_all("SELECT a FROM t WHERE id = 2") == []
        assert reader.query_all("SELECT a FROM t WHERE id = 2") == [(20,)]
        writer.execute("COMMIT")
        assert reader.query_all("SELECT a FROM t WHERE id = 100") == [(2,)]
        assert reader.query_all("SELECT a FROM t WHERE id = 2") == []
        assert_paths_agree(db)

    def test_rolled_back_writes_vanish_from_every_path(self, db):
        before = probes(db)
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("UPDATE t SET id = id + 5 WHERE id = 1")
        conn.execute("DELETE FROM t WHERE id = 2")
        conn.execute("INSERT INTO t VALUES (7, 70, 700)")
        conn.execute("ROLLBACK")
        assert heap(db) == ROWS
        assert probes(db) == before

    @pytest.mark.parametrize("second", ["UPDATE t SET a = 0 WHERE id = 1",
                                        "DELETE FROM t WHERE id = 1"])
    def test_concurrent_keyed_write_is_40001(self, db, second):
        first, other = db.connect(), db.connect()
        first.execute("BEGIN")
        first.execute("UPDATE t SET a = a + 1 WHERE id = 1")
        with pytest.raises(SerializationError) as info:
            other.execute(second)
        assert SQLSTATE_FOR_LABEL[error_class(info.value)] == "40001"
        # A different key does not conflict.
        assert other.execute(
            "UPDATE t SET a = 0 WHERE id = 2").scalar() == 1
        first.execute("COMMIT")
        assert db.query_all("SELECT a FROM t WHERE id = 1") == [(11,)]

    def test_snapshot_older_than_a_committed_write_is_40001(self, db):
        old = db.connect()
        old.execute("BEGIN")
        assert old.query_value("SELECT count(*) FROM t") == 5
        db.execute("UPDATE t SET a = 0 WHERE id = 1")
        with pytest.raises(SerializationError, match="committed after"):
            old.execute("UPDATE t SET a = 1 WHERE id = 1")
        old.execute("ROLLBACK")


# ---------------------------------------------------------------------------
# executemany
# ---------------------------------------------------------------------------

class TestExecuteMany:
    def test_update_runs_once_per_parameter_set(self, db):
        cur = db.connect().cursor()
        cur.executemany("UPDATE t SET a = a + $2 WHERE id = $1",
                        [(1, 1), (2, 2), (1, 5), (9, 9)])
        assert cur.rowcount == 3
        assert [r[1] for r in heap(db)] == [16, 22, 30, 40, 50]
        assert_paths_agree(db)

    def test_insert_source_reading_its_target_sees_earlier_sets(self, db):
        cur = db.connect().cursor()
        cur.executemany(
            "INSERT INTO t SELECT max(id) + 1, $1, count(*) FROM t",
            [(7,), (8,), (9,)])
        assert cur.rowcount == 3
        assert heap(db)[5:] == [(6, 7, 5), (7, 8, 6), (8, 9, 7)]
        assert_paths_agree(db)

    def test_delete_sums_its_counts(self, db):
        cur = db.connect().cursor()
        cur.executemany("DELETE FROM t WHERE id >= $1 AND id <= $2",
                        [(1, 2), (2, 3), (5, 5)])
        assert cur.rowcount == 4
        assert heap(db) == [ROWS[3]]


# ---------------------------------------------------------------------------
# Over the wire
# ---------------------------------------------------------------------------

def test_command_tags_over_the_wire():
    db = make_db()
    with ServerThread(db) as address, connect(*address) as client:
        def tag(sql):
            return client.query(sql)[-1].command_tag

        assert tag("UPDATE t SET a = 0 WHERE id = 3") == "UPDATE 1"
        assert tag("UPDATE t SET a = 0 WHERE id > 3") == "UPDATE 2"
        assert tag("UPDATE t SET a = 0 WHERE id = 33") == "UPDATE 0"
        assert tag("INSERT INTO t SELECT id + 5, a, b FROM t") == \
            "INSERT 0 5"
        assert tag("DELETE FROM t WHERE id BETWEEN 6 AND 8") == "DELETE 3"
        client.query("PREPARE up(int) AS UPDATE t SET b = 0 WHERE id = $1")
        assert tag("EXECUTE up(9)") == "UPDATE 1"
        assert tag("EXECUTE up(8)") == "UPDATE 0"
        assert tag("DELETE FROM t") == "DELETE 7"


# ---------------------------------------------------------------------------
# EXPLAIN: the plan a modifying statement runs
# ---------------------------------------------------------------------------

class TestExplain:
    def test_update_and_delete_over_the_chosen_target_scan(self, db):
        for verb, head in (("UPDATE t SET a = 0", "Update on t"),
                           ("DELETE FROM t", "Delete on t")):
            keyed = db.explain(f"{verb} WHERE id = 3")
            assert head in keyed.split("\n")[0]
            assert "IndexScan on t (id)" in keyed
            ranged = db.explain(f"{verb} WHERE id > 3 AND a > 0")
            assert head in ranged and "IndexRangeScan on t (id > 3)" in ranged
            hidden = db.explain(f"{verb} WHERE id + 0 = 3")
            assert head in hidden and "SeqScan on t" in hidden
            assert "SeqScan on t" in db.explain(verb)
        assert heap(db) == ROWS

    def test_enable_rangescan_flips_the_target_scan(self, db):
        sql = "EXPLAIN UPDATE t SET a = 0 WHERE id >= 2 AND id < 4"

        def text():
            return "\n".join(line for (line,) in db.execute(sql).rows)

        assert "IndexRangeScan on t" in text()
        db.execute("SET enable_rangescan = off")
        assert "SeqScan on t" in text() and "IndexRangeScan" not in text()
        assert db.execute(sql[len("EXPLAIN "):]).scalar() == 2
        db.execute("RESET enable_rangescan")
        assert "IndexRangeScan on t" in text()
        assert db.execute(
            "UPDATE t SET a = 1 WHERE id >= 2 AND id < 4").scalar() == 2
        assert [r[1] for r in heap(db)] == [10, 1, 1, 40, 50]

    def test_insert_over_its_source(self, db):
        text = db.explain("INSERT INTO t SELECT id + 5, a, b FROM t "
                          "WHERE id = 2")
        assert "Insert on t" in text.split("\n")[0]
        assert "IndexScan on t (id)" in text
        assert "Values (2 rows)" in db.explain(
            "INSERT INTO t(id) VALUES (6), (7)")
        assert heap(db) == ROWS

    def test_explain_execute_of_a_prepared_update(self, db):
        conn = db.connect()
        handle = conn.prepare("UPDATE t SET a = a + 1 WHERE id = $1", "up")
        assert "Update on t" in handle.explain()
        assert "IndexScan on t (id)" in handle.explain()
        rows = conn.execute("EXPLAIN EXECUTE up").rows
        assert "Update on t" in rows[0][0]
        assert heap(db) == ROWS
        assert handle.execute([3]).scalar() == 1
        assert heap(db)[2] == (3, 31, 300)
