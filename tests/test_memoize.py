"""Memoized subplans and call sites (executor/memo.py): memo = no memo.

Every statement runs twice - with the memo tables' capacity at its default
and at 0, where a table caches nothing and every re-open runs the child
(every call runs an activation) as before - and the two outcomes must
agree by ``repr``, row order included, errors by class and message.
Beside that: where the planner wraps (correlated, nothing volatile, no
key bound to a volatile expression, base tables only, not the PL/pgSQL
interpreter's own embedded query), the prefix semantics (a hit pulls what
the consumer pulls, a longer pull refills), invalidation by a write in the
same statement, signed-zero keys, row keys made once, release at
ExecutorEnd, and the compiled call sites memoized by argument values
through the same table and key function.
"""

from __future__ import annotations

import pytest

from repro.sql import Database, values
from repro.sql.catalog import FunctionDef
from repro.sql.errors import SqlError
from repro.sql.executor import memo, trampoline
from repro.sql.profiler import (BATCHED_UDF_DISTINCT, BATCHED_UDF_ROWS,
                                MEMO_CARRIED_HITS, MEMO_HITS, MEMO_MISSES,
                                PLAN_CACHE_HIT, PLAN_INSTANTIATIONS,
                                SWITCH_F_TO_Q, TRAMPOLINE_ITERATIONS)


def outcome(db: Database, sql: str, before: str = ""):
    if before:
        db.execute(before)
    db.profiler.reset()
    try:
        return repr(db.query_all(sql))
    except SqlError as error:
        return f"{type(error).__name__}: {error}"


def memo_equals_no_memo(db: Database, sql: str, monkeypatch,
                        before: str = "") -> dict:
    """Run *sql* (after *before*) with and without the memo; assert the
    outcomes agree and return the memo counters of the run with it."""
    with monkeypatch.context() as patch:
        patch.setattr(memo, "MEMO_ENTRIES", 0)
        without = outcome(db, sql, before)
    with_memo = outcome(db, sql, before)
    counts = {name: db.profiler.counts[name]
              for name in (MEMO_HITS, MEMO_MISSES)}
    assert with_memo == without, (sql, with_memo, without)
    return counts


@pytest.fixture()
def kdb() -> Database:
    """t: twelve outer rows over three keys; u: three rows per key."""
    db = Database(seed=0)
    db.execute("CREATE TABLE t(id int, k int, x int)")
    db.execute("CREATE TABLE u(k int, v int, name text)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i % 3}, {i % 5})" for i in range(12)))
    db.execute("INSERT INTO u VALUES " + ", ".join(
        f"({k}, {v}, 'n{k}{v}')" for k in range(3) for v in range(4)
        if v != k))
    return db


SHAPES = {
    "scalar": "SELECT t.id, (SELECT sum(u.v) FROM u WHERE u.k = t.k) "
              "FROM t ORDER BY t.id",
    "exists": "SELECT t.id FROM t WHERE EXISTS "
              "(SELECT 1 FROM u WHERE u.k = t.k AND u.v > 1) ORDER BY 1",
    "derived window": "SELECT t.id, (SELECT max(w.r * w.v) FROM "
                      "(SELECT u.v, row_number() OVER (ORDER BY u.v DESC) "
                      "AS r FROM u WHERE u.k = t.k) AS w) FROM t",
    "derived aggregate": "SELECT t.id, (SELECT s.n + s.m FROM "
                         "(SELECT count(*) AS n, max(u.v) AS m FROM u "
                         "WHERE u.k = t.k) AS s) FROM t",
    "lateral": "SELECT t.id, s.name FROM t, LATERAL (SELECT u.name FROM u "
               "WHERE u.k = t.k ORDER BY u.v LIMIT 2) AS s",
    # The inner subquery reads t.k one scope further out than u2.v.
    "nested": "SELECT t.id, (SELECT max(u2.v * 10 + (SELECT sum(u.v) FROM u "
              "WHERE u.k = t.k AND u.v <> u2.v)) FROM u AS u2 "
              "WHERE u2.k = 0) FROM t",
    "in": "SELECT t.id, t.x IN (SELECT u.v FROM u WHERE u.k = t.k) FROM t",
    "not in": "SELECT t.id, t.x NOT IN (SELECT u.v FROM u WHERE u.k = t.k) "
              "FROM t",
}


class TestMemoEqualsNoMemo:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape(self, kdb, monkeypatch, shape):
        counts = memo_equals_no_memo(kdb, SHAPES[shape], monkeypatch)
        assert counts[MEMO_HITS] > 0, shape

    def test_lateral_source_shows_in_explain(self, kdb):
        plan = kdb.explain(SHAPES["lateral"])
        assert "-> Memoize (keys: t.k)" in plan
        lines = plan.splitlines()
        at = next(i for i, line in enumerate(lines) if "Memoize" in line)
        # A line added above the child, which keeps its indent.
        assert lines[at + 1].index("->") == lines[at].index("->")

    def test_in_refills_the_prefix(self, kdb, monkeypatch):
        """Rows sharing a key probe different values: a hit that wants
        more rows than an earlier open pulled re-opens the child past the
        prefix.  Key 0 holds v = 1, 2, 3.  The first open passes through;
        probe 1 misses and stops at the first row, probe 4 wants all three
        (a refill after one row), 2 and 3 are served from the prefix."""
        kdb.execute("DELETE FROM t")
        kdb.execute("INSERT INTO t VALUES (0, 0, 1), (1, 0, 1), (2, 0, 4), "
                    "(3, 0, 2), (4, 0, 3)")
        refills = []
        original = memo.MemoizeState.next

        def counting(state):
            entry = state.entry
            if entry is not None and not state.live and not entry[1] \
                    and state.pos == len(entry[0]):
                refills.append(state.pos)
            return original(state)

        # IN reads duplicates like the rows they repeat, so the entry the
        # refill leaves is checked itself, as ExecutorEnd finds it.
        entries = []
        release = memo.MemoTable.release

        def keep_entries(table):
            entries.append(dict(table.entries))
            release(table)

        monkeypatch.setattr(memo.MemoizeState, "next", counting)
        monkeypatch.setattr(memo.MemoTable, "release", keep_entries)
        counts = memo_equals_no_memo(kdb, SHAPES["in"], monkeypatch)
        assert refills == [1]
        assert counts == {MEMO_HITS: 3, MEMO_MISSES: 1}
        assert entries[-1] == {(("int", 0),): [[(1,), (2,), (3,)], True]}
        assert kdb.query_all(SHAPES["in"]) == [
            (0, True), (1, True), (2, False), (3, True), (4, True)]

    def test_laziness_survives_hits(self, kdb, monkeypatch):
        """EXISTS stops at its first row with or without the memo, so the
        division by zero in a later row raises exactly when it did."""
        kdb.execute("INSERT INTO u VALUES (0, 20, 'z'), (1, 20, 'z')")
        stops = ("SELECT t.id FROM t WHERE EXISTS (SELECT 1 FROM u "
                 "WHERE u.k = t.k AND 100 / (u.v - 20) < 0) ORDER BY 1")
        assert memo_equals_no_memo(kdb, stops, monkeypatch)[MEMO_HITS] > 0
        assert "division by zero" not in outcome(kdb, stops)
        raises = ("SELECT t.id, t.x IN (SELECT 100 / (u.v - 20) FROM u "
                  "WHERE u.k = t.k) FROM t")
        memo_equals_no_memo(kdb, raises, monkeypatch)
        assert "division by zero" in outcome(kdb, raises)

    def test_signed_zero_keys(self, monkeypatch):
        db = Database(seed=0)
        db.execute("CREATE TABLE z(id int, f float)")
        db.execute("INSERT INTO z VALUES (1, 0.0), (2, -0.0), (3, 0.0), "
                   "(4, -0.0)")
        db.execute("CREATE TABLE one(n int)")
        db.execute("INSERT INTO one VALUES (1)")
        sql = ("SELECT z.id, (SELECT CAST(z.f AS text) FROM one "
               "WHERE one.n = 1) FROM z")
        # The first open passes through: 0.0 misses once, -0.0 hits once.
        counts = memo_equals_no_memo(db, sql, monkeypatch)
        assert counts == {MEMO_HITS: 1, MEMO_MISSES: 2}
        assert db.query_all(sql) == [(1, "0.0"), (2, "-0.0"), (3, "0.0"),
                                     (4, "-0.0")]


class TestWhereItWraps:
    def counts(self, db, sql) -> tuple[int, int]:
        outcome(db, sql)
        return db.profiler.counts[MEMO_HITS], db.profiler.counts[MEMO_MISSES]

    def test_uncorrelated_subquery_is_not_wrapped(self, kdb):
        sql = "SELECT t.id, (SELECT max(u.v) FROM u) FROM t"
        assert self.counts(kdb, sql) == (0, 0)

    def test_random_is_not_memoized(self, kdb):
        sql = ("SELECT t.id, (SELECT sum(u.v) + random() FROM u "
               "WHERE u.k = t.k) FROM t")
        assert self.counts(kdb, sql) == (0, 0)

    #: A LATERAL source reading a column of an earlier one; {r} is what
    #: that column is bound to.
    LATERAL_KEY = ("SELECT t.id, s.name FROM t, LATERAL (SELECT {r} AS r) "
                   "AS d, LATERAL (SELECT u.name FROM u WHERE u.k = t.k AND "
                   "u.v > d.r * 4 ORDER BY u.v LIMIT 1) AS s ORDER BY t.id")
    #: The same key read by an expression subquery over a plain derived
    #: table.
    DERIVED_KEY = ("SELECT d.id, (SELECT count(*) FROM u WHERE u.k = d.k "
                   "AND u.v > d.r * 4) FROM (SELECT t.id, t.k, {r} AS r "
                   "FROM t) AS d ORDER BY d.id")

    @pytest.mark.parametrize("shape", ["LATERAL_KEY", "DERIVED_KEY"])
    def test_key_bound_to_a_draw_is_not_memoized(self, kdb, monkeypatch,
                                                 shape):
        """A key column bound directly to ``random()`` takes a new value
        on every row: no Memoize reads it (PostgreSQL costs Memoize by the
        key's distinct values, here one per row).  The same shape over a
        key that repeats keeps its memo."""
        sql = getattr(self, shape)
        drawn = sql.format(r="random()")
        assert "Memoize" not in kdb.explain(drawn)
        counts = memo_equals_no_memo(kdb, drawn, monkeypatch,
                                     "SELECT setseed(0.5)")
        assert counts == {MEMO_HITS: 0, MEMO_MISSES: 0}
        repeating = sql.format(r="t.k / 2.0")
        if shape == "LATERAL_KEY":
            assert "Memoize (keys: t.k, d.r)" in kdb.explain(repeating)
        assert memo_equals_no_memo(kdb, repeating,
                                   monkeypatch)[MEMO_HITS] > 0

    def test_few_valued_draw_loses_its_memo(self, kdb, monkeypatch):
        """The rule assumes a key bound to a volatile expression never
        repeats, as PostgreSQL's distinct-value estimate does.  A
        few-valued draw breaks that assumption: ``floor(random() * 3)``
        takes at most three values over twelve rows, so a memo keyed by it
        would hit, yet none is built.  This is a known, accepted cost, in
        speed only: the rows are the plain rescan's.  The same few values
        read from a column keep a memo that hits."""
        drawn = self.LATERAL_KEY.format(r="floor(random() * 3)")
        assert "Memoize" not in kdb.explain(drawn)
        assert memo_equals_no_memo(kdb, drawn, monkeypatch,
                                   "SELECT setseed(0.5)") == {
            MEMO_HITS: 0, MEMO_MISSES: 0}
        kdb.execute("SELECT setseed(0.5)")
        draws = kdb.query_all("SELECT d.r FROM t, LATERAL "
                              "(SELECT floor(random() * 3) AS r) AS d")
        assert len(set(draws)) <= 3 < len(draws)
        read = self.LATERAL_KEY.format(r="t.id % 3")
        assert memo_equals_no_memo(kdb, read, monkeypatch)[MEMO_HITS] > 0

    @pytest.mark.parametrize("sql", [
        "SELECT t.id, d.r, d.z FROM t, LATERAL (SELECT t.k * 2 AS r, "
        "random() AS z{where}) AS d ORDER BY t.id",
        "SELECT t.id, (SELECT d.r + d.z FROM (SELECT t.x AS r, (SELECT "
        "max(u.v) FROM u WHERE u.k = t.k) AS z{where}) AS d) FROM t "
        "ORDER BY t.id"], ids=["lateral", "correlated"])
    def test_one_row_projection_is_a_values_leaf(self, kdb, monkeypatch,
                                                 sql):
        """A derived table of one FROM-less projection (a compiled call's
        binding row) is evaluated in place when its FROM opens: a
        ``Values`` leaf, no subplan to re-open or memoize.  It answers and
        draws as the same projection under a WHERE, which stays a
        subplan."""
        leaf, subplan = sql.format(where=""), sql.format(where=" WHERE true")
        if "LATERAL" in sql:
            assert "Values (1 rows)" in kdb.explain(leaf)
            assert "Values" not in kdb.explain(subplan)
        memo_equals_no_memo(kdb, leaf, monkeypatch, "SELECT setseed(0.5)")
        assert outcome(kdb, leaf, "SELECT setseed(0.5)") \
            == outcome(kdb, subplan, "SELECT setseed(0.5)")

    def test_declared_volatile_callee_is_not_memoized(self, kdb):
        kdb.execute("CREATE FUNCTION twice(n int) RETURNS int AS $$ "
                    "BEGIN RETURN n * 2; END; $$ LANGUAGE plpgsql VOLATILE")
        sql = ("SELECT t.id, (SELECT sum(twice(u.v)) FROM u "
               "WHERE u.k = t.k) FROM t")
        assert self.counts(kdb, sql) == (0, 0)
        kdb.execute("DROP FUNCTION twice")
        kdb.execute("CREATE FUNCTION twice(n int) RETURNS int AS $$ "
                    "BEGIN RETURN n * 2; END; $$ LANGUAGE plpgsql")
        assert self.counts(kdb, sql)[0] > 0

    def test_callee_reading_a_table_is_not_memoized(self, kdb):
        kdb.execute("CREATE FUNCTION size() RETURNS int AS $$ "
                    "BEGIN RETURN (SELECT count(*) FROM t); END; $$ "
                    "LANGUAGE plpgsql")
        sql = ("SELECT t.id, (SELECT sum(u.v) + size() FROM u "
               "WHERE u.k = t.k) FROM t")
        assert self.counts(kdb, sql) == (0, 0)

    def test_subquery_reading_a_cte_is_not_memoized(self, kdb):
        sql = ("WITH c AS (SELECT u.k, u.v FROM u) SELECT t.id, "
               "(SELECT sum(c.v) FROM c WHERE c.k = t.k) FROM t")
        assert self.counts(kdb, sql) == (0, 0)
        own = ("SELECT t.id, (WITH c AS (SELECT u.k, u.v FROM u) "
               "SELECT sum(c.v) FROM c WHERE c.k = t.k) FROM t")
        assert self.counts(kdb, own)[0] > 0

    def test_write_in_the_same_statement_invalidates(self, kdb,
                                                     monkeypatch):
        """A callee that INSERTs into the memoized table (a Python builtin:
        PL/pgSQL here has no INSERT) runs before the subquery on every
        row.  The statement's snapshot does not see its own writes, so the
        counts hold either way; each write still drops the entries (not
        one hit), which keeps a hit from serving rows of a table state
        that has since changed."""
        target = ["u"]

        def add_row(rt, k):
            rt.catalog.get_table(target[0]).insert((k, 100, "new"))
            return k

        kdb.catalog.register_function(FunctionDef(
            name="add_row", kind="builtin", param_names=["k"],
            param_types=["int"], impl=add_row,
            declared_volatility="volatile"))
        kdb.execute("CREATE TABLE other(k int, v int, name text)")
        sql = ("SELECT t.id, add_row(t.k), (SELECT count(*) FROM u "
               "WHERE u.k = t.k) FROM t")
        reset = "DELETE FROM u WHERE name = 'new'"
        assert memo_equals_no_memo(kdb, sql, monkeypatch,
                                   reset)[MEMO_HITS] == 0
        assert outcome(kdb, sql, reset) == repr(
            [(i, i % 3, 3) for i in range(12)])
        assert kdb.query_all("SELECT count(*) FROM u") == [(21,)]
        target[0] = "other"
        assert memo_equals_no_memo(kdb, sql, monkeypatch,
                                   reset)[MEMO_HITS] > 0


@pytest.fixture()
def instantiated(monkeypatch) -> list:
    """Every Memoize state instantiated while the test runs."""
    states = []
    original = memo.MemoizePlan.instantiate

    def keep(plan, rt, ictx=None):
        state = original(plan, rt, ictx)
        states.append(state)
        return state

    monkeypatch.setattr(memo.MemoizePlan, "instantiate", keep)
    return states


def test_stored_row_key_is_made_once(monkeypatch):
    """A key over a stored ROW is made once per stored row object, not
    once per probe: a second run of the statement probes the memo with
    the same rows and makes no key at all."""
    db = Database(seed=0)
    db.execute("CREATE TYPE pt AS (x int, y int)")
    db.execute("CREATE TABLE t(id int, p pt)")
    db.execute("CREATE TABLE u(p pt, v int)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, row({i % 3}, 0)::pt)" for i in range(12)))
    db.execute("INSERT INTO u VALUES " + ", ".join(
        f"(row({k}, 0)::pt, {v})" for k in range(3) for v in range(3)))
    made = []
    original = values.representation_key

    def counting(value):
        made.append(value)
        return original(value)

    # Field keys go through the module's name; the memo's own call of a
    # row key does not, so ``made`` counts the fields of rows keyed anew.
    monkeypatch.setattr(values, "representation_key", counting)
    sql = "SELECT t.id, (SELECT sum(u.v) FROM u WHERE u.p = t.p) FROM t"
    first = memo_equals_no_memo(db, sql, monkeypatch)
    assert first[MEMO_HITS] > 0
    # The first open passes through; rows 1..11 are keyed, two fields each.
    assert len(made) == 2 * 11
    made.clear()
    assert memo_equals_no_memo(db, sql, monkeypatch) == first
    assert made == []


def test_tables_are_freed_at_executor_end(kdb, instantiated):
    kdb.profiler.reset()
    kdb.query_all(SHAPES["scalar"])
    assert kdb.profiler.counts[MEMO_HITS] > 0
    assert instantiated
    for state in instantiated:
        assert state.memo.entries == {}
        assert state.rt.memos == []


WALK = "SELECT c.id, {f}(row(0,0)::coord, 20, -20, 32) FROM calls AS c"


@pytest.fixture(scope="module")
def robot() -> Database:
    from repro.compiler import compile_plsql
    from repro.workloads.loader import WORKLOADS
    from repro.workloads.robot import setup_robot
    db = Database(seed=0)
    setup_robot(db)
    compile_plsql(WORKLOADS["walk"], db).register(db, name="walk_c")
    db.execute("CREATE TABLE calls(id int)")
    db.execute("INSERT INTO calls VALUES (0), (1)")
    return db


def walk_counts(db, function: str, monkeypatch, entries: int):
    with monkeypatch.context() as patch:
        patch.setattr(memo, "MEMO_ENTRIES", entries)
        db.reseed(5)
        db.profiler.reset()
        rows = db.query_all(WALK.format(f=function))
        counts = dict(db.profiler.counts)
        draw = db.query_all("SELECT random()")
    return rows, draw, counts


class TestWalk:
    def test_machine_memo_equals_no_memo(self, robot, monkeypatch):
        rows, draw, counts = walk_counts(robot, "walk_c", monkeypatch,
                                         memo.MEMO_ENTRIES)
        rows0, draw0, counts0 = walk_counts(robot, "walk_c", monkeypatch, 0)
        assert (rows, draw) == (rows0, draw0)
        assert counts[TRAMPOLINE_ITERATIONS] == counts0[TRAMPOLINE_ITERATIONS]
        assert counts[MEMO_HITS] > counts[MEMO_MISSES] // 2 > 0

    def test_inlined_qf_memo_equals_no_memo(self, robot, monkeypatch):
        robot.execute("SET batch_compiled = off")
        try:
            rows, draw, counts = walk_counts(robot, "walk_c", monkeypatch,
                                             memo.MEMO_ENTRIES)
            rows0, draw0, _ = walk_counts(robot, "walk_c", monkeypatch, 0)
        finally:
            robot.execute("RESET batch_compiled")
        assert (rows, draw) == (rows0, draw0)
        assert counts[MEMO_HITS] > 0

    def test_machine_rules_memoize_no_roll(self, robot):
        """``roll_3 := random()`` draws anew on every step, so the ``move``
        lookup keyed by it is not memoized; the three lookups keyed by
        what repeats are: ``policy``, the windowed ``actions`` derived
        table and ``cells``."""
        robot.explain(WALK.format(f="walk_c"))
        template = robot.catalog.get_function("walk_c").body_plans[
            robot.plan_stamp()]
        keys = [node.key_names
                for node in memo.memoize_nodes(template.trans_subplans)]
        assert keys == [("s.location_2",),
                        ("s.location_2", "_lets.movement_3"),
                        ("_lets.location_3",)]

    def test_inlined_qf_memoizes_no_roll(self, robot, instantiated):
        """The Qf's lookups are expression subqueries, which EXPLAIN does
        not print, so the Memoize nodes instantiated by a run are read:
        none is keyed by ``_1.roll_3``, the LATERAL column bound to
        ``random()``, and the same three lookups keep theirs."""
        robot.execute("SET batch_compiled = off")
        try:
            robot.query_all(WALK.format(f="walk_c"))
        finally:
            robot.execute("RESET batch_compiled")
        keys = {state.plan.key_names for state in instantiated}
        assert not any("_1.roll_3" in names for names in keys), keys
        assert {("r.location_2",), ("r.location_2", "_0.movement_3"),
                ("_2.location_3",)} <= keys

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_every_walk_agrees_with_the_reference(self, robot, seed):
        """Interpreter, machine and inlined Qf after the same ``setseed``
        return the same walk and leave the same RNG state, and the walk is
        the plain-Python one drawn from that seed."""
        from repro.workloads.robot import default_grid, walk_reference
        sql = "SELECT {f}(row(0,0)::coord, 8, -8, 40)"
        seen = []
        for function, batch in (("walk", "on"), ("walk_c", "on"),
                                ("walk_c", "off")):
            robot.execute(f"SET batch_compiled = {batch}")
            robot.execute(f"SELECT setseed({seed})")
            seen.append((robot.query_all(sql.format(f=function)),
                         robot.query_all("SELECT random()")))
        robot.execute("RESET batch_compiled")
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][0] == [(walk_reference(None, default_grid(), (0, 0),
                                              8, -8, 40, seed),)]

    def test_interpreter_counts_are_untouched(self, robot, monkeypatch,
                                              instantiated):
        """Table 1's f->Q switches and plan instantiations: the
        interpreter's embedded queries instantiate per evaluation and are
        never wrapped, so nothing about them moves."""
        rows, draw, counts = walk_counts(robot, "walk", monkeypatch,
                                         memo.MEMO_ENTRIES)
        rows0, draw0, counts0 = walk_counts(robot, "walk", monkeypatch, 0)
        assert (rows, draw) == (rows0, draw0)
        for name in (PLAN_INSTANTIATIONS, SWITCH_F_TO_Q):
            assert counts[name] == counts0[name] > 0
        assert instantiated == []


# ---------------------------------------------------------------------------
# Compiled call sites, memoized by argument values
# ---------------------------------------------------------------------------

#: A loop over its argument: three machine steps per activation, and a
#: division that raises on n = 5 (which only the "raises" shape reaches).
STEPS = """CREATE FUNCTION steps(n int) RETURNS int AS $$
DECLARE i int := 0; s int := 0;
BEGIN
  WHILE i < 3 LOOP s := s + 12 / (n - 5) + i; i := i + 1; END LOOP;
  RETURN s;
END; $$ LANGUAGE plpgsql"""


def register(db: Database, source: str, name: str):
    from repro.compiler import compile_plsql
    return compile_plsql(source, db).register(db, name=name)


@pytest.fixture()
def sites(monkeypatch) -> dict:
    """Calls and activations of every trampoline site while the test runs,
    memoized or not."""
    seen = {"calls": 0, "activations": 0}
    call, run = trampoline.MachineCallState.call, \
        trampoline.MachineCallState.run

    def counting_call(state, values):
        seen["calls"] += 1
        return call(state, values)

    def counting_run(state, values):
        seen["activations"] += 1
        return run(state, values)

    monkeypatch.setattr(trampoline.MachineCallState, "call", counting_call)
    monkeypatch.setattr(trampoline.MachineCallState, "run", counting_run)
    return seen


CALL_SHAPES = {
    "select list": "SELECT t.id, steps_c(t.x) FROM t",
    "where": "SELECT t.id FROM t WHERE steps_c(t.x) > 0",
    "aggregate argument": "SELECT t.k, sum(steps_c(t.x)) FROM t "
                          "GROUP BY t.k ORDER BY 1",
    "case arm": "SELECT t.id, CASE WHEN t.k <> 0 THEN steps_c(t.x) "
                "ELSE -1 END FROM t",
    "correlated subquery": "SELECT t.id, (SELECT max(steps_c(u.v * t.k)) "
                           "FROM u WHERE u.k = t.k) FROM t",
    "raises": "SELECT t.id, steps_c(t.x + t.k) FROM t",
}


class TestCallMemoEqualsNoMemo:
    @pytest.mark.parametrize("shape", sorted(CALL_SHAPES))
    def test_shape(self, kdb, monkeypatch, sites, shape):
        register(kdb, STEPS, "steps_c")
        sql = CALL_SHAPES[shape]
        # EXPLAIN lists no site inside a subquery, as no subquery plan.
        assert ("Trampoline steps_c(" in kdb.explain(sql)) \
            == (shape != "correlated subquery")
        with monkeypatch.context() as patch:
            patch.setattr(memo, "MEMO_ENTRIES", 0)
            without = outcome(kdb, sql)
        assert kdb.profiler.counts[BATCHED_UDF_ROWS] \
            == kdb.profiler.counts[BATCHED_UDF_DISTINCT] > 0
        sites.update(calls=0, activations=0)
        assert outcome(kdb, sql) == without, shape
        counts = kdb.profiler.counts
        assert counts[BATCHED_UDF_ROWS] == sites["calls"]
        assert counts[BATCHED_UDF_DISTINCT] == sites["activations"]
        if shape == "raises":
            assert "division by zero" in without
        else:
            assert sites["activations"] < sites["calls"], shape


def test_call_memo_keeps_signed_zeros_apart():
    """0.0 and -0.0 are SQL-equal but cast to different text: the key is
    by representation, so 4 rows run 2 activations and rows 2 and 4
    answer '-0.0', as the interpreter and the inlined Qf do."""
    db = Database(seed=0)
    db.execute(GFLOAT)
    register(db, GFLOAT, "g_c")
    db.execute("CREATE TABLE zs(id int, x float)")
    db.execute("INSERT INTO zs VALUES (1, 0.0), (2, -0.0), (3, 0.0), "
               "(4, -0.0)")
    expected = [(1, "0.0"), (2, "-0.0"), (3, "0.0"), (4, "-0.0")]
    assert "Trampoline g_c(x)" in db.explain("SELECT id, g_c(x) FROM zs")
    db.profiler.reset()
    assert db.query_all("SELECT id, g_c(x) FROM zs") == expected
    assert db.profiler.counts[BATCHED_UDF_ROWS] == 4
    assert db.profiler.counts[BATCHED_UDF_DISTINCT] == 2
    assert db.query_all("SELECT id, g(x) FROM zs") == expected
    db.execute("SET batch_compiled = off")
    assert db.query_all("SELECT id, g_c(x) FROM zs") == expected


@pytest.mark.parametrize("source,declared", [
    (STEPS, "volatile"),
    (STEPS.replace("12 / (n - 5)", "floor(random() * 2)::int"), None),
])
def test_volatile_sites_are_never_memoized(kdb, sites, source, declared):
    """A function declared VOLATILE, or whose body draws, runs one
    activation per call: activations = calls, and the memo counters stay
    at zero."""
    register(kdb, source, "steps_c").declared_volatility = declared
    kdb.profiler.reset()
    kdb.query_all("SELECT t.id, steps_c(t.x) FROM t")
    assert sites["calls"] == sites["activations"] == 12, declared
    assert kdb.profiler.counts[BATCHED_UDF_ROWS] == 0


def test_stable_function_sees_writes_between_executions(kdb, sites):
    """A function reading a table is memoized within a statement and
    watches that table: a cached plan run again after a write answers from
    the new table state."""
    kdb.execute("CREATE TABLE w(v int)")
    kdb.execute("INSERT INTO w VALUES (1)")
    register(kdb, """CREATE FUNCTION scaled(n int) RETURNS int AS $$
    DECLARE i int := 0; s int := 0;
    BEGIN
      WHILE i < n LOOP s := s + (SELECT max(v) FROM w); i := i + 1;
      END LOOP;
      RETURN s;
    END; $$ LANGUAGE plpgsql""", "scaled_c")
    sql = "SELECT t.id, scaled_c(t.x) FROM t ORDER BY t.id"
    before = kdb.query_all(sql)
    assert sites["activations"] == 5 and sites["calls"] == 12
    assert kdb.query_all(sql) == before  # second sight: admitted
    kdb.execute("UPDATE w SET v = 10")
    kdb.profiler.reset()
    after = kdb.query_all(sql)
    assert kdb.profiler.counts[PLAN_CACHE_HIT] == 1
    assert after == [(i, 10 * x) for i, x in before]
    assert before == [(i, i % 5) for i in range(12)]


def test_call_memo_entries_are_freed_at_executor_end(kdb, monkeypatch):
    register(kdb, STEPS, "steps_c")
    states = []
    init = trampoline.MachineCallState.__init__

    def keep(state, rt, plan, ictx):
        init(state, rt, plan, ictx)
        states.append(state)

    monkeypatch.setattr(trampoline.MachineCallState, "__init__", keep)
    kdb.query_all(CALL_SHAPES["select list"])
    [state] = states
    assert state.memo is not None and state.memo.entries == {}
    assert state.rt.memos == []


GFLOAT = """CREATE FUNCTION g(x float) RETURNS text AS $$
DECLARE i int = 0;
BEGIN
  WHILE i < 2 LOOP
    i = i + 1;
  END LOOP;
  RETURN CAST(x AS text);
END;
$$ LANGUAGE plpgsql"""


# ---------------------------------------------------------------------------
# Memos of a machine template, carried across statements
# ---------------------------------------------------------------------------

PARSE_C = "SELECT id, parse_c(s) FROM inputs ORDER BY id"
PARSE_I = "SELECT id, parse(s) FROM inputs ORDER BY id"
WALK_C = "SELECT c.id, walk_c(row(0,0)::coord, 20, -20, 32) FROM calls AS c"
WALK_I = WALK_C.replace("walk_c(", "walk(")
#: Turns ',' into a rejected character: every parse above answers anew.
NO_COMMA = "DELETE FROM fsm WHERE symbol = ','"
CARRY_COUNTERS = (MEMO_CARRIED_HITS, BATCHED_UDF_ROWS, BATCHED_UDF_DISTINCT,
                  TRAMPOLINE_ITERATIONS)


def carry_db(extra: str = "") -> Database:
    """parse / walk and their compiled twins, steps_c, four inputs over
    three strings and two walks; *extra*, a PL/pgSQL function, created
    and compiled as ``<name>_c`` too."""
    from repro.compiler import compile_plsql
    from repro.workloads.loader import WORKLOADS
    from repro.workloads.parser_fsm import setup_parser
    from repro.workloads.robot import setup_robot
    db = Database(seed=0)
    setup_parser(db)
    setup_robot(db)
    for name in ("parse", "walk"):
        register(db, WORKLOADS[name], f"{name}_c")
    register(db, STEPS, "steps_c")
    db.execute("CREATE TABLE inputs(id int, s text)")
    db.execute("INSERT INTO inputs VALUES (0, '12,3.5,77'), (1, '-7,x1'), "
               "(2, '12,3.5,77'), (3, '4.25,1,9,10')")
    if extra:
        db.execute(extra)
        artifact = compile_plsql(extra, db)
        artifact.register(db, name=f"{artifact.name}_c")
    db.execute("CREATE TABLE calls(id int)")
    db.execute("INSERT INTO calls VALUES (0), (1)")
    return db


def run_steps(steps, monkeypatch, entries: int, server: bool = False,
              extra: str = ""):
    """``(outcome, counters)`` of each ``(session, sql)`` of *steps* on a
    fresh :func:`carry_db` (of *extra*) whose memo tables hold *entries*;
    a session is a ``db.connect()`` (a wire client of a ServerThread when
    *server*) opened on first use."""
    from contextlib import ExitStack
    from repro.server import ServerError, ServerThread, connect
    with monkeypatch.context() as patch, ExitStack() as stack:
        patch.setattr(memo, "MEMO_ENTRIES", entries)
        db = carry_db(extra)
        address = (stack.enter_context(ServerThread(db, workers=2))
                   if server else None)
        sessions, results = {}, []
        for who, sql in steps:
            if who not in sessions:
                sessions[who] = (stack.enter_context(connect(*address))
                                 if server else db.connect())
            session = sessions[who]
            db.profiler.reset()
            try:
                if server:
                    out = repr([r.rows for r in session.query(sql)])
                else:
                    out = repr(session.execute(sql).rows)
            except (SqlError, ServerError) as error:
                out = f"{type(error).__name__}: {error}"
            results.append((out, {name: db.profiler.counts[name]
                                  for name in CARRY_COUNTERS}))
    return results


def carried_equals_cold(steps, monkeypatch, server: bool = False,
                        extra: str = ""):
    """Run *steps* with the memo and with ``MEMO_ENTRIES = 0``; the
    outcomes must agree.  Returns them and the memo run's counters."""
    cold = run_steps(steps, monkeypatch, 0, server, extra)
    warm = run_steps(steps, monkeypatch, memo.MEMO_ENTRIES, server, extra)
    assert [out for out, _ in warm] == [out for out, _ in cold]
    assert all(counts[MEMO_CARRIED_HITS] == 0 for _, counts in cold)
    return [out for out, _ in warm], [counts for _, counts in warm]


class TestCarriedAcrossStatements:
    """A machine template's memos keep their finished entries from one
    statement to the next, and serve them only while the watched tables
    are unchanged and fully committed and the settings are the
    builder's."""

    def test_repeated_parse_runs_no_activation(self, monkeypatch):
        outs, counts = carried_equals_cold(
            [("a", PARSE_C), ("a", PARSE_C), ("a", PARSE_I),
             ("a", "SET batch_compiled = off"), ("a", PARSE_C)],
            monkeypatch)
        assert outs[0] == outs[1] == outs[2] == outs[4] \
            == repr([(0, 9), (1, -4), (2, 9), (3, 11)])
        assert counts[0][BATCHED_UDF_DISTINCT] == 3
        assert counts[0][MEMO_CARRIED_HITS] == 0
        assert counts[1] == {MEMO_CARRIED_HITS: 4, BATCHED_UDF_ROWS: 4,
                             BATCHED_UDF_DISTINCT: 0,
                             TRAMPOLINE_ITERATIONS: 0}
        # The interpreter and the inlined Qf are never carried.
        assert counts[2][MEMO_CARRIED_HITS] == counts[4][
            MEMO_CARRIED_HITS] == 0

    def test_walk_carries_its_rule_lookups_not_its_site(self, monkeypatch):
        walk = [("a", "SELECT setseed(0.25)"), ("a", WALK_C),
                ("a", "SELECT random()")]
        outs, counts = carried_equals_cold(
            walk + walk + [("a", "SELECT setseed(0.25)"), ("a", WALK_I),
                           ("a", "SELECT random()")], monkeypatch)
        assert outs[:3] == outs[3:6] == outs[6:]
        first, second = counts[1], counts[4]
        assert first[MEMO_CARRIED_HITS] == 0 < second[MEMO_CARRIED_HITS]
        assert first[BATCHED_UDF_ROWS] == second[BATCHED_UDF_ROWS] == 0
        assert first[TRAMPOLINE_ITERATIONS] \
            == second[TRAMPOLINE_ITERATIONS] > 0

    @pytest.mark.parametrize("server", [False, True],
                             ids=["connection", "server"])
    def test_uncommitted_write_of_another_session(self, monkeypatch, server):
        outs, counts = carried_equals_cold(
            [("a", PARSE_C), ("b", "BEGIN"), ("b", NO_COMMA),
             ("a", PARSE_C), ("a", PARSE_C), ("b", "COMMIT"),
             ("a", PARSE_C), ("a", PARSE_C)], monkeypatch, server)
        # In flight: the old answers, from activations, none stored.
        assert outs[0] == outs[3] == outs[4] != outs[6] == outs[7]
        for step in (3, 4, 6):
            assert counts[step][MEMO_CARRIED_HITS] == 0, step
            assert counts[step][BATCHED_UDF_DISTINCT] == 3, step
        assert counts[7][MEMO_CARRIED_HITS] == 4

    def test_older_snapshot_is_not_served(self, monkeypatch):
        """b's committed write and b's warm store are newer than a's
        snapshot: a still parses with the old automaton, from
        activations."""
        outs, counts = carried_equals_cold(
            [("a", PARSE_C), ("a", "BEGIN"),
             ("a", "SELECT count(*) FROM fsm"), ("b", NO_COMMA),
             ("b", PARSE_C), ("b", PARSE_C), ("a", PARSE_C),
             ("a", "COMMIT"), ("a", PARSE_C)], monkeypatch)
        assert outs[0] == outs[6] != outs[4] == outs[5] == outs[8]
        assert counts[5][MEMO_CARRIED_HITS] == 4
        # (fsm_accept, which nobody wrote, may still answer from its
        # store.)
        assert counts[6][BATCHED_UDF_DISTINCT] == 3
        assert counts[8][MEMO_CARRIED_HITS] == 4

    def test_snapshot_that_saw_a_writer_in_flight(self, monkeypatch):
        """a's snapshot was taken while b's write was in flight: after b
        commits, what a computes is stored for nobody."""
        outs, counts = carried_equals_cold(
            [("b", "BEGIN"), ("b", NO_COMMA), ("a", "BEGIN"),
             ("a", "SELECT count(*) FROM fsm"), ("b", "COMMIT"),
             ("a", PARSE_C), ("a", "COMMIT"), ("a", PARSE_C),
             ("a", PARSE_C), ("a", PARSE_I)], monkeypatch)
        assert outs[5] != outs[7] == outs[8] == outs[9]
        assert counts[7][MEMO_CARRIED_HITS] == 0
        assert counts[8][MEMO_CARRIED_HITS] == 4

    def test_own_writes_and_rollback(self, monkeypatch):
        outs, counts = carried_equals_cold(
            [("a", PARSE_C), ("a", "BEGIN"), ("a", NO_COMMA),
             ("a", PARSE_C), ("a", PARSE_C), ("a", "ROLLBACK"),
             ("a", PARSE_C), ("a", PARSE_C)], monkeypatch)
        assert outs[3] == outs[4] != outs[0] == outs[6] == outs[7]
        for step in (3, 4):
            assert counts[step][MEMO_CARRIED_HITS] == 0, step
        # The rolled-back writes moved fsm's write counter: the calls run
        # again (the fsm_accept lookups inside them, whose table nothing
        # wrote, may still be carried).
        assert counts[6][BATCHED_UDF_DISTINCT] == 3
        assert counts[7][MEMO_CARRIED_HITS] == 4

    def test_committed_write_drops_the_store(self, monkeypatch):
        outs, counts = carried_equals_cold(
            [("a", PARSE_C), ("a", NO_COMMA), ("a", PARSE_C),
             ("a", PARSE_C), ("a", PARSE_I)], monkeypatch)
        assert outs[0] != outs[2] == outs[3] == outs[4]
        assert counts[2][MEMO_CARRIED_HITS] == 0
        assert counts[3][MEMO_CARRIED_HITS] == 4

    def test_settings_of_the_builder(self, monkeypatch):
        """A call carried under the default budget raises, as it does
        cold, once the budget is lowered; the entries serve again when
        the settings are the builder's."""
        outs, counts = carried_equals_cold(
            [("a", PARSE_C), ("a", "SET max_recursion_iterations = 8"),
             ("a", PARSE_C), ("a", "RESET max_recursion_iterations"),
             ("a", PARSE_C)], monkeypatch)
        assert "exceeded 8 iterations" in outs[2]
        assert outs[0] == outs[4]
        assert counts[2][MEMO_CARRIED_HITS] == 0
        assert counts[4][MEMO_CARRIED_HITS] == 4

    def test_ddl_drops_the_store(self, monkeypatch):
        replace = ("CREATE OR REPLACE FUNCTION twice(n int) RETURNS int AS "
                   "$$ BEGIN RETURN n * 2; END; $$ LANGUAGE plpgsql")
        outs, counts = carried_equals_cold(
            [("a", PARSE_C), ("a", "CREATE TABLE unrelated(x int)"),
             ("a", PARSE_C), ("a", PARSE_C), ("a", replace),
             ("a", PARSE_C), ("a", replace), ("a", PARSE_C)], monkeypatch)
        assert outs[0] == outs[2] == outs[3] == outs[5] == outs[7]
        assert [counts[step][MEMO_CARRIED_HITS] for step in (2, 3, 5, 7)] \
            == [0, 4, 0, 0]

    def test_raised_activation_is_never_carried(self, monkeypatch):
        """steps_c(5) divides by zero: every statement runs its
        activation again, and a statement that raised hands over nothing,
        not even the calls that answered before the error."""
        some = "SELECT steps_c(x) FROM (VALUES (1), (2)) AS v(x)"
        outs, counts = carried_equals_cold(
            [("a", "SELECT steps_c(5)"), ("a", "SELECT steps_c(5)"),
             ("a", "SELECT steps_c(x) FROM (VALUES (1), (2), (5)) AS v(x)"),
             ("a", some), ("a", some)], monkeypatch)
        assert all("division by zero" in out for out in outs[:3])
        assert [c[BATCHED_UDF_DISTINCT] for c in counts] == [1, 1, 3, 2, 0]
        assert counts[4][MEMO_CARRIED_HITS] == 2

    def test_only_finished_memoize_entries_are_carried(self, monkeypatch,
                                                       stores):
        """An EXISTS pulls one row of a non-empty subquery: that entry's
        child never ran dry, and it stays in its statement."""
        ahead = """CREATE FUNCTION ahead(n int) RETURNS int AS $$
        DECLARE i int := 0; c int := 0;
        BEGIN
          WHILE i < n LOOP
            IF EXISTS (SELECT 1 FROM inputs AS p WHERE p.id >= i) THEN
              c := c + 1;
            END IF;
            i := i + 1;
          END LOOP;
          RETURN c;
        END; $$ LANGUAGE plpgsql"""
        sql = "SELECT ahead_c(6), ahead(6)"
        outs, counts = carried_equals_cold(
            [("a", sql), ("a", sql), ("a", "SET batch_compiled = off"),
             ("a", sql)], monkeypatch, extra=ahead)
        assert outs[0] == outs[1] == outs[3] == repr([(4, 4)])
        assert counts[1][MEMO_CARRIED_HITS] == 1
        memoized = [entry for store in stores if store.state is not None
                    for entry in store.state[3].values()
                    if isinstance(entry, list)]
        assert memoized and all(entry[1] for entry in memoized)

    def test_store_never_exceeds_the_bound(self, monkeypatch, stores):
        monkeypatch.setattr(memo, "MEMO_ENTRIES", 2)
        db = carry_db()
        walk = "SELECT setseed(0.5); " + WALK_C
        for sql in (PARSE_C, PARSE_C, walk, walk):
            db.execute_script(sql) if ";" in sql else db.query_all(sql)
        held = [len(store.state[3]) for store in stores
                if store.state is not None]
        assert held and max(held) == 2
        assert db.profiler.counts[MEMO_CARRIED_HITS] > 0


@pytest.fixture()
def stores(monkeypatch) -> list:
    """The store of every memo table made while the test runs."""
    kept = []
    init = memo.MemoTable.__init__

    def keep(table, rt, table_names, store=None, finished=None):
        init(table, rt, table_names, store, finished)
        if store is not None:
            kept.append(store)

    monkeypatch.setattr(memo.MemoTable, "__init__", keep)
    return kept
