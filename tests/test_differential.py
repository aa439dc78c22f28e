"""Differential testing: interpreter vs compiled, hash join vs nested loop,
batched vs per-row compiled-UDF evaluation.

Inspired by coverage-driven configuration validation, this suite drives the
same workload through independent execution paths and asserts identical
results:

* PL/pgSQL functions executed by the interpreter *and* as the compiled
  ``WITH RECURSIVE`` query (argument sweeps over gcd, sign, a summing loop,
  and a bounded Collatz),
* compiled functions over whole relations through the set-oriented
  ``BatchedUdf`` operator (the trampoline machine, argument dedup
  included) against the per-row scalar-subquery path and the
  interpreter, including NULL arguments and zero-row inputs,
* calls that may not batch (volatile bodies, WHERE, CASE arms, aggregate
  arguments, LIMIT) on the per-call trampoline machine against the inlined
  Qf and the interpreter, draw for draw,
* join queries executed by the hash-join operator *and* the seed
  nested-loop path (inner/left/cross, NULL join keys),
* ordered access paths — IndexRangeScan, index-ordered delivery (sort
  elimination), the bounded-heap TopN and the merge join — against
  SeqScan + full Sort and the other join strategies, on randomized data
  with DESC orderings, duplicate keys, NULL keys, empty ranges, LIMIT 0
  and DML interleaved between probes.

It also pins the two engine bugs this differential setup surfaced: the
missing ``^`` power operator and the absent runaway-loop statement budget.

Result comparison uses :func:`repro.fuzz.oracle.rows_equal` — the same
bag/list equality (NULL and NaN classes, -0.0 = 0.0, float canonicalization)
that the fuzzer's oracles apply, so hand-written and generated differential
coverage share one definition of "agree".
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_plsql
from repro.fuzz.oracle import rows_equal
from repro.sql import Database
from repro.sql.errors import (ExecutionError, NameResolutionError, ParseError,
                              QueryCanceledError)


# ---------------------------------------------------------------------------
# Interpreted vs compiled PL/pgSQL
# ---------------------------------------------------------------------------

GCD = """
CREATE FUNCTION gcd(a int, b int) RETURNS int AS $$
DECLARE t int;
BEGIN
  WHILE b <> 0 LOOP
    t := b;
    b := a % b;
    a := t;
  END LOOP;
  RETURN a;
END;
$$ LANGUAGE plpgsql"""

SIGN_FN = """
CREATE FUNCTION sign_of(n int) RETURNS int AS $$
BEGIN
  IF n > 0 THEN RETURN 1;
  ELSIF n < 0 THEN RETURN -1;
  END IF;
  RETURN 0;
END;
$$ LANGUAGE plpgsql"""

SUM_LOOP = """
CREATE FUNCTION sum_to(n int) RETURNS int AS $$
DECLARE total int := 0; i int := 1;
BEGIN
  WHILE i <= n LOOP
    total := total + i;
    i := i + 1;
  END LOOP;
  RETURN total;
END;
$$ LANGUAGE plpgsql"""

COLLATZ = """
CREATE FUNCTION collatz(n int, budget int) RETURNS int AS $$
DECLARE steps int := 0;
BEGIN
  WHILE n <> 1 AND steps < budget LOOP
    IF n % 2 = 0 THEN n := n / 2;
    ELSE n := 3 * n + 1;
    END IF;
    steps := steps + 1;
  END LOOP;
  RETURN steps;
END;
$$ LANGUAGE plpgsql"""


#: A variable inside an inline OVER (...): min(s) is 1, 3 or 6 by the sign
#: of k (6 for NULL too: every row is a peer), so a compiled twin that
#: failed to pass k into the window spec cannot agree by accident.
WINDOW_VAR = """
CREATE FUNCTION window_var(k int) RETURNS int AS $$
DECLARE total int := 0; i int := 0;
BEGIN
  WHILE i < 2 LOOP
    total := total + (SELECT min(s) FROM (
        SELECT sum(x) OVER (ORDER BY x * k) AS s
        FROM (VALUES (1), (2), (3)) AS v(x)) AS q);
    i := i + 1;
  END LOOP;
  RETURN total;
END;
$$ LANGUAGE plpgsql"""


def _register_both(db: Database, source: str) -> str:
    """Register *source* interpreted under its own name and compiled under
    ``<name>_c``; return the base name."""
    from repro.sql import ast as A
    from repro.sql.parser import parse_statement

    statement = parse_statement(source)
    assert isinstance(statement, A.CreateFunction)
    db.execute_ast(statement)
    compiled = compile_plsql(source, db)
    compiled.register(db, name=f"{statement.name}_c")
    return statement.name


class TestInterpreterVsCompiled:
    @pytest.mark.parametrize("source,calls", [
        (GCD, [(a, b) for a in (0, 1, 12, 270, 1071) for b in (0, 1, 462)]),
        (SIGN_FN, [(n,) for n in range(-3, 4)]),
        (SUM_LOOP, [(n,) for n in (-1, 0, 1, 2, 10, 100)]),
        (COLLATZ, [(n, 200) for n in (1, 2, 6, 7, 27, 97)]),
        (WINDOW_VAR, [(k,) for k in (-2, 0, 1, None)]),
    ])
    def test_argument_sweep_agrees(self, db, source, calls):
        name = _register_both(db, source)
        holes = ", ".join(f"${i + 1}" for i in range(len(calls[0])))
        for args in calls:
            interpreted = db.query_value(f"SELECT {name}({holes})", list(args))
            compiled = db.query_value(f"SELECT {name}_c({holes})", list(args))
            assert compiled == interpreted, (name, args)

    def test_sweep_from_table_context(self, db):
        """Calls evaluated per row of a query, both ways."""
        name = _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        db.execute("INSERT INTO pairs VALUES (12, 18), (270, 192), (7, 13), "
                   "(100, 75), (0, 5)")
        interpreted = db.query_all(
            f"SELECT a, b, {name}(a, b) FROM pairs ORDER BY a, b")
        compiled = db.query_all(
            f"SELECT a, b, {name}_c(a, b) FROM pairs ORDER BY a, b")
        assert compiled == interpreted


# ---------------------------------------------------------------------------
# Batched (set-oriented) vs per-row compiled-UDF evaluation
# ---------------------------------------------------------------------------

NESTED_LOOPS = """
CREATE FUNCTION nested(n int) RETURNS int AS $$
DECLARE i int := 0; j int; acc int := 0;
BEGIN
  WHILE i < n LOOP
    j := 0;
    WHILE j < i LOOP
      acc := acc + j;
      j := j + 1;
    END LOOP;
    i := i + 1;
  END LOOP;
  RETURN acc;
END;
$$ LANGUAGE plpgsql"""

#: (mode label, planner settings) for both evaluators of a compiled call.
BATCH_MODES = [
    ("machine", dict(batch_compiled=True)),
    ("scalar", dict(batch_compiled=False)),
]


def _query_with(db: Database, settings: dict, sql: str,
                params: list = ()) -> list[tuple]:
    for name, value in settings.items():
        db.settings.assign(name, value)
    return db.query_all(sql, params)


class TestBatchedUdfEquivalence:
    @pytest.mark.parametrize("source", [GCD, SUM_LOOP, COLLATZ, NESTED_LOOPS,
                                        WINDOW_VAR])
    def test_all_paths_agree_over_table(self, db, source):
        """Interpreter, per-row scalar, and every BatchedUdf mode return
        identical rows over an argument sweep that includes NULLs."""
        name = _register_both(db, source)
        arity = len(db.catalog.get_function(name).param_names)
        db.execute("CREATE TABLE args(a int, b int)")
        values = [(12, 18), (270, 192), (7, 200), (0, 5), (1, 1),
                  (None, 3), (27, None), (None, None), (97, 200)]
        for row in values:
            db.execute("INSERT INTO args VALUES ($1, $2)", list(row))
        cols = ", ".join("ab"[:arity])
        interpreted = db.query_all(f"SELECT {name}({cols}) FROM args")
        for label, settings in BATCH_MODES:
            got = _query_with(db, settings,
                              f"SELECT {name}_c({cols}) FROM args")
            assert rows_equal(interpreted, got, ordered=True), \
                (label, source)

    def test_zero_row_input(self, db):
        _register_both(db, GCD)
        db.execute("CREATE TABLE empty(a int, b int)")
        for label, settings in BATCH_MODES:
            assert _query_with(db, settings,
                               "SELECT gcd_c(a, b) FROM empty") == [], label

    def test_explain_names_batched_udf_with_scalar_fallback(self, db):
        _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        plan = db.explain("SELECT gcd_c(a, b) FROM pairs")
        assert "BatchedUdf" in plan and "per call" not in plan
        # A site that cannot batch (aggregate argument, WHERE) is named
        # too: the per-call trampoline, under the operator that owns it.
        per_call = "-> Trampoline gcd_c(a, b)  [machine, per call; " \
                   "volatility=immutable]"
        where = "-> Trampoline gcd_c(b, a)  [machine, per call; " \
                "volatility=immutable]"
        aggregate = "SELECT sum(gcd_c(a, b)) FROM pairs WHERE gcd_c(b, a) > 1"
        lines = db.explain(aggregate).splitlines()
        assert lines[0].startswith("-> Aggregate+Select")
        assert lines[1:3] == ["  " + where, "  " + per_call]
        db.execute("SET batch_compiled = off")
        for sql in ("SELECT gcd_c(a, b) FROM pairs", aggregate):
            plan = db.explain(sql)
            assert "BatchedUdf" not in plan and "Trampoline" not in plan

    def test_volatile_args_keep_scalar_path(self, db):
        """random() in an argument must evaluate per row in call order, so
        the call may not move into the batch stage: it runs one activation
        per row, in place."""
        _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        sql = "SELECT gcd_c(cast(random() * 10 AS int), b) FROM pairs"
        plan = db.explain(sql)
        assert "BatchedUdf" not in plan
        assert "-> Trampoline gcd_c(<expr>, b)  [machine, per call; " \
               "volatility=immutable]" in plan
        db.execute("SET batch_compiled = off")
        assert "Trampoline" not in db.explain(sql)

    def test_volatile_body_never_batches(self, db):
        from repro.compiler import compile_plsql
        source = """CREATE FUNCTION jitter(n int) RETURNS double precision AS
        $$ DECLARE i int := 0; acc double precision := 0;
        BEGIN
          WHILE i < n LOOP acc := acc + random(); i := i + 1; END LOOP;
          RETURN acc;
        END; $$ LANGUAGE plpgsql"""
        compiled = compile_plsql(source, db)
        fdef = compiled.register(db, name="jitter_c")
        assert fdef.batch_machine is not None
        assert not fdef.batch_machine.shareable
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (3), (4)")
        plan = db.explain("SELECT jitter_c(x) FROM t")
        assert "BatchedUdf" not in plan
        assert "-> Trampoline jitter_c(x)  [machine, per call; " \
               "volatility=volatile]" in plan
        db.execute("SET batch_compiled = off")
        assert "Trampoline" not in db.explain("SELECT jitter_c(x) FROM t")

    def test_volatile_helper_body_never_batches(self, db):
        """A body that is volatile only through a user-defined helper is
        volatile to the compiler too (it asks the same analyzer as the
        planner), so its machine is not shareable and every call runs as
        its own activation.  Batched and argument-dedup'd, three equal
        arguments used to share one draw."""
        db.execute("CREATE FUNCTION noise() RETURNS double precision AS "
                   "$$ BEGIN RETURN random(); END; $$ LANGUAGE plpgsql")
        source = """CREATE FUNCTION jit(n int) RETURNS double precision AS $$
        DECLARE i int := 0; acc double precision := 0;
        BEGIN
          WHILE i < n LOOP acc := acc + noise(); i := i + 1; END LOOP;
          RETURN acc;
        END; $$ LANGUAGE plpgsql"""
        db.execute(source)
        fdef = compile_plsql(source, db).register(db, name="jit_c")
        assert not fdef.batch_machine.shareable
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (3), (3), (3)")
        plan = db.explain("SELECT jit_c(x) FROM t")
        assert "BatchedUdf" not in plan
        assert "Trampoline jit_c(x)  [machine, per call; " \
               "volatility=volatile]" in plan
        db.reseed(5)
        interpreted = db.query_all("SELECT jit(x) FROM t")
        db.reseed(5)
        compiled = db.query_all("SELECT jit_c(x) FROM t")
        assert compiled == interpreted
        assert len({row[0] for row in compiled}) == 3

    def test_loop_free_functions_stay_inlined(self, db):
        """Froid-style functions are already one planned expression; the
        batch stage must leave them alone."""
        name = _register_both(db, SIGN_FN)
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (-5), (0), (7)")
        assert "BatchedUdf" not in db.explain(f"SELECT {name}_c(x) FROM t")
        assert db.query_all(f"SELECT {name}_c(x) FROM t") == \
            [(-1,), (0,), (1,)]

    def test_streaming_limit_keeps_lazy_scalar_path(self, db):
        """`LIMIT` without `ORDER BY` may never evaluate tail rows; an
        eager batch would raise for a poison row LIMIT discards, so such
        statements keep the scalar path (with ORDER BY every projected row
        is evaluated under both paths, so batching stays on)."""
        from repro.compiler import compile_plsql
        source = """CREATE FUNCTION inv_sum(n int) RETURNS int AS $$
        DECLARE i int := 1; acc int := 0;
        BEGIN
          WHILE i <= 3 LOOP acc := acc + 300 / n; i := i + 1; END LOOP;
          RETURN acc;
        END; $$ LANGUAGE plpgsql"""
        compile_plsql(source, db).register(db, name="inv_c")
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (1), (0)")
        limited = "SELECT inv_c(x) FROM t LIMIT 1"
        assert "BatchedUdf" not in db.explain(limited)
        assert db.query_all(limited) == [(900,)]
        ordered = "SELECT inv_c(x) FROM t ORDER BY x DESC LIMIT 1"
        assert "BatchedUdf" in db.explain(ordered)
        with pytest.raises(ExecutionError, match="division by zero"):
            db.query_all(ordered)
        db.execute("SET batch_compiled = off")
        with pytest.raises(ExecutionError, match="division by zero"):
            db.query_all(ordered)

    def test_short_circuiting_subqueries_keep_lazy_scalar_path(self, db):
        """EXISTS / IN / scalar subqueries stop pulling rows early, so
        batching inside them could evaluate poison rows the scalar path
        never reaches — they must decline batching."""
        from repro.compiler import compile_plsql
        source = """CREATE FUNCTION inv2(n int) RETURNS int AS $$
        DECLARE i int := 1; acc int := 0;
        BEGIN
          WHILE i <= 3 LOOP acc := acc + 300 / n; i := i + 1; END LOOP;
          RETURN acc;
        END; $$ LANGUAGE plpgsql"""
        compile_plsql(source, db).register(db, name="inv2_c")
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (1), (0)")
        assert db.query_all("SELECT EXISTS (SELECT inv2_c(x) FROM t)") \
            == [(True,)]
        assert db.query_value(
            "SELECT 900 IN (SELECT inv2_c(x) FROM t)") is True
        assert "BatchedUdf" not in db.explain(
            "SELECT EXISTS (SELECT inv2_c(x) FROM t)")

    def test_dedup_distinguishes_sql_equal_representations(self, db):
        """5 and 5.0 are SQL-equal but integer vs float division differ;
        argument dedup must never merge their activations.  Nor NULL with
        0, and all-distinct arguments lose nothing."""
        from repro.compiler import compile_plsql
        from repro.sql.profiler import BATCHED_UDF_DISTINCT
        source = """CREATE FUNCTION halver(n int) RETURNS int AS $$
        DECLARE i int := 0; acc int := 0;
        BEGIN
          WHILE i < 2 LOOP acc := acc + n / 2; i := i + 1; END LOOP;
          RETURN acc;
        END; $$ LANGUAGE plpgsql"""
        compile_plsql(source, db).register(db, name="halver_c")
        db.execute("CREATE TABLE t(g int)")
        db.execute("INSERT INTO t VALUES (0), (1)")
        sql = ("SELECT halver_c(CASE WHEN g = 0 THEN 5 ELSE 5.0 END) "
               "FROM t ORDER BY g")
        db.execute("CREATE TABLE u(x int)")
        db.execute("INSERT INTO u VALUES (0), (NULL), (0), (NULL)")
        nulls = "SELECT halver_c(x) FROM u"
        db.execute("CREATE TABLE d(x int)")
        db.execute("INSERT INTO d VALUES "
                   + ", ".join(f"({x})" for x in range(1, 11)))
        distinct = "SELECT halver_c(x) FROM d ORDER BY x"
        batched = []
        for query, vectors in ((sql, 2), (nulls, 2), (distinct, 10)):
            assert "BatchedUdf" in db.explain(query)
            db.profiler.reset()
            batched.append(db.query_all(query))
            assert db.profiler.counts[BATCHED_UDF_DISTINCT] == vectors
        db.execute("SET batch_compiled = off")
        assert batched == [db.query_all(q) for q in (sql, nulls, distinct)] \
            == [[(4,), (5.0,)], [(0,), (None,), (0,), (None,)],
                [(2 * (x // 2),) for x in range(1, 11)]]

    def test_duplicate_call_sites_share_one_batch(self, db):
        _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        db.execute("INSERT INTO pairs VALUES (12, 18), (7, 13)")
        plan = db.explain("SELECT gcd_c(a, b), gcd_c(a, b), gcd_c(b, a) "
                          "FROM pairs")
        assert plan.count("BatchedUdf") == 2
        rows = db.query_all("SELECT gcd_c(a, b), gcd_c(a, b), gcd_c(b, a) "
                            "FROM pairs")
        assert rows == [(6, 6, 6), (1, 1, 1)]

    def test_argument_dedup_counts_distinct_vectors(self, db):
        from repro.sql.profiler import (BATCHED_UDF_DISTINCT,
                                        BATCHED_UDF_ROWS)
        _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        for _ in range(4):
            db.execute("INSERT INTO pairs VALUES (12, 18), (270, 192)")
        db.profiler.reset()
        rows = db.query_all("SELECT gcd_c(a, b) FROM pairs")
        assert rows == [(6,), (6,)] * 4
        assert db.profiler.counts[BATCHED_UDF_ROWS] == 8
        assert db.profiler.counts[BATCHED_UDF_DISTINCT] == 2

    def test_batched_call_with_group_by_and_params(self, db):
        _register_both(db, SUM_LOOP)
        db.execute("CREATE TABLE t(g int, x int)")
        db.execute("INSERT INTO t VALUES (0, 1), (0, 2), (1, 3), (1, 4)")
        sql = "SELECT g, sum_to_c(sum(x) + $1) FROM t GROUP BY g ORDER BY g"
        grouped = db.query_all(sql, [1])
        assert "BatchedUdf" in db.explain(
            "SELECT g, sum_to_c(sum(x) + $1) FROM t GROUP BY g ORDER BY g")
        db.execute("SET batch_compiled = off")
        assert db.query_all(sql, [1]) == grouped == [(0, 10), (1, 36)]


# ---------------------------------------------------------------------------
# The per-call trampoline vs the inlined Qf vs the interpreter
# ---------------------------------------------------------------------------

JITTER = """
CREATE FUNCTION jitter(n int) RETURNS double precision AS $$
DECLARE i int := 0; acc double precision := 0;
BEGIN
  WHILE i < n LOOP acc := acc + random(); i := i + 1; END LOOP;
  RETURN acc;
END;
$$ LANGUAGE plpgsql"""

#: Where a call can sit without being batched ({f}: the function, {a}: its
#: arguments over the driving table ``sites(x int)``).  An activation runs alone,
#: in place and lazily, so each shape must consume the RNG exactly as the
#: interpreter does.
CALL_SHAPES = [
    ("select list beside random()", "SELECT {f}({a}), random() FROM sites"),
    ("where", "SELECT x FROM sites WHERE {f}({a}) >= 0.9"),
    ("aggregate argument", "SELECT sum({f}({a})), count(*) FROM sites"),
    ("untaken case arm",
     "SELECT CASE WHEN x < 0 THEN {f}({a}) ELSE random() END FROM sites"),
    ("taken case arm",
     "SELECT CASE WHEN x > 1 THEN {f}({a}) ELSE -1 END FROM sites"),
    ("limit 1", "SELECT {f}({a}) FROM sites LIMIT 1"),
]


def _rows_and_next_draw(db: Database, seed: int, sql: str) -> tuple:
    """The statement's rows and the RNG state it leaves behind."""
    db.reseed(seed)
    return db.query_all(sql), db.query_value("SELECT random()")


def _three_ways(db: Database, seed: int, shape: str, name: str,
                args: str) -> tuple:
    """*shape* interpreted, on the per-call machine, and as inlined Qf."""
    db.execute("RESET batch_compiled")
    interpreted = _rows_and_next_draw(db, seed,
                                      shape.format(f=name, a=args))
    compiled = shape.format(f=f"{name}_c", a=args)
    assert "per call" in db.explain(compiled)
    machine = _rows_and_next_draw(db, seed, compiled)
    db.execute("SET batch_compiled = off")
    assert "Trampoline" not in db.explain(compiled)
    inlined = _rows_and_next_draw(db, seed, compiled)
    db.execute("RESET batch_compiled")
    return interpreted, machine, inlined


class TestPerCallTrampoline:
    @pytest.mark.parametrize("label,shape", CALL_SHAPES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_volatile_loop_agrees_draw_for_draw(self, db, seed, label,
                                                shape):
        _register_both(db, JITTER)
        db.execute("CREATE TABLE sites(x int)")
        db.execute("INSERT INTO sites VALUES (3), (1), (4), (0), (2)")
        interpreted, machine, inlined = _three_ways(db, seed, shape,
                                                    "jitter", "x")
        assert machine == interpreted, label
        assert inlined == interpreted, label

    @pytest.mark.parametrize("label,shape", CALL_SHAPES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_walk_agrees_draw_for_draw(self, demo, seed, label, shape):
        db = demo.db
        if db.catalog.tables.get("sites") is None:
            db.execute("CREATE TABLE sites(x int)")
            db.execute("INSERT INTO sites VALUES (3), (1), (4), (0), (2)")
        interpreted, machine, inlined = _three_ways(
            db, seed, shape, "walk", "row(0,0)::coord, 5 + x, -5 - x, 30")
        assert machine == interpreted, label
        assert inlined == interpreted, label

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_walk_matches_the_python_reference(self, demo, seed):
        """One activation (LIMIT 1 stops after the first row) against the
        plain-Python walk over the same RNG model."""
        from repro.workloads.robot import walk_reference
        db = demo.db
        db.reseed(seed)
        got = db.query_value("SELECT walk_c(row(0,0)::coord, 8, -8, 40) "
                             "FROM actions LIMIT 1")
        assert got == walk_reference(db, demo.grid, (0, 0), 8, -8, 40, seed)

    def test_compiled_function_calling_a_compiled_function(self, db):
        """The callee's site sits in the caller's transition rules, and
        EXPLAIN lists it beneath the caller's."""
        _register_both(db, GCD)
        source = """CREATE FUNCTION gcd_sum(n int) RETURNS int AS $$
        DECLARE i int := 1; acc int := 0;
        BEGIN
          WHILE i <= n LOOP acc := acc + {gcd}(n, i); i := i + 1; END LOOP;
          RETURN acc;
        END; $$ LANGUAGE plpgsql"""
        db.execute(source.format(gcd="gcd"))
        compile_plsql(source.format(gcd="gcd_c"), db).register(
            db, name="gcd_sum_c")
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (12), (7), (0), (30)")
        sql = "SELECT x FROM t WHERE {f}(x) > x ORDER BY x"
        lines = db.explain(sql.format(f="gcd_sum_c")).splitlines()
        outer = next(i for i, line in enumerate(lines)
                     if "Trampoline gcd_sum_c(x)" in line)
        assert "Trampoline gcd_c(" in lines[outer + 1]
        assert lines[outer + 1].startswith("  " + lines[outer][:2])
        expected = db.query_all(sql.format(f="gcd_sum"))
        assert db.query_all(sql.format(f="gcd_sum_c")) == expected
        db.execute("SET batch_compiled = off")
        assert db.query_all(sql.format(f="gcd_sum_c")) == expected

    def test_timeout_trips_inside_an_activation(self, db):
        _register_both(db, SUM_LOOP)
        db.execute("SET statement_timeout = 50")
        with pytest.raises(QueryCanceledError, match="statement timeout"):
            db.query_value("SELECT count(*) WHERE sum_to_c(2000000000) > 0")

    def test_cancel_trips_inside_an_activation(self, db):
        import threading
        _register_both(db, SUM_LOOP)
        conn = db.connect()
        timer = threading.Timer(0.05, conn.cancel.trip)
        timer.start()
        try:
            with pytest.raises(QueryCanceledError, match="user request"):
                conn.execute("SELECT sum(sum_to_c(2000000000))")
        finally:
            timer.join()
        assert conn.query_value("SELECT sum_to_c(3)") == 6

    def test_iteration_limit_names_the_kind_of_site(self, db):
        _register_both(db, SUM_LOOP)
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (5000)")
        db.execute("SET max_recursion_iterations = 100")
        with pytest.raises(ExecutionError,
                           match=r"per-call evaluation of sum_to_c\(\) "
                                 "exceeded 100 iterations"):
            db.query_all("SELECT x FROM t WHERE sum_to_c(x) > 0")
        with pytest.raises(ExecutionError,
                           match=r"batched evaluation of sum_to_c\(\) "
                                 "exceeded 100 iterations"):
            db.query_all("SELECT sum_to_c(x) FROM t")

    @pytest.mark.parametrize("limit", range(1, 7))
    def test_iteration_limit_trips_where_the_inlined_qf_does(self, db, limit):
        """The machine drops a finished activation at once; the inlined
        WITH RECURSIVE spends one more (empty) step filtering the result
        row.  Both must refuse the same calls at the same limit."""
        _register_both(db, SUM_LOOP)
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute(f"SET max_recursion_iterations = {limit}")
        batched = "SELECT sum_to_c(x) FROM t"
        per_call = "SELECT sum(sum_to_c(x)) FROM t"
        assert "BatchedUdf" in db.explain(batched)
        assert "per call" in db.explain(per_call)

        def outcome(sql):
            try:
                return db.query_value(sql)
            except ExecutionError as exc:
                assert f"exceeded {limit} iterations" in str(exc)
                return "raised"

        on_machine = outcome(batched), outcome(per_call)
        db.execute("SET batch_compiled = off")
        inlined = outcome(batched), outcome(per_call)
        assert on_machine == inlined
        assert inlined == (("raised",) * 2 if limit <= 3 else (3, 3))

    @pytest.mark.parametrize("body", [
        "RETURN sum_to_c(n);",
        "RETURN sum_to_c(n) + 1;",
        "RETURN sum_to_c(n) + (SELECT 1);",
        "IF sum_to_c(n) > 5 THEN RETURN sum_to_c(n - 1); END IF; RETURN 0;",
    ])
    def test_interpreted_caller_of_a_compiled_function(self, db, body):
        """A PL/pgSQL expression calling a recursive compiled function
        holds a trampoline site (or the inlined Qf) in its subplans, so it
        is not "simple" whatever its AST looks like: the interpreter must
        instantiate and close those slots."""
        _register_both(db, SUM_LOOP)
        for callee in ("sum_to", "sum_to_c"):
            db.execute(
                f"CREATE FUNCTION via_{callee}(n int) RETURNS int AS $$ "
                f"BEGIN {body.replace('sum_to_c', callee)} END; "
                "$$ LANGUAGE plpgsql")
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (4), (0), (4), (7)")
        expected = db.query_all("SELECT via_sum_to(x) FROM t")
        for setting in ("on", "off"):
            db.execute(f"SET batch_compiled = {setting}")
            assert db.query_all("SELECT via_sum_to_c(x) FROM t") == expected

    def test_rules_are_shared_across_sites_and_statements(self, db):
        """Compiled once per function and plan stamp: a second site, a
        second statement and an unprepared re-plan all reuse the cached
        rules; a plan-affecting SET compiles its own beside them, and DDL
        drops them all."""
        _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        db.execute("INSERT INTO pairs VALUES (12, 18), (7, 13)")
        fdef = db.catalog.get_function("gcd_c")
        assert fdef.body_plans == {}
        db.query_all("SELECT a FROM pairs WHERE gcd_c(a, b) > 1")
        [(stamp, rules)] = fdef.body_plans.items()
        assert stamp == db.plan_stamp()
        db.execute("SET plan_cache_size = 0")
        db.query_all("SELECT sum(gcd_c(a, b)), max(gcd_c(b, a)) FROM pairs")
        db.query_all("SELECT gcd_c(a, b) FROM pairs")  # the batched site
        assert fdef.body_plans == {stamp: rules}
        db.execute("SET enable_hashjoin = off")
        db.query_all("SELECT gcd_c(a, b) FROM pairs")
        assert len(fdef.body_plans) == 2 and fdef.body_plans[stamp] is rules
        db.execute("CREATE TABLE other(x int)")
        assert fdef.body_plans == {}

    def test_prepared_statement_survives_drop_and_reregister(self, db):
        source = """CREATE FUNCTION steps(n int) RETURNS int AS $$
        DECLARE i int := 0; acc int := 0;
        BEGIN
          WHILE i < n LOOP acc := acc + {step}; i := i + 1; END LOOP;
          RETURN acc;
        END; $$ LANGUAGE plpgsql"""
        compile_plsql(source.format(step=1), db).register(db, name="steps_c")
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (3), (4)")
        db.execute("PREPARE q AS SELECT sum(steps_c(x)) FROM t WHERE x >= $1")
        assert "Trampoline steps_c(x)" in db.explain("EXECUTE q(0)")
        assert db.query_value("EXECUTE q(0)") == 7
        db.execute("DROP FUNCTION steps_c")
        with pytest.raises(NameResolutionError, match="steps_c"):
            db.query_value("EXECUTE q(0)")
        compile_plsql(source.format(step=10), db).register(db,
                                                           name="steps_c")
        assert db.query_value("EXECUTE q(4)") == 40


# ---------------------------------------------------------------------------
# Recursive-CTE working-set dedup and trampoline counters
# ---------------------------------------------------------------------------


class TestRecursionDedupAndCounters:
    def test_union_dedup_drops_rederived_rows(self, db):
        """A cyclic graph terminates under UNION because the hash-based
        working-set dedup drops re-derived rows (and counts them)."""
        from repro.sql.profiler import (RECURSION_DEDUP_DROPPED,
                                        TRAMPOLINE_ITERATIONS)
        db.execute("CREATE TABLE edges(src int, dst int)")
        db.execute("INSERT INTO edges VALUES (1,2), (2,3), (3,1)")
        db.profiler.reset()
        rows = db.query_all(
            "WITH RECURSIVE r(n) AS ("
            "SELECT 1 UNION SELECT e.dst FROM r, edges e WHERE e.src = r.n"
            ") SELECT n FROM r ORDER BY n")
        assert rows == [(1,), (2,), (3,)]
        assert db.profiler.counts[RECURSION_DEDUP_DROPPED] >= 1
        assert db.profiler.counts[TRAMPOLINE_ITERATIONS] >= 3

    def test_union_all_counts_working_rows(self, db):
        from repro.sql.profiler import (TRAMPOLINE_ITERATIONS,
                                        TRAMPOLINE_WORKING_ROWS)
        db.profiler.reset()
        total = db.query_value(
            "WITH RECURSIVE r(n) AS ("
            "SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 5"
            ") SELECT sum(n) FROM r")
        assert total == 15
        assert db.profiler.counts[TRAMPOLINE_ITERATIONS] == 5
        assert db.profiler.counts[TRAMPOLINE_WORKING_ROWS] == 5


# ---------------------------------------------------------------------------
# Regression: the ^ power operator
# ---------------------------------------------------------------------------


class TestPowerOperator:
    def test_basic_power(self, db):
        assert db.query_value("SELECT 2 ^ 10") == 1024.0
        assert isinstance(db.query_value("SELECT 2 ^ 2"), float)

    def test_precedence_binds_tighter_than_multiplication(self, db):
        assert db.query_value("SELECT 2 ^ 2 * 3") == 12.0
        assert db.query_value("SELECT 3 * 2 ^ 2") == 12.0

    def test_unary_minus_binds_tighter_than_power(self, db):
        assert db.query_value("SELECT -2 ^ 2") == 4.0

    def test_left_associative(self, db):
        assert db.query_value("SELECT 2 ^ 3 ^ 3") == 512.0

    def test_fractional_and_negative_exponents(self, db):
        assert db.query_value("SELECT 4 ^ 0.5") == 2.0
        assert db.query_value("SELECT 2 ^ -1") == 0.5

    def test_null_propagates(self, db):
        assert db.query_value("SELECT NULL ^ 2") is None
        assert db.query_value("SELECT 2 ^ NULL") is None

    def test_error_cases(self, db):
        with pytest.raises(ExecutionError):
            db.query_value("SELECT 0 ^ -1")
        with pytest.raises(ExecutionError):
            db.query_value("SELECT (-8) ^ 0.5")

    def test_usable_from_plpgsql(self, db):
        db.execute("""CREATE FUNCTION pow2(n int) RETURNS double precision AS
            $$ BEGIN RETURN 2 ^ n; END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT pow2(8)") == 256.0

    def test_lexes_as_operator_not_error(self):
        from repro.sql.lexer import tokenize
        tokens = tokenize("2 ^ 10")
        assert [t.value for t in tokens[:3]] == [2, "^", 10]

    def test_trailing_garbage_still_rejected(self, db):
        with pytest.raises(ParseError):
            db.execute("SELECT 2 ^")


# ---------------------------------------------------------------------------
# Regression: runaway-loop statement budget
# ---------------------------------------------------------------------------

DIVERGING = """
CREATE FUNCTION diverge(n int) RETURNS int AS $$
BEGIN
  WHILE n <> 1 LOOP
    IF n % 2 = 0 THEN n := n / 2; ELSE n := 3 * n + 1; END IF;
  END LOOP;
  RETURN n;
END;
$$ LANGUAGE plpgsql"""


class TestStatementBudget:
    def test_nonterminating_loop_raises_instead_of_hanging(self, db):
        db.execute(DIVERGING)
        db.execute("SET max_interp_statements = 10000")
        # Budget exhaustion classifies with cancellation (SQLSTATE 57014).
        with pytest.raises(QueryCanceledError, match="diverge"):
            # Collatz from 0 loops 0 -> 0 forever.
            db.query_value("SELECT diverge(0)")

    def test_error_names_the_limit(self, db):
        db.execute(DIVERGING)
        db.execute("SET max_interp_statements = 5000")
        with pytest.raises(QueryCanceledError,
                           match="max_interp_statements=5000"):
            db.query_value("SELECT diverge(0)")

    def test_terminating_calls_unaffected(self, db):
        db.execute(DIVERGING)
        assert db.query_value("SELECT diverge(27)") == 1

    def test_budget_is_per_activation(self, db):
        db.execute(DIVERGING)
        db.execute("SET max_interp_statements = 2000")
        # Many short activations must not accumulate into the budget.
        for _ in range(5):
            assert db.query_value("SELECT diverge(97)") == 1

    def test_condition_only_loop_is_budgeted(self, db):
        db.execute("""CREATE FUNCTION spin() RETURNS int AS $$
            BEGIN
              WHILE true LOOP
              END LOOP;
              RETURN 0;
            END; $$ LANGUAGE plpgsql""")
        db.execute("SET max_interp_statements = 1000")
        with pytest.raises(QueryCanceledError, match="spin"):
            db.query_value("SELECT spin()")


# ---------------------------------------------------------------------------
# Hash join vs nested loop
# ---------------------------------------------------------------------------


def _join_db(hashjoin: bool) -> Database:
    db = Database()
    db.execute("CREATE TABLE l(id int, v text)")
    db.execute("CREATE TABLE r(id int, w text)")
    db.execute("INSERT INTO l VALUES (1,'a'), (2,'b'), (2,'b2'), (3,'c'), "
               "(NULL,'ln')")
    db.execute("INSERT INTO r VALUES (2,'R2'), (3,'R3'), (3,'R3b'), (4,'R4'), "
               "(NULL,'rn')")
    db.settings.assign("enable_hashjoin", hashjoin)
    db.settings.assign("enable_pushdown", hashjoin)
    return db


JOIN_QUERIES = [
    "SELECT l.v, r.w FROM l JOIN r ON l.id = r.id",
    "SELECT l.v, r.w FROM l LEFT JOIN r ON l.id = r.id",
    "SELECT l.v, r.w FROM l, r WHERE l.id = r.id",
    "SELECT count(*) FROM l CROSS JOIN r",
    "SELECT l.v, r.w FROM l LEFT JOIN r ON l.id = r.id AND r.w <> 'R3'",
    "SELECT l.v, r.w FROM l JOIN r ON l.id = r.id WHERE l.v <> 'b' AND r.w <> 'R4'",
    "SELECT l.v, r.w FROM l JOIN r ON l.id = r.id AND l.v < r.w",
]


class TestHashJoinEquivalence:
    @pytest.mark.parametrize("sql", JOIN_QUERIES)
    def test_hash_and_nestloop_agree(self, sql):
        hashed = _join_db(True).query_all(sql)
        nested = _join_db(False).query_all(sql)
        assert rows_equal(nested, hashed)  # join order is unspecified

    def test_null_keys_never_match(self):
        for hashjoin in (True, False):
            db = _join_db(hashjoin)
            rows = db.query_all(
                "SELECT l.v, r.w FROM l JOIN r ON l.id = r.id "
                "WHERE l.v = 'ln' OR r.w = 'rn'")
            assert rows == []
            left = db.query_all(
                "SELECT l.v, r.w FROM l LEFT JOIN r ON l.id = r.id "
                "WHERE l.v = 'ln'")
            assert left == [("ln", None)]

    def test_explain_names_strategies(self):
        db = _join_db(True)
        assert "HashJoin" in db.explain(
            "SELECT 1 FROM l JOIN r ON l.id = r.id")
        non_equi = db.explain("SELECT 1 FROM l JOIN r ON l.id < r.id")
        assert "NestLoop" in non_equi and "HashJoin" not in non_equi
        lateral = db.explain(
            "SELECT 1 FROM l LEFT JOIN LATERAL (SELECT w FROM r "
            "WHERE r.id = l.id) x ON true")
        assert "NestLoop" in lateral and "HashJoin" not in lateral

    def test_pushdown_visible_in_explain(self):
        db = _join_db(True)
        text = db.explain("SELECT 1 FROM l JOIN r ON l.id = r.id "
                          "WHERE l.v = 'a'")
        assert "pushed-down filter" in text

    def test_where_conjunct_on_nullable_side_not_pushed(self):
        # WHERE over a LEFT JOIN's right side must see NULL-filled rows.
        for hashjoin in (True, False):
            db = _join_db(hashjoin)
            rows = db.query_all(
                "SELECT l.v FROM l LEFT JOIN r ON l.id = r.id "
                "WHERE r.w IS NULL ORDER BY l.v")
            assert rows == [("a",), ("ln",)]

    def test_build_side_follows_estimates(self):
        db = Database()
        db.execute("CREATE TABLE small(id int)")
        db.execute("CREATE TABLE big(id int)")
        db.execute("INSERT INTO small VALUES (1), (2)")
        db.execute("INSERT INTO big " + " UNION ALL ".join(
            f"SELECT {i}" for i in range(50)))
        assert "[build=left]" in db.explain(
            "SELECT 1 FROM small JOIN big ON small.id = big.id")
        assert "[build=right]" in db.explain(
            "SELECT 1 FROM big JOIN small ON small.id = big.id")

    def test_profiler_counts_builds(self):
        db = _join_db(True)
        db.query_all("SELECT 1 FROM l JOIN r ON l.id = r.id")
        assert db.profiler.counts["hash join builds"] == 1
        assert db.profiler.counts["hash join build rows"] == 4

    def test_on_condition_cannot_reference_later_from_items(self):
        """Forward references in ON fail at plan time (as PostgreSQL and
        the seed planner do) instead of reading unfilled slots."""
        from repro.sql.errors import NameResolutionError
        db = _join_db(True)
        db.execute("CREATE TABLE c(id int)")
        db.execute("INSERT INTO c VALUES (2)")
        with pytest.raises(NameResolutionError):
            db.query_all("SELECT 1 FROM l JOIN r ON l.id = c.id, c")
        # Back-references from a parenthesized subtree keep working: the
        # ON condition only constrains l, so both l rows with id = 2 pair
        # with every r row.
        query = "SELECT count(*) FROM c, (l JOIN r ON l.id = c.id)"
        assert db.query_all(query) == [(10,)]
        nested = _join_db(False)
        nested.execute("CREATE TABLE c(id int)")
        nested.execute("INSERT INTO c VALUES (2)")
        assert nested.query_all(query) == [(10,)]

    def test_volatile_conjuncts_are_not_pushed(self):
        """random() in WHERE must evaluate once per joined row under both
        strategies, so pushdown may not move it."""
        results = []
        for hashjoin in (True, False):
            db = Database(seed=7)
            db.execute("CREATE TABLE a(x int)")
            db.execute("CREATE TABLE b(y int)")
            db.execute("INSERT INTO a VALUES (1), (2), (3)")
            db.execute("INSERT INTO b VALUES (1), (2), (3)")
            db.settings.assign("enable_hashjoin", hashjoin)
            db.settings.assign("enable_pushdown", hashjoin)
            db.reseed(7)
            results.append(db.query_value(
                "SELECT count(*) FROM a, b WHERE a.x > random() * 2"))
        assert results[0] == results[1]

    def test_incomparable_key_types_raise_like_nested_loop(self):
        from repro.sql.errors import TypeError_
        for hashjoin in (True, False):
            db = Database()
            db.execute("CREATE TABLE a(x int)")
            db.execute("CREATE TABLE t(s text)")
            db.execute("INSERT INTO a VALUES (1)")
            db.execute("INSERT INTO t VALUES ('1')")
            db.settings.assign("enable_hashjoin", hashjoin)
            with pytest.raises(TypeError_):
                db.query_all("SELECT * FROM a JOIN t ON a.x = t.s")


class TestPowerOperatorEdgeValues:
    def test_infinite_exponent_takes_ieee_semantics(self, db):
        assert db.query_value("SELECT (-2.0) ^ (1e308 * 10)") == float("inf")

    def test_nan_exponent_propagates(self, db):
        import math
        value = db.query_value("SELECT 2 ^ (1e308 * 10 - 1e308 * 10)")
        assert math.isnan(value)


# ---------------------------------------------------------------------------
# Ordered access paths vs. scan-and-sort
# ---------------------------------------------------------------------------


def _ordered_db(seed: int, rows: int = 400) -> Database:
    """Randomized table with duplicate keys and NULLs in every column."""
    import random as _random

    rng = _random.Random(seed)
    db = Database(seed=seed)
    db.execute("CREATE TABLE d(k int, v int, u int)")
    table = db.catalog.get_table("d")
    for i in range(rows):
        k = None if rng.random() < 0.1 else rng.randrange(40)
        v = None if rng.random() < 0.1 else rng.randrange(1000)
        table.insert((k, v, i))  # u is unique: a deterministic tiebreak
    return db


def _baseline(db: Database) -> None:
    """Force the seed access paths (SeqScan + full Sort + hash/nested)."""
    db.execute("SET enable_rangescan = off")
    db.execute("SET enable_sort_elim = off")
    db.execute("SET enable_topn = off")
    db.execute("SET enable_mergejoin = off")


class TestOrderedPathsDifferential:
    """IndexRangeScan / TopN / MergeJoin vs. SeqScan + Sort / NestLoop on
    randomized data — DESC, duplicate keys, NULL keys, empty ranges and
    LIMIT 0 included.  ORDER BY keys always end in the unique column so
    tie order is pinned and row-for-row comparison is exact."""

    RANGE_QUERIES = [
        "SELECT k, v, u FROM d WHERE k >= 10 AND k < 20 ORDER BY u",
        "SELECT k, v, u FROM d WHERE k > 35 ORDER BY u",
        "SELECT k, v, u FROM d WHERE k <= 3 ORDER BY u",
        "SELECT k, v, u FROM d WHERE v BETWEEN 100 AND 200 ORDER BY u",
        "SELECT k, v, u FROM d WHERE k > 20 AND k < 10 ORDER BY u",  # empty
        "SELECT k, v, u FROM d WHERE k >= 39 AND k <= 39 ORDER BY u",
    ]

    @pytest.mark.parametrize("seed", [3, 11, 2024])
    def test_range_scans_agree(self, seed):
        db = _ordered_db(seed)
        fast = [db.query_all(sql) for sql in self.RANGE_QUERIES]
        _baseline(db)
        slow = [db.query_all(sql) for sql in self.RANGE_QUERIES]
        for sql, a, b in zip(self.RANGE_QUERIES, slow, fast):
            assert rows_equal(a, b, ordered=True), sql

    ORDER_QUERIES = [
        "SELECT k, u FROM d ORDER BY k, u",
        "SELECT k, u FROM d ORDER BY k DESC, u DESC",
        "SELECT k, u FROM d ORDER BY k, u LIMIT 25",
        "SELECT k, u FROM d ORDER BY k DESC, u DESC LIMIT 25",
        "SELECT k, u FROM d ORDER BY k, u LIMIT 0",
        "SELECT k, u FROM d ORDER BY k, u LIMIT 10 OFFSET 390",
        "SELECT k, u FROM d ORDER BY u LIMIT 7",
        "SELECT k, u FROM d ORDER BY u DESC LIMIT 7",
    ]

    @pytest.mark.parametrize("seed", [3, 11, 2024])
    def test_ordered_delivery_and_topn_agree(self, seed):
        db = _ordered_db(seed)
        db.execute("CREATE INDEX d_ku ON d(k, u)")
        db.execute("CREATE INDEX d_u ON d(u)")
        fast = [db.query_all(sql) for sql in self.ORDER_QUERIES]
        explains = [db.explain(sql) for sql in self.ORDER_QUERIES]
        _baseline(db)
        slow = [db.query_all(sql) for sql in self.ORDER_QUERIES]
        for sql, a, b in zip(self.ORDER_QUERIES, slow, fast):
            assert rows_equal(a, b, ordered=True), sql
        # The index really served the fully-matching orderings.
        assert "IndexRangeScan" in explains[0]
        assert "IndexRangeScan" in explains[1]

    def test_topn_without_any_index_agrees(self):
        db = _ordered_db(99)
        sql = "SELECT k, v, u FROM d ORDER BY v DESC, u LIMIT 13"
        assert "TopN" in db.explain(sql)
        fast = db.query_all(sql)
        _baseline(db)
        assert rows_equal(db.query_all(sql), fast, ordered=True)

    def test_prefix_elimination_is_order_correct(self):
        """ORDER BY a prefix of a wider index: tie order is unspecified by
        SQL, so assert the multiset and the ordering constraint instead of
        row-for-row equality."""
        db = _ordered_db(5)
        db.execute("CREATE INDEX d_ku ON d(k, u)")
        sql = "SELECT k FROM d ORDER BY k"
        assert "Sort" not in db.explain(sql)
        fast = db.query_all(sql)
        keys = [row[0] for row in fast]
        non_null = [key for key in keys if key is not None]
        assert non_null == sorted(non_null)
        assert all(key is None for key in keys[len(non_null):])
        _baseline(db)
        assert sorted(keys, key=lambda k: (k is None, k or 0)) == \
            [row[0] for row in db.query_all(sql)]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_merge_join_agrees_with_hash_and_nested_loop(self, seed):
        import random as _random

        rng = _random.Random(seed)
        db = Database(seed=seed)
        db.execute("CREATE TABLE l(k int, a int)")
        db.execute("CREATE TABLE r(k int, b int)")
        for i in range(150):
            db.catalog.get_table("l").insert(
                (None if rng.random() < 0.1 else rng.randrange(25), i))
        for i in range(120):
            db.catalog.get_table("r").insert(
                (None if rng.random() < 0.1 else rng.randrange(25), i))
        db.execute("CREATE INDEX l_k ON l(k)")
        db.execute("CREATE INDEX r_k ON r(k)")
        queries = [
            "SELECT l.k, l.a, r.b FROM l JOIN r ON l.k = r.k "
            "ORDER BY l.a, r.b",
            "SELECT count(*) FROM l, r WHERE l.k = r.k AND l.a < r.b",
            "SELECT count(*) FROM l JOIN r ON l.k = r.k AND l.a % 2 = 0",
        ]
        assert "MergeJoin" in db.explain(queries[0])
        merge = [db.query_all(sql) for sql in queries]
        db.execute("SET enable_mergejoin = off")
        hashed = [db.query_all(sql) for sql in queries]
        db.execute("SET enable_hashjoin = off")
        db.execute("SET enable_pushdown = off")
        db.execute("SET enable_rangescan = off")
        db.execute("SET enable_sort_elim = off")
        db.execute("SET enable_topn = off")
        nested = [db.query_all(sql) for sql in queries]
        for sql, m, h, n in zip(queries, merge, hashed, nested):
            assert rows_equal(n, h, ordered=True), sql
            assert rows_equal(n, m, ordered=True), sql

    def test_dml_between_probes_agrees(self):
        """The incrementally-maintained index and a fresh scan must agree
        after every DML statement of a mixed sequence."""
        db = _ordered_db(17)
        db.execute("CREATE INDEX d_v ON d(v)")
        probe = "SELECT v, u FROM d WHERE v >= 250 AND v < 750 ORDER BY v, u"
        statements = [
            "DELETE FROM d WHERE v >= 300 AND v < 350",
            "UPDATE d SET v = v + 17 WHERE v BETWEEN 500 AND 600",
            "INSERT INTO d VALUES (1, 500, 9001)",
            "UPDATE d SET v = NULL WHERE v >= 740",
            "DELETE FROM d WHERE v IS NULL",
        ]
        for statement in statements:
            db.execute(statement)
            fast = db.query_all(probe)
            db.execute("SET enable_rangescan = off")
            db.execute("SET enable_sort_elim = off")
            slow = db.query_all(probe)
            db.execute("SET enable_rangescan = on")
            db.execute("SET enable_sort_elim = on")
            assert rows_equal(slow, fast, ordered=True), statement


# ---------------------------------------------------------------------------
# Vectorized vs. row-at-a-time execution
# ---------------------------------------------------------------------------


def _vector_db(seed: int, rows: int) -> Database:
    """Randomized single table with NULL- and NaN-heavy columns."""
    import random as _random

    rng = _random.Random(seed)
    db = Database(seed=seed)
    db.execute("CREATE TABLE v(a int, b int, f double precision, s text)")
    table = db.catalog.get_table("v")
    for i in range(rows):
        a = None if rng.random() < 0.3 else rng.randrange(-50, 50)
        b = None if rng.random() < 0.3 else rng.randrange(10)
        roll = rng.random()
        f = (None if roll < 0.25 else
             float("nan") if roll < 0.5 else rng.uniform(-5, 5))
        s = None if rng.random() < 0.3 else f"s{rng.randrange(5)}"
        table.insert((a, b, f, s))
    return db


class TestVectorizedDifferential:
    """The batch engine vs. the row engine on the same statements — the
    batch-size sweep runs each query at batch size 1 and rows±1 (and the
    default 1024) so off-by-one drain bugs at batch boundaries can't hide,
    per the empty-batch / LIMIT 0 / all-rejected-predicate edge cases."""

    QUERIES = [
        "SELECT a, b FROM v",
        "SELECT count(*), sum(a), avg(a), min(b), max(b) FROM v",
        "SELECT sum(f), count(f) FROM v",                 # NaN + NULL heavy
        "SELECT a FROM v WHERE a % 2 = 0",
        "SELECT a, f FROM v WHERE b % 3 = 1 AND a IS NOT NULL",
        "SELECT b, count(*), sum(a) FROM v GROUP BY b",
        "SELECT b, avg(f) FROM v GROUP BY b HAVING count(*) > 3",
        "SELECT DISTINCT b FROM v",
        "SELECT count(DISTINCT b), count(DISTINCT s) FROM v",
        "SELECT coalesce(a, b, 0) + 1 FROM v",
        "SELECT CASE WHEN a % 2 = 0 THEN 'even' ELSE s END FROM v",
        "SELECT a FROM v WHERE s LIKE 's%' OR b IN (1, 2, NULL)",
        "SELECT upper(s), abs(a) FROM v WHERE f IS NULL",
        "SELECT a FROM v WHERE a > 999",                  # rejects every batch
        "SELECT a, b FROM v LIMIT 0",
        "SELECT sum(a) FROM v LIMIT 0",
        "SELECT a FROM v WHERE a BETWEEN -5 AND 5 LIMIT 3",
    ]

    def _both(self, db: Database, sql: str):
        db.execute("SET enable_vectorize = on")
        fast = db.query_all(sql)
        db.execute("SET enable_vectorize = off")
        slow = db.query_all(sql)
        db.execute("SET enable_vectorize = on")
        return fast, slow

    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_batch_size(self, seed):
        db = _vector_db(seed, rows=257)
        for sql in self.QUERIES:
            fast, slow = self._both(db, sql)
            assert rows_equal(slow, fast, ordered="ORDER" in sql), sql

    @pytest.mark.parametrize("delta", [None, -1, 0, 1])
    def test_batch_boundary_sweep(self, delta, monkeypatch):
        """Batch size 1 and rows-1 / rows / rows+1: the drain loop crosses
        a batch boundary on the last row, exactly at it, or never."""
        from repro.sql.executor import vector

        rows = 40
        db = _vector_db(3, rows=rows)
        size = 1 if delta is None else rows + delta
        monkeypatch.setattr(vector, "BATCH_SIZE", size)
        for sql in self.QUERIES:
            fast, slow = self._both(db, sql)
            assert rows_equal(slow, fast, ordered="ORDER" in sql), \
                f"batch={size}: {sql}"

    def test_empty_table(self, db):
        db.execute("CREATE TABLE v(a int, b int, f double precision, s text)")
        for sql in self.QUERIES:
            fast, slow = self._both(db, sql)
            assert rows_equal(slow, fast, ordered=False), sql
