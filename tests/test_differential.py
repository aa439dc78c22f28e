"""Differential testing: interpreter vs compiled, hash join vs nested loop,
the trampoline machine vs the inlined Qf.

Inspired by coverage-driven configuration validation, this suite drives the
same workload through independent execution paths and asserts identical
results:

* PL/pgSQL functions executed by the interpreter *and* as the compiled
  ``WITH RECURSIVE`` query (argument sweeps over gcd, sign, a summing loop,
  and a bounded Collatz),
* compiled functions over whole relations through the per-call
  trampoline site (the machine, its memo by argument values included)
  against the inlined scalar-subquery Qf and the interpreter, including
  NULL arguments, zero-row inputs and rows a LIMIT never reaches,
* functions whose SSA names an embedded query could once see as columns,
  or that spell a variable's name where the planner resolves something
  else (an ORDER BY output alias), on the interpreter, the machine, the
  inlined Qf and SQLite's Qf, and SQL functions whose FROM column shadows
  a parameter,
* calls in every position (volatile bodies, WHERE, CASE arms, aggregate
  arguments, LIMIT) on the per-call trampoline machine against the inlined
  Qf and the interpreter, draw for draw,
* join queries executed by the hash-join operator *and* the seed
  nested-loop path (inner/left/cross, NULL join keys),
* ordered access paths — IndexRangeScan, index-ordered delivery (sort
  elimination), the bounded-heap TopN and hash joins over indexed keys —
  against SeqScan + full Sort and the nested loop, on randomized data
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
from repro.sql.errors import (CompileError, ExecutionError,
                              NameResolutionError, ParseError,
                              QueryCanceledError, TypeError_,
                              VariableConflictError)


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


# One loop variable: the machine's state row is a single column, and a
# call that never enters the loop finishes in the base rule.
COUNTDOWN = """
CREATE FUNCTION countdown(n int) RETURNS int AS $$
BEGIN
  IF n <= 0 THEN RETURN n; END IF;
  WHILE n > 0 LOOP
    n := n - 1;
  END LOOP;
  RETURN n;
END;
$$ LANGUAGE plpgsql"""


class TestInterpreterVsCompiled:
    @pytest.mark.parametrize("source,calls", [
        (GCD, [(a, b) for a in (0, 1, 12, 270, 1071) for b in (0, 1, 462)]),
        (SIGN_FN, [(n,) for n in range(-3, 4)]),
        (SUM_LOOP, [(n,) for n in (-1, 0, 1, 2, 10, 100)]),
        (COLLATZ, [(n, 200) for n in (1, 2, 6, 7, 27, 97)]),
        (WINDOW_VAR, [(k,) for k in (-2, 0, 1, None)]),
        (COUNTDOWN, [(n,) for n in (-1, 0, 3)]),
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


FALL_OFF = """
CREATE FUNCTION fall_off(n int) RETURNS int AS $$
BEGIN
  IF n > 0 THEN RETURN n; END IF;
END;
$$ LANGUAGE plpgsql"""


class TestFallOffTheEnd:
    @pytest.mark.parametrize("batch", ["on", "off"])
    def test_both_raise_without_return(self, db, batch):
        from repro.sql.errors import NoReturnError
        name = _register_both(db, FALL_OFF)
        db.execute(f"SET batch_compiled = {batch}")
        for fn in (name, f"{name}_c"):
            assert db.query_value(f"SELECT {fn}(2)") == 2
            with pytest.raises(NoReturnError, match="without RETURN"):
                db.query_value(f"SELECT {fn}(0)")


# A text value assigned to an int variable: the interpreter casts on
# assignment (``Interpreter._coerce``), the compiled forms carry the text.
COERCE_LOOP = """
CREATE FUNCTION coerce_loop(s text) RETURNS int AS $$
DECLARE x int; i int := 0;
BEGIN
  WHILE i < 2 LOOP
    x := s;
    i := i + 1;
  END LOOP;
  RETURN x + 1;
END;
$$ LANGUAGE plpgsql"""

COERCE_RETURN = """
CREATE FUNCTION coerce_return(s text) RETURNS int AS $$
BEGIN
  RETURN s;
END;
$$ LANGUAGE plpgsql"""


class TestAssignmentCoercion:
    """Known divergence: interpreted, ``coerce_loop('12')`` is 13 and
    ``coerce_return('12')`` is 12; compiled, the first raises "expected
    number, got str" and the second returns the text '12', under both
    ``batch_compiled`` values."""

    @pytest.mark.xfail(strict=True, reason="compiled forms do not cast an "
                       "assigned or returned value to the declared type")
    @pytest.mark.parametrize("batch", ["on", "off"])
    @pytest.mark.parametrize("source,expected", [(COERCE_LOOP, 13),
                                                 (COERCE_RETURN, 12)],
                             ids=["assign", "return"])
    def test_compiled_casts_like_the_interpreter(self, db, source, expected,
                                                 batch):
        name = _register_both(db, source)
        db.execute(f"SET batch_compiled = {batch}")
        assert db.query_value(f"SELECT {name}('12')") == expected
        assert db.query_value(f"SELECT {name}_c('12')") == expected


DOUBLE_READ = """
CREATE FUNCTION h(a float) RETURNS float AS $$
BEGIN
  RETURN a - a;
END;
$$ LANGUAGE plpgsql"""

UNREAD_PARAMETER = """
CREATE FUNCTION g(a int, b int) RETURNS int AS $$
DECLARE acc int := 0; i int := 0;
BEGIN
  WHILE i < 2 LOOP
    acc := acc + b;
    i := i + 1;
  END LOOP;
  RETURN acc;
END;
$$ LANGUAGE plpgsql"""


class TestArgumentsBoundOnce:
    """Every form evaluates each argument once per call, before the body,
    whether or not the body reads it: the interpreter and the trampoline
    machine take argument values, and every Qf binds its arguments in one
    row (``template.bind_arguments``)."""

    @pytest.mark.parametrize("batch", ["on", "off"])
    def test_a_volatile_argument_is_drawn_once(self, db, batch):
        name = _register_both(db, DOUBLE_READ)
        db.execute(f"SET batch_compiled = {batch}")
        assert db.query_value(f"SELECT {name}(random())") == 0.0
        assert db.query_value(f"SELECT {name}_c(random())") == 0.0

    def test_an_unread_argument_is_still_evaluated(self, db):
        name = _register_both(db, UNREAD_PARAMETER)
        sql = "SELECT {f}(12 / (x - 3), x) FROM (VALUES (3)) v(x)"
        db.execute("SET batch_compiled = off")
        for function in (name, f"{name}_c"):
            with pytest.raises(ExecutionError, match="division by zero"):
                db.query_all(sql.format(f=function))


# ---------------------------------------------------------------------------
# The trampoline machine vs the inlined Qf, over whole relations
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


class TestMachineEquivalence:
    @pytest.mark.parametrize("source", [GCD, SUM_LOOP, COLLATZ, NESTED_LOOPS,
                                        WINDOW_VAR])
    def test_all_paths_agree_over_table(self, db, source):
        """Interpreter, inlined Qf and the machine return identical rows
        over an argument sweep that includes NULLs."""
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

    def test_explain_names_the_per_call_site(self, db):
        """Every site is the per-call trampoline, listed under the
        operator that owns its expression."""
        _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        per_call = "-> Trampoline gcd_c(a, b)  [machine, per call; " \
                   "volatility=immutable]"
        where = "-> Trampoline gcd_c(b, a)  [machine, per call; " \
                "volatility=immutable]"
        select = "SELECT gcd_c(a, b) FROM pairs"
        assert db.explain(select).splitlines()[:2] == [
            "-> Select  [gcd_c]", "  " + per_call]
        aggregate = "SELECT sum(gcd_c(a, b)) FROM pairs WHERE gcd_c(b, a) > 1"
        lines = db.explain(aggregate).splitlines()
        assert lines[0].startswith("-> Aggregate+Select")
        assert lines[1:3] == ["  " + where, "  " + per_call]
        db.execute("SET batch_compiled = off")
        for sql in (select, aggregate):
            assert "Trampoline" not in db.explain(sql)

    def test_volatile_args_evaluate_in_place(self, db):
        """random() in an argument evaluates per row in call order, where
        the call stands: the draws and the RNG state left behind agree
        with the inlined Qf."""
        _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        db.execute("INSERT INTO pairs VALUES (12, 18), (270, 192), "
                   "(7, 13), (100, 75)")
        sql = "SELECT gcd_c(cast(random() * 10 AS int), b) FROM pairs"
        plan = db.explain(sql)
        assert "-> Trampoline gcd_c(<expr>, b)  [machine, per call; " \
               "volatility=immutable]" in plan
        machine = _rows_and_next_draw(db, 7, sql)
        db.execute("SET batch_compiled = off")
        assert "Trampoline" not in db.explain(sql)
        assert _rows_and_next_draw(db, 7, sql) == machine

    def test_volatile_body_runs_on_an_unshared_machine(self, db):
        from repro.compiler import compile_plsql
        source = """CREATE FUNCTION jitter(n int) RETURNS double precision AS
        $$ DECLARE i int := 0; acc double precision := 0;
        BEGIN
          WHILE i < n LOOP acc := acc + random(); i := i + 1; END LOOP;
          RETURN acc;
        END; $$ LANGUAGE plpgsql"""
        compiled = compile_plsql(source, db)
        fdef = compiled.register(db, name="jitter_c")
        assert fdef.machine is not None
        assert not fdef.machine.shareable
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (3), (4)")
        plan = db.explain("SELECT jitter_c(x) FROM t")
        assert "-> Trampoline jitter_c(x)  [machine, per call; " \
               "volatility=volatile]" in plan
        db.execute("SET batch_compiled = off")
        assert "Trampoline" not in db.explain("SELECT jitter_c(x) FROM t")

    def test_volatile_helper_body_is_never_shared(self, db):
        """A body that is volatile only through a user-defined helper is
        volatile to the compiler too (it asks the same analyzer as the
        planner), so its machine is not shareable and every call runs as
        its own activation: three equal arguments draw three times."""
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
        assert not fdef.machine.shareable
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (3), (3), (3)")
        plan = db.explain("SELECT jit_c(x) FROM t")
        assert "Trampoline jit_c(x)  [machine, per call; " \
               "volatility=volatile]" in plan
        db.reseed(5)
        interpreted = db.query_all("SELECT jit(x) FROM t")
        db.reseed(5)
        compiled = db.query_all("SELECT jit_c(x) FROM t")
        assert compiled == interpreted
        assert len({row[0] for row in compiled}) == 3

    def test_loop_free_functions_stay_inlined(self, db):
        """Froid-style functions are already one planned expression; they
        have no machine and no trampoline site."""
        name = _register_both(db, SIGN_FN)
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (-5), (0), (7)")
        assert "Trampoline" not in db.explain(f"SELECT {name}_c(x) FROM t")
        assert db.query_all(f"SELECT {name}_c(x) FROM t") == \
            [(-1,), (0,), (1,)]

    def test_streaming_limit_is_lazy(self, db):
        """`LIMIT` without `ORDER BY` never evaluates the tail rows' calls;
        with a full sort every projected row is evaluated, both ways."""
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
        ordered = "SELECT inv_c(x) FROM t ORDER BY x DESC LIMIT 1"
        for setting in ("on", "off"):
            db.execute(f"SET batch_compiled = {setting}")
            assert db.query_all(limited) == [(900,)]
            with pytest.raises(ExecutionError, match="division by zero"):
                db.query_all(ordered)

    @pytest.mark.parametrize("index,sql,expected", [
        # Sort elimination keeps the block streaming: the index delivers
        # x DESC and LIMIT stops before the row x = 0.
        (True, "SELECT {f}(x) FROM t ORDER BY x DESC LIMIT 2",
         [(60,), (99,)]),
        # The LIMIT sits outside the block whose select list calls f.
        (False, "SELECT * FROM (SELECT {f}(x) AS y FROM t) s LIMIT 2",
         [(60,), (300,)]),
    ])
    def test_rows_past_a_streaming_limit_are_never_called(self, db, index,
                                                          sql, expected):
        """The set-oriented stage this machine replaced evaluated every
        select-list call of a block before its first row left, so both
        statements raised division by zero on x = 0, a row the interpreter
        and the inlined Qf never reach."""
        source = """CREATE FUNCTION inv(n int) RETURNS int AS $$
        DECLARE i int := 0; s int := 0;
        BEGIN
          WHILE i < 3 LOOP s := s + 100 / n; i := i + 1; END LOOP;
          RETURN s;
        END; $$ LANGUAGE plpgsql"""
        _register_both(db, source)
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (5), (1), (0), (3)")
        if index:
            db.execute("CREATE INDEX t_x ON t(x)")
        assert db.query_all(sql.format(f="inv")) == expected
        assert db.query_all(sql.format(f="inv_c")) == expected
        assert "per call" in db.explain(sql.format(f="inv_c"))
        db.execute("SET batch_compiled = off")
        assert db.query_all(sql.format(f="inv_c")) == expected

    def test_short_circuiting_subqueries_stay_lazy(self, db):
        """EXISTS / IN / scalar subqueries stop pulling rows early, and the
        calls of rows they never pull are never evaluated."""
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

    def test_dedup_distinguishes_sql_equal_representations(self, db):
        """5 and 5.0 passed for an int parameter are both cast to 5 before
        the memo key is built, as the interpreter coerces them at entry:
        one activation, and both answer as ``halver(5)``.  The memo never
        merges NULL with 0, and all-distinct arguments lose nothing."""
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
        machine = []
        for query, vectors in ((sql, 1), (nulls, 2), (distinct, 10)):
            assert "Trampoline halver_c" in db.explain(query)
            # Cold: a new template, whose call memo carries nothing in
            # from the statements before (5 of the first is 5 of the last).
            db.clear_plan_cache()
            db.profiler.reset()
            machine.append(db.query_all(query))
            assert db.profiler.counts[BATCHED_UDF_DISTINCT] == vectors
        db.execute("SET batch_compiled = off")
        assert machine == [db.query_all(q) for q in (sql, nulls, distinct)] \
            == [[(4,), (4,)], [(0,), (None,), (0,), (None,)],
                [(2 * (x // 2),) for x in range(1, 11)]]
        db.execute(source)
        assert db.query_all(sql.replace("halver_c", "halver")) == machine[0]

    def test_duplicate_call_sites_keep_their_own_memo(self, db):
        from repro.sql.profiler import BATCHED_UDF_DISTINCT
        _register_both(db, GCD)
        db.execute("CREATE TABLE pairs(a int, b int)")
        db.execute("INSERT INTO pairs VALUES (12, 18), (7, 13)")
        sql = "SELECT gcd_c(a, b), gcd_c(a, b), gcd_c(b, a) FROM pairs"
        assert db.explain(sql).count("Trampoline") == 3
        db.profiler.reset()
        assert db.query_all(sql) == [(6, 6, 6), (1, 1, 1)]
        assert db.profiler.counts[BATCHED_UDF_DISTINCT] == 6

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

    def test_call_over_group_by_and_params(self, db):
        _register_both(db, SUM_LOOP)
        db.execute("CREATE TABLE t(g int, x int)")
        db.execute("INSERT INTO t VALUES (0, 1), (0, 2), (1, 3), (1, 4)")
        sql = "SELECT g, sum_to_c(sum(x) + $1) FROM t GROUP BY g ORDER BY g"
        grouped = db.query_all(sql, [1])
        assert "Trampoline sum_to_c(<expr>)" in db.explain(
            "SELECT g, sum_to_c(sum(x) + $1) FROM t GROUP BY g ORDER BY g")
        db.execute("SET batch_compiled = off")
        assert db.query_all(sql, [1]) == grouped == [(0, 10), (1, 36)]


# ---------------------------------------------------------------------------
# No generated name is captured by a column
# ---------------------------------------------------------------------------

#: shape -> (setup statements, function body, argument).  In each, the SSA
#: pass versions a variable to a name (``v_3``, ``n_2``) that some embedded
#: query of the body also sees as a column: a base table's, a derived
#: table's item the body never reads, a table's read by the loop condition.
CAPTURE_SHAPES = {
    "table column": (
        ["CREATE TABLE t(a int, v_3 int)", "INSERT INTO t VALUES (1, 100)"],
        """DECLARE v int = 0;
BEGIN
  WHILE n > 0 LOOP v = v + 1; n = n - (SELECT v FROM t); END LOOP;
  RETURN v;
END;""", 3),
    "derived-table item": (
        [],
        """DECLARE v int = 0;
BEGIN
  WHILE n > 0 LOOP
    v = v + 1; n = n - (SELECT v FROM (SELECT 100 AS v_3) AS s);
  END LOOP;
  RETURN v;
END;""", 3),
    "loop condition": (
        ["CREATE TABLE u(k int, n_2 int)",
         "INSERT INTO u VALUES (1, 0), (2, 0), (3, 0)"],
        """DECLARE i int = 0;
BEGIN
  WHILE (SELECT count(*) FROM u WHERE k <= n) > 0 LOOP
    n = n - 1; i = i + 1;
  END LOOP;
  RETURN i;
END;""", 3),
}


def _four_ways(db: Database, setup: list, body: str, n: int,
               sqlite: bool = True) -> dict:
    """``f(n)`` with *body* on the interpreter, the trampoline machine, the
    inlined Qf and (unless not *sqlite*) SQLite's Qf."""
    import sqlite3

    for statement in setup:
        db.execute(statement)
    source = (f"CREATE FUNCTION f(n int) RETURNS int AS $$ {body} "
              "$$ LANGUAGE plpgsql")
    db.execute(source)
    compiled = compile_plsql(source, db)
    compiled.register(db, name="f_c")
    lite = sqlite3.connect(":memory:")
    for name, table in db.catalog.tables.items():
        columns = table.column_names
        lite.execute(f"CREATE TABLE {name}({', '.join(columns)})")
        lite.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            db.query_all(f"SELECT * FROM {name}"))
    answers = {"interpreter": db.query_value("SELECT f($1)", [n]),
               "machine": _query_with(db, dict(batch_compiled=True),
                                      "SELECT f_c($1)", [n])[0][0],
               "inlined": _query_with(db, dict(batch_compiled=False),
                                      "SELECT f_c($1)", [n])[0][0]}
    if sqlite:
        answers["sqlite"] = lite.execute(compiled.sql("sqlite"),
                                         {"1": n}).fetchone()[0]
    return answers


@pytest.mark.parametrize("shape", list(CAPTURE_SHAPES))
def test_generated_names_are_never_captured(db, shape):
    """Interpreter = trampoline machine = inlined Qf = SQLite Qf."""
    answers = _four_ways(db, *CAPTURE_SHAPES[shape])
    assert set(answers.values()) == {answers["interpreter"]}, answers


THREE_ROWS = ["CREATE TABLE t(a int)", "INSERT INTO t VALUES (1), (3), (2)"]


def test_an_output_alias_spelled_like_a_variable_is_not_renamed(db):
    """SSA renames the references the planner resolved to a variable, not
    every name spelled like one: ORDER BY ``v`` is the output alias.
    Interpreter = trampoline machine = inlined Qf = SQLite Qf."""
    answers = _four_ways(db, THREE_ROWS, """DECLARE v int = 0;
BEGIN v = n; RETURN (SELECT a AS v FROM t ORDER BY v DESC LIMIT 1); END;""",
                         5)
    assert set(answers.values()) == {3}, answers


def test_a_reference_matched_to_a_group_key_is_renamed(db):
    """The planner matches ``v * 10`` in the select list and ORDER BY to
    the GROUP BY key, and resolves its names as the key's.  (SQLite does
    not see an outer column in GROUP BY, so its Qf is not run here.)"""
    answers = _four_ways(db, THREE_ROWS, """DECLARE v int = 0;
BEGIN
  v = n;
  RETURN (SELECT v * 10 + count(*) FROM t GROUP BY v * 10
          ORDER BY v * 10 LIMIT 1);
END;""", 5, sqlite=False)
    assert set(answers.values()) == {53}, answers


def test_a_field_of_a_composite_variable_is_renamed(db):
    """``q.x`` resolves to the variable ``q`` with a field tail: SSA reads
    it as ``(q_2).x``.  (SQLite has no composite types.)"""
    db.execute("CREATE TYPE coord AS (x int, y int)")
    answers = _four_ways(db, [], """DECLARE q coord;
BEGIN q = row(n, n + 1)::coord; RETURN q.x * 10 + q.y; END;""", 4,
                         sqlite=False)
    assert set(answers.values()) == {45}, answers


def test_an_unplanned_expression_naming_a_variable_is_refused(db):
    """The planner stops at its first error, so it may not have reached a
    variable's reference: the compiler refuses rather than guess."""
    source = """CREATE FUNCTION hy(n int) RETURNS int AS $$
DECLARE y int = 2;
BEGIN RETURN helper(n) + y; END;
$$ LANGUAGE plpgsql"""
    with pytest.raises(CompileError, match="unknown function"):
        compile_plsql(source, db)
    db.execute("CREATE FUNCTION helper(k int) RETURNS int AS $$ "
               "SELECT k * 10 $$ LANGUAGE sql")
    db.execute(source)
    compile_plsql(source, db).register(db, name="hy_c")
    assert db.query_all("SELECT hy(4), hy_c(4)") == [(42, 42)]


# ---------------------------------------------------------------------------
# A SQL function's parameters are bound where the planner resolves them
# ---------------------------------------------------------------------------

def _sql_function(db: Database, body: str) -> None:
    db.execute("CREATE TABLE u(x int)")
    db.execute("INSERT INTO u VALUES (7)")
    db.execute(f"CREATE FUNCTION g(x int) RETURNS int AS $$ {body} "
               "$$ LANGUAGE sql")


def test_a_from_column_shadows_a_parameter(db):
    """PostgreSQL resolves a parameter only after the column lookup fails
    (``sql_fn_post_column_ref``)."""
    _sql_function(db, "SELECT x FROM u")
    assert db.query_value("SELECT g(1)") == 7


def test_a_bare_parameter_is_bound(db):
    _sql_function(db, "SELECT x + 1")
    assert db.query_all("SELECT g(1), g(NULL)") == [(2, None)]


def test_a_field_of_a_composite_parameter_is_bound(db):
    db.execute("CREATE TYPE coord AS (x int, y int)")
    db.execute("CREATE FUNCTION gy(p coord) RETURNS int AS $$ "
               "SELECT p.y * 10 + p.x $$ LANGUAGE sql")
    assert db.query_value("SELECT gy(row(1, 2)::coord)") == 21


def test_check_function_reports_what_the_call_raises(db):
    """With two FROM relations supplying ``x``, the name is ambiguous, not
    the parameter: the call raises and CHECK FUNCTION says the same."""
    _sql_function(db, "SELECT x FROM u, (SELECT 1 AS x) AS s")
    with pytest.raises(NameResolutionError) as raised:
        db.query_value("SELECT g(1)")
    assert [row[2:] for row in db.query_all("CHECK FUNCTION g")
            if row[2].startswith("SQ")] == [
        ("SQ002", None, str(raised.value))]


# ---------------------------------------------------------------------------
# After aggregation an ungrouped FROM column is refused, not looked up in
# the scope outside (a variable, a parameter)
# ---------------------------------------------------------------------------

GROUPING = ('column "u.x" must appear in the GROUP BY clause or be used in '
            'an aggregate function')


def sq_diagnostics(db: Database, name: str) -> list:
    return [row[2:] for row in db.query_all(f"CHECK FUNCTION {name}")
            if row[2].startswith("SQ")]


@pytest.mark.parametrize("sql", [
    "SELECT count(*) FROM u HAVING x > 0",
    "SELECT count(*) FROM u HAVING u.x > 0",
    "SELECT count(*) FROM u HAVING (SELECT u.x) > 0",
    "SELECT x, count(*) FROM u",
    "SELECT count(*) FROM u GROUP BY x + 1 ORDER BY x",
    "SELECT count(*), x + row_number() OVER () FROM u",
])
def test_an_ungrouped_column_raises_the_grouping_error(db, sql):
    db.execute("CREATE TABLE u(x int)")
    db.execute("INSERT INTO u VALUES (7)")
    with pytest.raises(NameResolutionError) as raised:
        db.query_all(sql)
    assert str(raised.value) == GROUPING


def test_grouped_and_outer_columns_still_resolve(db):
    db.execute("CREATE TABLE u(x int)")
    db.execute("CREATE TABLE t(a int)")
    db.execute("INSERT INTO u VALUES (7), (8)")
    db.execute("INSERT INTO t VALUES (7), (9)")
    assert db.query_all("SELECT x, count(*) FROM u GROUP BY x "
                        "HAVING x > 7") == [(8, 1)]
    assert db.query_all("SELECT (SELECT count(*) FROM u HAVING max(x) < a) "
                        "FROM t ORDER BY a") == [(None,), (2,)]


@pytest.mark.parametrize("sql, rows", [
    ("SELECT x, (SELECT x) FROM u GROUP BY x ORDER BY x",
     [(7, 7), (8, 8)]),
    ("SELECT x, (SELECT u.x + y FROM u AS w WHERE w.x = u.x) FROM u "
     "GROUP BY u.x ORDER BY u.x", [(7, 8), (8, 10)]),
    ("SELECT count(*) FROM u GROUP BY x HAVING (SELECT x) > 7", [(1,)]),
    ("SELECT x FROM u GROUP BY x ORDER BY u.x DESC", [(8,), (7,)]),
])
def test_a_group_key_column_resolves_inside_a_subquery(db, sql, rows):
    """PostgreSQL's answers: a bare-column group key is the key's value
    wherever the column is named after aggregation, a subquery included;
    ``y``, grouped by no key, is still refused there."""
    db.execute("CREATE TABLE u(x int, y int)")
    db.execute("INSERT INTO u VALUES (7, 1), (8, 2)")
    assert db.query_all(sql) == rows
    with pytest.raises(NameResolutionError, match='"u.y" must appear'):
        db.query_all(sql.replace("(SELECT x)", "(SELECT y)")
                     if "(SELECT x)" in sql else
                     "SELECT x, (SELECT y) FROM u GROUP BY x")


def test_having_in_a_sql_function_does_not_read_the_parameter(db):
    """PostgreSQL finds ``x`` in the FROM relation before the parameter,
    then refuses it ungrouped: ``g(-5)`` no longer answers NULL."""
    _sql_function(db, "SELECT count(*) FROM u HAVING x > 0")
    with pytest.raises(NameResolutionError) as raised:
        db.query_value("SELECT g(-5)")
    assert str(raised.value) == GROUPING
    assert sq_diagnostics(db, "g") == [("SQ002", None, GROUPING)]


def test_having_in_a_plpgsql_body_does_not_read_the_variable(db):
    """Bare, ``x`` is both the column and the variable: the conflict
    PostgreSQL's column-reference hook raises before any grouping check
    (as in WHERE).  Qualified, it is the ungrouped column.  The
    interpreter, the compiler and CHECK FUNCTION say the same."""
    db.execute("CREATE TABLE u(x int)")
    db.execute("INSERT INTO u VALUES (7)")
    for name, ref, error in [("fb", "x", VariableConflictError),
                             ("fq", "u.x", NameResolutionError)]:
        source = (f"CREATE FUNCTION {name}(x int) RETURNS int AS $$ BEGIN "
                  f"RETURN (SELECT count(*) FROM u HAVING {ref} > 0); END; "
                  "$$ LANGUAGE plpgsql")
        db.execute(source)
        with pytest.raises(error) as raised:
            db.query_value(f"SELECT {name}(1)")
        message = str(raised.value)
        assert message == GROUPING or ref == "x"
        with pytest.raises(CompileError) as refused:
            compile_plsql(source, db)
        assert message in str(refused.value)
        assert sq_diagnostics(db, name) == [("SQ002", 1, message)]


@pytest.mark.parametrize("mode, settings", BATCH_MODES)
def test_a_spliced_query_keeps_its_own_names(db, mode, settings):
    """A compiled function's query is resolved in its own namespace, as
    PostgreSQL analyses an inlined function apart from its caller: the
    column ``k`` it reads is no conflict with the caller's variable ``k``,
    for the interpreted caller, CHECK FUNCTION and the compiled caller."""
    db.execute("CREATE TABLE items(id int, k int)")
    db.execute("INSERT INTO items VALUES (1, 10), (2, 20)")
    compile_plsql("""CREATE FUNCTION k_of(i int) RETURNS int AS $$
BEGIN RETURN (SELECT k FROM items WHERE id = i); END;
$$ LANGUAGE plpgsql""", db).register(db)
    source = """CREATE FUNCTION g(n int) RETURNS int AS $$
DECLARE k int = 0;
BEGIN k = k_of(n); RETURN k + 1; END;
$$ LANGUAGE plpgsql"""
    db.execute(source)
    for name, value in settings.items():
        db.settings.assign(name, value)
    assert [row[2] for row in db.query_all("CHECK FUNCTION g")
            if row[2] == "SQ002"] == []
    compile_plsql(source, db).register(db, name="g_c")
    assert db.query_all("SELECT g(2), g_c(2)") == [(21, 21)]


def test_raise_arguments_draw_as_the_interpreter_does(db):
    """A RAISE NOTICE argument is evaluated by the interpreter, so the
    compiled function keeps its volatile draw: after the same reseed both
    return the same second draw."""
    source = """CREATE FUNCTION r(n int) RETURNS float AS $$
BEGIN RAISE NOTICE 'draw %', random(); RETURN random(); END;
$$ LANGUAGE plpgsql"""
    db.execute(source)
    compile_plsql(source, db).register(db, name="r_c")
    answers = {}
    for label, name, settings in [("interpreter", "r", {}),
                                  ("machine", "r_c", BATCH_MODES[0][1]),
                                  ("inlined", "r_c", BATCH_MODES[1][1])]:
        db.reseed(3)
        answers[label] = _query_with(db, settings, f"SELECT {name}(1)")
    assert len({str(rows) for rows in answers.values()}) == 1, answers


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

    @pytest.mark.parametrize("sql", [
        "SELECT x FROM t WHERE sum_to_c(x) > 0",
        "SELECT sum_to_c(x) FROM t",
    ])
    def test_iteration_limit_names_the_function(self, db, sql):
        _register_both(db, SUM_LOOP)
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (5000)")
        db.execute("SET max_recursion_iterations = 100")
        with pytest.raises(ExecutionError,
                           match=r"per-call evaluation of sum_to_c\(\) "
                                 "exceeded 100 iterations"):
            db.query_all(sql)

    @pytest.mark.parametrize("limit", range(1, 7))
    def test_iteration_limit_trips_where_the_inlined_qf_does(self, db, limit):
        """The machine drops a finished activation at once; the inlined
        WITH RECURSIVE spends one more (empty) step filtering the result
        row.  Both must refuse the same calls at the same limit."""
        _register_both(db, SUM_LOOP)
        db.execute("CREATE TABLE t(x int)")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute(f"SET max_recursion_iterations = {limit}")
        select = "SELECT sum_to_c(x) FROM t"
        aggregate = "SELECT sum(sum_to_c(x)) FROM t"
        assert "per call" in db.explain(select)
        assert "per call" in db.explain(aggregate)

        def outcome(sql):
            try:
                return db.query_value(sql)
            except ExecutionError as exc:
                assert f"exceeded {limit} iterations" in str(exc)
                return "raised"

        on_machine = outcome(select), outcome(aggregate)
        db.execute("SET batch_compiled = off")
        inlined = outcome(select), outcome(aggregate)
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

    def test_correlated_side_is_probed_and_the_stable_side_built_once(self):
        """Under a subquery re-opened per outer row, the side filtered on
        the outer column is probed and the stable side is hashed once for
        all outer rows, though the estimates would build the small side."""
        db = Database()
        for ddl in ("CREATE TABLE big(id int, v int)",
                    "CREATE TABLE small(id int)", "CREATE TABLE cuts(cut int)",
                    "CREATE INDEX big_id ON big(id)",
                    "CREATE INDEX small_id ON small(id)"):
            db.execute(ddl)
        db.catalog.get_table("big").insert_many(
            [(i % 40, i) for i in range(400)])
        db.catalog.get_table("small").insert_many(
            [(i,) for i in range(0, 40, 3)] + [(None,)])
        db.catalog.get_table("cuts").insert_many(
            [(cut,) for cut in (-1, 5, 20, None, 39, 100)])
        sql = ("SELECT c.cut, (SELECT sum(big.v) FROM big JOIN small "
               "ON big.id = small.id WHERE small.id < c.cut) FROM cuts c")
        answers = []
        for setting in ("on", "off"):
            db.execute(f"SET enable_vectorize = {setting}")
            db.profiler.reset()
            answers.append(db.query_all(sql))
            assert db.profiler.counts["hash join builds"] == 1, setting
        db.execute("SET enable_hashjoin = off")
        answers.append(db.query_all(sql))
        assert answers[0] == answers[1] == answers[2]
        assert answers[0][:3] == [(-1, None), (5, 3630), (20, 13230)]

    def test_derived_table_join_keeps_the_estimate_rule(self):
        """A derived-table leaf is not stable, but it reads no outer row:
        at top level the estimates still choose the build side."""
        db = Database()
        db.execute("CREATE TABLE big(id int)")
        db.execute("CREATE TABLE small(id int)")
        db.catalog.get_table("big").insert_many(
            [(i,) for i in range(1200)])
        db.catalog.get_table("small").insert_many([(i,) for i in range(80)])
        sql = ("SELECT count(*) FROM big JOIN (SELECT id FROM small "
               "WHERE id < 50) d ON big.id = d.id")
        assert "HashJoin INNER JOIN (big.id = d.id) [build=right]" in \
            db.explain(sql)
        assert db.query_value(sql) == 50

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


class TestOrderedPathsDifferential:
    """IndexRangeScan / TopN / HashJoin vs. SeqScan + Sort / NestLoop on
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
    def test_join_over_indexed_keys_agrees_with_nested_loop(self, seed):
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
        assert "VectorHashJoin" in db.explain(queries[0])
        batch = [db.query_all(sql) for sql in queries]
        db.execute("SET enable_vectorize = off")
        hashed = [db.query_all(sql) for sql in queries]
        db.execute("SET enable_hashjoin = off")
        db.execute("SET enable_pushdown = off")
        db.execute("SET enable_rangescan = off")
        db.execute("SET enable_sort_elim = off")
        db.execute("SET enable_topn = off")
        nested = [db.query_all(sql) for sql in queries]
        for sql, b, h, n in zip(queries, batch, hashed, nested):
            assert rows_equal(n, h, ordered=True), sql
            assert rows_equal(n, b, ordered=True), sql

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


# ---------------------------------------------------------------------------
# A non-boolean condition raises on every access path and engine
# ---------------------------------------------------------------------------


class TestNonBooleanCondition:
    """``WHERE b > 0 AND a`` with an int ``a``: every filter site of both
    engines raises the ``TypeError_`` the lazy AND raises, whichever access
    path the planner picks (before, a range scan on ``b`` tested the
    residual ``a`` with ``is True`` and answered 0)."""

    STATEMENTS = [
        "SELECT count(*) FROM u WHERE b > 0 AND a",
        "SELECT a FROM u WHERE b > 0 AND a",
        "SELECT count(*) FROM u WHERE a",
        "SELECT a FROM u WHERE b = 2 AND a",
        "SELECT u.a FROM u JOIN u AS w ON u.a = w.a AND w.b",
        "SELECT u.a FROM u JOIN u AS w ON u.a = w.a WHERE w.b",
        "SELECT u.a FROM u JOIN u AS w ON u.a < w.a AND w.b",
        "SELECT a, count(*) FROM u GROUP BY a HAVING sum(b)",
    ]

    @staticmethod
    def _db():
        db = Database()
        db.execute("CREATE TABLE u(a int, b int)")
        db.execute("INSERT INTO u VALUES (1, 2), (0, 3), (5, 0), (2, 2)")
        return db

    @pytest.mark.parametrize("sql", STATEMENTS)
    @pytest.mark.parametrize("rangescan", [True, False])
    @pytest.mark.parametrize("vectorize", [True, False])
    def test_raises_under_every_setting(self, sql, rangescan, vectorize):
        db = self._db()
        db.settings.assign("enable_rangescan", rangescan)
        db.settings.assign("enable_vectorize", vectorize)
        with pytest.raises(TypeError_, match="expected boolean, got int"):
            db.query_all(sql)

    @pytest.mark.parametrize("statement", [
        "UPDATE u SET a = 9 WHERE b > 0 AND a",
        "DELETE FROM u WHERE a"])
    def test_raises_in_a_modification(self, statement):
        db = self._db()
        with pytest.raises(TypeError_, match="expected boolean, got int"):
            db.execute(statement)
        assert db.query_all("SELECT a, b FROM u") == [
            (1, 2), (0, 3), (5, 0), (2, 2)]

    def test_null_and_boolean_conditions_still_filter(self):
        db = self._db()
        for rangescan in (True, False):
            db.settings.assign("enable_rangescan", rangescan)
            assert db.query_all("SELECT count(*) FROM u WHERE b > 0 "
                                "AND a > 0 AND NULL IS NULL") == [(2,)]
            assert db.query_all("SELECT count(*) FROM u "
                                "WHERE b > 0 AND NULL") == [(0,)]
