"""Static analyzer (`repro.analysis`): CHECK FUNCTION diagnostics,
volatility inference, the ``check_function_bodies`` DDL gate, and the
planner's volatility-widened batching.

House style for this file: every diagnostic code gets a *positive* test
(a function that provokes it) and rides next to a *clean negative* (a
near-identical function that must not provoke it).  The sweep at the end
asserts the soundness contract on the real paper workloads: functions
that run cleanly never carry an error-severity diagnostic.
"""

from __future__ import annotations

import pytest

from repro.analysis import (CATALOG, analyze_function, effective_volatility,
                            function_facts, function_is_pure, max_severity)
from repro.analysis.sqlcheck import error_code
from repro.sql import Database
from repro.sql.errors import (CompileError, ExecutionError,
                              NameResolutionError, PlanError, SqlError)
from repro.sql.parser import parse_statement


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def create(db: Database, source: str) -> None:
    db.execute(source)


def diags(db: Database, name: str):
    """CHECK FUNCTION through the SQL surface; returns the result rows."""
    return db.execute(f"CHECK FUNCTION {name}").rows


def codes(db: Database, name: str) -> set:
    return {row[2] for row in diags(db, name)}


def by_code(db: Database, name: str, code: str):
    return [row for row in diags(db, name) if row[2] == code]


@pytest.fixture
def db():
    database = Database(seed=0)
    database.execute("CREATE TABLE t(x int, y text)")
    database.execute("INSERT INTO t VALUES (1,'a'), (2,'b'), (3,'c')")
    return database


def plpgsql(name: str, body: str, params: str = "n int",
            returns: str = "int", tail: str = "") -> str:
    return (f"CREATE FUNCTION {name}({params}) RETURNS {returns} AS $$\n"
            f"{body}\n$$ LANGUAGE PLPGSQL{tail}")


# ---------------------------------------------------------------------------
# diagnostic catalog hygiene
# ---------------------------------------------------------------------------

def test_catalog_is_stable():
    # Codes are part of the public surface (scripts match on them); this
    # test pins the full set so a rename shows up as an explicit diff.
    assert set(CATALOG) == {
        "CF000", "CF001", "CF002", "CF003", "CF004",
        "DF001", "DF002", "DF003", "DF004", "DF005",
        "SQ001", "SQ002", "SQ003", "SQ004", "SQ005",
        "VL001", "VL002",
    }
    for code, (severity, description) in CATALOG.items():
        assert severity in ("info", "warning", "error")
        assert description


def test_rows_are_sorted_and_shaped(db):
    create(db, plpgsql("shape", """
BEGIN
  IF n > 0 THEN
    RETURN n;
  END IF;
END;
"""))
    result = db.execute("CHECK FUNCTION shape")
    assert result.columns == ["function", "severity", "code", "line",
                              "message"]
    rows = result.rows
    assert all(row[0] == "shape" for row in rows)
    assert rows == sorted(rows, key=lambda r: (r[3] is None, r[3], r[2]))


# ---------------------------------------------------------------------------
# control flow: CF001..CF004 (CF000 is covered in the SQL-function section)
# ---------------------------------------------------------------------------

def test_cf001_unreachable_code(db):
    create(db, plpgsql("dead", """
BEGIN
  RETURN n;
  n = n + 1;
END;
"""))
    rows = by_code(db, "dead", "CF001")
    assert rows and all(row[1] == "warning" for row in rows)


def test_cf002_never_returns_is_error(db):
    create(db, plpgsql("noret", """
DECLARE m int = 0;
BEGIN
  m = n + 1;
END;
"""))
    rows = by_code(db, "noret", "CF002")
    assert rows and rows[0][1] == "error"


def test_cf003_may_fall_off_is_warning(db):
    create(db, plpgsql("maybe", """
BEGIN
  IF n > 0 THEN
    RETURN n;
  END IF;
END;
"""))
    rows = by_code(db, "maybe", "CF003")
    assert rows and rows[0][1] == "warning"
    assert not by_code(db, "maybe", "CF002")


def test_cf004_infinite_loop(db):
    create(db, plpgsql("spin", """
DECLARE m int = 0;
BEGIN
  LOOP
    m = m + 1;
  END LOOP;
END;
"""))
    rows = by_code(db, "spin", "CF004")
    assert rows and rows[0][1] == "warning"


def test_loop_with_exit_is_not_infinite(db):
    create(db, plpgsql("bounded", """
DECLARE m int = 0;
BEGIN
  LOOP
    m = m + 1;
    EXIT WHEN m >= n;
  END LOOP;
  RETURN m;
END;
"""))
    assert "CF004" not in codes(db, "bounded")


def test_clean_function_has_only_volatility_info(db):
    create(db, plpgsql("clean", """
DECLARE a int = 0;
BEGIN
  FOR i IN 1..n LOOP
    a = a + i;
  END LOOP;
  RETURN a;
END;
"""))
    rows = diags(db, "clean")
    assert {row[2] for row in rows} == {"VL001"}
    assert all(row[1] == "info" for row in rows)


# ---------------------------------------------------------------------------
# dataflow: DF001..DF005
# ---------------------------------------------------------------------------

def test_df001_use_before_assignment(db):
    create(db, plpgsql("ubv", """
DECLARE m int;
BEGIN
  RETURN m + n;
END;
"""))
    rows = by_code(db, "ubv", "DF001")
    assert rows and rows[0][1] == "warning"
    assert "m" in rows[0][4]


def test_df001_not_flagged_when_assigned_first(db):
    create(db, plpgsql("okv", """
DECLARE m int;
BEGIN
  m = n * 2;
  RETURN m;
END;
"""))
    assert "DF001" not in codes(db, "okv")


def test_df002_dead_store(db):
    create(db, plpgsql("deadstore", """
DECLARE m int;
BEGIN
  m = n + 1;
  m = n + 2;
  RETURN m;
END;
"""))
    rows = by_code(db, "deadstore", "DF002")
    assert rows and rows[0][1] == "warning"


def test_df002_skips_declaration_initializers(db):
    # `DECLARE m int = 0` followed by an unconditional reassignment is the
    # defensive-default idiom, not a bug.
    create(db, plpgsql("defensive", """
DECLARE m int = 0;
BEGIN
  m = n + 1;
  RETURN m;
END;
"""))
    assert "DF002" not in codes(db, "defensive")


def test_df003_unused_variable(db):
    create(db, plpgsql("unusedvar", """
DECLARE ghost int = 7;
BEGIN
  RETURN n;
END;
"""))
    rows = by_code(db, "unusedvar", "DF003")
    assert rows and "ghost" in rows[0][4]


def test_df004_unused_parameter_is_info(db):
    create(db, plpgsql("unusedparam", """
BEGIN
  RETURN 1;
END;
"""))
    rows = by_code(db, "unusedparam", "DF004")
    assert rows and rows[0][1] == "info" and "n" in rows[0][4]


def test_df005_undeclared_assignment(db):
    create(db, plpgsql("undeclared", """
BEGIN
  phantom = n + 1;
  RETURN phantom;
END;
"""))
    rows = by_code(db, "undeclared", "DF005")
    # Unconditional assignment on the spine: fires on every call -> error.
    assert rows and rows[0][1] == "error"


def test_df005_conditional_is_warning(db):
    create(db, plpgsql("undeclared_cond", """
BEGIN
  IF n > 1000000 THEN
    phantom = 1;
  END IF;
  RETURN n;
END;
"""))
    rows = by_code(db, "undeclared_cond", "DF005")
    assert rows and rows[0][1] == "warning"


# ---------------------------------------------------------------------------
# embedded SQL: SQ001..SQ005
# ---------------------------------------------------------------------------

def test_sq001_unknown_table(db):
    create(db, plpgsql("badtable", """
DECLARE m int;
BEGIN
  m = (SELECT count(*) FROM no_such_table);
  RETURN m;
END;
"""))
    rows = by_code(db, "badtable", "SQ001")
    assert rows and rows[0][1] == "error"  # must-execute spine
    assert "no_such_table" in rows[0][4]


def test_sq001_conditional_is_warning(db):
    create(db, plpgsql("badtable_cond", """
DECLARE m int = 0;
BEGIN
  IF n < 0 THEN
    m = (SELECT count(*) FROM no_such_table);
  END IF;
  RETURN m;
END;
"""))
    rows = by_code(db, "badtable_cond", "SQ001")
    assert rows and rows[0][1] == "warning"


def test_sq002_unknown_column(db):
    create(db, plpgsql("badcol", """
DECLARE m int;
BEGIN
  m = (SELECT no_such_col FROM t);
  RETURN m;
END;
"""))
    rows = by_code(db, "badcol", "SQ002")
    assert rows and "no_such_col" in rows[0][4]


def test_sq002_not_fooled_by_params_or_ctes(db):
    create(db, plpgsql("goodcol", """
DECLARE m int;
BEGIN
  m = (SELECT x FROM t WHERE x = n LIMIT 1);
  RETURN m;
END;
"""))
    assert "SQ002" not in codes(db, "goodcol")
    assert "SQ001" not in codes(db, "goodcol")
    create(db, plpgsql("goodcte", """
DECLARE m int;
BEGIN
  m = (WITH c(v) AS (SELECT x FROM t) SELECT max(v) FROM c);
  m = m + (SELECT count(*) FROM (SELECT x FROM t UNION SELECT n) AS u(w));
  m = m + (SELECT sum(a.p) FROM t AS a(p, q) GROUP BY a.q
           HAVING count(a.p) > 0 LIMIT 1);
  RETURN m;
END;
"""))
    assert not {"SQ001", "SQ002"} & codes(db, "goodcte")


def test_sq002_qualified_unknown_column(db):
    create(db, plpgsql("badqual", """
BEGIN
  RETURN (SELECT t.nope FROM t LIMIT 1);
END;
"""))
    rows = by_code(db, "badqual", "SQ002")
    assert rows and "'nope'" in rows[0][4] and "'t'" in rows[0][4]


def test_sq003_unknown_function(db):
    create(db, plpgsql("badfunc", """
BEGIN
  RETURN no_such_fn(n);
END;
"""))
    rows = by_code(db, "badfunc", "SQ003")
    assert rows and "no_such_fn" in rows[0][4]


def test_sq004_wrong_arity(db):
    create(db, plpgsql("callee_one", """
BEGIN
  RETURN n + 1;
END;
"""))
    create(db, plpgsql("badarity", """
BEGIN
  RETURN callee_one(n, n);
END;
"""))
    rows = by_code(db, "badarity", "SQ004")
    assert rows and "callee_one" in rows[0][4]


def test_sq005_literal_type_mismatch(db):
    create(db, plpgsql("badlit", """
DECLARE m int;
BEGIN
  m = 'hello';
  RETURN m;
END;
"""))
    rows = by_code(db, "badlit", "SQ005")
    assert rows and rows[0][1] == "warning"


def test_sq005_numeric_string_is_fine(db):
    create(db, plpgsql("oklit", """
DECLARE m int;
BEGIN
  m = '42';
  RETURN m;
END;
"""))
    assert "SQ005" not in codes(db, "oklit")


# ---------------------------------------------------------------------------
# volatility: VL001/VL002, inference, EXPLAIN surfacing
# ---------------------------------------------------------------------------

def test_vl001_pure_arithmetic_is_immutable(db):
    create(db, plpgsql("pure_add", """
BEGIN
  RETURN n + 1;
END;
"""))
    fdef = db.catalog.get_function("pure_add")
    volatility, may_raise, has_loops = function_facts(fdef, db.catalog)
    assert volatility == "immutable"
    assert not may_raise and not has_loops
    assert function_is_pure(fdef, db.catalog)
    vl = by_code(db, "pure_add", "VL001")
    assert vl and "immutable" in vl[0][4]


def test_table_read_infers_stable(db):
    create(db, plpgsql("reads_t", """
BEGIN
  RETURN (SELECT count(*) FROM t);
END;
"""))
    fdef = db.catalog.get_function("reads_t")
    assert function_facts(fdef, db.catalog)[0] == "stable"
    assert not function_is_pure(fdef, db.catalog)


def test_random_infers_volatile(db):
    create(db, plpgsql("rolls", """
BEGIN
  RETURN random();
END;
""", params="", returns="double precision"))
    fdef = db.catalog.get_function("rolls")
    assert function_facts(fdef, db.catalog)[0] == "volatile"


def test_raising_builtin_taints_purity(db):
    create(db, plpgsql("rooty", """
BEGIN
  RETURN sqrt(n);
END;
""", returns="double precision"))
    fdef = db.catalog.get_function("rooty")
    volatility, may_raise, _ = function_facts(fdef, db.catalog)
    assert volatility == "immutable"
    assert may_raise
    assert not function_is_pure(fdef, db.catalog)


def test_transitive_volatility(db):
    create(db, plpgsql("vol_leaf", """
BEGIN
  RETURN random();
END;
""", params="", returns="double precision"))
    create(db, plpgsql("vol_caller", """
BEGIN
  RETURN vol_leaf() + n;
END;
""", returns="double precision"))
    fdef = db.catalog.get_function("vol_caller")
    assert function_facts(fdef, db.catalog)[0] == "volatile"


def test_recursive_function_is_conservatively_volatile(db):
    create(db, plpgsql("self_rec", """
BEGIN
  IF n <= 1 THEN
    RETURN 1;
  END IF;
  RETURN n * self_rec(n - 1);
END;
"""))
    fdef = db.catalog.get_function("self_rec")
    assert function_facts(fdef, db.catalog)[0] == "volatile"


def test_declared_volatility_wins(db):
    create(db, plpgsql("declared_vol", """
BEGIN
  RETURN n + 1;
END;
""", tail=" VOLATILE"))
    fdef = db.catalog.get_function("declared_vol")
    assert fdef.declared_volatility == "volatile"
    assert effective_volatility(fdef, db.catalog) == "volatile"
    assert not function_is_pure(fdef, db.catalog)


def test_vl002_declared_stricter_than_inferred(db):
    create(db, plpgsql("lying", """
BEGIN
  RETURN (SELECT count(*) FROM t);
END;
""", tail=" IMMUTABLE"))
    rows = by_code(db, "lying", "VL002")
    assert rows and rows[0][1] == "warning"


def test_declared_volatility_survives_recovery(tmp_path):
    path = str(tmp_path / "db.wal")
    database = Database(seed=0, path=path)
    database.execute(
        "CREATE FUNCTION two() RETURNS int AS $$\nBEGIN\n  RETURN 2;\n"
        "END;\n$$ LANGUAGE PLPGSQL STABLE")
    del database
    reopened = Database(seed=0, path=path)
    fdef = reopened.catalog.get_function("two")
    assert fdef.declared_volatility == "stable"


# ---------------------------------------------------------------------------
# SQL-language functions (and CF000)
# ---------------------------------------------------------------------------

def test_sql_function_catalog_checks(db):
    db.execute("SET check_function_bodies = off")
    create(db, "CREATE FUNCTION sqlbad(a int) RETURNS int AS "
               "'SELECT q FROM no_tab' LANGUAGE SQL")
    assert {"SQ001"} <= codes(db, "sqlbad")


def test_sql_function_clean(db):
    create(db, "CREATE FUNCTION sqlok(a int) RETURNS int AS "
               "'SELECT a + 1' LANGUAGE SQL")
    assert codes(db, "sqlok") == {"VL001"}


def test_cf000_unparsable_sql_body(db):
    db.execute("SET check_function_bodies = off")
    create(db, "CREATE FUNCTION sqlbroken(a int) RETURNS int AS "
               "'SELECT FROM WHERE' LANGUAGE SQL")
    rows = by_code(db, "sqlbroken", "CF000")
    assert rows and rows[0][1] == "error"


# ---------------------------------------------------------------------------
# the CHECK FUNCTION statement surface
# ---------------------------------------------------------------------------

def test_check_function_all(db):
    create(db, plpgsql("one_fn", "BEGIN\n  RETURN 1;\nEND;", params=""))
    create(db, plpgsql("two_fn", "BEGIN\n  RETURN 2;\nEND;", params=""))
    rows = db.execute("CHECK FUNCTION ALL").rows
    named = {row[0] for row in rows}
    assert {"one_fn", "two_fn"} <= named
    # Builtins are never analyzed.
    assert "abs" not in named


def test_check_function_unknown_name(db):
    with pytest.raises(NameResolutionError):
        db.execute("CHECK FUNCTION nonexistent")


def test_analyze_function_builtin_is_empty(db):
    from repro.sql.catalog import FunctionDef
    fdef = FunctionDef(name="shim", kind="builtin", impl=lambda x: x)
    assert analyze_function(db, fdef) == []


# ---------------------------------------------------------------------------
# the check_function_bodies gate at CREATE FUNCTION time
# ---------------------------------------------------------------------------

BROKEN_FN = """
CREATE FUNCTION broken(n int) RETURNS int AS $$
DECLARE m int;
BEGIN
  m = (SELECT count(*) FROM no_such_table);
END;
$$ LANGUAGE PLPGSQL
"""


def test_gate_default_is_warn(db):
    assert db.execute("SHOW check_function_bodies").rows == [("warn",)]
    db.notices.clear()
    db.execute(BROKEN_FN)
    assert db.catalog.get_function("broken") is not None
    assert any("SQ001" in notice for notice in db.notices)
    assert any("CF002" in notice for notice in db.notices)


def test_gate_error_rejects_and_undoes(db):
    db.execute("SET check_function_bodies = error")
    with pytest.raises(CompileError) as err:
        db.execute(BROKEN_FN)
    assert "SQ001" in str(err.value) or "CF002" in str(err.value)
    assert db.catalog.get_function("broken") is None
    # The session is healthy and the name is reusable afterwards.
    db.execute("SET check_function_bodies = off")
    db.execute(BROKEN_FN)
    assert db.catalog.get_function("broken") is not None


def test_gate_error_accepts_clean_functions(db):
    db.execute("SET check_function_bodies = error")
    db.execute(plpgsql("fine", "BEGIN\n  RETURN n + 1;\nEND;"))
    assert db.catalog.get_function("fine") is not None


def test_gate_off_is_silent(db):
    db.execute("SET check_function_bodies = off")
    db.notices.clear()
    db.execute(BROKEN_FN)
    assert db.catalog.get_function("broken") is not None
    assert not any("SQ001" in notice for notice in db.notices)


def test_gate_warnings_only_never_reject(db):
    db.execute("SET check_function_bodies = error")
    # Dead store + unused variable: warnings, not errors -> accepted.
    db.execute(plpgsql("warned", """
DECLARE m int;
DECLARE ghost int;
BEGIN
  m = n + 1;
  m = n + 2;
  RETURN m;
END;
"""))
    assert db.catalog.get_function("warned") is not None


# ---------------------------------------------------------------------------
# planner integration: inferred volatility decides the call memo
# ---------------------------------------------------------------------------

def test_inferred_pure_udf_argument_runs_on_the_trampoline(db):
    # g is interpreted PL/pgSQL with no declared volatility: only the
    # analyzer can prove it pure.  f(g(x)) runs f's trampoline site with
    # g evaluated in place as its argument.
    from repro.compiler import compile_plsql
    create(db, plpgsql("g_inner", """
BEGIN
  RETURN n + 1;
END;
"""))
    f_source = plpgsql("f_outer", """
DECLARE acc int = 0;
BEGIN
  FOR i IN 1..n LOOP
    acc = acc + i;
  END LOOP;
  RETURN acc;
END;
""")
    compile_plsql(f_source, db).register(db, name="f_outer")
    plan = db.explain("SELECT f_outer(g_inner(x)) FROM t")
    assert "Trampoline f_outer(<expr>)" in plan
    assert "volatility=immutable" in plan
    rows = db.execute("SELECT f_outer(g_inner(x)) FROM t ORDER BY 1").rows
    # g(1..3) = 2..4; f(k) = k(k+1)/2 -> 3, 6, 10.
    assert rows == [(3,), (6,), (10,)]


def test_volatile_udf_argument_is_evaluated_per_call(db):
    """A volatile argument is evaluated in place on every row, draw for
    draw as the interpreter evaluates it; the callee's memo only shares a
    result between equal argument values."""
    from repro.compiler import compile_plsql
    create(db, plpgsql("vol_arg", """
BEGIN
  RETURN random() * n;
END;
""", returns="double precision"))
    f_source = plpgsql("f_outer2", """
DECLARE acc double precision = 0;
BEGIN
  FOR i IN 1..2 LOOP
    acc = acc + n;
  END LOOP;
  RETURN acc;
END;
""", params="n double precision", returns="double precision")
    create(db, f_source)
    compile_plsql(f_source, db).register(db, name="f_outer2_c")
    sql = "SELECT f_outer2{}(vol_arg(x)) FROM t"
    assert "Trampoline f_outer2_c(<expr>)" in db.explain(sql.format("_c"))
    db.reseed(3)
    interpreted = db.query_all(sql.format(""))
    db.reseed(3)
    assert db.query_all(sql.format("_c")) == interpreted
    assert len(set(interpreted)) == 3


def test_explain_shows_inferred_volatility(db):
    create(db, plpgsql("show_vol", """
BEGIN
  RETURN n * 2;
END;
"""))
    from repro.compiler import compile_plsql
    compile_plsql(plpgsql("show_vol", """
DECLARE acc int = 0;
BEGIN
  FOR i IN 1..n LOOP
    acc = acc + 2;
  END LOOP;
  RETURN acc;
END;
"""), db).register(db, name="show_vol_c")
    plan = db.explain("SELECT show_vol_c(x) FROM t")
    assert "Trampoline show_vol_c(x)  [machine, per call; " \
           "volatility=immutable]" in plan


def test_ddl_invalidates_inferred_volatility(db):
    create(db, plpgsql("flips", """
BEGIN
  RETURN helper_v(n);
END;
"""))
    fdef = db.catalog.get_function("flips")
    # helper_v does not exist yet: conservatively volatile.
    assert function_facts(fdef, db.catalog)[0] == "volatile"
    create(db, plpgsql("helper_v", """
BEGIN
  RETURN n + 1;
END;
"""))
    fdef = db.catalog.get_function("flips")
    # DDL cleared the cached inference; now the callee is known pure.
    assert function_facts(fdef, db.catalog)[0] == "immutable"


# ---------------------------------------------------------------------------
# names resolved by the planner the interpreter runs
# ---------------------------------------------------------------------------

def call_error(db: Database, name: str) -> str:
    """The message calling *name* raises at run time."""
    with pytest.raises(SqlError) as err:
        db.execute(f"SELECT {name}(1)")
    return str(err.value)


@pytest.mark.parametrize("name, query", [
    ("derived", "SELECT zz FROM (SELECT x FROM t) AS s"),
    ("cte_col", "WITH c(v) AS (SELECT x FROM t) SELECT w FROM c"),
    ("ambiguous", "SELECT x FROM t, u"),
    ("ungrouped", "SELECT x FROM t GROUP BY y"),
])
def test_sq002_is_the_error_a_call_raises(db, name, query):
    db.execute("CREATE TABLE u(x int)")
    create(db, plpgsql(name, f"""
BEGIN
  RETURN ({query} LIMIT 1);
END;
"""))
    rows = by_code(db, name, "SQ002")
    assert len(rows) == 1
    assert rows[0][1] == "error"  # must-execute spine
    assert rows[0][4] == call_error(db, name)


def test_record_field_read_is_a_use(db):
    create(db, plpgsql("recsum", """
DECLARE s int = 0; r record;
BEGIN
  FOR r IN SELECT x, y FROM t LOOP
    s = s + r.x + length(r.y);
  END LOOP;
  RETURN s;
END;
"""))
    assert "DF003" not in codes(db, "recsum")
    assert db.execute("SELECT recsum(1)").rows == [(9,)]


def test_variable_shadowed_by_a_column_is_ambiguous(db):
    # x is both the variable and u's column (PostgreSQL's default
    # plpgsql.variable_conflict = error): the call, CHECK FUNCTION and
    # the compiler report the one error the planner raises.
    from repro.compiler import compile_plsql
    db.execute("CREATE TABLE u(x int)")
    db.execute("INSERT INTO u VALUES (7)")
    source = plpgsql("sh", """
DECLARE x int = n;
BEGIN
  RETURN (SELECT x FROM u);
END;
""")
    create(db, source)
    message = call_error(db, "sh")
    assert message.startswith(
        "column reference 'x' is ambiguous: it may refer to either a "
        "PL/pgSQL variable or a table column")
    rows = by_code(db, "sh", "SQ002")
    assert rows and rows[0][1] == "error" and rows[0][4] == message
    with pytest.raises(CompileError) as err:
        compile_plsql(source, db)
    assert str(err.value) == message


def test_raise_argument_is_planned(db):
    # The interpreter evaluates a RAISE NOTICE's arguments: an unknown
    # table there fails every call, and the analyzer says so.
    create(db, plpgsql("noisy", """
BEGIN
  RAISE NOTICE 'w is %', (SELECT nope FROM nowhere);
  RETURN n;
END;
"""))
    rows = by_code(db, "noisy", "SQ001")
    assert rows and rows[0][1] == "error"  # must-execute spine
    assert rows[0][4] == call_error(db, "noisy")


def test_raise_argument_is_a_read(db):
    create(db, plpgsql("told", """
DECLARE v int = n * 2;
BEGIN
  RAISE NOTICE 'v is %', v;
  RETURN n;
END;
"""))
    assert "DF003" not in codes(db, "told")
    db.execute("SELECT told(4)")
    assert db.notices[-1] == "NOTICE: v is 8"


def planning_error(db: Database, query: str) -> SqlError:
    with pytest.raises(SqlError) as err:
        db.planner.plan_select(parse_statement(query))
    return err.value


@pytest.mark.parametrize("query, code", [
    ("SELECT count(*) FROM no_such_table", "SQ001"),
    ("SELECT no_such_col FROM t", "SQ002"),
    ("SELECT no_such_fn(x) FROM t", "SQ003"),
    ("SELECT callee_one(x, x) FROM t", "SQ004"),
], ids=["SQ001", "SQ002", "SQ003", "SQ004"])
def test_planner_error_classification(db, query, code):
    # The planner's own message picks the code: a reworded message fails
    # here first.
    create(db, plpgsql("callee_one", "BEGIN\n  RETURN n + 1;\nEND;"))
    assert error_code(planning_error(db, query)) == code


def test_builtin_arity_is_refused_at_plan_time(db):
    for query, message in [
            ("SELECT abs(NULL, 1)", "function abs() takes 1 arguments, got 2"),
            ("SELECT abs(1, 2)", "function abs() takes 1 arguments, got 2"),
            ("SELECT upper()", "function upper() takes 1 arguments, got 0"),
            ("SELECT round()", "function round() takes 1 to 2 arguments, "
                               "got 0")]:
        with pytest.raises(PlanError) as err:
            db.execute(query)
        assert str(err.value) == message
        assert error_code(err.value) == "SQ004"
    create(db, plpgsql("badbuiltin", """
BEGIN
  RETURN abs(n, 1);
END;
"""))
    rows = by_code(db, "badbuiltin", "SQ004")
    assert rows and rows[0][1] == "error"
    assert rows[0][4] == call_error(db, "badbuiltin")


@pytest.mark.parametrize("name", ["round", "trunc"])
def test_round_scale_is_clamped(db, name):
    # PostgreSQL's NUMERIC_MAX_RESULT_SCALE: a scale past +-2000 is that
    # bound, so the scale factor 10^digits stays small.
    def outcome(digits):
        try:
            return db.execute(f"SELECT {name}(1.5, {digits})").rows
        except SqlError as exc:
            return type(exc), str(exc)

    assert outcome(2 ** 63 - 1) == outcome(2000)
    assert outcome(-2 ** 63) == outcome(-2000)
    assert outcome(2) == [(1.5,)]
    # Past the float range the answers are PostgreSQL's: a scale finer
    # than the value's last digit leaves it unchanged, one coarser than
    # any float gives 0.
    assert outcome(400) == outcome(2000) == [(1.5,)]
    assert outcome(-400) == outcome(-2000) == [(0,)]
    assert db.execute(f"SELECT {name}(15, -400)").rows == [(0,)]


def test_repeat_refuses_a_result_past_1gb(db):
    with pytest.raises(ExecutionError, match="requested length too large"):
        db.execute("SELECT repeat('ab', 10000000000)")
    assert db.execute("SELECT repeat('ab', 3)").rows == [("ababab",)]


# ---------------------------------------------------------------------------
# soundness sweep over the paper workloads
# ---------------------------------------------------------------------------

def test_workloads_analyze_without_errors(demo):
    rows = demo.db.execute("CHECK FUNCTION ALL").rows
    errors = [row for row in rows if row[1] == "error"]
    assert errors == []  # these functions all execute cleanly


def test_workloads_analyzer_does_not_crash(demo):
    for fdef in list(demo.db.catalog.functions.values()):
        if fdef.kind == "builtin":
            continue
        result = analyze_function(demo.db, fdef)
        assert max_severity(result) in (None, "info", "warning")
