"""Dialect emission: five targets, round-trips, and the SQLite rewrite."""

import pytest

from repro.compiler import DIALECTS, compile_plsql
from repro.compiler.dialects import render_select
from repro.sql.errors import CompileError
from repro.sql.parser import parse_select

SOURCE = """
CREATE FUNCTION steps(n int) RETURNS int AS $$
DECLARE s int = 0; t int;
BEGIN
  WHILE n > 0 LOOP
    t = n % 3;
    s = s + t;
    n = n - 1;
  END LOOP;
  RETURN s;
END; $$ LANGUAGE plpgsql
"""


@pytest.fixture(scope="module")
def compiled():
    from repro.sql import Database
    return compile_plsql(SOURCE, Database())


class TestEmission:
    def test_all_dialects_render(self, compiled):
        for name in DIALECTS:
            text = compiled.sql(name)
            assert "SELECT" in text and "run" in text

    def test_postgres_uses_lateral_and_recursive(self, compiled):
        text = compiled.sql("postgres")
        assert "WITH RECURSIVE" in text
        assert "LEFT JOIN LATERAL" in text
        assert "$1" in text
        assert '"call?"' in text

    def test_sqlite_avoids_lateral(self, compiled):
        text = compiled.sql("sqlite")
        assert "LATERAL" not in text.upper()
        assert "WITH RECURSIVE" in text
        assert "?1" in text

    def test_sqlserver_uses_apply_and_brackets(self, compiled):
        text = compiled.sql("sqlserver")
        assert "OUTER APPLY" in text
        assert "WITH RECURSIVE" not in text and "WITH " in text
        assert "[call?]" in text
        assert "@p1" in text
        assert " true" not in text.lower().replace("'true'", "")

    def test_oracle_uses_cross_apply_and_colon_params(self, compiled):
        text = compiled.sql("oracle")
        assert "CROSS APPLY" in text
        assert ":1" in text

    def test_mysql_join_lateral(self, compiled):
        text = compiled.sql("mysql")
        assert "JOIN LATERAL" in text

    def test_unknown_dialect(self, compiled):
        with pytest.raises(CompileError, match="unknown dialect"):
            compiled.sql("db2")

    def test_iterate_only_on_our_engine(self):
        from repro.sql import Database
        iterate = compile_plsql(SOURCE, Database(), iterate=True)
        assert "WITH ITERATE" in iterate.sql("postgres")
        with pytest.raises(CompileError):
            iterate.sql("oracle")

    @pytest.mark.parametrize("step", [
        "s := s + (random() < 2)::int;",                  # a let value
        "IF random() < 0.5 THEN s := s + 1; ELSE s := s + 2; END IF;",
        "IF noise() < 0.5 THEN s := s + 1; END IF;",     # through a helper
    ])
    def test_sqlite_refuses_every_volatile_shape(self, step):
        """The split rewrite copies the body once per run column, so a
        volatile call anywhere in it - a let value, an IF condition, a
        helper's body - would be drawn once per column and step."""
        from repro.sql import Database
        db = Database()
        db.execute("CREATE FUNCTION noise() RETURNS float AS "
                   "$$ SELECT random() $$ LANGUAGE sql")
        compiled = compile_plsql(f"""
            CREATE FUNCTION jitter(n int) RETURNS int AS $$
            DECLARE s int = 0; i int = 0;
            BEGIN
              WHILE i < n LOOP {step} i := i + 1; END LOOP;
              RETURN s;
            END; $$ LANGUAGE plpgsql""", db)
        assert "random()" in compiled.sql("postgres") \
            or "noise()" in compiled.sql("postgres")
        with pytest.raises(CompileError, match="volatile functions"):
            compiled.sql("sqlite")

    def test_udf_sql_renders_per_dialect(self, compiled):
        pg = compiled.udf_sql("postgres")
        assert "CREATE FUNCTION" in pg and "steps__rec" in pg
        lite = compiled.udf_sql("sqlite")
        assert "LATERAL" not in lite.upper()


class TestRoundTrip:
    def test_postgres_emission_reparses_and_runs(self):
        """The emitted PostgreSQL text must be valid for our own parser and
        produce the same results as the registered compiled function."""
        from repro.sql import Database
        db = Database()
        db.execute(SOURCE)
        compiled = compile_plsql(SOURCE, db)
        compiled.register(db, name="steps_c")
        text = compiled.sql("postgres")
        for n in (0, 4, 9):
            direct = db.execute(text.replace("$1", str(n))).scalar()
            assert direct == db.query_value(f"SELECT steps({n})")
            assert direct == db.query_value(f"SELECT steps_c({n})")

    def test_sqlite_style_emission_runs_on_engine(self):
        """The LATERAL-free rewrite is executable too (our engine accepts
        both shapes), demonstrating 'scripting for engines without PL/SQL'."""
        from repro.sql import Database
        db = Database()
        compiled = compile_plsql(SOURCE, db, let_style="nested")
        compiled.register(db, name="steps_nested")
        db.execute(SOURCE)
        for n in (0, 5):
            assert db.query_value(f"SELECT steps_nested({n})") == \
                db.query_value(f"SELECT steps({n})")

    def test_emitted_text_parses(self, compiled):
        stmt = parse_select(compiled.sql("postgres"))
        rendered_again = render_select(stmt)
        assert "WITH RECURSIVE" in rendered_again


class TestRealSqlite:
    """Section 3's headline: 'a simple syntactic rewrite brought the
    functions to run on a system that formerly lacked any support for
    PL/SQL at all.'  We validate against the *actual* SQLite (stdlib)."""

    def test_emitted_sql_runs_on_real_sqlite(self):
        import sqlite3
        from repro.sql import Database
        db = Database()
        db.execute(SOURCE)
        compiled = compile_plsql(SOURCE, db)
        text = compiled.sql("sqlite")
        connection = sqlite3.connect(":memory:")
        for n in (0, 1, 7, 25):
            got = connection.execute(text, {"1": n}).fetchone()[0]
            assert got == db.query_value(f"SELECT steps({n})")

    def test_query_bearing_function_on_real_sqlite(self):
        import sqlite3
        from repro.compiler import compile_plsql as compile_fn
        from repro.sql import Database
        from repro.workloads.parser_fsm import (PARSE_SOURCE, csv_number_fsm,
                                                setup_parser)
        db = Database()
        fsm = setup_parser(db)
        compiled = compile_fn(PARSE_SOURCE, db)
        text = compiled.sql("sqlite")
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE fsm(source int, symbol text, "
                           "target int)")
        connection.execute("CREATE TABLE fsm_accept(state int, is_final bool)")
        connection.executemany("INSERT INTO fsm VALUES (?, ?, ?)",
                               db.query_all("SELECT * FROM fsm"))
        connection.executemany("INSERT INTO fsm_accept VALUES (?, ?)",
                               db.query_all("SELECT * FROM fsm_accept"))
        for sample in ("1,23.5,6", "12x3", ""):
            got = connection.execute(text, {"1": sample}).fetchone()[0]
            expected = fsm.run(sample)
            # SQLite returns ints for our booleans; values are ints anyway.
            assert got == expected, sample


class TestInlineModule:
    def test_source_level_inlining(self):
        from repro.compiler.inline import inline_into_query
        from repro.sql import Database
        db = Database()
        db.execute("CREATE TABLE nums(v int)")
        db.execute("INSERT INTO nums VALUES (1), (2), (3)")
        compiled = compile_plsql(SOURCE, db)
        compiled.register(db, name="steps")
        merged = inline_into_query("SELECT steps(nums.v) FROM nums", compiled)
        assert "steps(" not in merged      # the call is gone ...
        assert "WITH RECURSIVE" in merged  # ... replaced by Qf
        rows = db.execute(merged).rows
        expected = db.query_all("SELECT steps(nums.v) FROM nums")
        assert rows == expected

    def test_inlining_multiple_calls(self):
        from repro.compiler.inline import inline_into_query
        from repro.sql import Database
        db = Database()
        compiled = compile_plsql(SOURCE, db)
        merged = inline_into_query("SELECT steps(1) + steps(2)", compiled)
        assert merged.count("WITH RECURSIVE") == 2
