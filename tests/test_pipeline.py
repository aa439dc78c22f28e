"""End-to-end differential tests: interpreted PL/pgSQL vs compiled SQL.

Every function here is registered both ways and must agree on every call —
the core correctness claim of the whole reproduction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import compile_and_run
from repro.compiler import compile_plsql
from repro.sql.errors import CompileError


class TestControlFlowZoo:
    """'any control flow is acceptable' — exercise the whole zoo."""

    def test_if_chain(self, db):
        compile_and_run(db, """
            CREATE FUNCTION grade(score int) RETURNS text AS $$
            BEGIN
              IF score >= 90 THEN RETURN 'A';
              ELSIF score >= 80 THEN RETURN 'B';
              ELSIF score >= 70 THEN RETURN 'C';
              ELSE RETURN 'F';
              END IF;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [s]) for s in (95, 85, 75, 20)])

    def test_while_accumulator(self, db):
        compile_and_run(db, """
            CREATE FUNCTION collatz(n int) RETURNS int AS $$
            DECLARE steps int = 0;
            BEGIN
              WHILE n <> 1 LOOP
                IF n % 2 = 0 THEN n = n / 2;
                ELSE n = 3 * n + 1;
                END IF;
                steps = steps + 1;
              END LOOP;
              RETURN steps;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [n]) for n in (1, 6, 27)])

    def test_nested_loops_with_labels(self, db):
        compile_and_run(db, """
            CREATE FUNCTION pairs(n int) RETURNS int AS $$
            DECLARE c int = 0;
            BEGIN
              <<outer>>
              FOR i IN 1..n LOOP
                FOR j IN 1..n LOOP
                  CONTINUE outer WHEN j > i;
                  c = c + 1;
                  EXIT outer WHEN c >= 40;
                END LOOP;
              END LOOP;
              RETURN c;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [n]) for n in (0, 3, 5, 20)])

    def test_infinite_loop_with_exit(self, db):
        compile_and_run(db, """
            CREATE FUNCTION double_until(n int, cap int) RETURNS int AS $$
            BEGIN
              LOOP
                n = n * 2;
                EXIT WHEN n > cap;
              END LOOP;
              RETURN n;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1, $2)", [1, 1000]),
             ("SELECT {f}($1, $2)", [3, 10])])

    def test_reverse_for_with_by(self, db):
        compile_and_run(db, """
            CREATE FUNCTION sumdown(n int) RETURNS int AS $$
            DECLARE s int = 0;
            BEGIN
              FOR i IN REVERSE n..0 BY 2 LOOP
                s = s + i;
              END LOOP;
              RETURN s;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [n]) for n in (0, 1, 9, 10)])

    def test_foreach_array(self, db):
        compile_and_run(db, """
            CREATE FUNCTION total(parts text) RETURNS int AS $$
            DECLARE s int = 0; item text;
            BEGIN
              FOREACH item IN ARRAY string_to_array(parts, ',') LOOP
                s = s + CAST(item AS int);
              END LOOP;
              RETURN s;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", ["1,2,3"]), ("SELECT {f}($1)", ["42"])])

    def test_nested_blocks(self, db):
        compile_and_run(db, """
            CREATE FUNCTION blocks(n int) RETURNS int AS $$
            DECLARE a int = 1;
            BEGIN
              <<blk>>
              DECLARE b int = 10;
              BEGIN
                a = a + b;
                EXIT blk WHEN n > 0;
                a = a * 100;
              END;
              RETURN a + n;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [n]) for n in (0, 1, -5)])

    def test_early_return_from_loop(self, db):
        compile_and_run(db, """
            CREATE FUNCTION find_div(n int, d int) RETURNS int AS $$
            BEGIN
              FOR i IN 2..n LOOP
                IF n % i = 0 AND i % d = 0 THEN
                  RETURN i;
                END IF;
              END LOOP;
              RETURN -1;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1, $2)", [30, 3]),
             ("SELECT {f}($1, $2)", [7, 2])])

    def test_case_statement(self, db):
        compile_and_run(db, """
            CREATE FUNCTION words(n int) RETURNS text AS $$
            DECLARE w text;
            BEGIN
              CASE n
                WHEN 1 THEN w = 'one';
                WHEN 2 THEN w = 'two';
                ELSE w = 'many';
              END CASE;
              RETURN w;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [n]) for n in (1, 2, 9)])

    def test_null_handling_through_loop(self, db):
        compile_and_run(db, """
            CREATE FUNCTION nullable(n int) RETURNS int AS $$
            DECLARE acc int;
            BEGIN
              FOR i IN 1..n LOOP
                acc = coalesce(acc, 0) + i;
              END LOOP;
              RETURN acc;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [0]), ("SELECT {f}($1)", [4])])


class TestEmbeddedQueries:
    @pytest.fixture()
    def qdb(self, db):
        db.execute("CREATE TABLE items(id int, price int, tag text)")
        db.execute("INSERT INTO items VALUES (1, 10, 'a'), (2, 25, 'b'), "
                   "(3, 40, 'a'), (4, 5, 'c')")
        return db

    def test_loop_over_lookups(self, qdb):
        compile_and_run(qdb, """
            CREATE FUNCTION spend(budget int) RETURNS int AS $$
            DECLARE bought int = 0; cheapest int;
            BEGIN
              LOOP
                cheapest = (SELECT min(price) FROM items
                            WHERE price <= budget);
                EXIT WHEN cheapest IS NULL;
                budget = budget - cheapest;
                bought = bought + 1;
                EXIT WHEN bought > 10;
              END LOOP;
              RETURN bought;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [b]) for b in (0, 10, 100)])

    def test_aggregate_in_condition(self, qdb):
        compile_and_run(qdb, """
            CREATE FUNCTION rich(tagname text) RETURNS boolean AS $$
            BEGIN
              IF (SELECT sum(price) FROM items WHERE tag = tagname) > 30 THEN
                RETURN true;
              END IF;
              RETURN false;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [t]) for t in ("a", "b", "zzz")])

    def test_shadowing_through_unions_and_column_aliases(self, qdb):
        """A variable named like a column stays a variable only where no
        FROM source (an aliased table, a derived table, a UNION) has that
        column."""
        compile_and_run(qdb, """
            CREATE FUNCTION shadows(price int) RETURNS int AS $$
            DECLARE n int = 0;
            BEGIN
              WHILE n < 2 LOOP
                price = price + (SELECT count(*) FROM
                         (SELECT i.price FROM items AS i(id, price, tag)
                          UNION SELECT price + 1) AS u(p) WHERE u.p > price);
                n = n + 1;
              END LOOP;
              RETURN price;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [p]) for p in (0, 20, 100)])

    def test_perform_compiles(self, qdb):
        compile_and_run(qdb, """
            CREATE FUNCTION poke(n int) RETURNS int AS $$
            BEGIN
              PERFORM price FROM items WHERE id = n;
              RETURN n * 2;
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [2])])

    def test_variable_column_ambiguity_rejected(self, qdb):
        source = """
            CREATE FUNCTION clash(price int) RETURNS int AS $$
            BEGIN
              RETURN (SELECT count(*) FROM items WHERE price > price);
            END; $$ LANGUAGE plpgsql"""
        with pytest.raises(CompileError, match="ambiguous"):
            compile_plsql(source, qdb)

    def test_qualified_column_resolves_cleanly(self, qdb):
        compile_and_run(qdb, """
            CREATE FUNCTION above(threshold int) RETURNS int AS $$
            BEGIN
              RETURN (SELECT count(*) FROM items AS i
                      WHERE i.price > threshold);
            END; $$ LANGUAGE plpgsql""",
            [("SELECT {f}($1)", [20])])

    def test_compiled_called_from_where_clause(self, qdb):
        db = qdb
        source = """
            CREATE FUNCTION dbl(v int) RETURNS int AS $$
            BEGIN RETURN v * 2; END; $$ LANGUAGE plpgsql"""
        db.execute(source)
        compile_plsql(source, db).register(db, name="dbl_c")
        interp = db.query_all(
            "SELECT id FROM items WHERE dbl(price) > 40 ORDER BY id")
        compiled = db.query_all(
            "SELECT id FROM items WHERE dbl_c(price) > 40 ORDER BY id")
        assert interp == compiled == [(2,), (3,)]

    def test_inlining_is_planned_once(self, qdb):
        db = qdb
        source = """
            CREATE FUNCTION lookup(v int) RETURNS int AS $$
            DECLARE r int = 0;
            BEGIN
              FOR i IN 1..v LOOP
                r = r + (SELECT count(*) FROM items WHERE price >= i);
              END LOOP;
              RETURN r;
            END; $$ LANGUAGE plpgsql"""
        compile_plsql(source, db).register(db, name="lookup_c")
        db.profiler.reset()
        db.query_all("SELECT lookup_c(id) FROM items")
        # one top-level plan instantiation, no Q->f switches at all
        assert db.profiler.counts["switch Q->f"] == 0
        assert db.profiler.counts["plan instantiations"] == 1


class TestIterateVariant:
    def test_iterate_equals_recursive(self, db):
        source = """
            CREATE FUNCTION upto(n int) RETURNS int AS $$
            DECLARE s int = 0;
            BEGIN
              FOR i IN 1..n LOOP s = s + i; END LOOP;
              RETURN s;
            END; $$ LANGUAGE plpgsql"""
        compile_plsql(source, db).register(db, name="upto_rec")
        compile_plsql(source, db, iterate=True).register(db, name="upto_it")
        for n in (0, 1, 17):
            assert db.query_value(f"SELECT upto_rec({n})") == \
                db.query_value(f"SELECT upto_it({n})") == n * (n + 1) // 2

    def test_iterate_query_text_differs(self, db):
        source = """
            CREATE FUNCTION g(n int) RETURNS int AS $$
            DECLARE s int = 0;
            BEGIN
              WHILE n > 0 LOOP s = s + n; n = n - 1; END LOOP;
              RETURN s;
            END; $$ LANGUAGE plpgsql"""
        recursive = compile_plsql(source, db)
        iterate = compile_plsql(source, db, iterate=True)
        assert "WITH RECURSIVE" in recursive.sql()
        assert "WITH ITERATE" in iterate.sql()


class TestRandomizedPrograms:
    """Property: compiled result == interpreted result on random inputs."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 5), st.integers(0, 10))
    def test_parameterized_arithmetic_loop(self, n, step, bias):
        from repro.sql import Database
        db = Database()
        source = f"""
            CREATE FUNCTION h(n int) RETURNS int AS $$
            DECLARE acc int = {bias};
            BEGIN
              FOR i IN 1..n BY {step} LOOP
                acc = acc * 2 + i;
                IF acc > 10000 THEN RETURN acc; END IF;
              END LOOP;
              RETURN acc;
            END; $$ LANGUAGE plpgsql"""
        db.execute(source)
        compile_plsql(source, db).register(db, name="h_c")
        assert db.query_value("SELECT h($1)", [n]) == \
            db.query_value("SELECT h_c($1)", [n])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_branching_program(self, a, b):
        from repro.sql import Database
        db = Database()
        source = """
            CREATE FUNCTION cmp3(a int, b int) RETURNS int AS $$
            BEGIN
              IF a < b THEN RETURN -1;
              ELSIF a > b THEN RETURN 1;
              ELSE RETURN 0;
              END IF;
            END; $$ LANGUAGE plpgsql"""
        db.execute(source)
        compile_plsql(source, db).register(db, name="cmp3_c")
        assert db.query_value("SELECT cmp3($1, $2)", [a, b]) == \
            db.query_value("SELECT cmp3_c($1, $2)", [a, b])


class TestIntermediateForms:
    def test_explain_contains_all_figures(self, db):
        source = """
            CREATE FUNCTION demo(n int) RETURNS int AS $$
            DECLARE s int = 0;
            BEGIN
              FOR i IN 1..n LOOP s = s + i; END LOOP;
              RETURN s;
            END; $$ LANGUAGE plpgsql"""
        compiled = compile_plsql(source, db)
        text = compiled.explain()
        for marker in ("goto CFG", "SSA", "ANF", "UDF", "WITH RECURSIVE"):
            assert marker in text

    def test_udf_form_executes(self, db):
        source = """
            CREATE FUNCTION tri(n int) RETURNS int AS $$
            DECLARE s int = 0;
            BEGIN
              WHILE n > 0 LOOP s = s + n; n = n - 1; END LOOP;
              RETURN s;
            END; $$ LANGUAGE plpgsql"""
        compiled = compile_plsql(source, db)
        wrapper = compiled.register_udf_form(db)
        assert db.query_value(f"SELECT {wrapper}(10)") == 55

    def test_optimize_flag_round_trip(self, db):
        source = """
            CREATE FUNCTION o(n int) RETURNS int AS $$
            DECLARE a int = 1; b int; c int;
            BEGIN
              b = a;        -- copy chain
              c = b + 0;    -- foldable
              FOR i IN 1..n LOOP c = c + 1; END LOOP;
              RETURN c;
            END; $$ LANGUAGE plpgsql"""
        fast = compile_plsql(source, db, optimize=True)
        slow = compile_plsql(source, db, optimize=False)
        fast.register(db, name="o_fast")
        slow.register(db, name="o_slow")
        for n in (0, 5):
            assert db.query_value(f"SELECT o_fast({n})") == \
                db.query_value(f"SELECT o_slow({n})") == n + 1
        assert len(fast.sql()) <= len(slow.sql())

    def test_non_plpgsql_rejected(self, db):
        with pytest.raises(CompileError):
            compile_plsql("CREATE FUNCTION s() RETURNS int AS 'SELECT 1' "
                          "LANGUAGE SQL", db)

    def test_compile_error_for_non_function(self, db):
        with pytest.raises(CompileError):
            compile_plsql("SELECT 1", db)


class TestFroidBaseline:
    """``froid_compile`` is the prefix of the same pipeline that stops at
    the first loop: it rejects iteration and, on loop-free bodies, yields
    exactly what ``compile_plsql`` yields."""

    @pytest.mark.parametrize("body", [
        "WHILE n > 0 LOOP s = s + n; n = n - 1; END LOOP;",
        "FOR i IN 1..n LOOP s = s + i; END LOOP;",
        "LOOP EXIT WHEN n <= 0; s = s + 1; n = n - 1; END LOOP;",
        "IF n > 0 THEN LOOP s = s + 1; EXIT WHEN s > n; END LOOP; END IF;",
    ])
    def test_rejects_every_loop(self, db, body):
        from repro.compiler import froid_compile
        from repro.sql.errors import LoopNotSupportedError
        source = f"""
            CREATE FUNCTION looped(n int) RETURNS int AS $$
            DECLARE s int = 0;
            BEGIN {body} RETURN s; END; $$ LANGUAGE plpgsql"""
        with pytest.raises(LoopNotSupportedError, match="looped"):
            froid_compile(source, db)
        assert compile_plsql(source, db).is_recursive

    @pytest.mark.parametrize("source,calls", [
        ("""CREATE FUNCTION clamp(x int, lo int, hi int) RETURNS int AS $$
            DECLARE r int;
            BEGIN
              IF x < lo THEN r = lo;
              ELSIF x > hi THEN r = hi;
              ELSE r = x;
              END IF;
              RETURN r * 2;
            END; $$ LANGUAGE plpgsql""",
         [(-5, 0, 10), (5, 0, 10), (50, 0, 10)]),
        ("""CREATE FUNCTION label(n int) RETURNS text AS $$
            DECLARE t text = 'n';
            BEGIN
              IF n IS NULL THEN RETURN 'none'; END IF;
              IF n % 2 = 0 THEN t = t || '-even'; END IF;
              RETURN t || (SELECT count(*) FROM w WHERE w.k <= n);
            END; $$ LANGUAGE plpgsql""",
         [(None,), (3,), (4,)]),
    ])
    def test_loop_free_equals_compile_plsql(self, db, source, calls):
        from repro.compiler import DIALECTS, froid_compile
        db.execute("CREATE TABLE w(k int)")
        db.execute("INSERT INTO w VALUES (1), (2), (3), (5)")
        froid = froid_compile(source, db)
        full = compile_plsql(source, db)
        assert not froid.is_recursive
        for dialect in DIALECTS:
            assert froid.sql(dialect) == full.sql(dialect)
        db.execute(source)
        froid.register(db, name="froid_f")
        name = froid.name
        for args in calls:
            holes = ", ".join(f"${i + 1}" for i in range(len(args)))
            assert db.query_value(f"SELECT froid_f({holes})", list(args)) \
                == db.query_value(f"SELECT {name}({holes})", list(args))
