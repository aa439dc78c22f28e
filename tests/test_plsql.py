"""PL/pgSQL front end: parser shapes and interpreter semantics."""

import pytest

from repro.plsql import ast as P
from repro.plsql.parser import parse_plpgsql_body, parse_plpgsql_function
from repro.sql.errors import (ParseError, PlsqlRuntimeError,
                              VariableConflictError)


def make(db, source: str) -> str:
    db.execute(source)
    import re
    return re.search(r"FUNCTION\s+(\w+)", source, re.I).group(1).lower()


class TestParser:
    def test_declarations(self):
        decls, body = parse_plpgsql_body(
            "DECLARE a int = 1; b text := 'x'; c float DEFAULT 0.5; d int; "
            "BEGIN RETURN a; END")
        assert [d.name for d in decls] == ["a", "b", "c", "d"]
        assert decls[3].default is None

    def test_if_elsif_else(self):
        _, body = parse_plpgsql_body(
            "BEGIN IF a THEN x = 1; ELSIF b THEN x = 2; ELSE x = 3; "
            "END IF; RETURN x; END")
        stmt = body[0]
        assert isinstance(stmt, P.IfStmt)
        assert len(stmt.branches) == 2 and len(stmt.else_body) == 1

    def test_case_statement_desugars(self):
        _, body = parse_plpgsql_body(
            "BEGIN CASE x WHEN 1 THEN y = 'a'; ELSE y = 'b'; END CASE; "
            "RETURN y; END")
        assert isinstance(body[0], P.IfStmt)

    def test_loop_family(self):
        _, body = parse_plpgsql_body("""
            BEGIN
              LOOP EXIT; END LOOP;
              WHILE a < 3 LOOP a = a + 1; END LOOP;
              FOR i IN 1..10 LOOP NULL; END LOOP;
              FOR i IN REVERSE 10..1 BY 2 LOOP NULL; END LOOP;
              FOREACH v IN ARRAY arr LOOP NULL; END LOOP;
              RETURN 0;
            END""")
        assert [type(s).__name__ for s in body[:-1]] == [
            "LoopStmt", "WhileStmt", "ForRangeStmt", "ForRangeStmt",
            "ForEachStmt"]
        assert body[3].reverse and body[3].step is not None

    def test_labels_and_exit(self):
        _, body = parse_plpgsql_body("""
            BEGIN
              <<outer>>
              LOOP
                EXIT outer WHEN a > 1;
                CONTINUE WHEN a = 0;
              END LOOP outer;
              RETURN 1;
            END""")
        loop = body[0]
        assert loop.label == "outer"
        assert loop.body[0].label == "outer" and loop.body[0].when is not None

    def test_for_query(self):
        _, body = parse_plpgsql_body(
            "BEGIN FOR rec IN SELECT x FROM t LOOP s = s + rec; END LOOP; "
            "RETURN s; END")
        assert isinstance(body[0], P.ForQueryStmt)

    def test_perform_and_raise(self):
        _, body = parse_plpgsql_body(
            "BEGIN PERFORM count(*) FROM t; "
            "RAISE NOTICE 'v=%', x; RAISE EXCEPTION 'boom'; END")
        assert isinstance(body[0], P.PerformStmt)
        assert body[1].level == "notice" and len(body[1].args) == 1
        assert body[2].level == "exception"

    def test_nested_block(self):
        _, body = parse_plpgsql_body(
            "BEGIN DECLARE v int = 1; BEGIN x = v; END; RETURN x; END")
        assert isinstance(body[0], P.BlockStmt)
        assert body[0].declarations[0].name == "v"

    def test_mismatched_end_label(self):
        with pytest.raises(ParseError):
            parse_plpgsql_body(
                "BEGIN <<a>> LOOP NULL; END LOOP b; RETURN 1; END")

    def test_declaration_shadows_parameter_rejected(self):
        with pytest.raises(ParseError, match="shadows"):
            parse_plpgsql_function("f", ["n"], ["int"], "int",
                                   "DECLARE n int; BEGIN RETURN n; END")

    def test_all_variables_collects_loop_vars(self):
        func = parse_plpgsql_function(
            "f", ["p"], ["int"], "int",
            "DECLARE a int; BEGIN FOR i IN 1..p LOOP a = i; END LOOP; "
            "RETURN a; END")
        names = [n for n, _ in func.all_variables()]
        assert names == ["p", "a", "i"]


class TestInterpreter:
    def test_while_and_exit_when(self, db):
        name = make(db, """
            CREATE FUNCTION f(n int) RETURNS int AS $$
            DECLARE acc int = 0;
            BEGIN
              WHILE true LOOP
                acc = acc + n;
                EXIT WHEN acc >= 10;
              END LOOP;
              RETURN acc;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value(f"SELECT {name}(4)") == 12

    def test_continue_skips(self, db):
        make(db, """
            CREATE FUNCTION evensum(n int) RETURNS int AS $$
            DECLARE acc int = 0;
            BEGIN
              FOR i IN 1..n LOOP
                CONTINUE WHEN i % 2 = 1;
                acc = acc + i;
              END LOOP;
              RETURN acc;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT evensum(10)") == 30

    def test_labelled_exit_from_nested_loops(self, db):
        make(db, """
            CREATE FUNCTION nested() RETURNS int AS $$
            DECLARE total int = 0;
            BEGIN
              <<outer>>
              FOR i IN 1..10 LOOP
                FOR j IN 1..10 LOOP
                  total = total + 1;
                  EXIT outer WHEN total = 7;
                END LOOP;
              END LOOP;
              RETURN total;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT nested()") == 7

    def test_reverse_for_with_step(self, db):
        make(db, """
            CREATE FUNCTION countdown() RETURNS text AS $$
            DECLARE s text = '';
            BEGIN
              FOR i IN REVERSE 9..1 BY 3 LOOP
                s = s || i;
              END LOOP;
              RETURN s;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT countdown()") == "963"

    def test_for_range_empty(self, db):
        make(db, """
            CREATE FUNCTION empty_range() RETURNS int AS $$
            DECLARE c int = 0;
            BEGIN
              FOR i IN 5..1 LOOP c = c + 1; END LOOP;
              RETURN c;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT empty_range()") == 0

    def test_foreach(self, db):
        make(db, """
            CREATE FUNCTION joinup() RETURNS text AS $$
            DECLARE out text = '';
              item text;
            BEGIN
              FOREACH item IN ARRAY array['a','b','c'] LOOP
                out = out || item;
              END LOOP;
              RETURN out;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT joinup()") == "abc"

    def test_for_query_loop(self, tdb):
        make(tdb, """
            CREATE FUNCTION total() RETURNS int AS $$
            DECLARE acc int = 0; r int;
            BEGIN
              FOR r IN SELECT x FROM t ORDER BY x LOOP
                acc = acc + r;
              END LOOP;
              RETURN acc;
            END; $$ LANGUAGE plpgsql""")
        assert tdb.query_value("SELECT total()") == 10

    def test_embedded_query_sees_variables(self, tdb):
        make(tdb, """
            CREATE FUNCTION above(threshold int) RETURNS int AS $$
            BEGIN
              RETURN (SELECT count(*) FROM t WHERE x > threshold);
            END; $$ LANGUAGE plpgsql""")
        assert tdb.query_value("SELECT above(2)") == 2

    def test_nested_block_and_exit_block(self, db):
        make(db, """
            CREATE FUNCTION blocky(n int) RETURNS int AS $$
            DECLARE v int = 1;
            BEGIN
              <<blk>>
              BEGIN
                v = v + n;
                EXIT blk WHEN v > 2;
                v = 100;
              END;
              RETURN v;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT blocky(5)") == 6
        assert db.query_value("SELECT blocky(0)") == 100

    def test_raise_notice_and_exception(self, db):
        make(db, """
            CREATE FUNCTION shout(v int) RETURNS int AS $$
            BEGIN
              RAISE NOTICE 'value is %', v;
              IF v < 0 THEN RAISE EXCEPTION 'negative: %', v; END IF;
              RETURN v;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT shout(3)") == 3
        assert db.notices[-1] == "NOTICE: value is 3"
        with pytest.raises(PlsqlRuntimeError, match="negative: -1"):
            db.query_value("SELECT shout(-1)")

    def test_missing_return_errors(self, db):
        make(db, """
            CREATE FUNCTION noret(v int) RETURNS int AS $$
            BEGIN
              IF v > 0 THEN RETURN v; END IF;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT noret(1)") == 1
        with pytest.raises(PlsqlRuntimeError, match="without RETURN"):
            db.query_value("SELECT noret(-1)")

    def test_assignment_coerces_to_declared_type(self, db):
        make(db, """
            CREATE FUNCTION coerce_int() RETURNS int AS $$
            DECLARE v int;
            BEGIN
              v = 2.7;
              RETURN v;
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT coerce_int()") == 3

    def test_perform_runs_query(self, tdb):
        make(tdb, """
            CREATE FUNCTION poke() RETURNS int AS $$
            BEGIN
              PERFORM x FROM t;
              RETURN 1;
            END; $$ LANGUAGE plpgsql""")
        tdb.profiler.reset()
        assert tdb.query_value("SELECT poke()") == 1
        assert tdb.profiler.counts["switch f->Q"] >= 1

    def test_fast_path_no_executor_start(self, db):
        make(db, """
            CREATE FUNCTION arith(n int) RETURNS int AS $$
            DECLARE v int = 0;
            BEGIN
              FOR i IN 1..n LOOP v = v + i * 2; END LOOP;
              RETURN v;
            END; $$ LANGUAGE plpgsql""")
        db.query_value("SELECT arith(5)")  # warm
        db.profiler.reset()
        db.query_value("SELECT arith(50)")
        assert db.profiler.counts.get("switch f->Q", 0) == 0

    def test_plpgsql_calls_plpgsql(self, db):
        make(db, """
            CREATE FUNCTION inner_fn(n int) RETURNS int AS $$
            BEGIN RETURN n * 2; END; $$ LANGUAGE plpgsql""")
        make(db, """
            CREATE FUNCTION outer_fn(n int) RETURNS int AS $$
            BEGIN RETURN inner_fn(n) + 1; END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT outer_fn(5)") == 11

    def test_recursive_plpgsql(self, db):
        make(db, """
            CREATE FUNCTION fact(n int) RETURNS int AS $$
            BEGIN
              IF n <= 1 THEN RETURN 1; END IF;
              RETURN n * fact(n - 1);
            END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT fact(6)") == 720

    def test_null_statement(self, db):
        make(db, """
            CREATE FUNCTION idle() RETURNS int AS $$
            BEGIN NULL; RETURN 0; END; $$ LANGUAGE plpgsql""")
        assert db.query_value("SELECT idle()") == 0

    def test_variable_conflict_is_an_error(self, tdb):
        # A bare name that is both a variable and a column of the embedded
        # query's FROM is refused, as PostgreSQL's default
        # plpgsql.variable_conflict = error refuses it.
        make(tdb, """
            CREATE FUNCTION conflict(x int) RETURNS int AS $$
            BEGIN
              RETURN (SELECT count(*) FROM t WHERE x = x);
            END; $$ LANGUAGE plpgsql""")
        with pytest.raises(VariableConflictError,
                           match="column reference 'x' is ambiguous: it may "
                                 "refer to either a PL/pgSQL variable or a "
                                 "table column"):
            tdb.query_value("SELECT conflict(1)")


class TestLoopEdges:
    """Loop forms at their edges: EXIT out of FOR-over-query and FOREACH
    loops, an EXIT that names an outer loop leaving an inner block, a NULL
    array, and the classified errors of bad FOR / FOREACH operands."""

    @pytest.mark.parametrize("body,expected", [
        ("FOR r IN SELECT x FROM t ORDER BY x LOOP s := s + r; "
         "EXIT WHEN s >= 3; END LOOP; RETURN s;", 3),
        ("FOREACH e IN ARRAY ARRAY[5, 6, 7] LOOP s := s + e; "
         "EXIT WHEN e = 6; END LOOP; RETURN s;", 11),
        ("FOREACH e IN ARRAY NULL::int[] LOOP s := 1; END LOOP; RETURN s;", 0),
        ("<<outer>> LOOP <<inner>> BEGIN s := s + 1; EXIT outer; END; "
         "END LOOP; RETURN s;", 1),
    ])
    def test_exits(self, tdb, body, expected):
        name = make(tdb, f"""
            CREATE FUNCTION edge() RETURNS int AS $$
            DECLARE s int := 0; r int; e int;
            BEGIN {body} END; $$ LANGUAGE plpgsql""")
        assert tdb.query_value(f"SELECT {name}()") == expected

    @pytest.mark.parametrize("body,message", [
        ("FOR i IN 1..NULL LOOP END LOOP;", "must not be NULL"),
        ("FOR i IN 1..3 BY 0 LOOP END LOOP;", "must be positive"),
        ("FOREACH e IN ARRAY 3 LOOP END LOOP;", "expects an array"),
    ])
    def test_bad_loop_operands(self, db, body, message):
        name = make(db, f"""
            CREATE FUNCTION bad() RETURNS int AS $$
            DECLARE e int;
            BEGIN {body} RETURN 0; END; $$ LANGUAGE plpgsql""")
        with pytest.raises(PlsqlRuntimeError, match=message):
            db.query_value(f"SELECT {name}()")
