"""Focused unit tests: individual SSA passes and the shadow-aware renamer."""

import pytest

from repro.analysis.volatility import expr_is_volatile
from repro.compiler.cfg import Goto, Return, build_cfg
from repro.compiler.optimize import (eliminate_dead_code,
                                     fold_constants, merge_blocks,
                                     propagate_copies_and_constants,
                                     simplify_phis, thread_jumps)
from repro.compiler.rename import collect_variable_uses, rename_variables
from repro.compiler.ssa import build_ssa
from repro.plsql.parser import parse_plpgsql_function
from repro.sql import ast as A
from repro.sql.errors import CompileError
from repro.sql.parser import parse_expression


def ssa_of(body: str, params="n int"):
    name, type_name = params.split()
    func = parse_plpgsql_function("f", [name], [type_name], "int", body)
    return build_ssa(build_cfg(func))


def all_stmts(program):
    return [s for b in program.blocks.values() for s in b.stmts]


class TestIndividualPasses:
    def test_simplify_phis_single_pred(self):
        program = ssa_of("DECLARE v int = 1; BEGIN IF n > 0 THEN v = 2; "
                         "END IF; RETURN v; END")
        # merge/thread first so a single-operand phi can appear; then check
        # simplify turns all-same phis into copies without changing counts.
        before = sum(len(b.phis) for b in program.blocks.values())
        simplify_phis(program)
        after = sum(len(b.phis) for b in program.blocks.values())
        assert after <= before

    def test_copy_propagation_chases_chains(self):
        program = ssa_of("DECLARE a int; b int; c int; BEGIN a = n; b = a; "
                         "c = b; RETURN c; END")
        propagate_copies_and_constants(program)
        returns = [b.terminator for b in program.blocks.values()
                   if isinstance(b.terminator, Return)]
        rendered = str(returns[0].expr)
        assert "n_1" in rendered  # the chain collapsed to the parameter

    def test_constant_propagation_into_condition(self):
        program = ssa_of("DECLARE k int = 5; BEGIN IF k > n THEN RETURN 1; "
                         "END IF; RETURN 0; END")
        propagate_copies_and_constants(program)
        fold_constants(program)
        conditions = [b.terminator.condition
                      for b in program.blocks.values()
                      if hasattr(b.terminator, "condition")]
        assert conditions, "condition survived"
        assert any(isinstance(c, A.BinaryOp)
                   and isinstance(c.left, A.Literal) for c in conditions)

    def test_fold_constant_condition_rewires_terminator(self):
        program = ssa_of("BEGIN IF 1 > 2 THEN RETURN 10; END IF; "
                         "RETURN 20; END")
        propagate_copies_and_constants(program)
        fold_constants(program)
        entry = program.blocks[program.entry]
        assert isinstance(entry.terminator, Goto)

    def test_dce_removes_unused_chain(self):
        program = ssa_of("DECLARE a int; b int; BEGIN a = n * 2; b = a + 1; "
                         "RETURN n; END")
        eliminate_dead_code(program)
        assert all_stmts(program) == []

    def test_dce_keeps_volatile(self):
        program = ssa_of("DECLARE a float; BEGIN a = random(); "
                         "RETURN n; END")
        eliminate_dead_code(program)
        assert len(all_stmts(program)) == 1

    def test_thread_jumps_removes_empty_forwarders(self):
        program = ssa_of("BEGIN IF n > 0 THEN RETURN 1; ELSE RETURN 2; "
                         "END IF; END")
        blocks_before = len(program.blocks)
        simplify_phis(program)
        thread_jumps(program)
        merge_blocks(program)
        assert len(program.blocks) <= blocks_before

    def test_merge_blocks_preserves_semantics(self, db):
        source = ("CREATE FUNCTION f(n int) RETURNS int AS $$ "
                  "DECLARE a int; BEGIN a = n + 1; a = a * 2; "
                  "RETURN a; END; $$ LANGUAGE plpgsql")
        from repro.compiler import compile_plsql
        compiled = compile_plsql(source, db)
        compiled.register(db)
        assert db.query_value("SELECT f(5)") == 12
        # loop-free and fully merged: no recursion machinery
        assert not compiled.is_recursive


class TestVolatility:
    def test_direct_call(self):
        assert expr_is_volatile(parse_expression("random()"))
        assert not expr_is_volatile(parse_expression("abs(-1)"))

    def test_nested_in_subquery(self):
        assert expr_is_volatile(parse_expression("(SELECT random())"))
        assert expr_is_volatile(
            parse_expression("exists (SELECT 1 WHERE random() > 0.5)"))
        assert not expr_is_volatile(parse_expression("(SELECT max(x) FROM t)"))

    def test_through_a_user_defined_helper(self, db):
        """A helper's inferred class counts, its declaration does not; a
        pure helper and a table read (stable) are not volatile."""
        db.execute("CREATE FUNCTION noise() RETURNS float AS "
                   "$$ SELECT random() $$ LANGUAGE sql IMMUTABLE")
        db.execute("CREATE FUNCTION twice(x int) RETURNS int AS "
                   "$$ SELECT 2 * x $$ LANGUAGE sql")
        db.execute("CREATE TABLE t(x int)")
        catalog = db.catalog
        assert expr_is_volatile(parse_expression("1 + noise()"), catalog)
        assert expr_is_volatile(
            parse_expression("(SELECT noise() FROM t)"), catalog)
        assert not expr_is_volatile(parse_expression("twice(3)"), catalog)
        assert not expr_is_volatile(
            parse_expression("(SELECT max(x) FROM t)"), catalog)


class TestRenamer:
    def rename_to_upper(self, text, variables, catalog=None):
        expr = parse_expression(text)
        out = rename_variables(
            expr,
            lambda n: A.ColumnRef((n.upper(),)) if n in variables else None,
            catalog)
        from repro.compiler.dialects import render_expression
        return render_expression(out)

    def test_renames_bare_variables_only(self):
        out = self.rename_to_upper("x + t.x", {"x"})
        assert '"X"' in out and "t.x" in out

    def test_subquery_column_not_renamed(self, tdb):
        # x is a column of t; inside the subquery it must stay a column.
        out = self.rename_to_upper("(SELECT max(x) FROM t) + v", {"v"},
                                   tdb.catalog)
        assert "max(x)" in out and '"V"' in out

    def test_shadowed_variable_is_ambiguous(self, tdb):
        with pytest.raises(CompileError, match="ambiguous"):
            self.rename_to_upper("(SELECT count(*) FROM t WHERE x > 0)",
                                 {"x"}, tdb.catalog)

    def test_derived_table_alias_shadows(self, tdb):
        # inner bare v is both a variable and a derived-table column:
        # the renamer must refuse rather than silently capture.
        with pytest.raises(CompileError, match="ambiguous"):
            self.rename_to_upper(
                "(SELECT q.v FROM (SELECT 1 AS v) AS q WHERE v = 1) + other",
                {"v", "other"}, tdb.catalog)

    def test_derived_alias_without_conflict_ok(self, tdb):
        out = self.rename_to_upper(
            "(SELECT q.w FROM (SELECT 1 AS w) AS q WHERE w = 1) + other",
            {"v", "other"}, tdb.catalog)
        assert '"OTHER"' in out and "w = 1" in out.replace("(", "").replace(")", "")

    def test_collect_uses_crosses_subqueries(self, tdb):
        expr = parse_expression(
            "(SELECT count(*) FROM t WHERE t.x > threshold) + bias")
        used = collect_variable_uses(expr, {"threshold", "bias", "unused"},
                                     tdb.catalog)
        assert used == {"threshold", "bias"}


class TestCompiledEndToEndAfterPasses:
    @pytest.mark.parametrize("optimize", [True, False])
    def test_big_program_same_result(self, db, optimize):
        source = """
            CREATE FUNCTION mix(n int) RETURNS int AS $$
            DECLARE a int = 0; b int = 1; dead int = 42; c int;
            BEGIN
              c = b;                  -- copy
              dead = dead * 2;        -- dead code
              FOR i IN 1..n LOOP
                a = a + c;
                IF a % 3 = 0 THEN
                  c = c + 1;
                ELSIF a % 5 = 0 THEN
                  CONTINUE;
                END IF;
                EXIT WHEN a > 100;
              END LOOP;
              RETURN a * 10 + c;
            END; $$ LANGUAGE plpgsql"""
        from repro.compiler import compile_plsql
        db.execute(source)
        suffix = "opt" if optimize else "raw"
        compile_plsql(source, db, optimize=optimize).register(
            db, name=f"mix_{suffix}")
        for n in (0, 1, 7, 50):
            assert db.query_value(f"SELECT mix_{suffix}({n})") == \
                db.query_value(f"SELECT mix({n})")
