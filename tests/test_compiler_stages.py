"""Unit tests for individual compiler stages: CFG, dominators, SSA,
optimizations, ANF, UDF, template."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_plsql
from repro.compiler import anf as anf_module
from repro.compiler.anf import AnfCall, AnfIf, AnfLet, AnfRet, inline_anf, ssa_to_anf
from repro.compiler.cfg import CondGoto, Goto, Return, build_cfg
from repro.compiler.dominators import DominatorInfo, reverse_postorder
from repro.compiler.optimize import optimize_ssa
from repro.compiler.ssa import build_ssa, evaluate_ssa
from repro.compiler.udf import build_udf, udf_is_recursive
from repro.plsql.parser import parse_plpgsql_function
from repro.sql.errors import CompileError


def func_of(body: str, params=("n", "int"), return_type="int"):
    names = [params[i] for i in range(0, len(params), 2)]
    types = [params[i + 1] for i in range(0, len(params), 2)]
    return parse_plpgsql_function("f", names, types, return_type, body)


class TestCfg:
    def test_straight_line(self):
        cfg = build_cfg(func_of("BEGIN RETURN n + 1; END"))
        entry = cfg.blocks[cfg.entry]
        assert isinstance(entry.terminator, Return)

    def test_if_creates_diamond(self):
        cfg = build_cfg(func_of(
            "DECLARE v int; BEGIN IF n > 0 THEN v = 1; ELSE v = 2; END IF; "
            "RETURN v; END"))
        entry = cfg.blocks[cfg.entry]
        assert isinstance(entry.terminator, CondGoto)
        preds = cfg.predecessors()
        joins = [b for b, ps in preds.items() if len(ps) == 2]
        assert joins, "expected a join block"

    def test_while_creates_back_edge(self):
        cfg = build_cfg(func_of(
            "BEGIN WHILE n > 0 LOOP n = n - 1; END LOOP; RETURN n; END"))
        # some block jumps backwards to the loop header
        has_back_edge = any(
            target <= bid
            for bid, block in cfg.blocks.items()
            for target in block.successors())
        assert has_back_edge

    def test_for_bounds_become_temporaries(self):
        cfg = build_cfg(func_of(
            "DECLARE s int = 0; BEGIN FOR i IN 1..n LOOP s = s + i; "
            "END LOOP; RETURN s; END"))
        assert any(v.startswith("__stop") for v in cfg.var_types)

    def test_declared_vars_initialised_at_entry(self):
        cfg = build_cfg(func_of(
            "DECLARE a int; b int = 9; BEGIN RETURN b; END"))
        targets = [s.target for s in cfg.blocks[cfg.entry].stmts]
        assert "a" in targets and "b" in targets

    def test_exit_without_loop_rejected(self):
        with pytest.raises(CompileError):
            build_cfg(func_of("BEGIN EXIT; RETURN 1; END"))

    def test_continue_label_to_block_rejected(self):
        with pytest.raises(CompileError):
            build_cfg(func_of(
                "BEGIN <<b>> BEGIN CONTINUE b; END; RETURN 1; END"))

    def test_raise_exception_not_compilable(self):
        with pytest.raises(CompileError, match="RAISE EXCEPTION"):
            build_cfg(func_of("BEGIN RAISE EXCEPTION 'no'; END"))

    def test_raise_notice_dropped(self):
        cfg = build_cfg(func_of("BEGIN RAISE NOTICE 'hi'; RETURN 1; END"))
        assert not cfg.blocks[cfg.entry].stmts

    def test_for_query_not_compilable(self):
        with pytest.raises(CompileError, match="FOR"):
            build_cfg(func_of(
                "DECLARE r int; BEGIN FOR r IN SELECT 1 LOOP NULL; "
                "END LOOP; RETURN 0; END"))

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(CompileError, match="twice"):
            build_cfg(func_of("DECLARE a int; a text; BEGIN RETURN 1; END"))

    def test_pretty_renders(self):
        cfg = build_cfg(func_of("BEGIN RETURN n; END"))
        assert "goto" in cfg.pretty() or "return" in cfg.pretty()


class TestDominators:
    def _brute_force_dominators(self, entry, successors, nodes):
        """A node d dominates n iff removing d disconnects n from entry."""
        doms = {}
        for d in nodes:
            reached = set()
            work = [entry] if entry != d else []
            while work:
                node = work.pop()
                if node in reached or node == d:
                    continue
                reached.add(node)
                work.extend(successors.get(node, ()))
            doms[d] = {n for n in nodes if n != d and n not in reached}
        return doms

    def test_diamond(self):
        successors = {0: [1, 2], 1: [3], 2: [3], 3: []}
        info = DominatorInfo(0, successors)
        assert info.idom[3] == 0
        assert info.frontiers[1] == {3} and info.frontiers[2] == {3}

    def test_loop(self):
        successors = {0: [1], 1: [2, 3], 2: [1], 3: []}
        info = DominatorInfo(0, successors)
        assert info.idom[2] == 1
        assert 1 in info.frontiers[2]  # back edge puts header in frontier

    def test_reverse_postorder_starts_at_entry(self):
        order = reverse_postorder(0, {0: [1, 2], 1: [3], 2: [3], 3: []})
        assert order[0] == 0 and set(order) == {0, 1, 2, 3}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_idom_matches_brute_force(self, n, data):
        nodes = list(range(n))
        successors = {
            i: data.draw(st.lists(st.sampled_from(nodes), max_size=3,
                                  unique=True), label=f"succ{i}")
            for i in nodes}
        info = DominatorInfo(0, successors)
        reachable = set(info.rpo)
        brute = self._brute_force_dominators(0, successors, reachable)
        for node in reachable:
            if node == 0:
                continue
            idom = info.idom[node]
            # idom must dominate node
            assert node in brute[idom] or idom == node
            # and be dominated by every other dominator of node
            for other in reachable:
                if other != node and node in brute[other]:
                    assert info.dominates(other, idom) or other == idom


SSA_SOURCES = [
    "BEGIN RETURN n * 2; END",
    "DECLARE v int = 0; BEGIN IF n > 0 THEN v = n; ELSE v = -n; END IF; "
    "RETURN v; END",
    "DECLARE s int = 0; BEGIN FOR i IN 1..n LOOP s = s + i; END LOOP; "
    "RETURN s; END",
    "DECLARE a int = 0; b int = 1; t int; BEGIN WHILE a < n LOOP t = a; "
    "a = b; b = t + b; END LOOP; RETURN a; END",
    "DECLARE v int = 0; BEGIN FOR i IN 1..n LOOP IF i % 2 = 0 THEN "
    "v = v + i; ELSE v = v - 1; END IF; EXIT WHEN v > 50; END LOOP; "
    "RETURN v; END",
]


class TestSsa:
    @pytest.mark.parametrize("source", SSA_SOURCES)
    def test_single_assignment_invariant(self, source):
        ssa = build_ssa(build_cfg(func_of(source)))
        targets = []
        for block in ssa.blocks.values():
            targets.extend(phi.target for phi in block.phis)
            targets.extend(stmt.target for stmt in block.stmts)
        assert len(targets) == len(set(targets)), "a name assigned twice"

    @pytest.mark.parametrize("source", SSA_SOURCES)
    def test_phi_args_match_predecessors(self, source):
        ssa = build_ssa(build_cfg(func_of(source)))
        preds = ssa.predecessors()
        for bid, block in ssa.blocks.items():
            for phi in block.phis:
                assert set(phi.args) == set(preds[bid]), (bid, phi)

    @pytest.mark.parametrize("source", SSA_SOURCES)
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_ssa_evaluation_matches_interpreter(self, db, source, n):
        sql_src = (f"CREATE FUNCTION f(n int) RETURNS int AS $$ {source} "
                   "$$ LANGUAGE plpgsql")
        db.execute(sql_src)
        expected = db.query_value("SELECT f($1)", [n])
        ssa = build_ssa(build_cfg(func_of(source)), db.catalog)
        assert evaluate_ssa(ssa, db, [n]) == expected

    @pytest.mark.parametrize("source", SSA_SOURCES)
    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_optimized_ssa_still_matches(self, db, source, n):
        sql_src = (f"CREATE FUNCTION f(n int) RETURNS int AS $$ {source} "
                   "$$ LANGUAGE plpgsql")
        db.execute(sql_src)
        expected = db.query_value("SELECT f($1)", [n])
        ssa = build_ssa(build_cfg(func_of(source)), db.catalog)
        optimize_ssa(ssa, db.catalog)
        assert evaluate_ssa(ssa, db, [n]) == expected

    def test_optimization_shrinks_fib(self):
        cfg = build_cfg(func_of(SSA_SOURCES[3]))
        raw = build_ssa(cfg)
        raw_size = sum(len(b.stmts) + len(b.phis) for b in raw.blocks.values())
        opt = build_ssa(build_cfg(func_of(SSA_SOURCES[3])))
        optimize_ssa(opt)
        opt_size = sum(len(b.stmts) + len(b.phis) for b in opt.blocks.values())
        assert opt_size <= raw_size
        assert len(opt.blocks) <= len(raw.blocks)

    def test_volatile_not_eliminated(self):
        source = ("DECLARE r float; BEGIN r = random(); RETURN 1; END")
        ssa = build_ssa(build_cfg(func_of(source)))
        optimize_ssa(ssa)
        exprs = [s for b in ssa.blocks.values() for s in b.stmts]
        assert any("random" in str(s.expr) for s in exprs), \
            "random() call must survive DCE"

    def test_volatile_helper_not_eliminated(self, db):
        """A dead call to a user-defined wrapper of random() is a draw too:
        dropping it shifts every later random() of the statement's
        session, so the compiled twin must keep it."""
        db.execute("CREATE FUNCTION noise() RETURNS float AS "
                   "$$ SELECT random() $$ LANGUAGE sql")
        source = """CREATE FUNCTION g(n int) RETURNS int AS $$
        DECLARE i int := 0; x float;
        BEGIN
          WHILE i < n LOOP x := noise(); i := i + 1; END LOOP;
          RETURN i;
        END; $$ LANGUAGE plpgsql"""
        db.execute(source)
        compiled = compile_plsql(source, db)
        exprs = [s.expr for b in compiled.ssa.blocks.values()
                 for s in b.stmts]
        assert any("noise" in str(e) for e in exprs), \
            "noise() call must survive DCE"
        compiled.register(db, name="g_c")
        for batch_compiled in ("on", "off"):
            db.execute(f"SET batch_compiled = {batch_compiled}")
            draws = []
            for name in ("g", "g_c"):
                db.reseed(7)
                assert db.query_value(f"SELECT {name}(3)") == 3
                draws.append(db.query_value("SELECT random()"))
            assert draws[0] == draws[1]

    def test_constant_folding(self):
        source = "DECLARE v int = 2 + 3; BEGIN RETURN v * 10; END"
        ssa = build_ssa(build_cfg(func_of(source)))
        optimize_ssa(ssa)
        from repro.sql import ast as A
        ret = [b.terminator for b in ssa.blocks.values()
               if isinstance(b.terminator, Return)][0]
        assert isinstance(ret.expr, A.Literal) and ret.expr.value == 50

    def test_division_by_zero_not_folded(self, db):
        source = "BEGIN RETURN 1 / (n - n); END"
        ssa = build_ssa(build_cfg(func_of(source)))
        optimize_ssa(ssa)
        # error must stay at run time, not compile time
        from repro.sql.errors import ExecutionError
        with pytest.raises(ExecutionError):
            evaluate_ssa(ssa, db, [1])


class TestAnf:
    def _anf(self, source, optimize=True):
        ssa = build_ssa(build_cfg(func_of(source)))
        if optimize:
            optimize_ssa(ssa)
        return inline_anf(ssa_to_anf(ssa))

    def test_loop_free_collapses_to_main_only(self):
        anf = self._anf(
            "DECLARE v int; BEGIN IF n > 0 THEN v = 1; ELSE v = 2; END IF; "
            "RETURN v + n; END")
        assert set(anf.functions) == {anf.entry}

    def test_loop_keeps_one_recursive_function(self):
        anf = self._anf(SSA_SOURCES[2])
        others = [n for n in anf.functions if n != anf.entry]
        assert len(others) == 1
        body = anf.functions[others[0]].body
        assert isinstance(body, AnfIf)

    def test_calls_are_tail_position_only(self):
        anf = self._anf(SSA_SOURCES[4])
        for func in anf.functions.values():
            # bound values, conditions and arguments are SQL expressions,
            # never ANF nodes: a call can only be a tail
            assert not any(isinstance(e, anf_module.AnfExpr)
                           for e in anf_module.exprs(func.body))

    def test_the_one_traversal(self):
        from repro.sql import ast as A
        x, y = A.ColumnRef(("x",)), A.ColumnRef(("y",))
        body = AnfLet("x", A.Literal(1),
                      AnfIf(x, AnfCall("f", [x, y]), AnfRet(y)))
        assert anf_module.children(body) == (body.body,)
        assert anf_module.children(body.body.then_branch) == ()
        assert list(anf_module.exprs(body)) == [A.Literal(1), x, x, y, y]
        assert anf_module.calls(body) == ["f"]
        copy = anf_module.fold(body)
        assert copy == body and copy is not body
        mapped = anf_module.map_exprs(
            body, lambda e: A.Literal(0) if e == y else e)
        assert list(anf_module.exprs(mapped)) == \
            [A.Literal(1), x, x, A.Literal(0), A.Literal(0)]
        assert anf_module.fold(
            body, let=lambda n, b: b + 1, if_=lambda n, t, e: max(t, e) + 1,
            call=lambda n: 0, ret=lambda n: 0) == 2

    def test_unknown_node_is_one_compile_error(self):
        class Stray(anf_module.AnfExpr):
            pass

        with pytest.raises(CompileError, match="unknown ANF node Stray"):
            anf_module.children(Stray())
        for walk in (anf_module.calls, lambda e: list(anf_module.exprs(e)),
                     lambda e: anf_module.map_exprs(e, lambda x: x)):
            with pytest.raises(CompileError, match="unknown ANF node Stray"):
                walk(AnfLet("v", None, Stray()))

    def test_lambda_lifting_adds_free_parameters(self):
        anf = self._anf(SSA_SOURCES[2], optimize=False)
        loop_fns = [f for name, f in anf.functions.items()
                    if name != anf.entry]
        # the loop function must carry n (the bound) as a parameter
        assert any(any(p.startswith("n") or p.startswith("__stop")
                       for p in f.params) for f in loop_fns)

    def test_pretty_renders(self):
        anf = self._anf(SSA_SOURCES[2])
        text = anf.pretty()
        assert "letrec" in text and "if" in text


class TestUdf:
    def test_loop_free_is_not_recursive(self):
        ssa = build_ssa(build_cfg(func_of("BEGIN RETURN n; END")))
        udf = build_udf(inline_anf(ssa_to_anf(ssa)))
        assert not udf_is_recursive(udf)

    def test_recursive_udf_shape(self):
        ssa = build_ssa(build_cfg(func_of(SSA_SOURCES[3])))
        optimize_ssa(ssa)
        udf = build_udf(inline_anf(ssa_to_anf(ssa)))
        assert udf_is_recursive(udf)
        assert udf.rec_params[0] == "fn"
        assert udf.star_name == "f__rec"
        assert len(udf.rec_params) == len(udf.rec_param_types)

    def test_fn_variable_cannot_collide_with_dispatch(self, db):
        # A user variable called "fn" is safe: SSA renames it to fn_1 etc.,
        # so the dispatch parameter keeps its slot.
        source = ("CREATE FUNCTION f(n int) RETURNS int AS $$ "
                  "DECLARE fn int = 1; BEGIN WHILE fn < n LOOP "
                  "fn = fn + 1; END LOOP; RETURN fn; END; "
                  "$$ LANGUAGE plpgsql")
        from repro.compiler import compile_plsql
        compiled = compile_plsql(source, db)
        compiled.register(db)
        assert db.query_value("SELECT f(5)") == 5
        assert "fn" in compiled.udf.rec_params  # the dispatch slot itself
