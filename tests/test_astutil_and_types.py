"""Unit tests for AST utilities, type casts, and SQL-text round-trips."""

import dataclasses
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.dialects import render_expression, render_select
from repro.sql import ast as A
from repro.sql.astutil import (contains_aggregate, contains_window_call,
                               expr_equal, rebuild, statement_param_count,
                               substitute_params, transform_expr, walk,
                               walk_expr)
from repro.sql.errors import PlanError, TypeError_
from repro.sql.parser import parse_expression, parse_select
from repro.sql.types import CompositeType, cast_value, normalize_type_name


class TestTypeNames:
    def test_aliases_normalize(self):
        assert normalize_type_name("INTEGER") == "int"
        assert normalize_type_name("bigint") == "int"
        assert normalize_type_name("Double   Precision") == "float"
        assert normalize_type_name("VARCHAR") == "text"
        assert normalize_type_name("BOOLEAN") == "bool"
        assert normalize_type_name("coord") == "coord"


class TestCasts:
    def test_composite_cast_attaches_names(self):
        ctype = CompositeType("pt", ("x", "y"), ("int", "int"))
        from repro.sql.values import Row
        row = cast_value(Row([1, 2]), "pt", ctype)
        assert row.field("x") == 1 and row.type_name == "pt"

    def test_composite_arity_check(self):
        ctype = CompositeType("pt", ("x", "y"), ("int", "int"))
        from repro.sql.values import Row
        with pytest.raises(TypeError_):
            ctype.make_row([1])

    def test_bool_casts(self):
        assert cast_value("yes", "bool") is True
        assert cast_value(0, "bool") is False
        with pytest.raises(TypeError_):
            cast_value("maybe", "bool")

    def test_float_to_int_rounds_half_away(self):
        assert cast_value(0.5, "int") == 1
        assert cast_value(-0.5, "int") == -1
        assert cast_value(2.4, "int") == 2


class TestExprEqual:
    def test_structural_equality(self):
        a = parse_expression("x + 1 * y")
        b = parse_expression("x + 1 * y")
        c = parse_expression("x + 2 * y")
        assert expr_equal(a, b)
        assert not expr_equal(a, c)

    def test_case_insensitive_identifiers(self):
        assert expr_equal(parse_expression("Foo + 1"),
                          parse_expression("foo + 1"))


class TestWalkAndTransform:
    def test_walk_visits_all_nodes(self):
        expr = parse_expression("a + b * coalesce(c, 1)")
        names = {n.parts[0] for n in walk_expr(expr)
                 if isinstance(n, A.ColumnRef)}
        assert names == {"a", "b", "c"}

    def test_transform_replaces_leaves(self):
        expr = parse_expression("a + a * 2")

        def bump(node):
            if isinstance(node, A.ColumnRef):
                return A.Literal(5)
            return None

        out = transform_expr(expr, bump)
        assert render_expression(out) == "(5 + (5 * 2))"

    def test_contains_aggregate_and_window(self):
        assert contains_aggregate(parse_expression("1 + sum(x)"))
        assert not contains_aggregate(parse_expression("sum(x) over ()"))
        assert contains_window_call(parse_expression("sum(x) over ()"))


class TestParamSubstitution:
    def test_substitute_in_expression(self):
        expr = parse_expression("$1 + $2 * $1")
        out = substitute_params(expr, [A.Literal(10), A.Literal(3)])
        assert render_expression(out) == "(10 + (3 * 10))"

    def test_substitute_crosses_subqueries(self):
        stmt = parse_select("SELECT (SELECT $1 + t.x FROM t) FROM u "
                            "WHERE u.y = $2")
        out = substitute_params(stmt, [A.Literal(7), A.Literal("z")])
        text = render_select(out)
        assert "$" not in text and "7" in text and "'z'" in text

    def test_out_of_range_param(self):
        with pytest.raises(PlanError):
            substitute_params(parse_expression("$3"), [A.Literal(1)])

    def test_statement_param_count(self):
        stmt = parse_select("SELECT $2 FROM t WHERE (SELECT $5) IS NULL")
        assert statement_param_count(stmt) == 5
        assert statement_param_count(parse_select("SELECT 1")) == 0


# ---------------------------------------------------------------------------
# Completeness of the one traversal, from the AST's own declarations
# ---------------------------------------------------------------------------

SENTINEL = A.Param(99)


def _filler(hint):
    """A small sentinel-free value of type *hint*."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return None if type(None) in args else _filler(args[0])
    if origin is tuple:
        return tuple(_filler(a) for a in args if a is not Ellipsis)
    if origin is not None:
        return origin()
    if hint is A.Expr or hint is typing.Any:
        return A.Literal(1)
    if hint is A.TableRef:
        return A.TableName("t")
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{f.name: _filler(hints[f.name])
                       for f in dataclasses.fields(hint)
                       if f.default is dataclasses.MISSING
                       and f.default_factory is dataclasses.MISSING})
    return hint()  # str, int, bool


def _plantings(hint, stack=(), strict=False):
    """``(path, value)`` for every way of putting SENTINEL into a value of
    type *hint*: into each field of each node class, through lists, tuples,
    dicts and unions.  A class already on the path, and a nested SELECT
    (which has its own top-level expansion), is not expanded again: it
    contributes its first non-recursive planting (nothing in *strict* mode,
    which is how that first planting is found)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is A.Expr:
        yield "", SENTINEL
    elif origin is typing.Union:
        for arg in args:
            yield from _plantings(arg, stack, strict)
    elif origin is list:
        for path, value in _plantings(args[0], stack, strict):
            yield "[0]" + path, [value]
    elif origin is dict:
        for path, value in _plantings(args[1], stack, strict):
            yield "['k']" + path, {"k": value}
    elif origin is tuple:
        for index, arg in enumerate(args):
            for path, value in _plantings(arg, stack, strict):
                items = [_filler(a) for a in args]
                items[index] = value
                yield f"[{index}]" + path, tuple(items)
    elif dataclasses.is_dataclass(hint):
        if hint in stack or (stack and hint is A.SelectStmt):
            if not strict:
                yield next(_plantings(hint, (), strict=True))
            return
        hints = typing.get_type_hints(hint)
        for fld in dataclasses.fields(hint):
            for path, value in _plantings(hints[fld.name], stack + (hint,),
                                          strict):
                node = _filler(hint)
                setattr(node, fld.name, value)
                yield f".{fld.name}{path}", node
    elif isinstance(hint, type) and hint.__module__ == A.__name__:
        for sub in hint.__subclasses__():  # TableRef
            yield from _plantings(sub, stack, strict)
    elif origin is not None:
        raise TypeError(f"annotation form {hint!r} is new to this test")


AST_CLASSES = [cls for cls in vars(A).values()
               if dataclasses.is_dataclass(cls)]
PLANTINGS = [pytest.param(node, id=cls.__name__ + path)
             for cls in AST_CLASSES for path, node in _plantings(cls)]


class TestTraversalCompleteness:
    """Every field of every ``sql/ast.py`` dataclass that can hold an
    expression or a statement is reached by the one traversal - derived
    from the declarations, so a new field is covered the day it is added."""

    def test_enumeration_reaches_the_known_blind_spots(self):
        ids = {p.id for p in PLANTINGS}
        assert "FuncCall.window.order_by[0].expr" in ids
        assert "FuncCall.window.frame.start.offset" in ids
        assert "FrameBound.offset" in ids
        assert "SelectCore.windows['k'].partition_by[0]" in ids
        assert "Update.assignments[0][1]" in ids
        assert "SelectStmt.with_clause.ctes[0].query.body.items[0].expr" in ids

    @pytest.mark.parametrize("node", PLANTINGS)
    def test_walk_rebuild_and_param_count_reach_it(self, node):
        assert any(n is SENTINEL for n in walk(node))
        assert statement_param_count(node) == 99

        replacement = A.Literal("swapped")

        def swap(n):
            return replacement if n is SENTINEL else rebuild(n, swap)

        swapped = swap(node)
        found = list(walk(swapped))
        assert any(n is replacement for n in found)
        assert not any(n is SENTINEL for n in found)
        assert any(n is SENTINEL for n in walk(node))  # input untouched


EXPRESSION_SAMPLES = [
    "1 + 2 * x",
    "coalesce(a, b, 0) between 1 and f(2, 3)",
    "case when x > 0 then 'pos' else 'neg' end",
    "not (a and b or c)",
    "x in (1, 2, 3) and y like 'a%'",
    "cast(x as double precision) :: int",
    "row(1, x)",
    "(select max(v) from t where t.k = outer_k)",
    "sum(x) over (partition by g order by y desc rows between 1 preceding "
    "and current row)",
    "array[1, 2][x] is not null",
]


class TestRenderRoundTrip:
    @pytest.mark.parametrize("text", EXPRESSION_SAMPLES)
    def test_expression_render_reparse_fixpoint(self, text):
        first = parse_expression(text)
        rendered = render_expression(first)
        second = parse_expression(rendered)
        assert render_expression(second) == rendered

    @pytest.mark.parametrize("text", [
        "SELECT a, b FROM t WHERE a > 1 ORDER BY b DESC LIMIT 3",
        "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
        "WHERE n < 5) SELECT * FROM r",
        "SELECT g, count(*) FROM t GROUP BY g HAVING count(*) > 1",
        "SELECT * FROM a LEFT JOIN LATERAL (SELECT a.x) AS s(v) ON true",
        "VALUES (1, 'a'), (2, 'b')",
    ])
    def test_select_render_reparse_fixpoint(self, text):
        first = parse_select(text)
        rendered = render_select(first)
        second = parse_select(rendered)
        assert render_select(second) == rendered

    @settings(max_examples=40, deadline=None)
    @given(st.recursive(
        st.one_of(st.integers(-99, 99), st.booleans(), st.none(),
                  st.text(alphabet="abc'", max_size=5)),
        lambda leaf: st.tuples(leaf, leaf), max_leaves=6))
    def test_random_literal_trees_round_trip(self, value):
        from repro.sql import Database
        db = Database()

        def to_expr(v):
            if isinstance(v, tuple):
                return A.RowExpr([to_expr(a) for a in v])
            return A.Literal(v)

        expr = to_expr(value)
        rendered = render_expression(expr)
        reparsed = parse_expression(rendered)
        assert render_expression(reparsed) == rendered
        # and the engine evaluates both to the same value
        assert db.query_value("SELECT " + rendered) == \
            db.query_value("SELECT " + render_expression(reparsed))


class TestBenchHarness:
    def test_render_table_alignment(self):
        from repro.bench.harness import render_table
        text = render_table(["name", "v"], [["a", 1.5], ["bb", 22]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.50" in text and "22" in text

    def test_time_query_collects_samples(self, tdb):
        from repro.bench.harness import time_query
        timing = time_query(tdb, "SELECT count(*) FROM t", runs=3, warmup=1)
        assert len(timing.samples) == 3
        assert timing.minimum <= timing.mean <= timing.maximum

    def test_ensure_calls_table(self, db):
        from repro.bench.harness import CALLS_TABLE, ensure_calls_table
        ensure_calls_table(db, 5)
        assert db.query_value(f"SELECT count(*) FROM {CALLS_TABLE}") == 5
        ensure_calls_table(db, 2)
        assert db.query_value(f"SELECT count(*) FROM {CALLS_TABLE}") == 2
