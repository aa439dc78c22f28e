"""Expression evaluation semantics, end to end through the engine, and the
kernel table both evaluators are derived from (``repro.sql.expr``)."""

import random

import pytest

from repro.sql import ast as A
from repro.sql.errors import (CRASH, ExecutionError, PlanError, TypeError_,
                              error_class)
from repro.sql.executor.vector import Batch
from repro.sql.expr import (_ARITH, _COMPARE, KERNELS, ROW_ONLY, EvalContext,
                            ExprCompiler, Relation, RowOnly, RuntimeContext,
                            Scope)
from repro.sql.functions import SCALAR_BUILTINS, VOLATILE_FUNCTIONS
from repro.sql.parser import parse_statement
from repro.sql.values import Row


def val(db, expr, params=()):
    return db.query_value(f"SELECT {expr}", params)


class TestArithmetic:
    def test_basics(self, db):
        assert val(db, "1 + 2 * 3") == 7
        assert val(db, "(1 + 2) * 3") == 9
        assert val(db, "10 - 4 - 3") == 3
        assert val(db, "2.5 * 4") == 10.0

    def test_integer_division_truncates_toward_zero(self, db):
        assert val(db, "7 / 2") == 3
        assert val(db, "-7 / 2") == -3
        assert val(db, "7 / 2.0") == 3.5

    def test_modulo_sign_follows_dividend(self, db):
        assert val(db, "7 % 3") == 1
        assert val(db, "-7 % 3") == -1

    def test_division_by_zero(self, db):
        with pytest.raises(ExecutionError, match="division by zero"):
            val(db, "1 / 0")
        with pytest.raises(ExecutionError, match="division by zero"):
            val(db, "1 % 0")

    def test_null_propagation(self, db):
        assert val(db, "1 + NULL") is None
        assert val(db, "NULL * 0") is None
        assert val(db, "-CAST(NULL AS int)") is None

    def test_type_errors(self, db):
        with pytest.raises(TypeError_):
            val(db, "1 + 'a'")
        with pytest.raises(TypeError_):
            val(db, "true + 1")


class TestComparisonAndLogic:
    def test_comparisons(self, db):
        assert val(db, "1 < 2") is True
        assert val(db, "'a' >= 'b'") is False
        assert val(db, "NULL = NULL") is None

    def test_short_circuit_and(self, db):
        # false AND <error> must not evaluate the error side
        assert val(db, "false AND 1/0 = 1") is False

    def test_short_circuit_or(self, db):
        assert val(db, "true OR 1/0 = 1") is True

    def test_null_logic(self, db):
        assert val(db, "NULL AND false") is False
        assert val(db, "NULL OR true") is True
        assert val(db, "NULL AND true") is None
        assert val(db, "NOT CAST(NULL AS bool)") is None

    def test_is_predicates(self, db):
        assert val(db, "NULL IS NULL") is True
        assert val(db, "1 IS NOT NULL") is True
        assert val(db, "CAST(NULL AS bool) IS TRUE") is False
        assert val(db, "false IS NOT TRUE") is True

    def test_is_distinct_from(self, db):
        assert val(db, "NULL IS DISTINCT FROM NULL") is False
        assert val(db, "1 IS DISTINCT FROM NULL") is True
        assert val(db, "1 IS NOT DISTINCT FROM 1") is True

    def test_between(self, db):
        assert val(db, "5 BETWEEN 1 AND 10") is True
        assert val(db, "0 NOT BETWEEN 1 AND 10") is True
        assert val(db, "NULL BETWEEN 1 AND 2") is None
        # partial knowledge: 5 >= 1 is true but high bound is NULL
        assert val(db, "5 BETWEEN 1 AND NULL") is None
        assert val(db, "0 BETWEEN 1 AND NULL") is False

    def test_in_list_three_valued(self, db):
        assert val(db, "2 IN (1, 2, 3)") is True
        assert val(db, "5 IN (1, 2, NULL)") is None
        assert val(db, "5 NOT IN (1, 2)") is True
        assert val(db, "5 NOT IN (1, NULL)") is None


class TestStringsAndPatterns:
    def test_concat(self, db):
        assert val(db, "'a' || 'b'") == "ab"
        assert val(db, "'n=' || 5") == "n=5"
        assert val(db, "'x' || NULL") is None

    def test_like(self, db):
        assert val(db, "'hello' LIKE 'h%'") is True
        assert val(db, "'hello' LIKE '_ello'") is True
        assert val(db, "'hello' LIKE 'H%'") is False
        assert val(db, "'hello' ILIKE 'H%'") is True
        assert val(db, "'a.c' LIKE 'a.c'") is True
        assert val(db, "'abc' LIKE 'a.c'") is False  # dot is literal
        assert val(db, "'a%b' LIKE 'a\\%b'") is True

    @pytest.mark.parametrize("vectorize", ["on", "off"])
    @pytest.mark.parametrize("expr, error", [
        ("5 LIKE 'a'", TypeError_),
        ("y LIKE 1", TypeError_),
        ("x NOT ILIKE y", TypeError_),
        ("substr(y, 'q')", ExecutionError),
        ("left('abc', 'q')", ExecutionError),
        ("chr('x')", ExecutionError),
        ("power('a', 2)", ExecutionError),
        ("repeat(y, 'x')", ExecutionError),
        ("length(y, y)", PlanError),  # arity, refused at plan time
    ])
    def test_ill_typed_operands_raise_classified_errors(self, tdb, vectorize,
                                                        expr, error):
        # Python's TypeError / ValueError / OverflowError must not leak out
        # of a kernel: a wire client would see XX000, and the vectorized
        # core's row fallback only nets SqlError.
        tdb.execute(f"SET enable_vectorize = {vectorize}")
        with pytest.raises(error):
            tdb.query_all(f"SELECT {expr} FROM t")

    def test_string_functions(self, db):
        assert val(db, "length('abc')") == 3
        assert val(db, "substr('hello', 2, 3)") == "ell"
        assert val(db, "substr('hello', 2)") == "ello"
        assert val(db, "substr('hello', 0, 3)") == "he"  # 1-based tolerance
        assert val(db, "left('hello', 2)") == "he"
        assert val(db, "right('hello', 2)") == "lo"
        assert val(db, "upper('aB')") == "AB"
        assert val(db, "replace('aaa', 'a', 'b')") == "bbb"
        assert val(db, "repeat('ab', 3)") == "ababab"
        assert val(db, "reverse('abc')") == "cba"
        assert val(db, "strpos('hello', 'll')") == 3
        assert val(db, "trim('  x  ')") == "x"

    def test_concat_function_ignores_nulls(self, db):
        assert val(db, "concat('a', NULL, 'b', 1)") == "ab1"


class TestConditionals:
    def test_case_searched(self, db):
        assert val(db, "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' END") == "b"
        assert val(db, "CASE WHEN false THEN 1 END") is None

    def test_case_simple_null_never_matches(self, db):
        assert val(db, "CASE CAST(NULL AS int) WHEN NULL THEN 'x' "
                       "ELSE 'no' END") == "no"

    def test_case_lazy(self, db):
        assert val(db, "CASE WHEN true THEN 1 ELSE 1/0 END") == 1

    def test_coalesce_lazy(self, db):
        assert val(db, "coalesce(1, 1/0)") == 1
        assert val(db, "coalesce(NULL, NULL, 3)") == 3
        assert val(db, "coalesce(CAST(NULL AS int))") is None

    def test_nullif_greatest_least(self, db):
        assert val(db, "nullif(1, 1)") is None
        assert val(db, "nullif(1, 2)") == 1
        assert val(db, "greatest(1, NULL, 3)") == 3
        assert val(db, "least(5, 2, NULL)") == 2


class TestMathFunctions:
    def test_numeric_builtins(self, db):
        assert val(db, "sign(-5)") == -1
        assert val(db, "sign(0)") == 0
        assert val(db, "abs(-3.5)") == 3.5
        assert val(db, "floor(1.7)") == 1
        assert val(db, "ceil(1.2)") == 2
        assert val(db, "round(2.5)") == 3  # half away from zero
        assert val(db, "round(-2.5)") == -3
        assert val(db, "round(2.345, 2)") == 2.35
        assert val(db, "trunc(1.9)") == 1
        assert val(db, "power(2, 10)") == 1024.0
        assert val(db, "mod(9, 4)") == 1
        assert val(db, "sqrt(16)") == 4.0

    def test_sqrt_negative_errors(self, db):
        with pytest.raises(ExecutionError):
            val(db, "sqrt(-1)")

    def test_random_seeded(self, db):
        db.reseed(99)
        first = val(db, "random()")
        db.reseed(99)
        assert val(db, "random()") == first
        assert 0.0 <= first < 1.0


class TestArraysAndRows:
    def test_array_literal_and_index(self, db):
        assert val(db, "(array[10, 20, 30])[2]") == 20
        assert val(db, "(array[1])[5]") is None  # out of range -> NULL
        assert val(db, "(array[1])[0]") is None

    def test_array_functions(self, db):
        assert val(db, "cardinality(array[1,2,3])") == 3
        assert val(db, "array_length(array[1,2], 1)") == 2
        assert val(db, "array_append(array[1], 2)") == [1, 2]
        assert val(db, "string_to_array('a,b', ',')") == ["a", "b"]
        assert val(db, "array_to_string(array['a','b'], '-')") == "a-b"

    def test_array_concat(self, db):
        assert val(db, "array[1] || array[2, 3]") == [1, 2, 3]
        assert val(db, "array[1] || 2") == [1, 2]

    def test_row_construction_and_field(self, db):
        db.execute("CREATE TYPE pt AS (x int, y int)")
        assert val(db, "(row(3, 4)::pt).y") == 4
        assert val(db, "row(1, 2) = row(1, 2)") is True
        assert val(db, "(1, 2) < (1, 3)") is True

    def test_cast_rules(self, db):
        assert val(db, "CAST('42' AS int)") == 42
        assert val(db, "CAST(3.7 AS int)") == 4  # rounds
        assert val(db, "CAST(-3.5 AS int)") == -4
        assert val(db, "CAST(1 AS text)") == "1"
        assert val(db, "CAST('t' AS bool)") is True
        assert val(db, "CAST('off' AS bool)") is False
        assert val(db, "CAST(NULL AS int)") is None
        with pytest.raises(TypeError_):
            val(db, "CAST('nope' AS int)")


class TestParams:
    def test_positional_params(self, db):
        assert db.query_value("SELECT $1 + $2", [3, 4]) == 7
        assert db.query_value("SELECT $2", ["a", "b"]) == "b"

    def test_missing_param_errors(self, db):
        with pytest.raises(ExecutionError, match="parameter"):
            db.query_value("SELECT $3", [1])


# ---------------------------------------------------------------------------
# The kernel table: completeness, and row form == batch form
# ---------------------------------------------------------------------------

_PT = Row((3, 4), names=("x", "y"), type_name="pt")

#: Column values: NULL, bool, int, bigint edges, float incl. NaN/inf, text,
#: arrays, rows.
POOL = [None, None, True, False, 0, 1, -1, 3, 7, -7, 2 ** 63 - 1, -2 ** 63,
        2 ** 63, 0.0, 1.5, -2.5, float("nan"), float("inf"), float("-inf"),
        "", "a", "abc", "a%", "A_", "5", [], [1, 2], [None, "x"],
        Row((1, 2)), Row((1, None)), _PT]


def _forms() -> list:
    """Expressions over columns x, y, z reaching every vectorizable table
    entry: every operator, with column and with literal arguments, and
    every builtin with zero to three arguments."""
    texts = ["x", "42", "'s'", "NULL", "$1", "x || y", "x || 'lit'",
             "-x", "+x", "NOT x", "x IS NULL", "x IS NOT NULL",
             "x IS TRUE", "x IS NOT TRUE", "x IS FALSE", "x IS NOT FALSE",
             "x BETWEEN y AND z", "x NOT BETWEEN 1 AND z",
             "x IN (y, z, 1)", "x NOT IN (y, NULL)", "x IN (1, 3, 'a')",
             "x LIKE y", "x NOT LIKE 'a%'", "x ILIKE 'a_'",
             "CASE WHEN x THEN y ELSE z END",
             "CASE WHEN x > 0 THEN 10 / x END",
             "CASE x WHEN y THEN 1 WHEN z THEN 2 ELSE 3 END",
             "CASE x WHEN 1 THEN y END",
             "coalesce(x, y, z)", "coalesce(x, 1 / y)", "coalesce()",
             "x AND y", "x OR y", "x <> 0 AND 10 / x > 1",
             "x IS NULL OR x > y",
             "row(x, y)", "row()", "array[x, y]", "x[y]", "x[1]",
             "(CAST(x AS pt)).y"]
    for op in _COMPARE:
        texts += [f"x {op} y", f"x {op} 3", f"x {op} 1.5", f"3 {op} y",
                  f"x {op} 'a'"]
    for op in _ARITH:
        texts += [f"x {op} y", f"x {op} 3", f"x {op} (-3)", f"x {op} 0",
                  f"7 {op} y", f"x {op} 2.5"]
    for type_name in ("int", "float", "text", "bool", "pt", "int[]"):
        texts.append(f"CAST(x AS {type_name})")
    cols = [A.ColumnRef((name,)) for name in "xy"]
    forms = [A.RowExpr(cols, type_name="pt"),
             A.RowExpr(cols, type_name="no_such_type")]
    for name in _BUILTINS:
        texts += [f"{name}()", f"{name}(x)", f"{name}(x, y)",
                  f"{name}(x, y, z)", f"{name}(x, 2)"]
    return forms + [
        parse_statement(f"SELECT {text} FROM t").body.items[0].expr
        for text in texts]


_BUILTINS = sorted(set(SCALAR_BUILTINS) - VOLATILE_FUNCTIONS)


def _walk(expr):
    yield expr
    for value in vars(expr).values():
        for item in (value if isinstance(value, (list, tuple)) else [value]):
            for part in (item if isinstance(item, tuple) else [item]):
                if isinstance(part, A.Expr):
                    yield from _walk(part)


def _outcome(thunk):
    try:
        return ("ok", repr(thunk()))
    except Exception as exc:  # noqa: BLE001 — classified just below
        return ("error", error_class(exc))


class TestKernelTable:
    def test_every_expr_node_is_in_the_table_or_row_only(self):
        nodes = {cls for cls in vars(A).values()
                 if isinstance(cls, type) and issubclass(cls, A.Expr)
                 and cls is not A.Expr}
        assert set(KERNELS) | ROW_ONLY == nodes
        assert not set(KERNELS) & ROW_ONLY
        for node in ROW_ONLY:
            assert hasattr(ExprCompiler, "_compile_" + node.__name__)

    def test_forms_reach_every_entry_and_operator(self):
        seen = [node for form in _forms() for node in _walk(form)]
        assert {type(node) for node in seen} == set(KERNELS)
        ops = {node.op for node in seen if isinstance(node, A.BinaryOp)}
        assert ops == set(_COMPARE) | set(_ARITH) | {"and", "or", "||"}

    def test_row_only_entries_have_no_batch_form(self, db):
        db.execute("CREATE FUNCTION inc(n int) RETURNS int AS "
                   "$$ SELECT n + 1 $$ LANGUAGE sql")
        inner = Scope([Relation("t", ["x", "p"])],
                      parent=Scope([Relation("o", ["w"])]))
        for text in ("random()", "inc(x)", "w", "p.f", "(SELECT 1)",
                     "EXISTS (SELECT 1)", "x IN (SELECT 1)",
                     "x + inc(x)", "CASE WHEN x > 0 THEN w END"):
            expr = parse_statement(f"SELECT {text} FROM t").body.items[0].expr
            with pytest.raises(RowOnly):
                ExprCompiler(inner, db.planner).compile_batch(expr)

    def test_row_form_equals_batch_form(self, db):
        """For every vectorizable entry the derived row closure and the
        derived batch function agree — equal values or the same error
        class, never a bare Python error — at batch sizes 1 and n."""
        db.execute("CREATE TYPE pt AS (x int, y int)")
        rng = random.Random(20260926)
        rt = RuntimeContext(db, [5])
        scope = Scope([Relation("t", ["x", "y", "z"])])
        rows = [tuple(rng.choice(POOL) for _ in "xyz") for _ in range(400)]
        # Dense same-class rows, so kernels see more than type errors.
        for kind in (int, float, str, bool, list):
            same = [v for v in POOL if type(v) is kind]
            rows += [tuple(rng.choice(same + [None]) for _ in "xyz")
                     for _ in range(40)]
        for form in _forms():
            compiler = ExprCompiler(scope)
            try:
                row_fn = compiler.compile(form)
            except PlanError:
                # A plan-time error (a builtin's arity) is both forms'
                # outcome.
                with pytest.raises(PlanError):
                    compiler.compile_batch(form)
                continue
            batch_fn = compiler.compile_batch(form)
            per_row = [_outcome(lambda: row_fn(EvalContext(rt, (row,))))
                       for row in rows]
            assert ("error", CRASH) not in per_row, form
            for row, expected in zip(rows, per_row):
                single = _outcome(
                    lambda: batch_fn(Batch([[row]], 1, rt, [None]), None)[0])
                assert single == expected, (form, row)
            # Size n: the batch form raises at its first failing row, so
            # run it over exactly the rows the row form evaluated cleanly.
            ok = [i for i, (status, _) in enumerate(per_row)
                  if status == "ok"]
            column = batch_fn(Batch([rows], len(rows), rt, [None]),
                              None if len(ok) == len(rows) else ok)
            assert [repr(v) for v in column] == [per_row[i][1] for i in ok], \
                form
