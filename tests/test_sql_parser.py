"""Unit tests for the SQL parser (AST shapes and error reporting)."""

import pytest

import contextlib
import inspect
import random
import re
import signal
import time

from repro.plsql.parser import parse_plpgsql_body
from repro.sql import ast as A
from repro.sql import lexer
from repro.sql.engine import Database
from repro.sql.errors import ParseError, SqlError
from repro.sql.parser import (_CLAUSE_KEYWORDS, OPERATORS, PUNCTUATION,
                              SqlParser, parse_expression, parse_script,
                              parse_select, parse_statement)
from repro.sql.planner import Planner


class TestExpressions:
    def test_precedence_arithmetic(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, A.BinaryOp) and e.op == "+"
        assert isinstance(e.right, A.BinaryOp) and e.right.op == "*"

    def test_precedence_logic(self):
        e = parse_expression("a or b and not c")
        assert e.op == "or"
        assert e.right.op == "and"
        assert isinstance(e.right.right, A.UnaryOp)

    def test_comparison_chain(self):
        e = parse_expression("a <= b")
        assert e.op == "<="
        assert parse_expression("a != b").op == "<>"  # normalised

    def test_unary_minus_folds_literal(self):
        e = parse_expression("-5")
        assert isinstance(e, A.Literal) and e.value == -5

    def test_between(self):
        e = parse_expression("x between 1 and 10")
        assert isinstance(e, A.Between) and not e.negated
        assert parse_expression("x not between 1 and 2").negated

    def test_in_list_and_subquery(self):
        e = parse_expression("x in (1, 2, 3)")
        assert isinstance(e, A.InList) and len(e.items) == 3
        e2 = parse_expression("x not in (select y from t)")
        assert isinstance(e2, A.InSubquery) and e2.negated

    def test_is_null_true_false(self):
        assert isinstance(parse_expression("x is null"), A.IsNull)
        assert parse_expression("x is not null").negated
        e = parse_expression("x is true")
        assert isinstance(e, A.IsBool) and e.value is True

    def test_like(self):
        e = parse_expression("name like 'a%'")
        assert isinstance(e, A.Like) and not e.case_insensitive
        assert parse_expression("name ilike 'a%'").case_insensitive

    def test_case_searched_and_simple(self):
        e = parse_expression("case when a then 1 when b then 2 else 3 end")
        assert isinstance(e, A.CaseExpr) and e.operand is None
        assert len(e.whens) == 2
        e2 = parse_expression("case x when 1 then 'one' end")
        assert e2.operand is not None and e2.else_result is None

    def test_cast_both_syntaxes(self):
        assert isinstance(parse_expression("cast(x as int)"), A.Cast)
        e = parse_expression("x::double precision")
        assert isinstance(e, A.Cast) and e.type_name == "double precision"

    def test_row_and_array(self):
        assert isinstance(parse_expression("row(1, 2)"), A.RowExpr)
        assert isinstance(parse_expression("(1, 2)"), A.RowExpr)
        e = parse_expression("array[1, 2][2]")
        assert isinstance(e, A.ArrayIndex)

    def test_column_path(self):
        e = parse_expression("a.b.c")
        assert isinstance(e, A.ColumnRef) and e.parts == ("a", "b", "c")

    def test_field_access_on_expression(self):
        e = parse_expression("(row(1,2)::coord).x")
        assert isinstance(e, A.FieldAccess)

    def test_function_calls(self):
        e = parse_expression("count(*)")
        assert isinstance(e, A.FuncCall) and e.star
        e2 = parse_expression("count(distinct x)")
        assert e2.distinct
        e3 = parse_expression("coalesce(a, b, 0)")
        assert len(e3.args) == 3

    def test_window_over_inline_and_named(self):
        e = parse_expression("sum(x) over (partition by g order by y desc)")
        assert isinstance(e.window, A.WindowSpec)
        assert e.window.order_by[0].descending
        e2 = parse_expression("sum(x) over w")
        assert e2.window == "w"

    def test_frame_with_exclusion(self):
        e = parse_expression(
            "sum(x) over (order by y rows unbounded preceding "
            "exclude current row)")
        frame = e.window.frame
        assert frame.mode == "rows"
        assert frame.start.kind == "unbounded_preceding"
        assert frame.exclusion == "current row"

    def test_frame_between(self):
        e = parse_expression(
            "sum(x) over (order by y rows between 1 preceding and 2 following)")
        frame = e.window.frame
        assert frame.start.kind == "preceding"
        assert frame.end.kind == "following"

    def test_exists_and_scalar_subquery(self):
        assert isinstance(parse_expression("exists (select 1)"), A.Exists)
        assert isinstance(parse_expression("(select 1)"), A.ScalarSubquery)

    def test_params(self):
        e = parse_expression("$1 + $2")
        assert isinstance(e.left, A.Param) and e.left.index == 1

    def test_is_distinct_from_desugars(self):
        e = parse_expression("a is distinct from b")
        assert isinstance(e, A.UnaryOp) and e.op == "not"


class TestSelect:
    def test_minimal(self):
        s = parse_select("SELECT 1")
        assert isinstance(s.body, A.SelectCore)
        assert s.body.from_clause is None

    def test_full_clauses(self):
        s = parse_select("""
            SELECT DISTINCT g, sum(x) AS total
            FROM t
            WHERE x > 0
            GROUP BY g
            HAVING sum(x) > 10
            ORDER BY total DESC NULLS LAST
            LIMIT 5 OFFSET 2""")
        core = s.body
        assert core.distinct and core.where is not None
        assert len(core.group_by) == 1 and core.having is not None
        assert s.order_by[0].descending and s.order_by[0].nulls_first is False
        assert isinstance(s.limit, A.Literal)

    def test_join_varieties(self):
        s = parse_select("SELECT * FROM a JOIN b ON a.x = b.x "
                         "LEFT JOIN c ON b.y = c.y CROSS JOIN d")
        join = s.body.from_clause
        assert isinstance(join, A.Join) and join.kind == "cross"
        assert join.left.kind == "left"
        assert join.left.left.kind == "inner"

    def test_comma_join_is_cross(self):
        s = parse_select("SELECT * FROM a, b")
        assert s.body.from_clause.kind == "cross"

    def test_lateral_subquery(self):
        s = parse_select("SELECT * FROM t, LATERAL (SELECT t.x) AS s(v)")
        right = s.body.from_clause.right
        assert isinstance(right, A.SubqueryRef) and right.lateral
        assert right.column_aliases == ["v"]

    def test_lateral_on_table_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT * FROM LATERAL t")

    def test_named_windows(self):
        s = parse_select("SELECT sum(x) OVER w FROM t "
                         "WINDOW w AS (ORDER BY x), "
                         "v AS (w ROWS UNBOUNDED PRECEDING)")
        assert set(s.body.windows) == {"w", "v"}
        assert s.body.windows["v"].ref_name == "w"

    def test_set_operations(self):
        s = parse_select("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3")
        assert isinstance(s.body, A.SetOp) and s.body.op == "union"
        assert s.body.left.op == "union_all"

    def test_values_body(self):
        s = parse_select("VALUES (1, 'a'), (2, 'b')")
        assert isinstance(s.body, A.ValuesClause)
        assert len(s.body.rows) == 2

    def test_with_recursive(self):
        s = parse_select("WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
                         "SELECT n+1 FROM r) SELECT * FROM r")
        wc = s.with_clause
        assert wc.recursive and not wc.iterate
        assert wc.ctes[0].column_names == ["n"]

    def test_with_iterate(self):
        s = parse_select("WITH ITERATE r(n) AS (SELECT 1 UNION ALL "
                         "SELECT n+1 FROM r) SELECT * FROM r")
        assert s.with_clause.iterate and s.with_clause.recursive

    def test_qualified_star(self):
        s = parse_select("SELECT t.*, x FROM t")
        assert isinstance(s.body.items[0], A.Star)
        assert s.body.items[0].table == "t"

    def test_aliases_without_as(self):
        s = parse_select("SELECT x total FROM t u")
        assert s.body.items[0].alias == "total"
        assert s.body.from_clause.alias == "u"

    def test_parenthesised_select_in_union(self):
        s = parse_select("(SELECT 1) UNION ALL (SELECT 2)")
        assert isinstance(s.body, A.SetOp)


class TestStatements:
    def test_create_table(self):
        s = parse_statement("CREATE TABLE IF NOT EXISTS t("
                            "id int PRIMARY KEY, name varchar(10) NOT NULL)")
        assert isinstance(s, A.CreateTable) and s.if_not_exists
        assert s.columns[1].type_name == "varchar"

    def test_create_type(self):
        s = parse_statement("CREATE TYPE coord AS (x int, y int)")
        assert isinstance(s, A.CreateType) and len(s.fields) == 2

    def test_create_function(self):
        s = parse_statement(
            "CREATE OR REPLACE FUNCTION f(a int, b text) RETURNS int "
            "AS $$ BEGIN RETURN a; END; $$ LANGUAGE plpgsql")
        assert isinstance(s, A.CreateFunction) and s.replace
        assert s.language == "plpgsql" and len(s.params) == 2

    def test_create_function_language_first(self):
        s = parse_statement("CREATE FUNCTION f() RETURNS int "
                            "LANGUAGE SQL AS 'SELECT 1'")
        assert s.language == "sql"

    def test_insert_values_and_select(self):
        s = parse_statement("INSERT INTO t(x, y) VALUES (1, 'a')")
        assert isinstance(s, A.Insert) and s.columns == ["x", "y"]
        s2 = parse_statement("INSERT INTO t SELECT * FROM u")
        assert s2.columns is None

    def test_update_delete(self):
        s = parse_statement("UPDATE t SET x = x + 1, y = 'z' WHERE x > 0")
        assert isinstance(s, A.Update) and len(s.assignments) == 2
        s2 = parse_statement("DELETE FROM t WHERE x = 1")
        assert isinstance(s2, A.Delete)

    def test_drop(self):
        assert isinstance(parse_statement("DROP TABLE IF EXISTS t"), A.DropTable)
        assert isinstance(parse_statement("DROP FUNCTION f"), A.DropFunction)

    def test_script(self):
        statements = parse_script("SELECT 1; SELECT 2;; SELECT 3")
        assert len(statements) == 3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_statement("SELECT 1 SELECT 2")

    def test_empty_case_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("case end")

    @pytest.mark.parametrize("text", ["SELECT 1::int(",
                                      "SELECT CAST(1 AS varchar(10",
                                      "CREATE FUNCTION f() RETURNS in(t"])
    def test_unclosed_type_precision_rejected(self, text):
        """A type's precision left open to the end of input raises; it
        spun forever looking for its ``)``."""
        with deadline(1.0), pytest.raises(ParseError):
            parse_script(text)

    def test_missing_from_alias_ok_for_tables(self):
        s = parse_select("SELECT * FROM (SELECT 1) AS q")
        assert s.body.from_clause.alias == "q"


def col(name):
    return A.ColumnRef((name,))


def lit(value):
    return A.Literal(value)


def op(symbol, left, right):
    return A.BinaryOp(symbol, left, right)


def neg(operand):
    return A.UnaryOp("not", operand)


a, b, c, d, x = (col(name) for name in "abcdx")

#: Precedence and associativity as the ladder of seven methods had them,
#: taken as AST equalities from the commit before the operator table.
PRECEDENCE = [
    ("-2 ^ 2", op("^", lit(-2), lit(2))),
    ("-x ^ 2", op("^", A.UnaryOp("-", x), lit(2))),
    ("- - 1", lit(1)),
    ("a - -1", op("-", a, lit(-1))),
    ("2 ^ 3 ^ 3", op("^", op("^", lit(2), lit(3)), lit(3))),
    ("a + b * c ^ d", op("+", a, op("*", b, op("^", c, d)))),
    ("a * b / c % d", op("%", op("/", op("*", a, b), c), d)),
    ("a || b + c", op("+", op("||", a, b), c)),
    ("a::int + 1", op("+", A.Cast(a, "int"), lit(1))),
    ("a != b", op("<>", a, b)),
    ("a = b = c", op("=", op("=", a, b), c)),
    ("a < b IS NULL", A.IsNull(op("<", a, b))),
    ("NOT a = b", neg(op("=", a, b))),
    ("NOT NOT x", neg(neg(x))),
    ("NOT a AND b", op("and", neg(a), b)),
    ("NOT a BETWEEN 1 AND 2", neg(A.Between(a, lit(1), lit(2)))),
    ("a = b OR c", op("or", op("=", a, b), c)),
    ("a OR b AND NOT c", op("or", a, op("and", b, neg(c)))),
    ("a BETWEEN b AND c AND d", op("and", A.Between(a, b, c), d)),
    ("x NOT IN (1, 2)", A.InList(x, [lit(1), lit(2)], True)),
    ("x NOT LIKE 'a' || 'b'",
     A.Like(x, op("||", lit("a"), lit("b")), True, False)),
    ("a IS NOT DISTINCT FROM b + 1",
     op("or",
        op("and", A.IsNull(a), A.IsNull(op("+", b, lit(1)))),
        op("and",
           op("and", A.IsNull(a, True), A.IsNull(op("+", b, lit(1)), True)),
           op("=", a, op("+", b, lit(1)))))),
]


class TestOperatorTable:
    @pytest.mark.parametrize("text, expected", PRECEDENCE,
                             ids=[text for text, _ in PRECEDENCE])
    def test_precedence_and_associativity(self, text, expected):
        assert parse_expression(text) == expected

    def test_range_dots_end_a_plpgsql_bound(self):
        _, [loop] = parse_plpgsql_body(
            "BEGIN FOR i IN 1..n+1 BY 2 LOOP NULL; END LOOP; END")
        assert (loop.start, loop.stop, loop.step) == \
            (lit(1), op("+", col("n"), lit(1)), lit(2))

    def test_every_lexer_operator_is_filed(self):
        """What the token pattern can emit as OP is an operator of the
        table or declared punctuation, never both, never neither."""
        symbols = {name for name, row in OPERATORS.items()
                   if row.type == lexer.OP}
        assert symbols | PUNCTUATION == set(lexer.OPERATORS)
        assert not symbols & PUNCTUATION
        emitted = lexer.tokenize(" ".join(lexer.OPERATORS))[:-1]
        assert [(t.type, t.value) for t in emitted] == \
            [(lexer.OP, symbol) for symbol in lexer.OPERATORS]

    def test_keyword_operators_cannot_be_aliases(self):
        words = {name for name, row in OPERATORS.items()
                 if row.type == lexer.IDENT}
        assert words and words <= _CLAUSE_KEYWORDS
        assert all(name.isalpha() == (row.type == lexer.IDENT)
                   for name, row in OPERATORS.items())


class TestStatementTable:
    def test_every_row_is_complete(self):
        assert A.Statement.__args__ == tuple(A.STATEMENTS)
        rules = {}
        for node, row in A.STATEMENTS.items():
            assert row.node is node and inspect.isclass(node)
            assert row.keywords, node
            assert callable(getattr(SqlParser, row.parse)), row.parse
            for keyword in row.keywords:  # one keyword, one rule
                assert rules.setdefault(keyword, row.parse) == row.parse
            if row.plan is not None:  # run as a plan, by Database._run
                assert row.run is None, node
                assert callable(getattr(Planner, row.plan)), row.plan
            else:
                handler = inspect.signature(getattr(Database, row.run))
                assert list(handler.parameters) == \
                    ["self", "stmt", "params", "session"], row.run
            if node is A.ExecuteStmt:  # runs, and is tagged as, another
                assert row.kind is None and row.tag is None
            else:
                assert row.kind in (A.ROWS, A.COUNT, A.UTILITY), node
                assert row.tag.format(n=3), node
                if row.kind == A.COUNT:  # the affected-row count is sent
                    assert row.tag.format(n=3).endswith(" 3"), node

    def test_what_is_not_in_the_table_is_rejected(self):
        with pytest.raises(Exception, match="unsupported statement object"):
            Database().execute_ast(object())
        with pytest.raises(ParseError, match="unexpected start of statement"):
            parse_statement("VACUUM")
        with pytest.raises(ParseError, match="unexpected start of statement"):
            parse_statement('"select" 1')


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError inside the block once *seconds* have passed.  An
    enclosing real-time timer (pytest-timeout's) gets back what is left
    of its own time afterwards."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            left = outer - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


#: Words, numbers, quoted strings, dollar-quote marks, two-character
#: operators, whitespace runs and single characters: what a token-level
#: mutant moves as one piece.
TOKEN = re.compile(r"\s+|\w+|'(?:[^']|'')*'|\$\$|::|:=|<>|<=|>=|\|\||.",
                   re.S)
#: Characters a byte-level mutant inserts, and tokens a token-level one
#: inserts or substitutes half the time (else one of the text's own): the
#: marks the grammar pairs or separates with.
CHARACTERS = "()[],;:'\"$.=<>+-*/%|_ a9\n"
MARKS = ("(", ")", "[", "]", ",", ";", "::", "'", "$$")


def mutants(rng: random.Random, text: str):
    """Single-edit mutants of *text*, one per token: half delete, insert
    or duplicate a character, half delete, duplicate, insert, replace or
    swap a token."""
    tokens = TOKEN.findall(text)
    for n in range(len(tokens)):
        if n % 2 == 0:
            i = rng.randrange(len(text))
            middle = rng.choice(("", rng.choice(CHARACTERS) + text[i],
                                 text[i] * 2))
            yield text[:i] + middle + text[i + 1:]
            continue
        out = list(tokens)
        i = rng.randrange(len(out))
        new = rng.choice(MARKS if rng.random() < 0.5 else tokens)
        edit = rng.choice(("delete", "duplicate", "insert", "replace",
                           "swap"))
        if edit == "delete":
            del out[i]
        elif edit == "duplicate":
            out.insert(i, out[i])
        elif edit == "insert":
            out.insert(i, new)
        elif edit == "replace":
            out[i] = new
        elif i + 1 < len(out):
            out[i], out[i + 1] = out[i + 1], out[i]
        yield "".join(out)


def fuzz_texts(cases: int):
    """The setup DDL, function sources, queries and modifications of the
    first *cases* fuzz cases of seed 0."""
    from repro.fuzz import generate_case
    for index in range(cases):
        case = generate_case(0, index)
        yield from case.setup_statements()
        yield from (fn.source for fn in case.functions)
        yield from (query.variants({})[0][2] for query in case.queries)
        yield from (modification.sql for modification in case.modifications)


class TestMutatedFuzzTexts:
    def test_only_sql_errors_escape_and_every_parse_ends(self):
        """Single-edit mutants of generated texts either parse or raise a
        SqlError, each within a second - statement and PL/pgSQL body
        alike.  (An uncaught exception is a crash to the fuzzer's
        taxonomy; a parse that never ends pins a server worker, since
        ``statement_timeout`` is armed only after the parse.)"""
        rng = random.Random(0)
        checked = 0
        for text in fuzz_texts(20):
            for mutant in mutants(rng, text):
                try:
                    with deadline(1.0):
                        for statement in parse_script(mutant):
                            if isinstance(statement, A.CreateFunction) \
                                    and statement.language == "plpgsql":
                                parse_plpgsql_body(statement.body)
                except SqlError:
                    pass
                except Exception as error:
                    pytest.fail(f"{type(error).__name__}: {error} "
                                f"parsing {mutant!r}")
                checked += 1
        assert checked > 5000
