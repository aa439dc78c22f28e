"""Recursive-descent parser for the engine's SQL dialect.

The grammar covers the SQL surface the paper's pipeline needs — and then
some:

* SELECT / FROM / WHERE / GROUP BY / HAVING / WINDOW / ORDER BY / LIMIT /
  OFFSET, DISTINCT, set operations (UNION [ALL], INTERSECT, EXCEPT),
* ``WITH [RECURSIVE | ITERATE]`` common table expressions,
* joins: comma, CROSS/INNER/LEFT [OUTER] JOIN, ``LEFT JOIN LATERAL ... ON``,
* window functions with named windows, frame clauses, and
  ``EXCLUDE CURRENT ROW`` (the paper's Q2 uses all of these),
* scalar subqueries, EXISTS, IN, BETWEEN, LIKE/ILIKE, IS [NOT] NULL/TRUE,
* CASE (simple and searched), CAST and ``::``, ROW(...), ARRAY[...],
  subscripting, composite field access,
* DDL/DML: CREATE TABLE / TYPE / FUNCTION, INSERT, UPDATE, DELETE, DROP.

Entry points: :func:`parse_statement`, :func:`parse_select`,
:func:`parse_expression`, :func:`parse_script`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional

from . import ast as A
from .errors import ParseError
from .lexer import EOF, IDENT, NUMBER, OP, PARAM, QIDENT, STRING, TokenStream

# Keywords that terminate an expression / cannot start an alias.
_CLAUSE_KEYWORDS = {
    "from", "where", "group", "having", "order", "limit", "offset", "union",
    "intersect", "except", "window", "on", "join", "inner", "left", "right",
    "full", "cross", "lateral", "as", "when", "then", "else", "end", "and",
    "or", "not", "in", "between", "like", "ilike", "is", "asc", "desc",
    "nulls", "using", "returning", "loop", "do", "values", "set", "into",
    "partition", "rows", "range", "groups", "exclude", "over", "filter",
    "by", "all", "distinct", "case", "cast", "exists", "array", "row",
    "reverse", "to", "for", "while", "if", "elsif", "return",
}

_TYPE_KEYWORDS_TWO_WORDS = {("double", "precision"), ("character", "varying")}

_CONSTANTS = {"true": True, "false": False, "null": None}

#: Leading keyword (or ``(``) -> name of the rule that parses the statement.
_STATEMENT_RULES = {keyword: row.parse for row in A.STATEMENTS.values()
                    for keyword in row.keywords}

# Binding powers, loosest first.  PostgreSQL's order: ^ binds tighter than
# * / % and associates left (2 ^ 3 ^ 3 = 512).
_OR, _AND, _COMPARISON, _ADDITIVE, _MULTIPLICATIVE, _POWER = range(1, 7)


class Operator(NamedTuple):
    """One row of :data:`OPERATORS`."""

    type: str    # IDENT for a keyword, OP for a symbol
    power: int   # binding power
    #: ``(left, right) -> node``; None for the keywords that start a
    #: comparison-level tail with a grammar of its own.
    build: Optional[Callable[[A.Expr, A.Expr], A.Expr]]


def _infix(type: str, power: int, op: str) -> Operator:
    return Operator(type, power, partial(A.BinaryOp, op))


_TAIL = Operator(IDENT, _COMPARISON, None)

#: THE operator table: token value -> row.  ``_expr`` is driven by it; what
#: the lexer calls an operator and this table does not is PUNCTUATION.
OPERATORS: dict[str, Operator] = {
    "or": _infix(IDENT, _OR, "or"),
    "and": _infix(IDENT, _AND, "and"),
    "=": _infix(OP, _COMPARISON, "="),
    "<>": _infix(OP, _COMPARISON, "<>"),
    "!=": _infix(OP, _COMPARISON, "<>"),
    "<": _infix(OP, _COMPARISON, "<"),
    "<=": _infix(OP, _COMPARISON, "<="),
    ">": _infix(OP, _COMPARISON, ">"),
    ">=": _infix(OP, _COMPARISON, ">="),
    "is": _TAIL, "not": _TAIL, "between": _TAIL, "in": _TAIL,
    "like": _TAIL, "ilike": _TAIL,
    "+": _infix(OP, _ADDITIVE, "+"),
    "-": _infix(OP, _ADDITIVE, "-"),
    "||": _infix(OP, _ADDITIVE, "||"),
    "*": _infix(OP, _MULTIPLICATIVE, "*"),
    "/": _infix(OP, _MULTIPLICATIVE, "/"),
    "%": _infix(OP, _MULTIPLICATIVE, "%"),
    "^": _infix(OP, _POWER, "^"),
}

#: The lexer's other OP tokens: grouping, separators, casts, subscripts and
#: PL/pgSQL's ``:=`` / ``..`` - matched by name where a rule expects them.
PUNCTUATION = frozenset({"(", ")", "[", "]", ",", ";", ".", ":", "::", ":=",
                         "..", "=>"})


class SqlParser:
    """Stateful wrapper pairing a :class:`TokenStream` with grammar rules."""

    def __init__(self, stream: TokenStream):
        self.ts = stream

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def parse_statement(self) -> A.Statement:
        token = self.ts.peek()
        rule = _STATEMENT_RULES.get(token.value) \
            if token.type in (IDENT, OP) else None
        if rule is None:
            raise self.ts.error(f"unexpected start of statement: {token}")
        return getattr(self, rule)()

    def parse_script(self) -> list[A.Statement]:
        """Parse a ``;``-separated sequence of statements."""
        statements = []
        while True:
            while self.ts.accept_op(";"):
                pass
            if self.ts.at_end():
                break
            statements.append(self.parse_statement())
        return statements

    def expect_end(self, what: str) -> None:
        if not self.ts.at_end():
            raise self.ts.error(
                f"trailing input after {what}: {self.ts.peek()}")

    # ------------------------------------------------------------------
    # Comma-separated lists
    # ------------------------------------------------------------------

    def _list(self, rule) -> list:
        """``rule [, rule]...``"""
        items = [rule()]
        while self.ts.accept_op(","):
            items.append(rule())
        return items

    def _parenthesised(self, rule, close: str = ")") -> list:
        """``rule [, rule]... )`` with the opener already consumed."""
        items = self._list(rule)
        self.ts.expect_op(close)
        return items

    def _arguments(self, close: str = ")") -> list[A.Expr]:
        """``[expr [, expr]...] )`` with the opener already consumed."""
        if self.ts.accept_op(close):
            return []
        return self._parenthesised(self.parse_expression, close)

    def _names(self, what: str) -> list[str]:
        """``name [, name]... )`` with the opener already consumed."""
        return self._parenthesised(partial(self.ts.expect_ident, what))

    # ------------------------------------------------------------------
    # Transaction control and other one-line statements
    # ------------------------------------------------------------------

    def _accept_txn_noise(self) -> None:
        """Swallow the optional ``WORK`` / ``TRANSACTION`` keyword."""
        self.ts.accept_keyword("work") or self.ts.accept_keyword("transaction")

    def _parse_begin(self) -> A.BeginStmt:
        ts = self.ts
        if ts.accept_keyword("start"):
            ts.expect_keyword("transaction")
        else:
            ts.expect_keyword("begin")
            self._accept_txn_noise()
        return A.BeginStmt()

    def _parse_commit(self) -> A.CommitStmt:
        self.ts.advance()  # COMMIT or END
        self._accept_txn_noise()
        return A.CommitStmt()

    def _parse_rollback(self) -> A.RollbackStmt:
        ts = self.ts
        ts.advance()  # ROLLBACK or ABORT
        self._accept_txn_noise()
        savepoint = None
        if ts.accept_keyword("to"):
            ts.accept_keyword("savepoint")
            savepoint = ts.expect_ident("savepoint name")
        return A.RollbackStmt(savepoint)

    def _parse_savepoint(self) -> A.SavepointStmt:
        self.ts.advance()
        return A.SavepointStmt(self.ts.expect_ident("savepoint name"))

    def _parse_release(self) -> A.ReleaseStmt:
        self.ts.advance()
        self.ts.accept_keyword("savepoint")
        return A.ReleaseStmt(self.ts.expect_ident("savepoint name"))

    def _parse_checkpoint(self) -> A.CheckpointStmt:
        self.ts.advance()
        return A.CheckpointStmt()

    def _parse_check_function(self) -> A.CheckFunctionStmt:
        ts = self.ts
        ts.advance()
        ts.expect_keyword("function")
        return A.CheckFunctionStmt(self._name_or_all("function name"))

    def _parse_explain(self) -> A.ExplainStmt:
        self.ts.advance()
        return A.ExplainStmt(self.parse_statement())

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def parse_select(self) -> A.SelectStmt:
        with_clause = self._parse_with_clause()
        body = self._parse_set_expr()
        order_by: list[A.SortItem] = []
        limit = offset = None
        if self.ts.accept_keyword("order"):
            self.ts.expect_keyword("by")
            order_by = self._parse_sort_items()
        if self.ts.accept_keyword("limit"):
            if not self.ts.accept_keyword("all"):
                limit = self.parse_expression()
        if self.ts.accept_keyword("offset"):
            offset = self.parse_expression()
        return A.SelectStmt(with_clause, body, order_by, limit, offset)

    def _parse_with_clause(self) -> A.WithClause | None:
        if not self.ts.accept_keyword("with"):
            return None
        recursive = bool(self.ts.accept_keyword("recursive"))
        iterate = False
        if not recursive and self.ts.accept_keyword("iterate"):
            recursive = True
            iterate = True
        return A.WithClause(recursive, self._list(self._parse_cte), iterate)

    def _parse_cte(self) -> A.CommonTableExpr:
        name = self.ts.expect_ident("CTE name")
        column_names = None
        if self.ts.accept_op("("):
            column_names = self._names("column name")
        self.ts.expect_keyword("as")
        self.ts.expect_op("(")
        query = self.parse_select()
        self.ts.expect_op(")")
        return A.CommonTableExpr(name, column_names, query)

    def _parse_set_expr(self):
        left = self._parse_set_primary()
        while True:
            if self.ts.at_keyword("union"):
                self.ts.advance()
                op = "union_all" if self.ts.accept_keyword("all") else "union"
            elif self.ts.at_keyword("intersect"):
                self.ts.advance()
                op = "intersect"
            elif self.ts.at_keyword("except"):
                self.ts.advance()
                op = "except"
            else:
                return left
            right = self._parse_set_primary()
            left = A.SetOp(op, left, right)

    def _parse_set_primary(self):
        if self.ts.at_op("("):
            self.ts.advance()
            inner = self.parse_select()
            self.ts.expect_op(")")
            # A parenthesised SELECT in body position: fold trivial wrappers.
            if not inner.order_by and inner.limit is None and inner.offset is None \
                    and inner.with_clause is None:
                return inner.body
            # Keep richer inner queries intact by wrapping as a subquery body.
            return A.SelectCore(items=[A.Star(None)],
                                from_clause=A.SubqueryRef(inner, alias="_paren"))
        if self.ts.at_keyword("values"):
            return self._parse_values()
        return self._parse_select_core()

    def _parse_values(self) -> A.ValuesClause:
        self.ts.expect_keyword("values")
        return A.ValuesClause(self._list(self._parse_values_row))

    def _parse_values_row(self) -> list[A.Expr]:
        self.ts.expect_op("(")
        return self._parenthesised(self.parse_expression)

    def _parse_select_core(self) -> A.SelectCore:
        self.ts.expect_keyword("select")
        return self._parse_select_core_after_keyword()

    def _parse_select_core_after_keyword(self) -> A.SelectCore:
        """Parse a SELECT core with the SELECT keyword already consumed
        (also used by PL/pgSQL's PERFORM, which has SELECT-list syntax)."""
        distinct = False
        if self.ts.accept_keyword("distinct"):
            distinct = True
        elif self.ts.accept_keyword("all"):
            pass
        items = self._list(self._parse_select_item)
        from_clause = None
        if self.ts.accept_keyword("from"):
            from_clause = self._parse_table_expr()
        where = None
        if self.ts.accept_keyword("where"):
            where = self.parse_expression()
        group_by: list[A.Expr] = []
        if self.ts.accept_keyword("group"):
            self.ts.expect_keyword("by")
            group_by = self._list(self.parse_expression)
        having = None
        if self.ts.accept_keyword("having"):
            having = self.parse_expression()
        windows: dict[str, A.WindowSpec] = {}
        if self.ts.accept_keyword("window"):
            while True:
                name = self.ts.expect_ident("window name")
                self.ts.expect_keyword("as")
                self.ts.expect_op("(")
                windows[name] = self._parse_window_spec()
                self.ts.expect_op(")")
                if not self.ts.accept_op(","):
                    break
        return A.SelectCore(items, from_clause, where, group_by, having,
                            distinct, windows)

    def _parse_select_item(self):
        ts = self.ts
        if ts.at_op("*"):
            ts.advance()
            return A.Star(None)
        # Look for "ident(.ident)*.*" which is a qualified star.
        mark = ts.save()
        if ts.peek().type in (IDENT, QIDENT):
            parts = [ts.advance().value]
            while ts.at_op(".") and ts.peek(1).type in (IDENT, QIDENT, OP):
                if ts.peek(1).type == OP and ts.peek(1).value == "*":
                    ts.advance()  # '.'
                    ts.advance()  # '*'
                    return A.Star(str(parts[-1]))
                if ts.peek(1).type in (IDENT, QIDENT):
                    ts.advance()
                    parts.append(ts.advance().value)
                else:
                    break
            ts.restore(mark)
        expr = self.parse_expression()
        alias = None
        if ts.accept_keyword("as"):
            alias = ts.expect_ident("column alias")
        elif ts.peek().type == QIDENT or (
                ts.peek().type == IDENT and ts.peek().value not in _CLAUSE_KEYWORDS):
            alias = ts.expect_ident("column alias")
        return A.SelectItem(expr, alias)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------

    def _parse_table_expr(self) -> A.TableRef:
        left = self._parse_table_primary()
        while True:
            ts = self.ts
            if ts.accept_op(","):
                right = self._parse_table_primary()
                left = A.Join("cross", left, right)
                continue
            if ts.at_keyword("cross"):
                ts.advance()
                ts.expect_keyword("join")
                right = self._parse_table_primary()
                left = A.Join("cross", left, right)
                continue
            kind = None
            if ts.at_keyword("join") or ts.at_keyword("inner"):
                if ts.accept_keyword("inner"):
                    pass
                ts.expect_keyword("join")
                kind = "inner"
            elif ts.at_keyword("left"):
                ts.advance()
                ts.accept_keyword("outer")
                ts.expect_keyword("join")
                kind = "left"
            else:
                return left
            right = self._parse_table_primary()
            condition = None
            if ts.accept_keyword("on"):
                condition = self.parse_expression()
            left = A.Join(kind, left, right, condition)

    def _parse_table_primary(self) -> A.TableRef:
        ts = self.ts
        lateral = bool(ts.accept_keyword("lateral"))
        if ts.at_op("("):
            ts.advance()
            if ts.at_keyword("select", "with", "values") or ts.at_op("("):
                query = self.parse_select()
                ts.expect_op(")")
                alias, column_aliases = self._parse_table_alias(required=False)
                return A.SubqueryRef(query, alias or "_anon", column_aliases, lateral)
            # Parenthesised join tree.
            inner = self._parse_table_expr()
            ts.expect_op(")")
            return inner
        name = ts.expect_ident("table name")
        alias, column_aliases = self._parse_table_alias(required=False)
        if lateral:
            raise ts.error("LATERAL requires a subquery")
        return A.TableName(name, alias, column_aliases)

    def _parse_table_alias(self, required: bool):
        ts = self.ts
        alias = None
        if ts.accept_keyword("as"):
            alias = ts.expect_ident("table alias")
        elif ts.peek().type == QIDENT or (
                ts.peek().type == IDENT and ts.peek().value not in _CLAUSE_KEYWORDS):
            alias = ts.expect_ident("table alias")
        elif required:
            raise ts.error("subquery in FROM must have an alias")
        column_aliases = None
        if alias is not None and ts.accept_op("("):
            column_aliases = self._names("column alias")
        return alias, column_aliases

    # ------------------------------------------------------------------
    # Window specifications
    # ------------------------------------------------------------------

    def _parse_window_spec(self) -> A.WindowSpec:
        ts = self.ts
        spec = A.WindowSpec()
        # Optional base window name (must not be PARTITION/ORDER/frame word).
        if ts.peek().type == IDENT and ts.peek().value not in (
                "partition", "order", "rows", "range", "groups") \
                and not ts.at_op(")"):
            spec.ref_name = ts.expect_ident("window name")
        if ts.accept_keyword("partition"):
            ts.expect_keyword("by")
            spec.partition_by = self._list(self.parse_expression)
        if ts.accept_keyword("order"):
            ts.expect_keyword("by")
            spec.order_by = self._parse_sort_items()
        if ts.at_keyword("rows", "range", "groups"):
            spec.frame = self._parse_frame_spec()
        return spec

    def _parse_frame_spec(self) -> A.FrameSpec:
        ts = self.ts
        mode = ts.advance().value  # rows | range | groups
        if ts.accept_keyword("between"):
            start = self._parse_frame_bound()
            ts.expect_keyword("and")
            end = self._parse_frame_bound()
        else:
            start = self._parse_frame_bound()
            end = A.FrameBound("current")
        exclusion = None
        if ts.accept_keyword("exclude"):
            if ts.accept_keyword("current"):
                ts.expect_keyword("row")
                exclusion = "current row"
            elif ts.accept_keyword("ties"):
                exclusion = "ties"
            elif ts.accept_keyword("group"):
                exclusion = "group"
            elif ts.accept_keyword("no"):
                ts.expect_keyword("others")
                exclusion = None
            else:
                raise ts.error(f"bad EXCLUDE clause at {ts.peek()}")
        return A.FrameSpec(str(mode), start, end, exclusion)

    def _parse_frame_bound(self) -> A.FrameBound:
        ts = self.ts
        if ts.accept_keyword("unbounded"):
            if ts.accept_keyword("preceding"):
                return A.FrameBound("unbounded_preceding")
            ts.expect_keyword("following")
            return A.FrameBound("unbounded_following")
        if ts.accept_keyword("current"):
            ts.expect_keyword("row")
            return A.FrameBound("current")
        offset = self.parse_expression()
        if ts.accept_keyword("preceding"):
            return A.FrameBound("preceding", offset)
        ts.expect_keyword("following")
        return A.FrameBound("following", offset)

    def _parse_sort_items(self) -> list[A.SortItem]:
        return self._list(self._parse_sort_item)

    def _parse_sort_item(self) -> A.SortItem:
        expr = self.parse_expression()
        descending = False
        if self.ts.accept_keyword("asc"):
            pass
        elif self.ts.accept_keyword("desc"):
            descending = True
        nulls_first = None
        if self.ts.accept_keyword("nulls"):
            if self.ts.accept_keyword("first"):
                nulls_first = True
            else:
                self.ts.expect_keyword("last")
                nulls_first = False
        return A.SortItem(expr, descending, nulls_first)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expression(self) -> A.Expr:
        return self._expr(0)

    def _expr(self, floor: int) -> A.Expr:
        """Precedence climbing over :data:`OPERATORS`: one operand, then
        every operator that binds tighter than *floor*.  All of them
        associate left, so a right operand is parsed with the operator's
        own power as its floor."""
        ts = self.ts
        # NOT sits between AND and the comparisons: only an operand of AND
        # / OR (or a whole expression) may start with it, and it takes in
        # everything down to the comparisons.
        if floor < _COMPARISON and ts.accept_keyword("not"):
            left: A.Expr = A.UnaryOp("not", self._expr(_AND))
        else:
            left = self._parse_unary()
        while True:
            token = ts.peek()
            operator = OPERATORS.get(token.value)
            if operator is None or operator.type != token.type \
                    or operator.power <= floor:
                return left
            if operator.build is not None:
                ts.advance()
                left = operator.build(left, self._expr(operator.power))
                continue
            tail = self._parse_comparison_tail(left)
            if tail is None:  # a NOT that starts no BETWEEN / IN / LIKE
                return left
            left = tail

    def _parse_comparison_tail(self, left: A.Expr) -> Optional[A.Expr]:
        """``IS ...``, ``[NOT] BETWEEN``, ``[NOT] IN``, ``[NOT] LIKE``
        applied to *left*; their operands are additive-level."""
        ts = self.ts
        if ts.accept_keyword("is"):
            negated = bool(ts.accept_keyword("not"))
            if ts.accept_keyword("null"):
                return A.IsNull(left, negated)
            if ts.accept_keyword("true"):
                return A.IsBool(left, True, negated)
            if ts.accept_keyword("false"):
                return A.IsBool(left, False, negated)
            if ts.accept_keyword("distinct"):
                ts.expect_keyword("from")
                return _is_distinct(left, self._expr(_COMPARISON), negated)
            raise ts.error(f"bad IS expression at {ts.peek()}")
        mark = ts.save()
        negated = bool(ts.accept_keyword("not"))
        if ts.accept_keyword("between"):
            low = self._expr(_COMPARISON)
            ts.expect_keyword("and")
            return A.Between(left, low, self._expr(_COMPARISON), negated)
        if ts.accept_keyword("in"):
            return self._parse_in_tail(left, negated)
        if ts.at_keyword("like", "ilike"):
            ci = ts.advance().value == "ilike"
            return A.Like(left, self._expr(_COMPARISON), negated, ci)
        ts.restore(mark)
        return None

    def _parse_in_tail(self, operand: A.Expr, negated: bool) -> A.Expr:
        ts = self.ts
        ts.expect_op("(")
        if ts.at_keyword("select", "with", "values"):
            query = self.parse_select()
            ts.expect_op(")")
            return A.InSubquery(operand, query, negated)
        items = self._parenthesised(self.parse_expression)
        return A.InList(operand, items, negated)

    def _parse_unary(self) -> A.Expr:
        # Tighter than every binary operator: -2 ^ 2 = 4.
        sign = self.ts.accept_op("-", "+")
        if sign is None:
            return self._parse_postfix()
        operand = self._parse_unary()
        if sign.value == "+":
            return operand
        if isinstance(operand, A.Literal) and \
                isinstance(operand.value, (int, float)) and \
                not isinstance(operand.value, bool):
            return A.Literal(-operand.value)
        return A.UnaryOp("-", operand)

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            ts = self.ts
            if ts.at_op("::"):
                ts.advance()
                expr = A.Cast(expr, self._parse_type_name())
                continue
            if ts.at_op("["):
                ts.advance()
                index = self.parse_expression()
                ts.expect_op("]")
                expr = A.ArrayIndex(expr, index)
                continue
            if ts.at_op(".") and ts.peek(1).type in (IDENT, QIDENT):
                ts.advance()
                name = ts.expect_ident("field name")
                if isinstance(expr, A.ColumnRef):
                    expr = A.ColumnRef(expr.parts + (name,))
                else:
                    expr = A.FieldAccess(expr, name)
                continue
            return expr

    def _parse_primary(self) -> A.Expr:
        ts = self.ts
        token = ts.peek()
        if token.type in (NUMBER, STRING):
            ts.advance()
            return A.Literal(token.value)
        if token.type == PARAM:
            ts.advance()
            return A.Param(int(token.value))  # type: ignore[arg-type]
        if token.type == IDENT and token.value in _CONSTANTS:
            ts.advance()
            return A.Literal(_CONSTANTS[token.value])
        if ts.at_keyword("case"):
            return self._parse_case()
        if ts.at_keyword("cast"):
            ts.advance()
            ts.expect_op("(")
            operand = self.parse_expression()
            ts.expect_keyword("as")
            type_name = self._parse_type_name()
            ts.expect_op(")")
            return A.Cast(operand, type_name)
        if ts.at_keyword("exists"):
            ts.advance()
            ts.expect_op("(")
            query = self.parse_select()
            ts.expect_op(")")
            return A.Exists(query)
        if ts.at_keyword("array") and ts.peek(1).type == OP and ts.peek(1).value == "[":
            ts.advance()
            ts.advance()
            return A.ArrayExpr(self._arguments("]"))
        if ts.at_keyword("row") and ts.peek(1).type == OP and ts.peek(1).value == "(":
            ts.advance()
            ts.advance()
            return A.RowExpr(self._arguments())
        if ts.at_op("("):
            ts.advance()
            if ts.at_keyword("select", "with", "values"):
                query = self.parse_select()
                ts.expect_op(")")
                return A.ScalarSubquery(query)
            items = self._parenthesised(self.parse_expression)
            return items[0] if len(items) == 1 else A.RowExpr(items)
        if token.type in (IDENT, QIDENT):
            # Function call?
            if ts.peek(1).type == OP and ts.peek(1).value == "(":
                return self._parse_func_call()
            name = ts.expect_ident()
            return A.ColumnRef((name,))
        raise ts.error(f"unexpected token in expression: {token}")

    def _parse_case(self) -> A.CaseExpr:
        ts = self.ts
        ts.expect_keyword("case")
        operand = None
        if not ts.at_keyword("when"):
            operand = self.parse_expression()
        whens: list[tuple[A.Expr, A.Expr]] = []
        while ts.accept_keyword("when"):
            cond = self.parse_expression()
            ts.expect_keyword("then")
            result = self.parse_expression()
            whens.append((cond, result))
        else_result = None
        if ts.accept_keyword("else"):
            else_result = self.parse_expression()
        ts.expect_keyword("end")
        if not whens:
            raise ts.error("CASE requires at least one WHEN")
        return A.CaseExpr(operand, whens, else_result)

    def _parse_func_call(self) -> A.Expr:
        ts = self.ts
        name = ts.expect_ident("function name")
        ts.expect_op("(")
        star = bool(ts.accept_op("*"))
        distinct = not star and bool(ts.accept_keyword("distinct"))
        if star:
            ts.expect_op(")")
            args = []
        elif distinct:
            args = self._parenthesised(self.parse_expression)
        else:
            args = self._arguments()
        window: A.WindowSpec | str | None = None
        if ts.accept_keyword("over"):
            if ts.at_op("("):
                ts.advance()
                window = self._parse_window_spec()
                ts.expect_op(")")
            else:
                window = ts.expect_ident("window name")
        return A.FuncCall(name, args, star, distinct, window)

    def _parse_type_name(self) -> str:
        ts = self.ts
        first = ts.expect_ident("type name")
        if ts.peek().type == IDENT and (first, ts.peek().value) in _TYPE_KEYWORDS_TWO_WORDS:
            second = ts.expect_ident()
            name = f"{first} {second}"
        else:
            name = first
        # Swallow a parenthesised precision: varchar(10), numeric(8,2).
        if ts.at_op("("):
            ts.advance()
            while not ts.at_op(")"):
                ts.advance()
            ts.expect_op(")")
        # Array suffix: int[]
        if ts.at_op("[") and ts.peek(1).type == OP and ts.peek(1).value == "]":
            ts.advance()
            ts.advance()
            name = name + "[]"
        return name

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def _parse_create(self):
        ts = self.ts
        ts.expect_keyword("create")
        replace = False
        if ts.accept_keyword("or"):
            ts.expect_keyword("replace")
            replace = True
        if ts.accept_keyword("table"):
            if_not_exists = self._parse_if_exists(negated=True)
            name = ts.expect_ident("table name")
            ts.expect_op("(")
            columns = self._parenthesised(self._parse_column_def)
            return A.CreateTable(name, columns, if_not_exists)
        if ts.accept_keyword("type"):
            name = ts.expect_ident("type name")
            ts.expect_keyword("as")
            ts.expect_op("(")
            return A.CreateType(name,
                                self._parenthesised(self._parse_column_def))
        if ts.accept_keyword("function"):
            return self._parse_create_function(replace)
        if ts.accept_keyword("index"):
            if_not_exists = self._parse_if_exists(negated=True)
            name = ts.expect_ident("index name")
            ts.expect_keyword("on")
            table = ts.expect_ident("table name")
            ts.expect_op("(")
            columns = self._parenthesised(self._parse_indexed_column)
            return A.CreateIndex(name, table, columns, if_not_exists)
        raise ts.error(f"unsupported CREATE statement at {ts.peek()}")

    def _parse_indexed_column(self) -> A.IndexedColumn:
        name = self.ts.expect_ident("column name")
        descending = False
        if self.ts.accept_keyword("desc"):
            descending = True
        else:
            self.ts.accept_keyword("asc")
        return A.IndexedColumn(name, descending)

    def _parse_column_def(self) -> A.ColumnDef:
        name = self.ts.expect_ident("column name")
        type_name = self._parse_type_name()
        # Ignore simple column constraints.
        while self.ts.at_keyword("primary", "not", "unique", "default"):
            if self.ts.accept_keyword("primary"):
                self.ts.expect_keyword("key")
            elif self.ts.accept_keyword("not"):
                self.ts.expect_keyword("null")
            elif self.ts.accept_keyword("unique"):
                pass
            elif self.ts.accept_keyword("default"):
                self._expr(_COMPARISON)
        return A.ColumnDef(name, type_name)

    def _parse_create_function(self, replace: bool) -> A.CreateFunction:
        ts = self.ts
        name = ts.expect_ident("function name")
        ts.expect_op("(")
        params = [] if ts.accept_op(")") \
            else self._parenthesised(self._parse_function_param)
        ts.expect_keyword("returns")
        return_type = self._parse_type_name()
        body: str | None = None
        language: str | None = None
        volatility: str | None = None
        while True:
            if ts.accept_keyword("as"):
                if ts.peek().type != STRING:
                    raise ts.error("function body must be a string literal")
                body = str(ts.advance().value)
            elif ts.accept_keyword("language"):
                language = ts.expect_ident("language name").lower()
            elif ts.at_keyword("immutable", "stable", "volatile"):
                volatility = str(ts.advance().value)
            elif not ts.accept_keyword("strict"):
                break
        if body is None or language is None:
            raise ts.error("CREATE FUNCTION needs AS body and LANGUAGE")
        return A.CreateFunction(name, params, return_type, language, body,
                                replace, volatility=volatility)

    def _parse_function_param(self) -> A.FunctionParam:
        name = self.ts.expect_ident("parameter name")
        type_name = self._parse_type_name()
        return A.FunctionParam(name, type_name)

    def _parse_insert(self) -> A.Insert:
        ts = self.ts
        ts.expect_keyword("insert")
        ts.expect_keyword("into")
        table = ts.expect_ident("table name")
        columns = self._names("column name") if ts.accept_op("(") else None
        return A.Insert(table, columns, self.parse_select())

    def _parse_update(self) -> A.Update:
        ts = self.ts
        ts.expect_keyword("update")
        table = ts.expect_ident("table name")
        ts.expect_keyword("set")
        assignments = self._list(self._parse_assignment)
        where = None
        if ts.accept_keyword("where"):
            where = self.parse_expression()
        return A.Update(table, assignments, where)

    def _parse_assignment(self) -> tuple[str, A.Expr]:
        name = self.ts.expect_ident("column name")
        self.ts.expect_op("=")
        return name, self.parse_expression()

    def _parse_delete(self) -> A.Delete:
        ts = self.ts
        ts.expect_keyword("delete")
        ts.expect_keyword("from")
        table = ts.expect_ident("table name")
        where = None
        if ts.accept_keyword("where"):
            where = self.parse_expression()
        return A.Delete(table, where)

    def _parse_drop(self):
        ts = self.ts
        ts.expect_keyword("drop")
        if ts.accept_keyword("table"):
            if_exists = self._parse_if_exists()
            return A.DropTable(ts.expect_ident("table name"), if_exists)
        if ts.accept_keyword("function"):
            if_exists = self._parse_if_exists()
            return A.DropFunction(ts.expect_ident("function name"), if_exists)
        if ts.accept_keyword("index"):
            if_exists = self._parse_if_exists()
            return A.DropIndex(ts.expect_ident("index name"), if_exists)
        raise ts.error(f"unsupported DROP at {ts.peek()}")

    def _parse_if_exists(self, negated: bool = False) -> bool:
        """``[IF EXISTS]``, or ``[IF NOT EXISTS]`` when *negated*."""
        if self.ts.accept_keyword("if"):
            if negated:
                self.ts.expect_keyword("not")
            self.ts.expect_keyword("exists")
            return True
        return False

    # ------------------------------------------------------------------
    # Session statements: PREPARE / EXECUTE / DEALLOCATE, SET / SHOW /
    # RESET, EXPLAIN
    # ------------------------------------------------------------------

    def _parse_prepare(self) -> A.PrepareStmt:
        ts = self.ts
        ts.expect_keyword("prepare")
        name = ts.expect_ident("prepared statement name")
        param_types = self._parenthesised(self._parse_type_name) \
            if ts.accept_op("(") else None
        ts.expect_keyword("as")
        return A.PrepareStmt(name, param_types, self.parse_statement())

    def _parse_execute(self) -> A.ExecuteStmt:
        ts = self.ts
        ts.expect_keyword("execute")
        name = ts.expect_ident("prepared statement name")
        return A.ExecuteStmt(name,
                             self._arguments() if ts.accept_op("(") else [])

    def _parse_deallocate(self) -> A.DeallocateStmt:
        ts = self.ts
        ts.expect_keyword("deallocate")
        ts.accept_keyword("prepare")
        return A.DeallocateStmt(self._name_or_all("prepared statement name"))

    def _parse_set(self) -> A.SetStmt:
        ts = self.ts
        ts.expect_keyword("set")
        local = False
        # LOCAL / SESSION are modifiers only when another identifier (the
        # setting name) follows; `SET local = ...` would name a setting.
        if ts.at_keyword("local") and ts.peek(1).type in (IDENT, QIDENT):
            ts.advance()
            local = True
        elif ts.at_keyword("session") and ts.peek(1).type in (IDENT, QIDENT):
            ts.advance()
        name = ts.expect_ident("setting name")
        if not ts.accept_keyword("to"):
            ts.expect_op("=")
        if ts.accept_keyword("default"):
            return A.SetStmt(name, None, local)
        # A bare word (machine, on, off, ...) is a string value, PostgreSQL
        # style; anything else is an ordinary expression.
        token = ts.peek()
        if token.type in (IDENT, QIDENT) and not ts.at_keyword(
                "true", "false", "null", "case", "cast", "not"):
            after = ts.peek(1)
            if after.type == EOF or (after.type == OP and after.value == ";"):
                ts.advance()
                return A.SetStmt(name, A.Literal(str(token.value)), local)
        return A.SetStmt(name, self.parse_expression(), local)

    def _parse_show(self) -> A.ShowStmt:
        self.ts.expect_keyword("show")
        return A.ShowStmt(self._name_or_all("setting name"))

    def _parse_reset(self) -> A.ResetStmt:
        self.ts.expect_keyword("reset")
        return A.ResetStmt(self._name_or_all("setting name"))

    def _name_or_all(self, what: str) -> Optional[str]:
        """A name, or None for the keyword ``ALL``."""
        if self.ts.accept_keyword("all"):
            return None
        return self.ts.expect_ident(what)


def _is_distinct(left: A.Expr, right: A.Expr, negated: bool) -> A.Expr:
    """Desugar IS [NOT] DISTINCT FROM into null-safe equality."""
    both_null = A.BinaryOp("and", A.IsNull(left), A.IsNull(right))
    equal = A.BinaryOp("and",
                       A.BinaryOp("and", A.IsNull(left, True), A.IsNull(right, True)),
                       A.BinaryOp("=", left, right))
    not_distinct = A.BinaryOp("or", both_null, equal)
    return not_distinct if negated else A.UnaryOp("not", not_distinct)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def parse_statement(text: str) -> A.Statement:
    parser = SqlParser(TokenStream.from_text(text))
    statement = parser.parse_statement()
    parser.ts.accept_op(";")
    parser.expect_end("statement")
    return statement


def parse_select(text: str) -> A.SelectStmt:
    statement = parse_statement(text)
    if not isinstance(statement, A.SelectStmt):
        raise ParseError("expected a SELECT statement")
    return statement


def parse_expression(text: str) -> A.Expr:
    parser = SqlParser(TokenStream.from_text(text))
    expr = parser.parse_expression()
    parser.expect_end("expression")
    return expr


def parse_script(text: str) -> list[A.Statement]:
    return SqlParser(TokenStream.from_text(text)).parse_script()
