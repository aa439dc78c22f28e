"""SQL text emission for the two engines that run it (paper Section 3,
"Beyond PostgreSQL").

"Modulo syntactic details, we were able to apply the function transformation
immediately to Oracle, MySQL, SQL Server, and HyPer" — the syntactic details
of the two targets that are executed live here:

============  ==========================================================
PostgreSQL    ``LEFT JOIN LATERAL ... ON true``, ``WITH RECURSIVE``,
              ``$n`` parameters, ``WITH ITERATE``; run by this engine
              (its grammar is a PostgreSQL subset plus WITH ITERATE)
SQLite3       no LATERAL → the compiler uses the split template and the
              nested-subquery ``let`` rewrite
              (:func:`~repro.compiler.template.build_split_template_query`);
              ``WITH RECURSIVE``; ``?n`` parameters; run by the
              stdlib :mod:`sqlite3`, on every generated function in the
              fuzz loop (:mod:`repro.fuzz.oracle`)
============  ==========================================================
"""

from __future__ import annotations

import re

from ..sql import ast as A
from ..sql.errors import CompileError
from ..sql.types import normalize_type_name

_PLAIN_IDENT = re.compile(r"[a-z_][a-z0-9_]*$")

_KEYWORDS = {
    "select", "from", "where", "group", "order", "by", "having", "union",
    "all", "and", "or", "not", "case", "when", "then", "else", "end", "as",
    "on", "join", "left", "right", "inner", "outer", "cross", "lateral",
    "with", "recursive", "values", "in", "is", "null", "true", "false",
    "between", "like", "limit", "offset", "distinct", "exists", "cast",
    "row", "array", "window", "partition", "rows", "range", "user", "table",
    "result",
}


def quote(name: str) -> str:
    if _PLAIN_IDENT.match(name) and name not in _KEYWORDS:
        return name
    return '"' + name.replace('"', '""') + '"'


#: The targets, by name: this engine's own text first.
DIALECTS = ("postgres", "sqlite")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


class SqlRenderer:
    def __init__(self, dialect: str = "postgres"):
        if dialect not in DIALECTS:
            raise CompileError(f"unknown dialect {dialect!r} "
                               f"(have: {sorted(DIALECTS)})")
        #: The one decision the text hangs on: SQLite has no LATERAL, no
        #: WITH ITERATE, ``?n`` parameters and a few builtins of its own.
        self.sqlite = dialect == "sqlite"

    # -- statements ----------------------------------------------------

    def select(self, stmt: A.SelectStmt, indent: int = 0) -> str:
        parts: list[str] = []
        pad = "  " * indent
        if stmt.with_clause is not None:
            wc = stmt.with_clause
            if wc.iterate:
                if self.sqlite:
                    raise CompileError(
                        "dialect sqlite does not support WITH ITERATE")
                keyword = "WITH ITERATE"
            elif wc.recursive:
                keyword = "WITH RECURSIVE"
            else:
                keyword = "WITH"
            ctes = []
            for cte in wc.ctes:
                columns = ""
                if cte.column_names:
                    columns = "(" + ", ".join(quote(c)
                                              for c in cte.column_names) + ")"
                ctes.append(f"{quote(cte.name)}{columns} AS (\n"
                            + self.select(cte.query, indent + 1)
                            + f"\n{pad})")
            parts.append(pad + keyword + " " + (",\n" + pad).join(ctes))
        parts.append(self.body(stmt.body, indent))
        if stmt.order_by:
            parts.append(pad + "ORDER BY "
                         + ", ".join(self.sort_item(s) for s in stmt.order_by))
        if stmt.limit is not None:
            parts.append(pad + "LIMIT " + self.expr(stmt.limit))
        if stmt.offset is not None:
            parts.append(pad + "OFFSET " + self.expr(stmt.offset))
        return "\n".join(parts)

    def body(self, body, indent: int) -> str:
        pad = "  " * indent
        if isinstance(body, A.SetOp):
            op = {"union_all": "UNION ALL", "union": "UNION",
                  "intersect": "INTERSECT", "except": "EXCEPT"}[body.op]
            return (self.body(body.left, indent) + f"\n{pad}{op}\n"
                    + self.body(body.right, indent))
        if isinstance(body, A.ValuesClause):
            rows = ", ".join(
                "(" + ", ".join(self.expr(e) for e in row) + ")"
                for row in body.rows)
            return pad + "VALUES " + rows
        return self.core(body, indent)

    def core(self, core: A.SelectCore, indent: int) -> str:
        pad = "  " * indent
        items = []
        for item in core.items:
            if isinstance(item, A.Star):
                items.append(f"{quote(item.table)}.*" if item.table else "*")
            else:
                text = self.expr(item.expr)
                if item.alias:
                    text += f" AS {quote(item.alias)}"
                items.append(text)
        head = pad + "SELECT " + ("DISTINCT " if core.distinct else "") \
            + ", ".join(items)
        parts = [head]
        if core.from_clause is not None:
            parts.append(pad + "FROM " + self.table_ref(core.from_clause, indent))
        if core.where is not None:
            parts.append(pad + "WHERE " + self.expr(core.where))
        if core.group_by:
            parts.append(pad + "GROUP BY "
                         + ", ".join(self.expr(e) for e in core.group_by))
        if core.having is not None:
            parts.append(pad + "HAVING " + self.expr(core.having))
        if core.windows:
            windows = ", ".join(
                f"{quote(name)} AS ({self.window_spec(spec)})"
                for name, spec in core.windows.items())
            parts.append(pad + "WINDOW " + windows)
        return "\n".join(parts)

    def table_ref(self, ref: A.TableRef, indent: int) -> str:
        if isinstance(ref, A.TableName):
            text = quote(ref.name)
            if ref.alias and ref.alias != ref.name:
                text += f" AS {quote(ref.alias)}"
            if ref.column_aliases:
                text += "(" + ", ".join(quote(c)
                                        for c in ref.column_aliases) + ")"
            return text
        if isinstance(ref, A.SubqueryRef):
            inner = self.select(ref.query, indent + 1)
            alias = f" AS {quote(ref.alias)}"
            if ref.column_aliases:
                alias += "(" + ", ".join(quote(c)
                                         for c in ref.column_aliases) + ")"
            return "(\n" + inner + "\n" + "  " * indent + ")" + alias
        if isinstance(ref, A.Join):
            return self.join(ref, indent)
        raise CompileError(f"cannot render {type(ref).__name__}")

    def join(self, join: A.Join, indent: int) -> str:
        pad = "  " * indent
        left = self.table_ref(join.left, indent)
        lateral = isinstance(join.right, A.SubqueryRef) and join.right.lateral
        right = self.table_ref(join.right, indent)
        if join.kind == "cross" and not lateral:
            return f"{left},\n{pad}     {right}"
        keyword = ("LEFT JOIN LATERAL" if lateral
                   else {"inner": "JOIN", "left": "LEFT JOIN"}[join.kind])
        condition = self.expr(join.condition) if join.condition is not None \
            else "true"
        return f"{left}\n{pad}{keyword} {right} ON {condition}"

    def sort_item(self, item: A.SortItem) -> str:
        text = self.expr(item.expr)
        if item.descending:
            text += " DESC"
        if item.nulls_first is True:
            text += " NULLS FIRST"
        elif item.nulls_first is False:
            text += " NULLS LAST"
        return text

    def window_spec(self, spec: A.WindowSpec) -> str:
        bits = []
        if spec.ref_name:
            bits.append(quote(spec.ref_name))
        if spec.partition_by:
            bits.append("PARTITION BY "
                        + ", ".join(self.expr(e) for e in spec.partition_by))
        if spec.order_by:
            bits.append("ORDER BY "
                        + ", ".join(self.sort_item(s) for s in spec.order_by))
        if spec.frame is not None:
            bits.append(self.frame(spec.frame))
        return " ".join(bits)

    def frame(self, frame: A.FrameSpec) -> str:
        def bound(b: A.FrameBound) -> str:
            if b.kind == "unbounded_preceding":
                return "UNBOUNDED PRECEDING"
            if b.kind == "unbounded_following":
                return "UNBOUNDED FOLLOWING"
            if b.kind == "current":
                return "CURRENT ROW"
            offset = self.expr(b.offset) if b.offset is not None else "?"
            return f"{offset} {'PRECEDING' if b.kind == 'preceding' else 'FOLLOWING'}"

        text = (f"{frame.mode.upper()} BETWEEN {bound(frame.start)} "
                f"AND {bound(frame.end)}")
        if frame.exclusion:
            text += f" EXCLUDE {frame.exclusion.upper()}"
        return text

    # -- expressions -----------------------------------------------------

    def expr(self, node: A.Expr) -> str:
        if isinstance(node, A.Literal):
            value = node.value
            if value is None:
                return "NULL"
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, (int, float)):
                return repr(value)
            if isinstance(value, str):
                return "'" + value.replace("'", "''") + "'"
            raise CompileError(f"cannot render literal {value!r}")
        if isinstance(node, A.ColumnRef):
            return ".".join(quote(p) for p in node.parts)
        if isinstance(node, A.Param):
            return f"{'?' if self.sqlite else '$'}{node.index}"
        if isinstance(node, A.BinaryOp):
            op = node.op.upper() if node.op in ("and", "or") else node.op
            return f"({self.expr(node.left)} {op} {self.expr(node.right)})"
        if isinstance(node, A.UnaryOp):
            op = "NOT " if node.op == "not" else node.op
            return f"({op}{self.expr(node.operand)})"
        if isinstance(node, A.IsNull):
            negated = " NOT" if node.negated else ""
            return f"({self.expr(node.operand)} IS{negated} NULL)"
        if isinstance(node, A.IsBool):
            negated = " NOT" if node.negated else ""
            literal = "TRUE" if node.value else "FALSE"
            return f"({self.expr(node.operand)} IS{negated} {literal})"
        if isinstance(node, A.Between):
            negated = "NOT " if node.negated else ""
            return (f"({self.expr(node.operand)} {negated}BETWEEN "
                    f"{self.expr(node.low)} AND {self.expr(node.high)})")
        if isinstance(node, A.InList):
            negated = "NOT " if node.negated else ""
            items = ", ".join(self.expr(e) for e in node.items)
            return f"({self.expr(node.operand)} {negated}IN ({items}))"
        if isinstance(node, A.InSubquery):
            negated = "NOT " if node.negated else ""
            return (f"({self.expr(node.operand)} {negated}IN "
                    f"({self.select(node.subquery)}))")
        if isinstance(node, A.Exists):
            return f"EXISTS ({self.select(node.subquery)})"
        if isinstance(node, A.Like):
            negated = "NOT " if node.negated else ""
            keyword = "ILIKE" if node.case_insensitive else "LIKE"
            return (f"({self.expr(node.operand)} {negated}{keyword} "
                    f"{self.expr(node.pattern)})")
        if isinstance(node, A.CaseExpr):
            bits = ["CASE"]
            if node.operand is not None:
                bits.append(self.expr(node.operand))
            for condition, result in node.whens:
                bits.append(f"WHEN {self.expr(condition)} "
                            f"THEN {self.expr(result)}")
            if node.else_result is not None:
                bits.append(f"ELSE {self.expr(node.else_result)}")
            bits.append("END")
            return " ".join(bits)
        if isinstance(node, A.Cast):
            operand = self.expr(node.operand)
            if self.sqlite and normalize_type_name(node.type_name) == "int":
                # SQLite's CAST truncates a real where the engine rounds
                # half away from zero, as SQLite's round() does.
                operand = f"round({operand})"
            return f"CAST({operand} AS {node.type_name})"
        if isinstance(node, A.FuncCall):
            rewritten = self._dialect_function(node)
            if rewritten is not None:
                return rewritten
            if node.star:
                inner = "*"
            else:
                inner = ", ".join(self.expr(a) for a in node.args)
                if node.distinct:
                    inner = "DISTINCT " + inner
            text = f"{node.name}({inner})"
            if node.window is not None:
                if isinstance(node.window, str):
                    text += f" OVER {quote(node.window)}"
                else:
                    text += f" OVER ({self.window_spec(node.window)})"
            return text
        if isinstance(node, A.RowExpr):
            inner = ", ".join(self.expr(e) for e in node.items)
            return f"ROW({inner})"
        if isinstance(node, A.ArrayExpr):
            inner = ", ".join(self.expr(e) for e in node.items)
            return f"ARRAY[{inner}]"
        if isinstance(node, A.ArrayIndex):
            return f"({self.expr(node.operand)})[{self.expr(node.index)}]"
        if isinstance(node, A.FieldAccess):
            return f"({self.expr(node.operand)}).{quote(node.fieldname)}"
        if isinstance(node, A.ScalarSubquery):
            return "(" + self.select(node.query) + ")"
        raise CompileError(f"cannot render expression {type(node).__name__}")

    def _dialect_function(self, node: A.FuncCall) -> str | None:
        """SQLite's scalar-function spelling differences."""
        if not self.sqlite or node.window is not None:
            return None
        name = node.name.lower()
        args = node.args
        # LEFT/RIGHT are join keywords in SQLite; spell via substr().
        if name == "left" and len(args) == 2:
            return (f"substr({self.expr(args[0])}, 1, {self.expr(args[1])})")
        if name == "right" and len(args) == 2:
            return (f"substr({self.expr(args[0])}, -({self.expr(args[1])}))")
        if name == "sign" and len(args) == 1:
            inner = self.expr(args[0])
            return (f"(CASE WHEN {inner} > 0 THEN 1 WHEN {inner} < 0 "
                    f"THEN -1 ELSE 0 END)")
        if name == "random" and not args:
            # SQLite's random() yields a 64-bit int; normalise to [0, 1).
            return "((random() + 9223372036854775808) / 18446744073709551616.0)"
        return None


def render_select(stmt: A.SelectStmt, dialect: str = "postgres") -> str:
    return SqlRenderer(dialect).select(stmt)


def render_expression(expr: A.Expr) -> str:
    return SqlRenderer().expr(expr)


def render_create_function(name: str, params: list[tuple[str, str]],
                           return_type: str, body_sql: str) -> str:
    """CREATE FUNCTION text in PostgreSQL syntax (SQLite has no CREATE
    FUNCTION, and the paper sidesteps DDL too — Qf needs no function)."""
    rendered_params = ", ".join(f"{quote(n)} {t}" for n, t in params)
    return (f"CREATE FUNCTION {quote(name)}({rendered_params})\n"
            f"RETURNS {return_type} AS $$\n{body_sql}\n"
            f"$$ LANGUAGE SQL;")
