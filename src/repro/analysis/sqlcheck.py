"""Semantic checks for SQL embedded in function bodies.

PostgreSQL's ``check_function_bodies`` only syntax-checks; its
``plpgsql_check`` extension is what validates embedded queries against
the live catalog.  This pass plays the latter role for the analyzer:

* **SQ001** — a FROM-clause table that is neither in the catalog nor a
  CTE bound by an enclosing WITH,
* **SQ002** — a column reference that provably resolves to nothing: a
  qualified ``t.c`` whose qualifier names a catalog table without that
  column, or an unqualified name when *every* candidate source (FROM
  tables, function variables) is fully known and none supplies it,
* **SQ003 / SQ004** — calls to unknown functions / known functions with
  the wrong argument count,
* **SQ005** — literal/declared-type mismatches in assignments and RETURN
  (a deliberately narrow check: a non-numeric string literal flowing
  into a numeric slot).

The resolver is conservative by design: whenever a scope contains
anything it cannot fully enumerate (a subquery source, a CTE, a record
variable) it stays silent rather than guess — a false "unknown column"
on valid SQL would poison the ``check_function_bodies=error`` gate.
"""

from __future__ import annotations

from typing import Optional

from ..sql import ast as A
from ..sql.astutil import walk
from ..sql.functions import (SCALAR_BUILTINS, is_aggregate_name,
                             is_window_function_name)
from .diagnostics import DiagnosticSink

#: Declared types the SQ005 literal check treats as numeric slots.
NUMERIC_TYPES = {"int", "integer", "bigint", "smallint", "numeric",
                 "decimal", "real", "float", "double precision", "float8"}

#: Relations the engine synthesises (batched-execution input); never in
#: the user catalog but always valid.
SYNTHETIC_TABLES = {"__batch_input"}


def _from_sources(from_clause) -> list:
    """Flatten a FROM tree (joins included) into its leaf sources."""
    out = []
    stack = [from_clause]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, A.Join):
            stack.append(node.left)
            stack.append(node.right)
        else:
            out.append(node)
    return out


class SqlChecker:
    def __init__(self, catalog, variables: set[str], sink: DiagnosticSink):
        self.catalog = catalog
        self.variables = variables  # function params + declared vars
        self.sink = sink
        self.line: Optional[int] = None
        self.must_execute = False

    # -- entry points ------------------------------------------------------

    def check_expr(self, expr, line: Optional[int],
                   must_execute: bool) -> None:
        """Check one expression tree; SELECTs inside are fully scoped."""
        self.line = line
        self.must_execute = must_execute
        self._check_nodes(expr, ctes=frozenset())

    # -- internals ---------------------------------------------------------

    def _check_nodes(self, root, ctes: frozenset) -> None:
        """Walk *root* checking calls; recurse into SELECTs with scope."""
        for node in walk(root, into_subqueries=False):
            if isinstance(node, A.SelectStmt):
                self._check_select(node, ctes)
            elif isinstance(node, A.FuncCall):
                self._check_call(node)

    def _check_call(self, node: A.FuncCall) -> None:
        name = node.name.lower()
        if is_aggregate_name(name) or is_window_function_name(name):
            return
        if name in SCALAR_BUILTINS or name == "coalesce":
            # Builtins are registered as variadic callables; their true
            # arity is hidden behind the (ctx, *args) wrappers, so only
            # existence is checkable.
            return
        fdef = self.catalog.get_function(name) if self.catalog else None
        if fdef is None:
            self.sink.add("SQ003", f"unknown function {name!r}",
                          line=self.line, must_execute=self.must_execute)
            return
        if len(node.args) != fdef.arity:
            self.sink.add(
                "SQ004",
                f"function {name!r} takes {fdef.arity} argument(s), "
                f"{len(node.args)} given",
                line=self.line, must_execute=self.must_execute)

    def _check_select(self, select: A.SelectStmt, ctes: frozenset) -> None:
        local_ctes = set(ctes)
        if select.with_clause is not None:
            for cte in select.with_clause.ctes:
                # A recursive CTE sees itself; order of definition also
                # binds later CTEs to earlier ones.  Over-approximating
                # visibility is fine — this scope only suppresses SQ001.
                local_ctes.add(cte.name.lower())
            for cte in select.with_clause.ctes:
                self._check_select(cte.query, frozenset(local_ctes))
        self._check_body(select.body, frozenset(local_ctes))
        for item in select.order_by or []:
            self._check_nodes(item.expr, frozenset(local_ctes))

    def _check_body(self, body, ctes: frozenset) -> None:
        if isinstance(body, A.SetOp):
            self._check_body(body.left, ctes)
            self._check_body(body.right, ctes)
            return
        if isinstance(body, A.ValuesClause):
            for row in body.rows:
                for expr in row:
                    self._check_nodes(expr, ctes)
            return
        if not isinstance(body, A.SelectCore):
            return
        sources = _from_sources(body.from_clause)
        known_columns: set[str] = set()
        alias_columns: dict[str, set[str]] = {}
        opaque = False  # scope contains a source we cannot enumerate
        for source in sources:
            if isinstance(source, A.TableName):
                name = source.name.lower()
                alias = (source.alias or source.name).lower()
                if name in ctes or name in SYNTHETIC_TABLES:
                    opaque = True
                    continue
                table = (self.catalog.tables.get(name)
                         if self.catalog else None)
                if table is None:
                    self.sink.add("SQ001", f"unknown table {name!r}",
                                  line=self.line,
                                  must_execute=self.must_execute)
                    opaque = True
                    continue
                columns = set(table.column_names)
                if source.column_aliases:
                    columns = {c.lower() for c in source.column_aliases}
                known_columns |= columns
                alias_columns[alias] = columns
            elif isinstance(source, A.SubqueryRef):
                self._check_select(source.query, ctes)
                opaque = True
            else:
                opaque = True
        # Column references in the core's expressions.
        for expr in self._core_exprs(body):
            self._check_columns(expr, known_columns, alias_columns,
                                opaque, ctes)

    def _core_exprs(self, body: A.SelectCore):
        for item in body.items:
            if isinstance(item, A.SelectItem):
                yield item.expr
        if body.where is not None:
            yield body.where
        for expr in body.group_by or []:
            yield expr
        if body.having is not None:
            yield body.having

    def _check_columns(self, expr, known_columns: set[str],
                       alias_columns: dict[str, set[str]],
                       opaque: bool, ctes: frozenset) -> None:
        for node in walk(expr, into_subqueries=False):
            if isinstance(node, A.SelectStmt):
                # Correlated subquery: its own scope, plus everything from
                # ours — resolving across levels is beyond this checker,
                # so just descend with fresh scoping for SQ001/SQ003.
                self._check_select(node, ctes)
            elif isinstance(node, A.ColumnRef):
                self._check_column_ref(node, known_columns, alias_columns,
                                       opaque)
            elif isinstance(node, A.FuncCall):
                self._check_call(node)

    def _check_column_ref(self, node: A.ColumnRef, known_columns: set[str],
                          alias_columns: dict[str, set[str]],
                          opaque: bool) -> None:
        parts = [p.lower() for p in node.parts]
        if len(parts) == 2:
            qualifier, column = parts
            columns = alias_columns.get(qualifier)
            if columns is not None and column not in columns:
                self.sink.add(
                    "SQ002",
                    f"column {column!r} does not exist in table "
                    f"{qualifier!r}", line=self.line,
                    must_execute=self.must_execute)
            return
        if len(parts) != 1 or opaque:
            return
        name = parts[0]
        if name in known_columns or name in self.variables:
            return
        self.sink.add("SQ002", f"column {name!r} does not exist",
                      line=self.line, must_execute=self.must_execute)


def literal_type_mismatch(expr, declared_type: Optional[str]
                          ) -> Optional[str]:
    """SQ005's narrow test: a bare string literal flowing into a numeric
    slot.  Returns a message, or None when fine/undecidable."""
    if declared_type is None or not isinstance(expr, A.Literal):
        return None
    base = declared_type.lower().split("(")[0].strip()
    if base not in NUMERIC_TYPES:
        return None
    value = expr.value
    if not isinstance(value, str):
        return None
    try:
        float(value)
        return None  # '42' coerces fine
    except ValueError:
        return (f"string literal {value!r} cannot be coerced to "
                f"declared type {declared_type!r}")
