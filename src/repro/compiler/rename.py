"""Scope-aware renaming of PL/pgSQL variable references inside expressions.

PL/pgSQL expressions are SQL expressions; a bare identifier may be a
function variable *or* a column of a table inside an embedded query.  When
the SSA pass renames ``reward`` to ``reward_2`` it must rename only the
variable references — a bare ``reward`` that resolves to a column of the
embedded query's own FROM clause must stay, and a name visible as *both* is
ambiguous (PostgreSQL raises; so do we).

The shadow analysis walks subqueries, collecting the column names each
nesting level contributes: base-table columns come from the catalog,
derived tables from their alias lists or select-item names.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sql import ast as A
from ..sql.astutil import rebuild
from ..sql.errors import CompileError

Renamer = Callable[[str], Optional[A.Expr]]


def rename_variables(expr: A.Expr, rename: Renamer, catalog=None,
                     shadowed: frozenset[str] = frozenset()) -> A.Expr:
    """Rewrite bare variable references in *expr* via *rename*.

    ``rename(name)`` returns the replacement expression (usually a renamed
    :class:`~repro.sql.ast.ColumnRef`) or ``None`` when the name is not a
    function variable.  *catalog* (optional) supplies base-table schemas for
    shadow analysis inside embedded queries.
    """
    return _Renamer(rename, catalog).expr(expr, shadowed)


class _Renamer:
    def __init__(self, rename: Renamer, catalog):
        self.rename = rename
        self.catalog = catalog

    def expr(self, node, shadowed: frozenset[str]):
        """Rename under *shadowed*.  The traversal is astutil's; what this
        pass decides is which children of a query node see which columns:
        a SELECT block's FROM clause, a join's inputs and a statement's CTEs
        and body see only the enclosing scope (a FROM subquery cannot see
        its siblings' columns, but the function's variables are globals from
        SQL's perspective), every other clause also sees the columns its
        FROM clause / body / join inputs contribute."""
        if isinstance(node, A.ColumnRef):
            if len(node.parts) == 1:
                name = node.parts[0].lower()
                replacement = self.rename(name)
                if replacement is not None:
                    if name in shadowed:
                        raise CompileError(
                            f"column reference {name!r} is ambiguous: it may "
                            "refer to either a PL/pgSQL variable or a table "
                            "column — qualify the column or rename the "
                            "variable")
                    return replacement
            return node
        if isinstance(node, A.SelectStmt):
            outer = (node.with_clause, node.body)
            inner = shadowed | self._body_columns(node.body)
        elif isinstance(node, A.SelectCore):
            outer = (node.from_clause,)
            inner = shadowed | self._from_columns(node.from_clause)
        elif isinstance(node, A.Join):
            outer = (node.left, node.right)
            inner = shadowed | self._from_columns(node)
        else:
            return rebuild(node, lambda child: self.expr(child, shadowed))
        return rebuild(node, lambda child: self.expr(
            child, shadowed if any(child is o for o in outer) else inner))

    # -- shadow sets --------------------------------------------------------

    def _body_columns(self, body) -> frozenset[str]:
        if isinstance(body, A.SetOp):
            return self._body_columns(body.left)
        if isinstance(body, A.ValuesClause):
            return frozenset()
        return self._from_columns(body.from_clause)

    def _from_columns(self, ref) -> frozenset[str]:
        if ref is None:
            return frozenset()
        if isinstance(ref, A.TableName):
            if ref.column_aliases:
                return frozenset(c.lower() for c in ref.column_aliases)
            if self.catalog is not None:
                table = self.catalog.tables.get(ref.name.lower())
                if table is not None:
                    return frozenset(table.column_names)
            return frozenset()
        if isinstance(ref, A.SubqueryRef):
            if ref.column_aliases:
                return frozenset(c.lower() for c in ref.column_aliases)
            return self._derived_columns(ref.query)
        if isinstance(ref, A.Join):
            return self._from_columns(ref.left) | self._from_columns(ref.right)
        return frozenset()

    def _derived_columns(self, stmt: A.SelectStmt) -> frozenset[str]:
        body = stmt.body
        while isinstance(body, A.SetOp):
            body = body.left
        if isinstance(body, A.ValuesClause):
            return frozenset()
        out: set[str] = set()
        for item in body.items:
            if isinstance(item, A.Star):
                out |= self._from_columns(body.from_clause)
            elif item.alias:
                out.add(item.alias.lower())
            elif isinstance(item.expr, A.ColumnRef):
                out.add(item.expr.parts[-1].lower())
        return frozenset(out)


def collect_variable_uses(expr: A.Expr, variables: set[str], catalog=None) -> set[str]:
    """Names from *variables* referenced (as variables) in *expr*."""
    used: set[str] = set()

    def probe(name: str) -> Optional[A.Expr]:
        if name in variables:
            # Over-approximates: a shadowed column sharing a variable's name
            # also counts.  Safe for liveness (at worst an extra parameter).
            used.add(name)
        return None  # never rewrite; we only observe

    rename_variables(expr, probe, catalog)
    return used
