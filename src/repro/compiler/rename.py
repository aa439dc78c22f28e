"""Renaming the compiler's fresh names (SSA and ANF versions) inside
expressions: plain substitution, since no query of the body spells them and
no column has them (:meth:`~repro.compiler.ssa.SsaBuilder.fresh`).  A
source variable is renamed where the planner resolved it, not here
(:meth:`~repro.compiler.ssa.SsaBuilder._rename_expr`).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sql import ast as A
from ..sql.astutil import rebuild, walk

Renamer = Callable[[str], Optional[A.Expr]]


def _bare_name(node) -> Optional[str]:
    if isinstance(node, A.ColumnRef) and len(node.parts) == 1:
        return node.parts[0].lower()
    return None


def rename_variables(expr: A.Expr, rename: Renamer) -> A.Expr:
    """Rewrite bare references to generated names in *expr*, embedded
    queries included, via *rename*: ``rename(name)`` returns the
    replacement expression (usually a renamed
    :class:`~repro.sql.ast.ColumnRef`) or ``None`` to keep the name."""
    def visit(node):
        name = _bare_name(node)
        if name is None:
            return rebuild(node, visit)
        replacement = rename(name)
        return node if replacement is None else replacement

    return visit(expr)


def collect_variable_uses(exprs, variables: set[str]) -> set[str]:
    """Names from *variables* referenced in *exprs* (an expression or a
    list of them)."""
    return {name for name in map(_bare_name, walk(exprs))
            if name in variables}
