"""Source-level inlining of compiled functions into calling queries.

The engine's planner already inlines compiled functions transparently at
plan time (see :mod:`repro.sql.planner`).  This module does the same as a
*source-to-source* transformation so the final merged SQL — "any occurrence
of PL/SQL has been compiled away" — can be inspected, exported, or fed to a
foreign system (the PostgreSQL 12 CTE-inlining direction of Section 4).
"""

from __future__ import annotations

from typing import Optional, Union

from ..sql import ast as A
from ..sql.astutil import substitute_params, transform_select
from ..sql.errors import CompileError
from ..sql.parser import parse_select
from .dialects import render_select
from .pipeline import CompiledFunction


def inline_calls(stmt: A.SelectStmt,
                 functions: dict[str, A.SelectStmt]) -> A.SelectStmt:
    """Replace calls to the given compiled functions with scalar subqueries.

    *functions* maps lower-case function names to their parameterised Qf
    query; its one ``$n`` hole per parameter, in the row that binds the
    arguments, receives the call site's n-th argument expression.
    Nested/repeated calls all get their own copy (the engine's planner
    does exactly the same).
    """

    def leaf(node: A.Expr) -> Optional[A.Expr]:
        if isinstance(node, A.FuncCall) and node.window is None:
            query = functions.get(node.name.lower())
            if query is not None:
                if node.star or node.distinct:
                    raise CompileError(
                        f"cannot inline {node.name}(*) / DISTINCT call")
                inlined = substitute_params(query, list(node.args))
                return A.ScalarSubquery(inlined)
        return None

    return transform_select(stmt, leaf)


def inline_into_query(sql: str,
                      compiled: Union[CompiledFunction, list[CompiledFunction]]
                      ) -> str:
    """Inline one or more compiled functions into query text and re-render.

    >>> from repro.sql import Database
    >>> from repro.compiler import compile_plsql
    >>> doubled = compile_plsql('''
    ...     CREATE FUNCTION double(n int) RETURNS int AS $$
    ...     BEGIN RETURN 2 * n; END;
    ...     $$ LANGUAGE PLPGSQL''', Database())
    >>> print(inline_into_query("SELECT double(21) AS x", doubled))
    SELECT (SELECT (2 * args.n_1)
    FROM (
      SELECT CAST(21 AS int) AS n_1
    ) AS args) AS x

    The argument lands in the Qf's one-row FROM (``args``), evaluated once
    and cast to its parameter's type, and the body reads it from there.  A
    loop-free function's body is a plain expression (Froid); a recursive
    function's is its whole ``WITH RECURSIVE`` query, so the merged text
    contains no trace of PL/SQL either way.
    """
    if isinstance(compiled, CompiledFunction):
        compiled = [compiled]
    functions = {c.name.lower(): c.query for c in compiled}
    stmt = parse_select(sql)
    merged = inline_calls(stmt, functions)
    return render_select(merged)
