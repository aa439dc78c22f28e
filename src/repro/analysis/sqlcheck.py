"""Embedded SQL, resolved by the planner the interpreter runs.

PostgreSQL's ``check_function_bodies`` only syntax-checks; its
``plpgsql_check`` extension validates embedded queries by preparing them
through PostgreSQL's own parse analysis.  This pass does the same: every
expression of a PL/pgSQL body is compiled once, by the expression compiler
and planner the interpreter uses, in the interpreter's own variable scope
(:func:`repro.plsql.interpreter.variable_scope`).  The references that
resolved into that scope are what SSA renames (:mod:`repro.compiler.ssa`),
their variables the expression's read set (:mod:`.dataflow`); the
planning error, if any, is the error a call raises when it evaluates the
expression, and :func:`error_code` makes it a diagnostic:

* **SQ001** - an unknown table,
* **SQ003** - an unknown function,
* **SQ004** - a call, builtins included, with the wrong number of
  arguments,
* **SQ002** - any other: a column that does not exist, is ambiguous or is
  not grouped, and the planner's other refusals.

A LANGUAGE SQL body is planned as the engine plans it
(``Database.sql_function_body``).  **SQ005** is not a planning error: a
bare non-numeric string literal assigned or returned into a numeric slot.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from ..plsql.interpreter import variable_scope
from ..sql import ast as A
from ..sql.errors import SqlError
from ..sql.expr import ExprCompiler

#: Declared types the SQ005 literal check treats as numeric slots.
NUMERIC_TYPES = {"int", "integer", "bigint", "smallint", "numeric",
                 "decimal", "real", "float", "double precision", "float8"}

#: (planner message pattern, code); a message matching none is SQ002's.
_ERROR_CODES = ((re.compile(r"unknown table "), "SQ001"),
                (re.compile(r"unknown function "), "SQ003"),
                (re.compile(r"function \S+\(\) takes "), "SQ004"))

#: One expression's ``id(ref) -> variable`` and planning error (or None).
Resolution = tuple[dict[int, str], Optional[SqlError]]


def error_code(error: SqlError) -> str:
    """The diagnostic code of a planning error."""
    message = str(error)
    for pattern, code in _ERROR_CODES:
        if pattern.match(message):
            return code
    return "SQ002"


def resolver(db, names: list[str]) -> Callable[[A.Expr], Resolution]:
    """``resolve(expr)`` for the expressions of a PL/pgSQL body whose
    variables are *names*: each is compiled once, as the interpreter
    compiles it (``FunctionRuntime.compiled_expr``)."""
    scope = variable_scope(names)
    resolved: dict[int, Resolution] = {}

    def resolve(expr: A.Expr) -> Resolution:
        found = resolved.get(id(expr))
        if found is None:
            refs: dict[int, str] = {}
            error = None
            with scope.observe(lambda _rel, col, ref:
                               refs.update({id(ref): names[col]})):
                try:
                    ExprCompiler(scope, db.planner).compile(expr)
                except SqlError as exc:
                    error = exc
            found = resolved[id(expr)] = (refs, error)
        return found

    return resolve


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
