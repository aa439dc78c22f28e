"""Volatility inference over function bodies.

PostgreSQL trusts the volatility class the user *declares* and defaults to
VOLATILE.  This module infers the class from the body instead, walking the
same lattice PostgreSQL documents::

    immutable  <  stable  <  volatile

* calls to volatile builtins (``random``, ``setseed``, ...) force
  **volatile**,
* any embedded query that reads a table forces at least **stable** (the
  result may change between statements, but not within one),
* calls to other user functions join in the callee's inferred class
  (declared class when the user supplied one),
* recursion and calls to unknown functions are conservatively **volatile**.

Besides the class, inference records two planner-grade facts used by the
purity test (:func:`function_is_pure`) that gates expression motion and
set-oriented batching in :mod:`repro.sql.astutil` / ``planner.py``:

* ``may_raise`` — the body contains an expression that can raise at run
  time (division with a non-constant divisor, a domain-limited builtin
  like ``sqrt``, a cast, ``RAISE EXCEPTION``, an embedded query, or a
  callee that may itself raise).  Moving such an expression could change
  *whether* an error surfaces, so it pins the expression in place.
* ``has_loops`` — the body (or a callee) iterates; evaluation count then
  affects the interpreter's statement budget, so motion could change
  which side of the budget a query lands on.

The soundness argument is monotonicity: every rule only moves *up* the
lattice, and anything the walk cannot prove pure (unknown function,
recursion, embedded query) is pushed to the conservative top.  Inference
can therefore over-classify (losing an optimization) but never
under-classify (changing semantics).

The same walk answers the compiler's question about one expression
(:func:`expr_is_volatile`), so "volatile" means one thing on both sides.

Results are cached on the :class:`~repro.sql.catalog.FunctionDef`
(``inferred_*`` fields) and reset together with the plan caches.
"""

from __future__ import annotations

from typing import Optional

from ..plsql import ast as P
from ..sql import ast as A
from ..sql.astutil import walk
from ..sql.functions import (SCALAR_BUILTINS, VOLATILE_FUNCTIONS,
                             is_aggregate_name, is_window_function_name)

#: Ordered lattice positions.
LEVELS = {"immutable": 0, "stable": 1, "volatile": 2}
_NAMES = {index: name for name, index in LEVELS.items()}

#: Builtins that raise on part of their domain (sqrt of a negative, ln of
#: zero, mod by zero, ...).  Conservative: listing too many only narrows
#: the purity test, never breaks it.
RAISING_BUILTINS = {"sqrt", "ln", "exp", "mod", "power", "pow", "chr"}


def join(a: str, b: str) -> str:
    """Least upper bound of two volatility classes."""
    return _NAMES[max(LEVELS[a], LEVELS[b])]


class Facts:
    """Mutable accumulator for one function's inference walk."""

    __slots__ = ("level", "may_raise", "has_loops")

    def __init__(self):
        self.level = 0
        self.may_raise = False
        self.has_loops = False

    def bump(self, level: int) -> None:
        if level > self.level:
            self.level = level

    @property
    def volatility(self) -> str:
        return _NAMES[self.level]


def _is_nonzero_literal(expr: A.Expr) -> bool:
    return (isinstance(expr, A.Literal)
            and isinstance(expr.value, (int, float))
            and not isinstance(expr.value, bool)
            and expr.value != 0)


def _fold_node(node, facts: Facts, catalog, stack: frozenset) -> None:
    """Fold one AST node (SQL or PL/pgSQL) into *facts*."""
    if isinstance(node, A.TableName):
        # Reading any relation makes the result depend on database
        # state: at least stable.  CTE references over-approximate
        # here, which is the safe direction.
        facts.bump(LEVELS["stable"])
    elif isinstance(node, (A.ScalarSubquery, A.Exists, A.InSubquery)):
        # The embedded query itself may raise (division inside, a
        # failed coercion); its FROM tables are seen by the walk.
        facts.may_raise = True
    elif isinstance(node, A.Cast):
        facts.may_raise = True
    elif isinstance(node, A.BinaryOp):
        if node.op in ("/", "%") and not _is_nonzero_literal(node.right):
            facts.may_raise = True
    elif isinstance(node, A.FuncCall):
        _scan_call(node, facts, catalog, stack)
    elif isinstance(node, (P.LoopStmt, P.WhileStmt, P.ForRangeStmt,
                           P.ForEachStmt, P.ForQueryStmt)):
        facts.has_loops = True
        if isinstance(node, P.ForQueryStmt):
            facts.may_raise = True  # executes an embedded query
    elif isinstance(node, P.RaiseStmt) and node.level == "exception":
        facts.may_raise = True
    elif isinstance(node, P.PerformStmt):
        facts.may_raise = True  # executes an embedded query


def _scan_expr(expr, facts: Facts, catalog, stack: frozenset) -> None:
    """Fold one expression (or whole SELECT) into *facts*."""
    for node in walk(expr):
        _fold_node(node, facts, catalog, stack)


def expr_is_volatile(expr, catalog=None) -> bool:
    """Does *expr* (embedded queries included) call a volatile function: a
    volatile builtin, a user function whose body is inferred volatile, an
    unknown function or one on a recursive cycle?  The inferred class of a
    callee counts, not its declaration - a declared ``IMMUTABLE`` does not
    make its ``random()`` draw once.  This is the one test of "volatile"
    the compiler asks (dead-code elimination, the SQLite split rewrite,
    the machine's ``shareable``)."""
    facts = Facts()
    _scan_expr(expr, facts, catalog, frozenset())
    return facts.level == LEVELS["volatile"]


def _scan_call(node: A.FuncCall, facts: Facts, catalog,
               stack: frozenset) -> None:
    name = node.name.lower()
    if name == "coalesce" or name == "count":
        return
    if name in SCALAR_BUILTINS:
        if name in VOLATILE_FUNCTIONS:
            facts.bump(LEVELS["volatile"])
        if name in RAISING_BUILTINS or name == "__no_return":
            facts.may_raise = True
        return
    if is_aggregate_name(name) or is_window_function_name(name):
        return  # pure over their input rows
    fdef = catalog.get_function(name) if catalog is not None else None
    if fdef is None:
        # Unknown callee: either a later CREATE FUNCTION target or a plain
        # error — both are the conservative top.
        facts.bump(LEVELS["volatile"])
        facts.may_raise = True
        return
    volatility, may_raise, has_loops = function_facts(fdef, catalog, stack)
    facts.bump(LEVELS[volatility])
    facts.may_raise = facts.may_raise or may_raise
    facts.has_loops = facts.has_loops or has_loops


def _scan_plsql(func: P.PlsqlFunctionDef, facts: Facts, catalog,
                stack: frozenset) -> None:
    for node in walk([list(func.declarations), list(func.body)]):
        _fold_node(node, facts, catalog, stack)


def plsql_def_for(fdef, catalog=None) -> Optional[P.PlsqlFunctionDef]:
    """The parsed PL/pgSQL body backing *fdef*, or None.

    Compiled functions carry it directly (``plsql_source``, retained by
    ``register_compiled_function``); plpgsql functions parse their body
    text on first use and cache the result on the same field.
    """
    if isinstance(fdef.plsql_source, P.PlsqlFunctionDef):
        return fdef.plsql_source
    if fdef.kind == "plpgsql" and fdef.body is not None:
        from ..plsql.parser import parse_plpgsql_function
        func = parse_plpgsql_function(fdef.name, fdef.param_names,
                                      fdef.param_types, fdef.return_type,
                                      fdef.body)
        fdef.plsql_source = func
        return func
    return None


def function_facts(fdef, catalog,
                   _stack: frozenset = frozenset()
                   ) -> tuple[str, bool, bool]:
    """``(volatility, may_raise, has_loops)`` for *fdef*, inferred from the
    body and cached on the FunctionDef.  Recursion (direct or mutual) is
    detected via *_stack* and classified volatile."""
    name = fdef.name.lower()
    if fdef.kind == "builtin":
        volatility = "volatile" if name in VOLATILE_FUNCTIONS else "immutable"
        return volatility, name in RAISING_BUILTINS, False
    if fdef.inferred_volatility is not None:
        return (fdef.inferred_volatility, bool(fdef.inferred_may_raise),
                bool(fdef.inferred_has_loops))
    if name in _stack:
        return "volatile", True, True
    facts = Facts()
    stack = _stack | {name}
    try:
        if fdef.kind == "sql":
            from ..sql.parser import parse_statement
            body = parse_statement(fdef.body)
            if isinstance(body, A.SelectStmt):
                _scan_expr(body, facts, catalog, stack)
        else:
            func = plsql_def_for(fdef, catalog)
            if func is None:
                facts.bump(LEVELS["volatile"])
                facts.may_raise = True
            else:
                _scan_plsql(func, facts, catalog, stack)
    except Exception:
        # An unparseable body cannot be classified: conservative top.
        facts.bump(LEVELS["volatile"])
        facts.may_raise = True
    fdef.inferred_volatility = facts.volatility
    fdef.inferred_may_raise = facts.may_raise
    fdef.inferred_has_loops = facts.has_loops
    return facts.volatility, facts.may_raise, facts.has_loops


def effective_volatility(fdef, catalog) -> str:
    """Declared class when the user supplied one, inferred otherwise."""
    if fdef.declared_volatility:
        return fdef.declared_volatility
    return function_facts(fdef, catalog)[0]


def function_is_pure(fdef, catalog) -> bool:
    """May calls to *fdef* move freely (pushdown, batching argument
    analysis)?  Requires the full conjunction: immutable (declared or
    inferred), provably raise-free, and loop-free — the same bar builtins
    meet implicitly in :func:`repro.sql.astutil.column_bindings`."""
    volatility, may_raise, has_loops = function_facts(fdef, catalog)
    if fdef.declared_volatility:
        volatility = fdef.declared_volatility
    return volatility == "immutable" and not may_raise and not has_loops
