"""The one AST traversal, and what is built on it.

"The children of a node" is defined here and nowhere else: a child table
derived from the dataclass declarations (:data:`CHILD_FIELDS`) and two
algorithms over it, :func:`walk` and :func:`rebuild`.  Every other walk or
rewrite of a SQL tree - in this module, the planner, the session layer, the
PL/SQL compiler and the analyzer - is a few lines on top of those two, so a
new AST field needs no traversal edit (``tools/lint_internal.py`` rule 5
keeps a second traversal from regrowing).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterator, Optional, get_args, get_type_hints

from . import ast as A
from .errors import PlanError
from .functions import is_aggregate_name, is_window_function_name


_SCALARS = (str, int, float, bool, type(None), Any)


def _may_hold_node(annotation) -> bool:
    """Can a field annotated *annotation* hold an AST node (directly or
    inside a list / tuple / dict)?  True unless it mentions scalars only."""
    args = get_args(annotation)
    if args:
        return any(_may_hold_node(arg) for arg in args)
    return isinstance(annotation, type) and annotation not in _SCALARS


class _ChildTable(dict):
    """type -> names of the dataclass fields that can hold child nodes,
    in declaration order; ``None`` for a type that is not an AST node
    (containers, strings, values).

    This is the one definition of "the children of a node": a row is
    derived from the node class's own field declarations the first time the
    class is seen (every dataclass of ``sql/ast.py``, and the PL/pgSQL
    statement classes the analyzer walks), so a new AST field needs no
    traversal edit anywhere."""

    def __missing__(self, cls):
        names = None
        if dataclasses.is_dataclass(cls):
            hints = get_type_hints(cls)
            names = tuple(f.name for f in dataclasses.fields(cls)
                          if _may_hold_node(hints[f.name]))
        self[cls] = names
        return names


CHILD_FIELDS = _ChildTable()


def walk(node, into_subqueries: bool = True) -> Iterator:
    """Every AST node reachable from *node* (a node, or a list / tuple /
    dict of nodes), depth-first, parents before children, siblings in field
    order.  With ``into_subqueries=False`` a :class:`SelectStmt` is yielded
    but not entered."""
    stack = [node]
    pop = stack.pop
    while stack:
        current = pop()
        cls = type(current)
        names = CHILD_FIELDS[cls]
        if names is None:
            if cls is list or cls is tuple:
                stack.extend(reversed(current))
            elif cls is dict:
                stack.extend(reversed(current.values()))
            continue
        yield current
        if names and (into_subqueries or cls is not A.SelectStmt):
            for name in reversed(names):
                value = getattr(current, name)
                if value is not None:
                    stack.append(value)


def calls_user_function(node, functions: dict) -> bool:
    """Whether *node* (as :func:`walk` takes it) calls a function of the
    catalog's *functions* - one whose body may write, whatever its
    volatility class says."""
    return bool(functions) and any(
        isinstance(current, A.FuncCall) and current.name.lower() in functions
        for current in walk(node))


def rebuild(node, fn: Callable):
    """*node* with *fn* applied to each direct child node (through list,
    tuple and dict fields); *node* itself when every child came back
    unchanged, so an untouched subtree is shared, never copied."""
    changes = {}
    for name in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if value is not None:
            new = _map_nodes(value, fn)
            if new is not value:
                changes[name] = new
    return dataclasses.replace(node, **changes) if changes else node


def _map_nodes(value, fn):
    cls = type(value)
    if CHILD_FIELDS[cls] is not None:
        return fn(value)
    if cls is list or cls is tuple:
        new = [_map_nodes(item, fn) for item in value]
        if all(a is b for a, b in zip(new, value)):
            return value
        return new if cls is list else tuple(new)
    if cls is dict:
        new = {key: _map_nodes(item, fn) for key, item in value.items()}
        if all(new[key] is item for key, item in value.items()):
            return value
        return new
    return value


def spelled_names(node) -> set[str]:
    """Every string a field of a node under *node* holds (column, table,
    alias, CTE and function names, ...), lowercased; literals excepted."""
    return {item.lower() for current in walk(node)
            if type(current) is not A.Literal
            for f in dataclasses.fields(current)
            for value in [getattr(current, f.name)]
            for item in (value if isinstance(value, (list, tuple))
                         else [value])
            if isinstance(item, str)}


def walk_expr(expr: A.Expr) -> Iterator:
    """:func:`walk` over *expr* without entering subqueries."""
    return walk(expr, into_subqueries=False)


def expr_equal(a: Optional[A.Expr], b: Optional[A.Expr]) -> bool:
    """Structural equality of two expressions (used for GROUP BY matching):
    the dataclass-generated ``==``, which compares every declared field."""
    return a == b


ExprFn = Callable[[A.Expr], Optional[A.Expr]]


def _transform(node, fn: ExprFn, into_subqueries: bool):
    """Bottom-up rewrite: children first, then *fn* sees each rebuilt
    expression node; ``None`` keeps it."""
    def visit(current):
        if not into_subqueries and type(current) is A.SelectStmt:
            return current
        current = rebuild(current, visit)
        if isinstance(current, A.Expr):
            replacement = fn(current)
            if replacement is not None:
                return replacement
        return current

    return visit(node)


def transform_expr(expr: A.Expr, fn: ExprFn) -> A.Expr:
    """Bottom-up rewrite: apply *fn* to every expression node; ``None``
    keeps the node.  Subquery boundaries are **not** crossed (the planner
    recurses into subqueries when planning them)."""
    return _transform(expr, fn, into_subqueries=False)


def transform_select(stmt: A.SelectStmt, leaf: ExprFn) -> A.SelectStmt:
    """Bottom-up rewrite of every expression node everywhere in *stmt*
    (select list, FROM subqueries, window specs, CTE bodies, ...), crossing
    subqueries.  Used e.g. to bind a SQL function body's parameters: *leaf*
    returns the ``$n`` for each reference the planner resolved to one
    (``Database.sql_function_body``)."""
    return _transform(stmt, leaf, into_subqueries=True)


def rewrite_expr(node, fn: ExprFn):
    """Top-down rewrite for the planner's stage extraction: where *fn*
    returns a replacement the expression is swapped for it and not entered;
    ``None`` descends.  Subquery boundaries are not crossed (an aggregate
    inside a subquery belongs to the subquery)."""
    def visit(current):
        if type(current) is A.SelectStmt:
            return current
        if isinstance(current, A.Expr):
            replacement = fn(current)
            if replacement is not None:
                return replacement
        return rebuild(current, visit)

    return visit(node)


def substitute_params(node, args: list[A.Expr]):
    """Replace every ``$n`` in *node* - a SELECT or an expression - with
    the n-th expression of *args*, crossing subqueries.

    This is how a compiled function is inlined: the stored query template
    has one ``Param`` hole per function parameter, in the row that binds
    its arguments (``compiler/template.bind_arguments``), and the call
    site's argument expressions are substituted there."""

    def leaf(node: A.Expr) -> Optional[A.Expr]:
        if isinstance(node, A.Param):
            if node.index < 1 or node.index > len(args):
                raise PlanError(f"parameter ${node.index} out of range "
                                f"({len(args)} arguments)")
            return args[node.index - 1]
        return None

    return _transform(node, leaf, into_subqueries=True)


def split_conjuncts(expr: A.Expr) -> list[A.Expr]:
    """Flatten a conjunction into its top-level AND-ed conjuncts."""
    if isinstance(expr, A.BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[A.Expr]) -> Optional[A.Expr]:
    """Rebuild an AND chain from *conjuncts* (None for the empty list)."""
    out: Optional[A.Expr] = None
    for conjunct in conjuncts:
        out = conjunct if out is None else A.BinaryOp("and", out, conjunct)
    return out


class ColumnBindings:
    """Which relations an expression reads — the planner's pushdown oracle.

    ``rels`` is the set of level-0 relation indices referenced; ``outer`` is
    True when some reference resolves to an enclosing scope.  ``unknown``
    means the analysis is inconclusive (a subquery, whose internals this
    walk does not enter; a name that fails to resolve; or a function call
    that is volatile or user-defined and therefore must keep its exact
    evaluation count) and the caller must assume the expression may read
    *anything* — it must stay where the query text put it.
    """

    __slots__ = ("rels", "outer", "unknown")

    def __init__(self, rels: frozenset, outer: bool, unknown: bool):
        self.rels = rels
        self.outer = outer
        self.unknown = unknown


def column_bindings(expr: A.Expr, scope, catalog=None) -> ColumnBindings:
    """Resolve every column reference in *expr* against *scope* and report
    which level-0 relations it binds (see :class:`ColumnBindings`).

    Used by the planner to decide whether a WHERE conjunct can be pushed
    below a join and whether an equality's sides straddle a join cleanly
    enough to become hash-join keys.

    When *catalog* is supplied, user-defined function calls consult the
    static analyzer's volatility inference (:mod:`repro.analysis`): a call
    proven immutable, raise-free and loop-free moves as freely as a pure
    builtin.  Without a catalog the pre-analyzer pessimism applies — every
    user call pins its expression in place.
    """
    from .errors import NameResolutionError

    rels: set[int] = set()
    outer = False
    unknown = False
    for node in walk_expr(expr):
        if isinstance(node, (A.ScalarSubquery, A.Exists, A.InSubquery)):
            unknown = True
            continue
        if isinstance(node, A.FuncCall):
            if not call_is_pure(node, catalog):
                unknown = True
            continue
        if isinstance(node, A.ColumnRef):
            try:
                level, rel_index, _col, _fields = scope.resolve(node)
            except NameResolutionError:
                unknown = True
                continue
            if level == 0:
                rels.add(rel_index)
            else:
                outer = True
    return ColumnBindings(frozenset(rels), outer, unknown)


def call_is_pure(node: A.FuncCall, catalog=None) -> bool:
    """May *node* run more or fewer times than the query text says?

    Moving an expression changes how often it runs: only pure calls may
    move.  Volatile builtins (random, ...) may not; user-defined functions
    may not unless the analyzer proves them pure (PostgreSQL defaults them
    to VOLATILE, and they may raise), and without a *catalog* none is."""
    from .functions import SCALAR_BUILTINS, VOLATILE_FUNCTIONS
    name = node.name.lower()
    if name == "coalesce":
        return True
    if name in SCALAR_BUILTINS:
        return name not in VOLATILE_FUNCTIONS
    fdef = catalog.get_function(name) if catalog is not None else None
    if fdef is None:
        return False
    from ..analysis.volatility import function_is_pure
    return function_is_pure(fdef, catalog)


def calls_only_pure(expr: A.Expr, catalog=None) -> bool:
    """Is every call in *expr*, its subqueries included, free to move
    (:func:`call_is_pure`)?  Aggregates and window functions are pure over
    their input rows."""
    return all(call_is_pure(node, catalog) or is_aggregate_name(node.name)
               or is_window_function_name(node.name)
               for node in walk(expr) if isinstance(node, A.FuncCall))


def contains_aggregate(expr: A.Expr) -> bool:
    """True when *expr* contains a non-windowed aggregate call."""
    for node in walk_expr(expr):
        if isinstance(node, A.FuncCall) and node.window is None \
                and is_aggregate_name(node.name):
            return True
    return False


def contains_window_call(expr: A.Expr) -> bool:
    for node in walk_expr(expr):
        if isinstance(node, A.FuncCall) and node.window is not None:
            return True
    return False


def references_table(node, table: str) -> bool:
    """True when *node* (any AST statement/expression) names *table* in a
    FROM clause anywhere — including CTE bodies and subqueries nested in
    expressions.  Conservative on purpose: a CTE merely *shadowing* the
    name still counts, so callers using this as a "reads the table" test
    may over-approximate but never miss a read."""
    target = table.lower()
    return any(type(n) is A.TableName and n.name.lower() == target
               for n in walk(node))


def statement_param_count(stmt) -> int:
    """Highest ``$n`` used anywhere in a statement or expression (0 when
    parameter-free).  PREPARE uses this to derive the parameter count a
    later EXECUTE must supply."""
    return max((n.index for n in walk(stmt) if type(n) is A.Param),
               default=0)
