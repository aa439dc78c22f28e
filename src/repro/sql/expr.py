"""Expression compilation and evaluation.

The planner compiles every scalar expression of a plan node into a Python
closure ``fn(ctx) -> Value`` at *plan* time (name resolution happens here,
once).  At *run* time the closure is applied to an :class:`EvalContext`
carrying the current input row(s); this is the engine's equivalent of
PostgreSQL's ``ExprState`` machinery.

Correlated and scalar subqueries compile into *subplans*.  A subplan is
instantiated lazily once per execution (charged to the first evaluation) and
*re-opened* on subsequent evaluations — the cheap "rescan" that lets a single
compiled ``WITH RECURSIVE`` plan evaluate the paper's embedded queries
``Q1..Q3`` thousands of times without per-evaluation ExecutorStart cost.
"""

from __future__ import annotations

import ast as pyast
import math
import re
import textwrap
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from . import ast as A
from .errors import (ExecutionError, NameResolutionError, PlanError, SqlError,
                     TypeError_, VariableConflictError)
from .functions import (BUILTIN_ARITY, SCALAR_BUILTINS, VOLATILE_FUNCTIONS,
                        is_aggregate_name)
from .types import cast_value, normalize_type_name
# sql_and / sql_or are also named by generated kernel code (f"sql_{op}").
from .values import (Row, Value, sql_and, sql_eq, sql_ge, sql_gt, sql_le,
                     sql_lt, sql_ne, sql_not, sql_or)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Database
    from .planner import Plan, Planner


class RuntimeContext:
    """Per-execution runtime services: database handle and parameters.

    ``cancel`` snapshots the statement's cancellation token (see
    :mod:`repro.sql.cancel`) at instantiation time so executor hot loops
    can poll it with two attribute loads; outside any statement it falls
    back to a token nothing ever trips.

    ``memos`` are the memo tables of the Memoize states and memoized call
    sites instantiated under this context (executor/memo.py);
    :meth:`release` frees them at ExecutorEnd, after a memo of a compiled
    function's machine template has handed its finished entries to the
    template's store, which outlives the execution.
    """

    __slots__ = ("db", "params", "depth", "cancel", "memos")

    def __init__(self, db: "Database", params: Sequence[Value] = ()):
        self.db = db
        self.params = tuple(params)
        self.depth = 0
        cancel = getattr(db, "_active_cancel", None)
        if cancel is None:
            from .cancel import NEVER_CANCELED
            cancel = NEVER_CANCELED
        self.cancel = cancel
        self.memos: list = []

    @property
    def rng(self):
        return self.db.rng

    @property
    def catalog(self):
        return self.db.catalog

    def release(self) -> None:
        """ExecutorEnd for what ``close`` does not reach: expression slot
        states are never closed, so the memo tables they hold are freed
        here, where the statement (or embedded-query evaluation) ends -
        those of a machine template once they have handed over to its
        store (never reached when the execution raised)."""
        for memo in self.memos:
            memo.release()
        self.memos.clear()


class EvalContext:
    """A row binding environment for one expression evaluation.

    ``rows`` holds one tuple per relation visible in the innermost scope;
    ``parent`` chains outward for correlated references; ``slots`` is the
    owning operator's per-execution subplan cache.
    """

    __slots__ = ("rt", "rows", "parent", "slots")

    def __init__(self, rt: RuntimeContext, rows: Sequence[tuple],
                 parent: Optional["EvalContext"] = None,
                 slots: Optional[list] = None):
        self.rt = rt
        self.rows = rows
        self.parent = parent
        self.slots = slots if slots is not None else []


class Relation:
    """Plan-time description of one FROM-clause relation.

    ``volatile`` holds the indexes of the columns bound directly to a
    volatile expression (a derived table's ``random()`` item, a machine
    let of one): drawn anew for every row, and assumed never to repeat,
    so no memo is keyed by one (:func:`repro.sql.executor.memo.memoize`)."""

    __slots__ = ("alias", "columns", "volatile")

    def __init__(self, alias: str, columns: Sequence[str],
                 volatile: Iterable[int] = ()):
        self.alias = alias.lower()
        self.columns = [c.lower() for c in columns]
        self.volatile = set(volatile)

    def __repr__(self) -> str:
        return f"Relation({self.alias}, {self.columns})"


class Scope:
    """Plan-time name-resolution scope (one per SELECT nesting level).

    Each of ``observers`` is called with ``(rel_index, col_index, ref)``
    every time a :class:`~repro.sql.ast.ColumnRef` *ref* (from any nesting
    depth) resolves into *this* scope's relations — the planner's
    index-pushdown probe uses this to prove that a key expression never
    touches the scanned relation, its subquery planning to record the outer
    values a subquery reads, and the binders of variables and parameters to
    rewrite exactly the references that are theirs.  Install one with
    :meth:`observe`.

    ``one_shot`` marks a scope whose row is bound once per instantiation of
    what is planned under it (the PL/pgSQL interpreter's variables): a
    subquery whose outer scope it is opens once per ExecutorStart.  A bare
    name that a FROM relation and an enclosing such scope both supply is an
    error (PostgreSQL's ``plpgsql.variable_conflict = error``), unless a
    :meth:`fence` stands between them.

    ``ungrouped`` holds the FROM relations of an aggregating query, for the
    scope of what is computed after aggregation (HAVING, the select list,
    ORDER BY): a name they supply is refused with PostgreSQL's grouping
    error there, never looked up in an outer scope it would shadow -
    unless a group key is that column: ``grouped`` holds each key's name
    parts (None for an expression key), in the order of the key columns
    that open the first relation, and such a name resolves to its key's
    column.
    """

    def __init__(self, relations: Sequence[Relation],
                 parent: Optional["Scope"] = None,
                 ungrouped: Sequence[Relation] = (),
                 grouped: Sequence[Optional[tuple]] = ()):
        self.relations = list(relations)
        self.parent = parent
        self.ungrouped = list(ungrouped)
        self.grouped = list(grouped)
        self.observers: list[Callable[[int, int, A.ColumnRef], None]] = []
        self.one_shot = False
        self.fences = 0

    @contextmanager
    def observe(self, observer: Callable[[int, int, A.ColumnRef], None]):
        """Call *observer* too while the block runs."""
        self.observers.append(observer)
        try:
            yield
        finally:
            self.observers.pop()

    @contextmanager
    def fence(self):
        """Plan a query spelled elsewhere (a spliced Qf, analysed in the
        callee's namespace) below this scope: no variable conflict."""
        self.fences += 1
        try:
            yield
        finally:
            self.fences -= 1

    def shadows_a_variable(self, name: str) -> bool:
        """Does a ``one_shot`` scope above, short of a fence, supply *name*?"""
        outer = self.parent
        while outer is not None and not outer.fences:
            if outer.one_shot and any(name in rel.columns
                                      for rel in outer.relations):
                return True
            outer = outer.parent
        return False

    def resolve(self, ref: A.ColumnRef):
        """Resolve a (possibly qualified) name to
        ``(level, rel_index, col_index, field_tail)``.

        ``level`` counts how many scopes outward the reference is; a nonzero
        level makes the expression *correlated*.
        """
        parts = ref.parts
        scope: Optional[Scope] = self
        level = 0
        first = parts[0].lower()
        while scope is not None:
            # 1. qualified: first part names a relation alias.
            if len(parts) >= 2:
                for rel_index, rel in enumerate(scope.relations):
                    if rel.alias == first:
                        column = parts[1].lower()
                        if column in rel.columns:
                            for observer in scope.observers:
                                observer(rel_index,
                                         rel.columns.index(column), ref)
                            return (level, rel_index,
                                    rel.columns.index(column), parts[2:])
                        raise NameResolutionError(
                            f"relation {first!r} has no column {parts[1]!r} "
                            f"(columns: {rel.columns})")
            # 2. bare column name, possibly with composite field tail.
            matches = [(rel_index, rel.columns.index(first))
                       for rel_index, rel in enumerate(scope.relations)
                       if first in rel.columns]
            if len(matches) == 1:
                scope._refuse_conflict(parts)
                rel_index, col_index = matches[0]
                for observer in scope.observers:
                    observer(rel_index, col_index, ref)
                return (level, rel_index, col_index, parts[1:])
            if len(matches) > 1:
                raise NameResolutionError(f"column reference {first!r} is ambiguous")
            if scope.ungrouped:
                key = scope._refuse_ungrouped(parts)
                if key is not None:
                    col_index, tail = key
                    for observer in scope.observers:
                        observer(0, col_index, ref)
                    return (level, 0, col_index, tail)
            scope = scope.parent
            level += 1
        raise NameResolutionError(f"column {'.'.join(parts)!r} does not exist")

    def _key_column(self, key: tuple) -> Optional[tuple[str, str]]:
        """``(alias, column)`` of the ungrouped column a group key that is
        a bare or qualified column name names, else None."""
        names = [part.lower() for part in key]
        if len(names) == 2:
            return names[0], names[1]
        if len(names) == 1:
            return next(((rel.alias, names[0]) for rel in self.ungrouped
                         if names[0] in rel.columns), None)
        return None

    def _refuse_conflict(self, parts: Sequence[str]) -> None:
        """Raise if the bare name *parts* found here is also a variable."""
        if len(parts) == 1 and self.shadows_a_variable(parts[0].lower()):
            raise VariableConflictError(
                f"column reference {parts[0].lower()!r} is ambiguous: it may "
                "refer to either a PL/pgSQL variable or a table column — "
                "qualify the column or rename the variable")

    def _refuse_ungrouped(self, parts: Sequence[str]):
        """Raise if an ungrouped FROM relation supplies *parts*, unless the
        column it names is a group key: then ``(its column, field tail)``
        (None when no such relation supplies *parts*)."""
        first = parts[0].lower()
        found = [(rel.alias, parts[1].lower()) for rel in self.ungrouped
                 if len(parts) >= 2 and rel.alias == first
                 and parts[1].lower() in rel.columns]
        tail = parts[2:]
        if not found:
            found = [(rel.alias, first) for rel in self.ungrouped
                     if first in rel.columns]
            if not found:
                return None
            self._refuse_conflict(parts)
            tail = parts[1:]
        alias, column = found[0]
        for index, key in enumerate(self.grouped):
            if key is not None and self._key_column(key) == (alias, column):
                return index, tail
        raise NameResolutionError(
            f'column "{alias}.{column}" must appear in the GROUP BY '
            "clause or be used in an aggregate function")


CompiledExpr = Callable[[EvalContext], Value]

#: The batch form of an expression: ``fn(batch, sel) -> column``.  *batch*
#: is the executor's ``Batch`` (``column``, ``n``, ``rt``), *sel* a selection
#: vector of row indices (``None`` = the whole batch); the column has one
#: element per selected row.
BatchExpr = Callable[[Any, Optional[list]], list]


class IntColumn(list):
    """A column whose every element is an exact ``int`` (``type(v) is int``:
    no NULL, no bool).  The type *is* the tag: a consumer tests it once per
    column instead of testing every element, and anything that is not sure
    hands on a plain ``list``.  The executor's ``Batch.column`` tags a table
    column from the storage layer's per-column fact; a :class:`Strict`
    entry's typed form tags what ``fast`` yields."""

    __slots__ = ()


class BoolColumn(list):
    """A column whose every element is ``True`` or ``False`` (no NULL)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# The kernel table: entry kinds and the derivation of the two forms
# ---------------------------------------------------------------------------
#
# What an expression node computes is written down once, as a table entry
# (``KERNELS`` below).  An entry names the node's children and holds its
# scalar semantics as Python expression *templates*; ``derive`` generates
# from them both executable forms — the per-row closure ``ctx -> value`` the
# Volcano operators call and the per-batch function ``(batch, sel) ->
# column`` the vectorized core calls — so the two cannot disagree.  The
# templates name their inputs (``a``, ``b``, ``c``, ``xs``, ``v``, ``t``,
# ``acc``, ``op``), this module's helpers, and whatever the entry binds in
# ``env``; they never contain statement data, which is what lets
# the generators below cache each distinct shape, compiled once per process.
# ``ExprCompiler.typed_form`` nests the ``fast`` templates of a whole
# exact-int expression tree into one expression, the vectorized core's
# fused aggregates loop over (``executor/vector.py``).


def _make(lines: list, names: tuple, kernel: str) -> Callable:
    """``make(*names) -> run`` for the ``def run`` spelled by *lines*;
    *kernel* is the file name tracebacks and profiles show for it."""
    scope: dict = {}
    source = textwrap.indent("\n".join(lines), "    ")
    source = f"def make({', '.join(names)}):\n{source}\n    return run"
    exec(compile(source, f"<kernel {kernel}>", "exec"), globals(), scope)
    return scope["make"]


@lru_cache(maxsize=None)
def _template_pieces(template: str) -> tuple:
    """*template* cut at its argument names ``a`` / ``b`` / ``c``, as Python
    parses it: text, name, text, .. , text (so ``a`` inside ``_int_div`` or
    ``abs`` is no argument).  :meth:`ExprCompiler.typed_form` substitutes
    the odd pieces."""
    tree = pyast.parse(template, mode="eval")
    spots = sorted((node.col_offset, node.end_col_offset, node.id)
                   for node in pyast.walk(tree)
                   if isinstance(node, pyast.Name)
                   and node.id in ("a", "b", "c"))
    pieces, pos = [], 0
    for start, end, name in spots:
        pieces += [template[pos:start], name]
        pos = end
    return tuple(pieces + [template[pos:]])


def _count(batch, sel: Optional[list]) -> int:
    """The number of rows a batch form must produce."""
    return batch.n if sel is None else len(sel)


#: What a scalar builtin may leak on ill-typed or out-of-domain arguments;
#: reclassified by entries that set ``errors`` so clients (and the
#: vectorized core's row fallback, which nets ``SqlError``) see an engine
#: error.
_PY_ERRORS = (TypeError, AttributeError, ValueError, ArithmeticError,
              MemoryError)


def _classified(name: str, exc: Exception) -> SqlError:
    ill_typed = isinstance(exc, (TypeError, AttributeError))
    return (TypeError_ if ill_typed else ExecutionError)(f"{name}(): {exc}")


class RowOnly(Exception):
    """Raised by :meth:`ExprCompiler.compile_batch` for an expression that
    contains a row-only entry."""


@dataclass(slots=True)
class Leaf:
    """Entry for a node without value-producing children.  Its two forms
    are written out; an entry without a batch form is *row-only*."""

    row: CompiledExpr
    batch: Optional[BatchExpr] = None

    @property
    def vectorizable(self) -> bool:
        return self.batch is not None

    def derive(self, compile, batch: bool):
        return self.batch if batch else self.row


@dataclass(slots=True)
class Strict:
    """Entry for a node whose value is a function of its arguments' values.

    * ``args`` — the child expressions, bound to ``a``, ``b``, ``c`` in the
      templates (``variadic``: all of them as the sequence ``xs``).  The
      batch form binds a non-NULL literal argument once, as a constant,
      instead of zipping a column of copies per row.
    * ``body`` — the scalar kernel.
    * ``fast`` — type guard: the kernel used instead of ``body`` when every
      argument is an exact ``int`` (``type(x) is int``, so never a bool).
    * ``fast_yields`` — what ``fast`` makes of exact ints:
      :class:`IntColumn` or :class:`BoolColumn`.  With it the batch form
      gets a third, *typed* shape: when every argument column is an
      :class:`IntColumn` the guard has been answered for the whole column,
      so ``fast`` runs bare and its result carries this tag.
    * ``null`` — null rule: any NULL argument makes the result NULL without
      running the kernel (the row form stops evaluating arguments there).
    * ``pre`` — an expression over ``rt`` evaluated once per row evaluation,
      or once per batch, and bound to ``t``.
    * ``errors`` — a function name: Python errors escaping the kernel are
      re-raised as classified engine errors under it.
    * ``vectorizable`` — False keeps the node row-only (side effects).
    """

    args: Sequence[A.Expr]
    body: str
    env: dict = field(default_factory=dict)
    fast: Optional[str] = None
    fast_yields: Optional[type] = None
    null: bool = False
    pre: Optional[str] = None
    variadic: bool = False
    errors: Optional[str] = None
    vectorizable: bool = True

    def derive(self, compile, batch: bool):
        env, fast = dict(self.env), self.fast
        if self.variadic:
            env["kids"] = [compile(arg) for arg in self.args]
            live = None
        else:
            live = ""  # names of the arguments that vary by row
            for name, arg in zip("abc", self.args):
                # Batch form only: it saves zipping a column of copies.  In
                # the row form it would save one closure call per row, a
                # measured 10% on filter scans that this table's
                # introduction leaves unclaimed (bench_vectorized gates the
                # row/batch *ratio*).
                if batch and isinstance(arg, A.Literal) \
                        and arg.value is not None:
                    env[name] = arg.value
                    if type(arg.value) is not int:
                        fast = None
                else:
                    env["k" + name] = compile(arg)
                    live += name
        if self.errors is not None:
            env["name"] = self.errors
        return _strict_form(self.body, fast, self.fast_yields, self.null,
                            self.pre, self.errors is not None, live,
                            bool(self.args), batch, tuple(env))(**env)


@lru_cache(maxsize=None)
def _strict_form(body: str, fast: Optional[str], fast_yields: Optional[type],
                 null: bool, pre: Optional[str], errors: bool,
                 live: Optional[str], has_args: bool, batch: bool,
                 names: tuple) -> Callable:
    """Generate one form of a :class:`Strict` entry whose arguments *live*
    vary by row (None: variadic).  The templates never contain statement
    data, so a process compiles each distinct shape once."""
    lines = ["def run(batch, sel):" if batch else "def run(ctx):"]
    if pre is not None:
        lines += [f"    rt = {'batch' if batch else 'ctx'}.rt",
                  f"    t = {pre}"]
    stmts = []
    value = body
    if live is None:
        fetch = ["xs = [k(ctx) for k in kids]"]
        loop = ("for xs in zip(*[k(batch, sel) for k in kids])" if has_args
                else "for xs in [()] * _count(batch, sel)")
    else:
        fetch = []
        for name in live:
            fetch.append(f"{name} = k{name}(ctx)")
            if null:
                fetch.append(f"if {name} is None: return None")
        if batch and null and live:
            nulls = " or ".join(f"{name} is None" for name in live)
            value = f"None if {nulls} else {value}"
        if fast is not None and live:
            guard = " and ".join(f"type({name}) is int" for name in live)
            value = f"({fast}) if {guard} else ({value})"
        elif fast is not None:
            value = fast
        if batch:
            stmts += [f"col_{name} = k{name}(batch, sel)" for name in live]
        cols = [f"col_{name}" for name in live]
        loop = ("for _ in range(_count(batch, sel))" if not live
                else f"for {live} in {cols[0]}" if len(live) == 1
                else f"for {', '.join(live)} in zip({', '.join(cols)})")
        if batch and live and fast is not None and fast_yields is not None:
            # The typed shape: the guard asked once per argument column.
            tagged = " and ".join(f"type({col}) is IntColumn" for col in cols)
            stmts += [f"if {tagged}:",
                      f"    return {fast_yields.__name__}([{fast} {loop}])"]
    if batch:
        value = f"[{value} {loop}]"
    else:
        lines += ["    " + stmt for stmt in fetch]
    stmts.append(f"return {value}")
    if errors:
        stmts = (["try:"] + ["    " + stmt for stmt in stmts]
                 + ["except _PY_ERRORS as exc:",
                    "    raise _classified(name, exc) from None"])
    lines += ["    " + stmt for stmt in stmts]
    return _make(lines, names, body)


@dataclass(slots=True)
class Lazy:
    """Entry for a node that evaluates its arms in order, each only for the
    rows no earlier arm decided (AND, OR, CASE, COALESCE, IN).

    For each arm, ``test`` turns the arm's value ``v`` into ``t``; when
    ``hit`` holds the row is decided and takes the value of the arm's
    *result* child (CASE) or of the ``value`` template; otherwise ``step``
    updates the row's accumulator ``acc`` (initially ``start``).  A row no
    arm decided takes the ``default`` child's value, else ``end``.
    ``operand``, if any, is evaluated first for every row and is ``op`` in
    the templates.
    """

    tests: Sequence[A.Expr]
    test: str
    hit: str
    value: str = "None"
    results: Optional[Sequence[A.Expr]] = None
    default: Optional[A.Expr] = None
    operand: Optional[A.Expr] = None
    start: Optional[str] = None
    step: Optional[str] = None
    end: str = "None"
    vectorizable = True

    def derive(self, compile, batch: bool):
        arms = [compile(e) for e in self.tests]
        if self.results is not None:
            arms = list(zip(arms, [compile(e) for e in self.results]))
        env = {"arms": arms}
        if self.operand is not None:
            env["operand"] = compile(self.operand)
        if self.default is not None:
            env["default"] = compile(self.default)
        return _lazy_form(self.test, self.hit, self.value, self.start,
                          self.step, self.end, self.results is not None,
                          batch, tuple(env))(**env)


@lru_cache(maxsize=None)
def _lazy_form(test: str, hit: str, value: str, start: Optional[str],
               step: Optional[str], end: str, results: bool, batch: bool,
               names: tuple) -> Callable:
    """Generate one form of a :class:`Lazy` entry (*names* says whether it
    has an ``operand`` and a ``default``)."""
    each = "for test, result in arms:" if results else "for test in arms:"
    if not batch:
        lines = ["def run(ctx):"]
        if "operand" in names:
            lines.append("    op = operand(ctx)")
        if start is not None:
            lines.append(f"    acc = {start}")
        lines += [f"    {each}",
                  "        v = test(ctx)",
                  f"        t = {test}",
                  f"        if {hit}:",
                  "            return " + ("result(ctx)" if results else value)]
        if step is not None:
            lines.append(f"        acc = {step}")
        lines.append("    return " + ("default(ctx)" if "default" in names
                                      else end))
        return _make(lines, names, test)
    # ``pos`` are the output positions still undecided, ``idx`` the batch
    # rows they stand for; until an arm decides some row they are the
    # caller's own (range, sel), so children see ``sel`` unchanged.
    lines = ["def run(batch, sel):",
             "    n = _count(batch, sel)",
             "    out = [None] * n",
             "    pos, idx = range(n), sel"]
    if "operand" in names:
        lines.append("    ops = operand(batch, sel)")
    if start is not None:
        lines.append(f"    accs = [{start}] * n")
    lines += [f"    {each}",
              "        if not pos:",
              "            break",
              "        hits, rest = [], []",
              "        for p, v in zip(pos, test(batch, idx)):"]
    if "operand" in names:
        lines.append("            op = ops[p]")
    if start is not None:
        lines.append("            acc = accs[p]")
    lines += [f"            t = {test}",
              f"            if {hit}:",
              "                hits.append(p)" if results
              else f"                out[p] = {value}",
              "            else:",
              "                rest.append(p)"]
    if step is not None:
        lines.append(f"                accs[p] = {step}")
    if results:
        lines += ["        if hits:",
                  "            _scatter(out, hits, "
                  "result(batch, _rows(sel, hits)))"]
    lines += ["        if len(rest) < len(pos):",
              "            pos, idx = rest, _rows(sel, rest)"]
    if "default" in names:
        lines += ["    if pos:",
                  "        _scatter(out, pos, default(batch, idx))"]
    elif end != "None":
        lines += ["    for p in pos:",
                  "        acc = accs[p]",
                  f"        out[p] = {end}"]
    lines.append("    return out")
    return _make(lines, names, test)


def _rows(sel: Optional[list], pos: list) -> list:
    """The batch rows behind output positions *pos* of selection *sel*."""
    return pos if sel is None else [sel[p] for p in pos]


def _scatter(out: list, pos, values: list) -> None:
    for p, value in zip(pos, values):
        out[p] = value


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def _wrong_arity(name: str, takes, given: int) -> PlanError:
    return PlanError(f"function {name}() takes {takes} arguments, "
                     f"got {given}")


class ExprCompiler:
    """Compiles AST expressions within one plan node's scope, by deriving
    the wanted form from the node's :data:`KERNELS` entry.

    After compiling all of a node's expressions, :attr:`slot_count` tells the
    node how many subplan slots its PlanState must allocate.
    """

    def __init__(self, scope: Scope, planner: Optional["Planner"] = None):
        self.scope = scope
        self.planner = planner
        self.slot_count = 0
        #: Subplans aligned with slot indices; the owning plan node's state
        #: eagerly instantiates these into its slot list (ExecutorStart).
        self.subplans: list = []

    # ------------------------------------------------------------------

    def entry(self, expr: A.Expr):
        """The table entry of *expr*; None for a row-only node (a
        :data:`ROW_ONLY` class or a user-defined function call), which
        :meth:`compile` hands to ``_compile_<Node>``."""
        node = type(expr)
        build = KERNELS.get(node)
        if build is not None:
            return build(self, expr)
        if node in ROW_ONLY:
            return None
        raise PlanError(f"cannot compile expression node {node.__name__}")

    def compile(self, expr: A.Expr) -> CompiledExpr:
        """The per-row closure ``ctx -> value`` of *expr*."""
        entry = self.entry(expr)
        if entry is None:
            return getattr(self, "_compile_" + type(expr).__name__)(expr)
        return entry.derive(self.compile, False)

    def compile_many(self, exprs: Sequence[A.Expr]) -> list[CompiledExpr]:
        return [self.compile(e) for e in exprs]

    def compile_batch(self, expr: A.Expr) -> BatchExpr:
        """The per-batch function ``(batch, sel) -> column`` of *expr*;
        raises :class:`RowOnly` when the tree contains a row-only entry."""
        entry = self.entry(expr)
        if entry is None or not entry.vectorizable:
            raise RowOnly(type(expr).__name__)
        return entry.derive(self.compile_batch, True)

    def typed_form(self, expr: A.Expr, columns: dict,
                   literals: list) -> Optional[tuple[str, type]]:
        """*expr* over exact ints as the text of one Python expression, and
        the tag of what it makes (:class:`IntColumn` / :class:`BoolColumn`),
        or None.  The text is the :class:`Strict` entries' ``fast``
        templates with their arguments substituted (parenthesized): a bare
        column is the name *columns* gives it (``x<i>``, keyed by ``(rel,
        col)``), an exact-int literal the name ``l<i>`` (its value appended
        to *literals*, so the text holds no statement data) - as is a
        parameter, the ``A.Param`` appended in its place, bound to its value
        when the plan is opened (an exact int, or the core does not fuse).
        None for any other node, and for a template that repeats a
        compound argument (its text would evaluate the argument twice)."""
        kind = type(expr)
        if kind is A.Literal or kind is A.Param:
            if kind is A.Literal and type(expr.value) is not int:
                return None
            literals.append(expr if kind is A.Param else expr.value)
            return f"l{len(literals) - 1}", IntColumn
        entry = self.entry(expr)
        if isinstance(entry, Leaf):
            ref = getattr(entry.batch, "col_ref", None)
            if ref is None:
                return None
            return columns.setdefault(ref, f"x{len(columns)}"), IntColumn
        if not isinstance(entry, Strict) or entry.fast_yields is None \
                or entry.variadic or entry.pre is not None \
                or entry.errors is not None:
            return None
        pieces = _template_pieces(entry.fast)
        args = {}
        for name, arg in zip("abc", entry.args):
            form = self.typed_form(arg, columns, literals)
            if form is None or form[1] is not IntColumn:
                return None
            text = form[0]
            if not text.isidentifier():
                if pieces[1::2].count(name) > 1:
                    return None
                text = f"({text})"
            args[name] = text
        text = "".join(args[piece] if i % 2 else piece
                       for i, piece in enumerate(pieces))
        return text, entry.fast_yields

    def _alloc_slot(self) -> int:
        index = self.slot_count
        self.slot_count += 1
        return index

    # -- entries that need the scope -------------------------------------

    def _column(self, expr: A.ColumnRef) -> Leaf:
        level, rel_index, col_index, fields = self.scope.resolve(expr)
        if not level and not fields:
            def column(batch, sel):
                return batch.column(rel_index, col_index, sel)

            # A bare column: fast projection.
            column.col_ref = (rel_index, col_index)
            return Leaf(lambda ctx: ctx.rows[rel_index][col_index], column)

        # Outer (correlated) and composite-field references are row-only.
        def run(ctx: EvalContext) -> Value:
            target = ctx
            for _ in range(level):
                if target.parent is None:
                    raise ExecutionError(
                        f"missing outer context for {expr.display!r}")
                target = target.parent
            value = target.rows[rel_index][col_index]
            for name in fields:
                if value is not None:
                    value = _field(value, name)
            return value

        return Leaf(run)

    def _call(self, expr: A.FuncCall):
        name = expr.name.lower()
        if expr.window is not None:
            raise PlanError(f"window function {name}() not allowed here")
        if is_aggregate_name(name):
            raise PlanError(f"aggregate {name}() not allowed here")
        if name == "coalesce":
            return Lazy(expr.args, "v", "t is not None", value="t")
        builtin = SCALAR_BUILTINS.get(name)
        if builtin is None:
            return None  # user-defined: row-only, _compile_FuncCall
        fewest, most = BUILTIN_ARITY[name]
        given = len(expr.args)
        if most is not None and not fewest <= given <= most:
            raise _wrong_arity(name, fewest if fewest == most
                               else f"{fewest} to {most}", given)
        return Strict(expr.args, "builtin(t, *xs)", {"builtin": builtin},
                      pre="rt", variadic=True, errors=name,
                      vectorizable=name not in VOLATILE_FUNCTIONS)

    # -- row-only nodes: user-defined functions and subqueries ---------------

    def _compile_FuncCall(self, expr: A.FuncCall) -> CompiledExpr:
        name = expr.name.lower()
        if self.planner is not None:
            fdef = self.planner.catalog.get_function(name)
            if fdef is None:
                raise NameResolutionError(f"unknown function {name!r}")
            if len(expr.args) != fdef.arity:
                raise _wrong_arity(name, fdef.arity, len(expr.args))
            if fdef.kind == "compiled":
                if self.planner.flags.batch_compiled \
                        and fdef.machine is not None:
                    return self._compile_trampoline_call(fdef, expr)
                # The paper's finalization step: splice the compiled pure-SQL
                # query Qf into the call site so Q and Qf are planned as one.
                from .astutil import substitute_params
                inlined = substitute_params(fdef.query, list(expr.args))
                with self.scope.fence():
                    return self._compile_ScalarSubquery(
                        A.ScalarSubquery(inlined))
        # SQL / PL/pgSQL: every evaluation is a Q→f context switch through
        # the engine.
        args = self.compile_many(expr.args)

        def run_udf(ctx: EvalContext):
            fdef = ctx.rt.catalog.get_function(name)
            if fdef is None:
                raise NameResolutionError(f"unknown function {name!r}")
            values = [a(ctx) for a in args]
            return ctx.rt.db.call_function(fdef, values)

        return run_udf

    def _compile_trampoline_call(self, fdef, expr: A.FuncCall) -> CompiledExpr:
        """A per-call trampoline: the function's machine rules (compiled
        once per function, not per statement) parked as a site in this
        node's subplan slots; every evaluation of the call answers here and
        now, from the site's memo or by one activation run to completion -
        as lazily as the inlined Qf it stands in for
        (executor/trampoline.py).  Each argument is cast to its
        parameter's declared type before the machine runs and before the
        memo key is built, as the inlined Qf's binding row casts it."""
        args = self.compile_many([
            A.Cast(arg, type_name)
            for arg, type_name in zip(expr.args, fdef.param_types)])
        slot = self._alloc_slot()
        self.subplans.append(self.planner.trampoline_site(fdef, expr))

        def run_trampoline(ctx: EvalContext):
            return ctx.slots[slot].call(tuple([a(ctx) for a in args]))

        return run_trampoline

    def _plan_subquery(self, query: A.SelectStmt) -> "Plan":
        if self.planner is None:
            raise PlanError("subqueries are not allowed in this context")
        return self.planner.plan_subquery(query, self.scope)

    def _subplan_runner(self, query: A.SelectStmt):
        """Return ``run(ctx) -> PlanState`` fetching the pre-instantiated
        subplan from this node's slot array and (re)opening it for *ctx*."""
        plan = self._plan_subquery(query)
        slot = self._alloc_slot()
        self.subplans.append(plan)

        def run(ctx: EvalContext):
            try:
                state = ctx.slots[slot]
            except IndexError:
                raise ExecutionError(
                    "internal: subplan slot missing (operator did not "
                    "allocate expression slots)")
            state.open(ctx)
            return state

        return run

    def _compile_ScalarSubquery(self, expr: A.ScalarSubquery) -> CompiledExpr:
        runner = self._subplan_runner(expr.query)

        def run(ctx: EvalContext):
            state = runner(ctx)
            first = state.next()
            if first is None:
                return None
            if state.next() is not None:
                raise ExecutionError(
                    "more than one row returned by a subquery used as an expression")
            if len(first) == 1:
                return first[0]
            return Row(first)

        return run

    def _compile_Exists(self, expr: A.Exists) -> CompiledExpr:
        runner = self._subplan_runner(expr.subquery)

        def run(ctx: EvalContext):
            state = runner(ctx)
            return state.next() is not None

        return run

    def _compile_InSubquery(self, expr: A.InSubquery) -> CompiledExpr:
        operand = self.compile(expr.operand)
        runner = self._subplan_runner(expr.subquery)
        negated = expr.negated

        def run(ctx: EvalContext):
            value = operand(ctx)
            state = runner(ctx)
            result: Optional[bool] = False
            while True:
                row = state.next()
                if row is None:
                    break
                candidate = row[0] if len(row) == 1 else Row(row)
                part = sql_eq(value, candidate)
                if part is True:
                    result = True
                    break
                if part is None:
                    result = None
            return sql_not(result) if negated else result

        return run


# ---------------------------------------------------------------------------
# The kernel table: entries
# ---------------------------------------------------------------------------


def _broadcast(value: Value, batch, sel) -> list:
    return [value] * _count(batch, sel)


def _literal(c: ExprCompiler, e: A.Literal) -> Leaf:
    value = e.value
    return Leaf(lambda ctx: value,
                lambda batch, sel: _broadcast(value, batch, sel))


def _param(c: ExprCompiler, e: A.Param) -> Leaf:
    index = e.index - 1
    if index < 0:
        raise PlanError("parameters are numbered from $1")

    def run(ctx) -> Value:
        try:
            return ctx.rt.params[index]
        except IndexError:
            raise ExecutionError(
                f"no value supplied for parameter ${index + 1}") from None

    def batch_form(batch, sel) -> list:
        # A Batch carries ``rt`` like an EvalContext, which is all ``run``
        # reads.  An exact int makes a typed column, so the typed shapes
        # of the kernels take it.
        value = run(batch)
        if type(value) is int:
            return IntColumn(repeat(value, _count(batch, sel)))
        return _broadcast(value, batch, sel)

    return Leaf(run, batch_form)


#: operator -> (exact-int kernel, generic kernel).
_COMPARE = {"=": ("a == b", "sql_eq(a, b)"), "<>": ("a != b", "sql_ne(a, b)"),
            "<": ("a < b", "sql_lt(a, b)"), "<=": ("a <= b", "sql_le(a, b)"),
            ">": ("a > b", "sql_gt(a, b)"), ">=": ("a >= b", "sql_ge(a, b)")}

#: ``^`` has no exact-int kernel: SQL power always yields double precision.
_ARITH = {"+": ("a + b", "_number(a) + _number(b)"),
          "-": ("a - b", "_number(a) - _number(b)"),
          "*": ("a * b", "_number(a) * _number(b)"),
          "/": ("_int_div(a, b)", "_div(a, b)"),
          "%": ("_int_mod(a, b)", "_mod(a, b)"), "^": (None, "_pow(a, b)")}

#: ``_int_div`` / ``_int_mod`` written out for a positive literal divisor.
_POSITIVE_DIVISOR = {"/": "(a // b) if a >= 0 else -((-a) // b)",
                     "%": "(a % b) if a >= 0 else -((-a) % b)"}


def _binary(c: ExprCompiler, e: A.BinaryOp):
    op, args = e.op, [e.left, e.right]
    if op in ("and", "or"):
        # ``decides`` is the truth value that settles the connective.
        decides = op == "or"
        return Lazy(args, "_as_bool(v)", f"t is {decides}",
                    value=str(decides), start=str(not decides),
                    step=f"sql_{op}(acc, t)", end="acc")
    if op in _COMPARE:
        fast, body = _COMPARE[op]
        return Strict(args, body, fast=fast, fast_yields=BoolColumn)
    if op == "||":
        return Strict(args, "_concat(a, b)")
    if op not in _ARITH:
        raise PlanError(f"unknown binary operator {op!r}")
    fast, body = _ARITH[op]
    divisor = e.right.value if isinstance(e.right, A.Literal) else None
    if op in _POSITIVE_DIVISOR and type(divisor) is int and divisor > 0:
        fast = _POSITIVE_DIVISOR[op]
    return Strict(args, body, fast=fast, fast_yields=IntColumn, null=True)


def _unary(c: ExprCompiler, e: A.UnaryOp) -> Strict:
    if e.op == "not":
        return Strict([e.operand], "sql_not(_as_bool(a))")
    if e.op == "-":
        return Strict([e.operand], "-_number(a)", fast="-a",
                      fast_yields=IntColumn, null=True)
    raise PlanError(f"unknown unary operator {e.op!r}")


def _between(c: ExprCompiler, e: A.Between) -> Strict:
    body = "sql_and(sql_ge(a, b), sql_le(a, c))"
    return Strict([e.operand, e.low, e.high],
                  f"sql_not({body})" if e.negated else body)


def _in_list(c: ExprCompiler, e: A.InList) -> Lazy:
    return Lazy(e.items, "sql_eq(op, v)", "t is True", operand=e.operand,
                value=str(not e.negated), start="False",
                step="None if t is None else acc",
                end="sql_not(acc)" if e.negated else "acc")


def _like(c: ExprCompiler, e: A.Like) -> Strict:
    flags = re.IGNORECASE if e.case_insensitive else 0
    negated = e.negated
    cache: dict[str, re.Pattern] = {}

    def like(value: Value, pattern: Value) -> bool:
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise TypeError_("LIKE expects text operands, got "
                             f"{type(value).__name__} and "
                             f"{type(pattern).__name__}")
        regex = cache.get(pattern)
        if regex is None:
            regex = re.compile(_like_to_regex(pattern), flags)
            if len(cache) < 64:
                cache[pattern] = regex
        return (regex.fullmatch(value) is not None) is not negated

    return Strict([e.operand, e.pattern], "like(a, b)", {"like": like},
                  null=True)


def _case(c: ExprCompiler, e: A.CaseExpr) -> Lazy:
    conds, results = zip(*e.whens)
    test = "_as_bool(v)" if e.operand is None else "sql_eq(op, v)"
    return Lazy(conds, test, "t is True", results=results,
                default=e.else_result, operand=e.operand)


#: The Python type of each scalar type's values: a value of it is already
#: what a cast to that type makes of it.
_PYTHON_TYPE = {"int": "int", "float": "float", "text": "str", "bool": "bool"}


def _cast(c: ExprCompiler, e: A.Cast) -> Strict:
    """Only a composite target reads the catalog."""
    target = normalize_type_name(e.type_name)
    if target == "int":
        return Strict([e.operand], "cast_value(a, 'int')", fast="a",
                      fast_yields=IntColumn)
    if target in _PYTHON_TYPE:
        return Strict([e.operand], f"a if type(a) is {_PYTHON_TYPE[target]} "
                                   f"else cast_value(a, type_name)",
                      {"type_name": target})
    if target.endswith("[]") or target == "record":
        return Strict([e.operand], "cast_value(a, type_name)",
                      {"type_name": target})
    return Strict([e.operand], "cast_value(a, type_name, t)",
                  {"type_name": e.type_name},
                  pre="rt.catalog.get_type(type_name)")


def _row(c: ExprCompiler, e: A.RowExpr) -> Strict:
    if e.type_name is None:
        return Strict(e.items, "Row(xs)", variadic=True)
    return Strict(e.items, "t.make_row(xs) if t is not None "
                           "else Row(xs, type_name=type_name)",
                  {"type_name": e.type_name},
                  pre="rt.catalog.get_type(type_name)", variadic=True)


#: AST node -> ``build(compiler, node) -> entry``.  Every ``ast.Expr``
#: subclass is here or in :data:`ROW_ONLY`.
KERNELS: dict[type, Callable] = {
    A.Literal: _literal,
    A.Param: _param,
    A.ColumnRef: ExprCompiler._column,
    A.BinaryOp: _binary,
    A.UnaryOp: _unary,
    A.IsNull: lambda c, e: Strict(
        [e.operand], "a is not None" if e.negated else "a is None"),
    A.IsBool: lambda c, e: Strict(
        [e.operand], f"(_as_bool(a) is {e.value}) is not {e.negated}"),
    A.Between: _between,
    A.InList: _in_list,
    A.Like: _like,
    A.CaseExpr: _case,
    A.Cast: _cast,
    A.RowExpr: _row,
    A.ArrayExpr: lambda c, e: Strict(e.items, "list(xs)", variadic=True),
    A.ArrayIndex: lambda c, e: Strict(
        [e.operand, e.index], "_subscript(a, b)", null=True),
    A.FieldAccess: lambda c, e: Strict(
        [e.operand], "_field(a, name)", {"name": e.fieldname}, null=True),
    A.FuncCall: ExprCompiler._call,
}

#: Nodes that run a subplan: compiled by ``ExprCompiler._compile_<Node>``,
#: never vectorized.
ROW_ONLY = frozenset({A.ScalarSubquery, A.Exists, A.InSubquery})


# ---------------------------------------------------------------------------
# Value-level helpers
# ---------------------------------------------------------------------------


def _as_bool(value: Value) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise TypeError_(f"expected boolean, got {type(value).__name__}")


def selects(value: Value) -> bool:
    """Does a WHERE, ON or HAVING condition whose value is *value* keep its
    row?  TRUE does; FALSE and NULL do not; any other value raises the
    ``TypeError_`` the AND of two conditions raises for it (PostgreSQL
    rejects a non-boolean condition outright).  Every row filter of both
    engines answers through this rule."""
    if value is True:
        return True
    if value is False or value is None:
        return False
    return _as_bool(value)


def _number(value: Value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError_(f"expected number, got {type(value).__name__}")
    return value


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("division by zero")
    # PostgreSQL integer division truncates toward zero.
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _int_mod(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("division by zero")
    # Sign follows the dividend (PostgreSQL semantics).
    remainder = abs(a) % abs(b)
    return remainder if a >= 0 else -remainder


def _div(a, b):
    _number(a), _number(b)
    if isinstance(a, int) and isinstance(b, int):
        return _int_div(a, b)
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _mod(a, b):
    _number(a), _number(b)
    if isinstance(a, int) and isinstance(b, int):
        return _int_mod(a, b)
    if b == 0:
        raise ExecutionError("division by zero")
    # IEEE: the remainder of an infinite dividend is NaN (fmod raises).
    return math.nan if math.isinf(a) else math.fmod(a, b)


def _pow(a, b):
    _number(a), _number(b)
    # PostgreSQL ^ semantics: double-precision result, with the two error
    # cases numeric exponentiation rejects.  Infinite/NaN exponents skip the
    # integrality test and take IEEE semantics ((-2) ^ inf = inf).
    if a == 0 and b < 0:
        raise ExecutionError("zero raised to a negative power is undefined")
    if a < 0 and math.isfinite(b) and float(b) != int(b):
        raise ExecutionError("a negative number raised to a non-integer "
                             "power yields a complex result")
    try:
        return float(a) ** float(b)
    except OverflowError:
        raise ExecutionError("value out of range: overflow")


def _subscript(arr: Value, i: Value) -> Value:
    if not isinstance(arr, list):
        raise TypeError_("cannot subscript a non-array value")
    if not isinstance(i, int) or isinstance(i, bool):
        raise TypeError_("array subscript must be an integer")
    return arr[i - 1] if 1 <= i <= len(arr) else None


def _field(value: Value, name: str) -> Value:
    if not isinstance(value, Row):
        raise TypeError_(f"cannot access field {name!r} of "
                         f"{type(value).__name__}")
    return value.field(name)


def _concat(a: Value, b: Value) -> Value:
    if a is None or b is None:
        return None
    if isinstance(a, list) and isinstance(b, list):
        return a + b
    if isinstance(a, list):
        return a + [b]
    if isinstance(b, list):
        return [a] + b

    def text(v):
        if isinstance(v, str):
            return v
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, float)):
            return str(v)
        from .values import render_value
        return render_value(v)

    return text(a) + text(b)


def _like_to_regex(pattern: str) -> str:
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "".join(out)
