"""AST node definitions for the SQL dialect understood by the engine.

The same nodes are produced by :mod:`repro.sql.parser` when parsing text and
constructed programmatically by the PL/SQL compiler when it emits queries.
:mod:`repro.sql.sqlgen` renders them back to SQL text in several dialects.

All nodes are small frozen-ish dataclasses (not frozen, so the planner may
annotate them, but they should be treated as immutable by convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .values import Value

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all scalar expressions."""

    __slots__ = ()


@dataclass
class Literal(Expr):
    """A constant: number, string, boolean, or NULL."""

    value: Value


@dataclass
class ColumnRef(Expr):
    """A possibly-qualified name: ``x``, ``t.x`` or ``t.x.f`` (field access).

    Resolution (splitting table qualifier from composite field access)
    happens in the expression compiler, which knows the visible scopes.
    """

    parts: tuple[str, ...]

    @property
    def display(self) -> str:
        return ".".join(self.parts)


@dataclass
class Param(Expr):
    """Positional parameter ``$n`` (1-based)."""

    index: int


@dataclass
class BinaryOp(Expr):
    """Binary operator; ``op`` is one of
    ``+ - * / % || = <> < <= > >= and or``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    """Unary operator; ``op`` is ``-``, ``+`` or ``not``."""

    op: str
    operand: Expr


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class IsBool(Expr):
    """``expr IS [NOT] TRUE/FALSE`` — never NULL."""

    operand: Expr
    value: bool
    negated: bool = False


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    operand: Expr
    items: list[Expr]
    negated: bool = False


@dataclass
class InSubquery(Expr):
    operand: Expr
    subquery: "SelectStmt"
    negated: bool = False


@dataclass
class Exists(Expr):
    subquery: "SelectStmt"


@dataclass
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False
    case_insensitive: bool = False


@dataclass
class CaseExpr(Expr):
    """Searched CASE when ``operand`` is None, simple CASE otherwise."""

    operand: Optional[Expr]
    whens: list[tuple[Expr, Expr]]
    else_result: Optional[Expr]


@dataclass
class Cast(Expr):
    operand: Expr
    type_name: str


@dataclass
class FuncCall(Expr):
    """Function call; covers scalar builtins, aggregates, and registered
    user functions.  ``star`` marks ``count(*)``; ``window`` attaches an
    OVER clause (either an inline :class:`WindowSpec` or the name of a
    window declared in the WINDOW clause)."""

    name: str
    args: list[Expr]
    star: bool = False
    distinct: bool = False
    window: Union["WindowSpec", str, None] = None


@dataclass
class RowExpr(Expr):
    """``ROW(a, b, ...)`` constructor."""

    items: list[Expr]
    type_name: Optional[str] = None


@dataclass
class ArrayExpr(Expr):
    """``ARRAY[a, b, ...]`` constructor."""

    items: list[Expr]


@dataclass
class ArrayIndex(Expr):
    """``arr[i]`` subscripting (1-based, SQL style)."""

    operand: Expr
    index: Expr


@dataclass
class FieldAccess(Expr):
    """``(expr).field`` — field selection from a composite value."""

    operand: Expr
    fieldname: str


@dataclass
class ScalarSubquery(Expr):
    """A parenthesised SELECT used as a scalar value."""

    query: "SelectStmt"


# ---------------------------------------------------------------------------
# Window specifications
# ---------------------------------------------------------------------------


@dataclass
class SortItem:
    expr: Expr
    descending: bool = False
    nulls_first: Optional[bool] = None  # None = dialect default


@dataclass
class FrameBound:
    """One edge of a window frame.

    ``kind`` is one of ``unbounded_preceding``, ``preceding``, ``current``,
    ``following``, ``unbounded_following``; ``offset`` is the expression for
    ``<n> PRECEDING/FOLLOWING`` bounds.
    """

    kind: str
    offset: Optional[Expr] = None


@dataclass
class FrameSpec:
    mode: str = "range"  # 'rows' | 'range' | 'groups'
    start: FrameBound = field(default_factory=lambda: FrameBound("unbounded_preceding"))
    end: FrameBound = field(default_factory=lambda: FrameBound("current"))
    exclusion: Optional[str] = None  # 'current row' | 'ties' | 'group'


@dataclass
class WindowSpec:
    """An OVER (...) specification; ``ref_name`` names a base window that
    this spec refines (``(leq ROWS ...)`` in the paper's Q2)."""

    ref_name: Optional[str] = None
    partition_by: list[Expr] = field(default_factory=list)
    order_by: list[SortItem] = field(default_factory=list)
    frame: Optional[FrameSpec] = None


# ---------------------------------------------------------------------------
# Table references
# ---------------------------------------------------------------------------


class TableRef:
    """Base class for everything that may appear in FROM."""

    __slots__ = ()


@dataclass
class TableName(TableRef):
    name: str
    alias: Optional[str] = None
    column_aliases: Optional[list[str]] = None


@dataclass
class SubqueryRef(TableRef):
    query: "SelectStmt"
    alias: str
    column_aliases: Optional[list[str]] = None
    lateral: bool = False


@dataclass
class Join(TableRef):
    """``kind`` is ``inner``, ``left`` or ``cross``.  A comma in FROM parses
    as a cross join.  LATERAL is a property of the right-hand side ref."""

    kind: str
    left: TableRef
    right: TableRef
    condition: Optional[Expr] = None


# ---------------------------------------------------------------------------
# SELECT statements
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class Star:
    """``*`` or ``t.*`` in a select list."""

    table: Optional[str] = None


@dataclass
class SelectCore:
    """One SELECT ... FROM ... WHERE ... block (no ORDER BY/LIMIT)."""

    items: list[Union[SelectItem, Star]]
    from_clause: Optional[TableRef] = None
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    distinct: bool = False
    windows: dict[str, WindowSpec] = field(default_factory=dict)


@dataclass
class ValuesClause:
    """``VALUES (...), (...)`` usable as a select body."""

    rows: list[list[Expr]]


@dataclass
class SetOp:
    """UNION [ALL] / INTERSECT / EXCEPT of two select bodies."""

    op: str  # 'union' | 'union_all' | 'intersect' | 'except'
    left: Union[SelectCore, "SetOp", ValuesClause]
    right: Union[SelectCore, "SetOp", ValuesClause]


@dataclass
class CommonTableExpr:
    name: str
    column_names: Optional[list[str]]
    query: "SelectStmt"


@dataclass
class WithClause:
    """``WITH [RECURSIVE | ITERATE] name (...) AS (...) , ...``.

    ``iterate`` marks the paper's proposed WITH ITERATE variant: the working
    table retains only the rows of the most recent step and the CTE's final
    content is that last step (plus, for convenience, rows marked final by
    the recursive term's own filter — see executor/recursion.py).
    """

    recursive: bool
    ctes: list[CommonTableExpr]
    iterate: bool = False


@dataclass
class SelectStmt:
    with_clause: Optional[WithClause]
    body: Union[SelectCore, SetOp, ValuesClause]
    order_by: list[SortItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None


# ---------------------------------------------------------------------------
# DDL / DML
# ---------------------------------------------------------------------------


@dataclass
class ColumnDef:
    name: str
    type_name: str


@dataclass
class CreateTable:
    name: str
    columns: list[ColumnDef]
    if_not_exists: bool = False


@dataclass
class CreateType:
    name: str
    fields: list[ColumnDef]


@dataclass
class IndexedColumn:
    """One key column of ``CREATE INDEX``: name plus sort direction."""

    name: str
    descending: bool = False


@dataclass
class CreateIndex:
    """``CREATE INDEX [IF NOT EXISTS] name ON table (col [ASC|DESC], ...)``.

    Declares a sorted index (see :class:`repro.sql.storage.SortedIndex`):
    built eagerly, maintained incrementally by DML, consulted by the
    planner for range scans, sort elimination and merge joins.
    """

    name: str
    table: str
    columns: list[IndexedColumn]
    if_not_exists: bool = False


@dataclass
class DropIndex:
    name: str
    if_exists: bool = False


@dataclass
class FunctionParam:
    name: str
    type_name: str


@dataclass
class CreateFunction:
    """``CREATE [OR REPLACE] FUNCTION ... LANGUAGE {SQL | PLPGSQL}``.

    The body is kept as raw text; PL/pgSQL bodies are parsed lazily by the
    PL/pgSQL front end, SQL bodies by the SQL parser.
    """

    name: str
    params: list[FunctionParam]
    return_type: str
    language: str
    body: str
    replace: bool = False
    #: Declared volatility class (``immutable``/``stable``/``volatile``),
    #: or None when the declaration omitted it and the static analyzer's
    #: inference is authoritative.
    volatility: Optional[str] = None


@dataclass
class Insert:
    table: str
    columns: Optional[list[str]]
    source: SelectStmt


@dataclass
class Update:
    table: str
    assignments: list[tuple[str, Expr]]
    where: Optional[Expr] = None


@dataclass
class Delete:
    table: str
    where: Optional[Expr] = None


@dataclass
class DropTable:
    name: str
    if_exists: bool = False


@dataclass
class DropFunction:
    name: str
    if_exists: bool = False


# ---------------------------------------------------------------------------
# Session statements: prepared statements, settings, EXPLAIN
# ---------------------------------------------------------------------------


@dataclass
class PrepareStmt:
    """``PREPARE name [(type, ...)] AS statement``.

    Registers *statement* (SELECT or DML with ``$n`` holes) under *name* in
    the executing session.  The plan is cached on the handle and stamped
    with the DDL generation and settings fingerprint, so stale handles
    replan instead of returning stale results.
    """

    name: str
    param_types: Optional[list[str]]
    statement: "Statement"


@dataclass
class ExecuteStmt:
    """``EXECUTE name [(expr, ...)]`` — run a prepared statement.

    Argument expressions are evaluated without a row context (literals,
    arithmetic, ``$n`` references to the outer call's parameters, scalar
    subqueries) and bound to the prepared statement's parameters.
    """

    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class DeallocateStmt:
    """``DEALLOCATE [PREPARE] (name | ALL)``; ``name`` is None for ALL."""

    name: Optional[str] = None
    if_exists: bool = False


@dataclass
class SetStmt:
    """``SET [LOCAL] name (= | TO) (value | DEFAULT)``.

    ``value`` is None for ``SET name = DEFAULT`` (equivalent to RESET).
    ``local`` scopes the assignment to the enclosing script (reverted when
    the script ends; a no-op with a notice outside one, like PostgreSQL's
    SET LOCAL outside a transaction).
    """

    name: str
    value: Optional[Expr]
    local: bool = False


@dataclass
class ShowStmt:
    """``SHOW name`` / ``SHOW ALL`` (``name`` is None for ALL)."""

    name: Optional[str] = None


@dataclass
class ResetStmt:
    """``RESET name`` / ``RESET ALL`` (``name`` is None for ALL)."""

    name: Optional[str] = None


@dataclass
class ExplainStmt:
    """``EXPLAIN statement`` — render the plan tree instead of running it.

    Supports SELECT and EXECUTE (the latter shows the prepared handle's
    *current* plan, after any replan forced by DDL or settings changes).
    """

    statement: "Statement"


# ---------------------------------------------------------------------------
# Transaction control
# ---------------------------------------------------------------------------


@dataclass
class BeginStmt:
    """``BEGIN [WORK | TRANSACTION]`` / ``START TRANSACTION``.

    Opens an explicit transaction block on the executing session; the
    block's snapshot is captured at its first subsequent statement.
    A BEGIN inside an open block is a warning-notice no-op.
    """


@dataclass
class CommitStmt:
    """``COMMIT [WORK | TRANSACTION]`` / ``END`` — a warning-notice no-op
    outside a transaction block, like PostgreSQL."""


@dataclass
class RollbackStmt:
    """``ROLLBACK [WORK | TRANSACTION]`` / ``ABORT``, or
    ``ROLLBACK [WORK | TRANSACTION] TO [SAVEPOINT] name`` when
    ``savepoint`` is set (the savepoint itself survives, PostgreSQL
    style)."""

    savepoint: Optional[str] = None


@dataclass
class SavepointStmt:
    """``SAVEPOINT name`` — only valid inside a transaction block."""

    name: str


@dataclass
class ReleaseStmt:
    """``RELEASE [SAVEPOINT] name`` — forgets *name* and every savepoint
    established after it, without undoing any work."""

    name: str


@dataclass
class CheckFunctionStmt:
    """``CHECK FUNCTION name | ALL`` — run the static analyzer
    (:mod:`repro.analysis`) over one registered function (or every
    user-defined one) and return its diagnostics as rows."""

    name: Optional[str] = None  # None means ALL


@dataclass
class CheckpointStmt:
    """``CHECKPOINT`` — compact the WAL to a snapshot-prefixed log.

    A no-op (with a notice) on a non-durable database; inside an explicit
    transaction block it is rejected like PostgreSQL rejects VACUUM."""


# ---------------------------------------------------------------------------
# The statement table
# ---------------------------------------------------------------------------

#: Result kinds of the dispatch layer; cursors map them to PEP-249
#: ``description`` / ``rowcount`` semantics.
ROWS = "rows"        # produces a result set (SELECT, VALUES, SHOW, EXPLAIN)
COUNT = "count"      # DML returning an affected-row count
UTILITY = "utility"  # DDL and session statements with no result


class StatementKind(NamedTuple):
    """One row of :data:`STATEMENTS`: everything the front end and the
    engine know about a kind of statement."""

    node: type
    #: The bare words (or ``(``) a statement of this kind may start with.
    keywords: tuple[str, ...]
    #: The ``SqlParser`` method that parses it, given by name (the parser
    #: imports this module, not the other way round); kinds sharing a
    #: keyword share the rule, which tells them apart further in.
    parse: str
    #: ROWS / COUNT / UTILITY; None for EXECUTE, whose handler returns the
    #: ``(kind, Result)`` of the statement it ran.
    kind: Optional[str]
    #: CommandComplete tag of the wire protocol; ``{n}`` is the number of
    #: rows returned (ROWS) or affected (COUNT).  None for EXECUTE, which is
    #: tagged as the statement it ran.
    tag: Optional[str]
    #: The ``Database`` method ``(stmt, params, session) -> Result`` that
    #: runs it, by name for the same reason.
    run: str
    #: The ``Planner`` method that plans it, for the kinds that are plans
    #: (``Planner.plan_statement``): those run through ``_do_planned``,
    #: show in EXPLAIN, and are what PREPARE may wrap (PostgreSQL's rule).
    plan: Optional[str] = None


#: THE list of statement kinds.  ``Statement``, the parser's dispatch on the
#: leading keyword, the engine's dispatch on the node class, the wire tag
#: and the PREPARE rule are all read from here; a new kind is one row plus
#: the dataclass, the parse rule and the handler the row names.
STATEMENTS: dict[type, StatementKind] = {row.node: row for row in (
    StatementKind(SelectStmt, ("select", "with", "values", "("),
                  "parse_select", ROWS, "SELECT {n}", "_do_planned",
                  "plan_select"),
    StatementKind(Insert, ("insert",), "_parse_insert",
                  COUNT, "INSERT 0 {n}", "_do_planned", "_plan_insert"),
    StatementKind(Update, ("update",), "_parse_update",
                  COUNT, "UPDATE {n}", "_do_planned", "_plan_update"),
    StatementKind(Delete, ("delete",), "_parse_delete",
                  COUNT, "DELETE {n}", "_do_planned", "_plan_delete"),
    StatementKind(CreateTable, ("create",), "_parse_create",
                  UTILITY, "CREATE TABLE", "_do_create_table"),
    StatementKind(CreateType, ("create",), "_parse_create",
                  UTILITY, "CREATE TYPE", "_do_create_type"),
    StatementKind(CreateFunction, ("create",), "_parse_create",
                  UTILITY, "CREATE FUNCTION", "_do_create_function"),
    StatementKind(CreateIndex, ("create",), "_parse_create",
                  UTILITY, "CREATE INDEX", "_do_create_index"),
    StatementKind(DropTable, ("drop",), "_parse_drop",
                  UTILITY, "DROP TABLE", "_do_drop_table"),
    StatementKind(DropFunction, ("drop",), "_parse_drop",
                  UTILITY, "DROP FUNCTION", "_do_drop_function"),
    StatementKind(DropIndex, ("drop",), "_parse_drop",
                  UTILITY, "DROP INDEX", "_do_drop_index"),
    StatementKind(PrepareStmt, ("prepare",), "_parse_prepare",
                  UTILITY, "PREPARE", "_do_prepare"),
    StatementKind(ExecuteStmt, ("execute",), "_parse_execute",
                  None, None, "_do_execute"),
    StatementKind(DeallocateStmt, ("deallocate",), "_parse_deallocate",
                  UTILITY, "DEALLOCATE", "_do_deallocate"),
    StatementKind(SetStmt, ("set",), "_parse_set",
                  UTILITY, "SET", "_do_set"),
    StatementKind(ShowStmt, ("show",), "_parse_show",
                  ROWS, "SHOW", "_do_show"),
    StatementKind(ResetStmt, ("reset",), "_parse_reset",
                  UTILITY, "RESET", "_do_reset"),
    StatementKind(ExplainStmt, ("explain",), "_parse_explain",
                  ROWS, "EXPLAIN", "_do_explain"),
    StatementKind(BeginStmt, ("begin", "start"), "_parse_begin",
                  UTILITY, "BEGIN", "_do_begin"),
    StatementKind(CommitStmt, ("commit", "end"), "_parse_commit",
                  UTILITY, "COMMIT", "_do_commit"),
    StatementKind(RollbackStmt, ("rollback", "abort"), "_parse_rollback",
                  UTILITY, "ROLLBACK", "_do_rollback"),
    StatementKind(SavepointStmt, ("savepoint",), "_parse_savepoint",
                  UTILITY, "SAVEPOINT", "_do_savepoint"),
    StatementKind(ReleaseStmt, ("release",), "_parse_release",
                  UTILITY, "RELEASE", "_do_release"),
    StatementKind(CheckpointStmt, ("checkpoint",), "_parse_checkpoint",
                  UTILITY, "CHECKPOINT", "_do_checkpoint"),
    StatementKind(CheckFunctionStmt, ("check",), "_parse_check_function",
                  ROWS, "SELECT {n}", "_do_check_function"),
)}

Statement = Union[tuple(STATEMENTS)]
