"""The schema catalog: tables, composite types, and the function registry.

Functions come in four flavours, mirroring the paper's cast of characters:

* **builtin** — engine-provided scalars (``sign``, ``substr``, ``random``, ...),
* **sql** — ``LANGUAGE SQL`` user-defined functions (the paper's UDF stage);
  their body is a single SELECT evaluated per call, *with* plan
  instantiation cost — which is exactly why the paper does not stop there,
* **plpgsql** — interpreted PL/pgSQL functions (the baseline; every call is a
  ``Q→f`` context switch),
* **compiled** — the product of the paper's pipeline: a parameterised pure-SQL
  query that the planner inlines at the call site so the whole thing is
  planned once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import ast as A
from .errors import CatalogError, NameResolutionError
from .storage import BufferManager, HeapTable
from .types import CompositeType


@dataclass
class IndexDef:
    """A declared sorted index (``CREATE INDEX``): names the
    :class:`~repro.sql.storage.SortedIndex` pinned on its table.  Lazily
    auto-created indexes (range scans) have no IndexDef — only declared
    ones are droppable by name."""

    name: str
    table: str
    column_names: list[str]
    columns: tuple[int, ...]
    descending: tuple[bool, ...]


@dataclass
class FunctionDef:
    """A registered function.

    Exactly one of the payload fields is populated, according to ``kind``:
    ``builtin`` uses ``impl``; ``sql`` and ``plpgsql`` use ``body`` (source
    text, parsed lazily and cached by the respective front end); ``compiled``
    uses ``query`` — a SELECT AST with :class:`repro.sql.ast.Param` holes,
    one per parameter, that the planner inlines as a correlated subplan.
    """

    name: str
    kind: str  # 'builtin' | 'sql' | 'plpgsql' | 'compiled'
    param_names: list[str] = field(default_factory=list)
    param_types: list[str] = field(default_factory=list)
    return_type: str = "int"
    impl: Optional[Callable] = None
    body: Optional[str] = None
    query: Optional[A.SelectStmt] = None
    #: The trampoline as explicit transition rules (the template's machine
    #: form; repro.compiler.template.TrampolineMachine), for every recursive
    #: function: every call site steps it directly
    #: (executor/trampoline.py).  Its ``shareable`` flag says whether
    #: calls may share results (no call in the body that the analyzer
    #: classes volatile - a builtin or a user-defined helper).
    #: None for loop-free functions, which inline as plain expressions.
    machine: object = None
    #: Volatility class declared in CREATE FUNCTION (IMMUTABLE/STABLE/
    #: VOLATILE), or None when omitted — then the analyzer's inference
    #: (``inferred_volatility``) is authoritative.
    declared_volatility: Optional[str] = None
    #: Parsed PL/pgSQL body (repro.plsql.ast.PlsqlFunctionDef) for the
    #: static analyzer: compiled functions keep the pipeline's source here,
    #: plpgsql functions cache a parse of ``body`` on first analysis.
    plsql_source: object = None
    #: What a front end built from the body on first use - the SQL body's
    #: plan, the PL/pgSQL interpreter's FunctionRuntime, the trampoline's
    #: machine rules as closures (executor.trampoline.MachineCallPlan,
    #: shared by every call site of every statement, memo stores
    #: included) - keyed by the ``Database.plan_stamp()`` it was built
    #: under, so sessions with different plan-affecting settings each keep
    #: their own.
    body_plans: dict = field(default_factory=dict)
    #: Facts cached by the static analyzer (repro.analysis.volatility):
    #: inferred volatility class, whether the body may raise at run time,
    #: and whether it contains loops.  None until inferred; reset by DDL.
    inferred_volatility: Optional[str] = None
    inferred_may_raise: Optional[bool] = None
    inferred_has_loops: Optional[bool] = None

    @property
    def arity(self) -> int:
        return len(self.param_names)

    def reset_analysis(self) -> None:
        """Forget inferred facts (schema or body may have changed)."""
        self.inferred_volatility = None
        self.inferred_may_raise = None
        self.inferred_has_loops = None


class Catalog:
    """All schema objects of one :class:`~repro.sql.engine.Database`."""

    def __init__(self, buffers: BufferManager, txnman=None):
        self._buffers = buffers
        #: Shared transaction manager handed to every HeapTable so all
        #: heaps of one database stamp versions against the same xid
        #: space (None: each table runs its own frozen-only manager).
        self._txnman = txnman
        self.tables: dict[str, HeapTable] = {}
        self.composite_types: dict[str, CompositeType] = {}
        self.functions: dict[str, FunctionDef] = {}
        self.indexes: dict[str, IndexDef] = {}

    # -- tables ----------------------------------------------------------
    def create_table(self, name: str, column_names, column_types,
                     if_not_exists: bool = False) -> HeapTable:
        key = name.lower()
        if key in self.tables:
            if if_not_exists:
                return self.tables[key]
            raise CatalogError(f"table {name!r} already exists")
        table = HeapTable(key, column_names, column_types, self._buffers,
                          self._txnman)
        self.tables[key] = table
        return table

    def get_table(self, name: str) -> HeapTable:
        table = self.tables.get(name.lower())
        if table is None:
            raise NameResolutionError(f"unknown table {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def estimate_rows(self, name: str, default: int = 1000) -> int:
        """Cardinality estimate for *name*, or *default* when unknown
        (subqueries, CTEs, missing tables).  Feeds the planner's
        hash-join build-side choice."""
        table = self.tables.get(name.lower())
        return table.estimate_rows() if table is not None else default

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self.tables:
            if if_exists:
                return
            raise CatalogError(f"unknown table {name!r}")
        del self.tables[key]
        self.indexes = {index_name: index
                        for index_name, index in self.indexes.items()
                        if index.table != key}

    # -- indexes -----------------------------------------------------------
    def create_index(self, name: str, table_name: str,
                     columns: list[tuple[str, bool]],
                     if_not_exists: bool = False
                     ) -> Optional[tuple[IndexDef, bool]]:
        """Declare (and eagerly build) a sorted index over *columns* — a
        list of ``(column name, descending)`` pairs.  Returns the IndexDef
        plus whether a new SortedIndex structure was actually built (False
        when a lazily auto-created one with the same key already existed),
        or None when the index exists and *if_not_exists* was given."""
        key = name.lower()
        if key in self.indexes:
            if if_not_exists:
                return None
            raise CatalogError(f"index {name!r} already exists")
        table = self.get_table(table_name)
        positions = tuple(table.column_index(column) for column, _ in columns)
        descending = tuple(bool(desc) for _, desc in columns)
        if len(set(positions)) != len(positions):
            raise CatalogError(f"index {name!r}: duplicate key columns")
        built = table.sorted_index_if_exists(positions, descending) is None
        table.sorted_index(positions, descending).pinned = True
        index_def = IndexDef(key, table.name,
                             [column.lower() for column, _ in columns],
                             positions, descending)
        self.indexes[key] = index_def
        return index_def, built

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        index_def = self.indexes.pop(key, None)
        if index_def is None:
            if if_exists:
                return
            raise CatalogError(f"unknown index {name!r}")
        # Several declared indexes may share one SortedIndex structure
        # (same table, columns and directions); drop it only when the last
        # declaration referencing it goes away.
        still_declared = any(
            other.table == index_def.table
            and other.columns == index_def.columns
            and other.descending == index_def.descending
            for other in self.indexes.values())
        table = self.tables.get(index_def.table)
        if table is not None and not still_declared:
            table.drop_sorted_index(index_def.columns, index_def.descending)

    # -- composite types ---------------------------------------------------
    def create_type(self, name: str, field_names, field_types) -> CompositeType:
        key = name.lower()
        if key in self.composite_types:
            raise CatalogError(f"type {name!r} already exists")
        ctype = CompositeType(key, tuple(f.lower() for f in field_names),
                              tuple(field_types))
        self.composite_types[key] = ctype
        return ctype

    def get_type(self, name: str) -> CompositeType | None:
        return self.composite_types.get(name.lower())

    # -- functions ---------------------------------------------------------
    def register_function(self, fdef: FunctionDef, replace: bool = False) -> None:
        key = fdef.name.lower()
        if key in self.functions and not replace:
            raise CatalogError(f"function {fdef.name!r} already exists")
        self.functions[key] = fdef

    def get_function(self, name: str) -> FunctionDef | None:
        return self.functions.get(name.lower())

    def drop_function(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self.functions:
            if if_exists:
                return
            raise CatalogError(f"unknown function {name!r}")
        del self.functions[key]
