"""Leaf tuple sources: sequential scans, VALUES, one-row, row expansion.

The three base-table scans can also serve as the *target scan* of an
UPDATE or DELETE (executor/modify.py): with ``versions`` set on the plan
they hand out the :class:`~repro.sql.txn.RowVersion` objects the snapshot
sees instead of their row tuples.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ExecutionError, NameResolutionError, SqlError
from ..expr import EvalContext
from ..profiler import (INDEX_RANGE_SCANS, RANGE_SCANS_GIVEN_UP,
                        SORTED_INDEX_BUILDS)
from ..values import Row
from .base import Plan, PlanState


_NO_ROWS: list = []


class SeqScanPlan(Plan):
    """Full scan of a base table.  The table is looked up at instantiation
    (late binding, like PostgreSQL's relation open in ExecutorStart)."""

    __slots__ = ("table_name", "versions")

    def __init__(self, table_name: str, output_columns: list[str]):
        super().__init__(output_columns)
        self.table_name = table_name
        self.versions = False

    def label(self) -> str:
        return f"SeqScan on {self.table_name}"

    def instantiate(self, rt, ictx=None) -> "SeqScanState":
        return SeqScanState(rt, self)


class SeqScanState(PlanState):
    __slots__ = ("table", "versions", "rows", "pos")

    def __init__(self, rt, plan: SeqScanPlan):
        super().__init__(rt)
        self.table = rt.catalog.tables.get(plan.table_name)
        if self.table is None:
            raise NameResolutionError(f"unknown table {plan.table_name!r}")
        self.versions = plan.versions
        self.rows = _NO_ROWS
        self.pos = 0

    def open(self, outer) -> None:
        # Read the list per open: DML may have replaced it since the last.
        self.rows = (self.table.visible_versions() if self.versions
                     else self.table.rows)
        self.pos = 0

    def next(self) -> Optional[tuple]:
        pos = self.pos
        if pos >= len(self.rows):
            return None
        if not pos & 4095:
            # Amortized cancellation poll: this is the hottest per-row
            # loop in the engine, so the token is only consulted every
            # 4096 rows (a runaway cross join still reacts in well under
            # a millisecond of scan work).
            self.rt.cancel.check()
        row = self.rows[pos]
        self.pos = pos + 1
        return row


def mirror_outer_context(state, outer):
    """The cached eval context an index-scan state probes its key/bound
    expressions in.

    Those expressions were compiled at the enclosing SELECT's scope level;
    *outer* is that level's context (the FROM leaf passes its shared row
    vector).  Mirror it, attaching the state's subplan slots; the mirror
    is cached on the state since the leaf reuses its vector context.
    Shared by IndexScanState and IndexRangeScanState, which must stay
    rebind-for-rebind identical (fromtree.py dispatches on both by name).
    """
    if outer is state._ctx_outer:
        return state._ctx
    if outer is not None:
        state._ctx = EvalContext(state.rt, outer.rows, parent=outer.parent,
                                 slots=state.slots)
    else:
        state._ctx = EvalContext(state.rt, (), slots=state.slots)
    state._ctx_outer = outer
    return state._ctx


class IndexScanPlan(Plan):
    """Equality lookup via a hash index (planner-chosen for correlated
    ``col = expr`` predicates on base tables — PostgreSQL would use a
    B-tree probe here).

    ``key_columns`` are column positions; ``key_exprs`` are compiled
    expressions guaranteed (by the planner's probe) not to reference the
    scanned relation itself.  They are evaluated once per (re)open against
    the outer context, so correlated lookups re-probe per outer row.
    """

    __slots__ = ("table_name", "key_columns", "key_exprs", "subplans",
                 "versions")

    def __init__(self, table_name: str, output_columns: list[str],
                 key_columns: list[int], key_exprs, subplans):
        super().__init__(output_columns)
        self.table_name = table_name
        self.key_columns = tuple(key_columns)
        self.key_exprs = key_exprs
        self.subplans = subplans
        self.versions = False

    def label(self) -> str:
        keys = ", ".join(self.output_columns[c] for c in self.key_columns)
        return f"IndexScan on {self.table_name} ({keys})"

    def instantiate(self, rt, ictx=None) -> "IndexScanState":
        return IndexScanState(rt, self, ictx)


class IndexScanState(PlanState):
    __slots__ = ("plan", "table", "slots", "rows", "pos", "_ctx", "_ctx_outer")

    def __init__(self, rt, plan: IndexScanPlan, ictx):
        super().__init__(rt)
        self.plan = plan
        self.table = rt.catalog.tables.get(plan.table_name)
        if self.table is None:
            raise NameResolutionError(f"unknown table {plan.table_name!r}")
        self.slots = make_slots(rt, ictx, plan.subplans)
        self.rows: list = []
        self.pos = 0
        self._ctx = None
        self._ctx_outer = self  # sentinel: never a valid outer

    def open(self, outer) -> None:
        ctx = mirror_outer_context(self, outer)
        key = tuple(expr(ctx) for expr in self.plan.key_exprs)
        self.pos = 0
        if None in key:
            self.rows = _NO_ROWS  # col = NULL matches nothing
            return
        versions = self.table.equality_index(
            self.plan.key_columns).lookup(key)
        if not versions:
            self.rows = _NO_ROWS
            return
        # The index stores row *versions*; keep the ones this statement's
        # snapshot may see.
        snapshot = self.table.current_snapshot()
        if not self.table.all_visible(snapshot):
            versions = list(filter(snapshot.visible, versions))
        self.rows = (versions if self.plan.versions
                     else [version.data for version in versions])

    def next(self) -> Optional[tuple]:
        if self.pos >= len(self.rows):
            return None
        row = self.rows[self.pos]
        self.pos += 1
        return row


class IndexRangeScanPlan(Plan):
    """Ordered access via a :class:`~repro.sql.storage.SortedIndex`.

    One operator, two planner-chosen roles:

    * **range scan** — ``lower`` / ``upper`` are ``(compiled expr,
      inclusive, display, ast)`` bounds on a single ascending key column,
      evaluated per (re)open against the outer context (correlated range
      probes re-bisect per outer row: O(log n + k) instead of the O(n)
      SeqScan + filter),
    * **ordered delivery** — no bounds: the whole index in key order
      (NULLS LAST ascending / NULLS FIRST descending, matching the sort
      operator's defaults), letting the planner skip the sort.

    ``reverse`` flips the iteration direction (DESC ordering from an ASC
    index and vice versa).  The index is fetched from the table at open —
    created lazily like ``equality_index`` and maintained incrementally by
    DML, so repeated probes never pay a rebuild.
    """

    __slots__ = ("table_name", "key_columns", "key_desc", "lower", "upper",
                 "reverse", "subplans", "versions")

    def __init__(self, table_name: str, output_columns: list[str],
                 key_columns, key_desc, lower, upper,
                 reverse: bool = False, subplans=()):
        super().__init__(output_columns)
        self.table_name = table_name
        self.key_columns = tuple(key_columns)
        self.key_desc = tuple(key_desc)
        self.lower = lower
        self.upper = upper
        self.reverse = reverse
        self.subplans = list(subplans)
        self.versions = False

    def label(self) -> str:
        column = self.output_columns[self.key_columns[0]]
        bits = []
        if self.lower is not None:
            bits.append(f"{column} {'>=' if self.lower[1] else '>'} "
                        f"{self.lower[2]}")
        if self.upper is not None:
            bits.append(f"{column} {'<=' if self.upper[1] else '<'} "
                        f"{self.upper[2]}")
        if not bits:
            keys = ", ".join(
                self.output_columns[c] + (" DESC" if d != self.reverse else "")
                for c, d in zip(self.key_columns, self.key_desc))
            bits.append(f"order by {keys}")
        elif self.reverse:
            bits.append("DESC")
        return f"IndexRangeScan on {self.table_name} ({', '.join(bits)})"

    def instantiate(self, rt, ictx=None) -> "IndexRangeScanState":
        return IndexRangeScanState(rt, self, ictx)


class IndexRangeScanState(PlanState):
    __slots__ = ("plan", "table", "slots", "rows", "pos", "stop", "step",
                 "snapshot", "check", "_ctx", "_ctx_outer")

    def __init__(self, rt, plan: IndexRangeScanPlan, ictx):
        super().__init__(rt)
        self.plan = plan
        self.table = rt.catalog.tables.get(plan.table_name)
        if self.table is None:
            raise NameResolutionError(f"unknown table {plan.table_name!r}")
        self.slots = make_slots(rt, ictx, plan.subplans)
        self.rows: list = _NO_ROWS
        self.pos = 0
        self.stop = 0
        self.step = 1
        self.snapshot = None
        self.check = False
        self._ctx = None
        self._ctx_outer = self  # sentinel: never a valid outer

    def open(self, outer) -> None:
        plan = self.plan
        profiler = self.rt.db.profiler
        profiler.bump(INDEX_RANGE_SCANS)
        index, start, stop = range_window(
            self.table, plan, mirror_outer_context(self, outer), profiler)
        self.rows = index.rows
        # Index entries are row versions: when anything in the table may
        # be invisible to this statement's snapshot, next() filters.
        self.snapshot = self.table.current_snapshot()
        self.check = not self.table.all_visible(self.snapshot)
        if plan.reverse:
            self.pos, self.stop, self.step = stop - 1, start - 1, -1
        else:
            self.pos, self.stop, self.step = start, stop, 1

    def next(self) -> Optional[tuple]:
        while self.pos != self.stop:
            if not self.pos & 4095:
                self.rt.cancel.check()  # amortized, as in SeqScan
            version = self.rows[self.pos]
            self.pos += self.step
            if self.check and not self.snapshot.visible(version):
                continue
            return version if self.plan.versions else version.data
        return None


#: An aggregating core reads a range holding more than ``1 /
#: WIDE_RANGE_DIVISOR`` of the index faster by the vectorized SeqScan than
#: by the range scan: 2%, where the two cost about the same at 1k and at
#: 100k rows (``benchmarks/bench_ordered_paths.py``'s sweep).
WIDE_RANGE_DIVISOR = 50


def range_window(table, plan: IndexRangeScanPlan, ctx, profiler) -> tuple:
    """``(index, start, stop)``: the sorted index the range scan *plan*
    reads (built if it does not exist yet) and the positions its bounds,
    evaluated in *ctx*, cut from it.  A NULL bound is an empty range
    (``col > NULL`` is never TRUE); one of another class than the
    column's values raises."""
    index = table.sorted_index_if_exists(plan.key_columns, plan.key_desc)
    if index is None:
        profiler.bump(SORTED_INDEX_BUILDS)
        index = table.sorted_index(plan.key_columns, plan.key_desc)
    bounds = []
    for bound in (plan.lower, plan.upper):
        if bound is None:
            bounds.append(None)
            continue
        value = bound[0](ctx)
        if value is None:
            return index, 0, 0
        index.check_probe(0, value)
        bounds.append((value, bound[1]))
    if bounds == [None, None]:
        return index, 0, len(index.rows)
    return (index, *index.range_positions(*bounds))


def range_is_wide(rt, scan: IndexRangeScanPlan, outer) -> bool:
    """Do the bounds of the range *scan*, evaluated in *outer*, hold more
    than ``1 / WIDE_RANGE_DIVISOR`` of its sorted index?  A bound that
    fails to evaluate or to compare with the column is not wide: the
    scan raises."""
    try:
        index, start, stop = range_window(
            rt.catalog.tables[scan.table_name], scan,
            EvalContext(rt, (), parent=outer), rt.db.profiler)
    except SqlError:
        return False
    return (stop - start) * WIDE_RANGE_DIVISOR > len(index)


class ChooseRangePlan(Plan):
    """A choose-plan node (Graefe & Ward, "Dynamic Query Evaluation
    Plans", SIGMOD 1989) over an aggregating core with a range pushdown:
    ``narrow`` is the row core over the IndexRangeScan *scan*, ``wide``
    the vectorized core over the SeqScan.  Each open sizes the range's
    bounds (literals and parameters) with :func:`range_is_wide` and
    instantiates and runs only the branch it picks; opening the wide one
    counts a range scan given up."""

    __slots__ = ("scan", "narrow", "wide")

    def __init__(self, scan: IndexRangeScanPlan, narrow: Plan, wide: Plan):
        super().__init__(wide.output_columns)
        self.scan = scan
        self.narrow = narrow
        self.wide = wide

    def label(self) -> str:
        return (f"ChooseRange (wide above 1/{WIDE_RANGE_DIVISOR} of "
                f"{self.scan.table_name})")

    def children(self) -> list[Plan]:
        return [self.narrow, self.wide]

    def instantiate(self, rt, ictx=None) -> "ChooseRangeState":
        return ChooseRangeState(rt, self, ictx)


class ChooseRangeState(PlanState):
    __slots__ = ("plan", "ictx", "branches", "child")

    def __init__(self, rt, plan: ChooseRangePlan, ictx):
        super().__init__(rt)
        self.plan = plan
        self.ictx = ictx
        #: The narrow and the wide branch, each once it has been chosen.
        self.branches: list[Optional[PlanState]] = [None, None]
        self.child: Optional[PlanState] = None

    def open(self, outer) -> None:
        plan = self.plan
        wide = range_is_wide(self.rt, plan.scan, outer)
        if wide:
            self.rt.db.profiler.bump(RANGE_SCANS_GIVEN_UP)
        if self.branches[wide] is None:
            self.branches[wide] = (plan.wide if wide else plan.narrow) \
                .instantiate(self.rt, self.ictx)
        self.child = self.branches[wide]
        self.child.open(outer)

    def next(self) -> Optional[tuple]:
        return self.child.next()

    def next_rows(self) -> list[tuple]:
        return self.child.next_rows()

    def close(self) -> None:
        for child in self.branches:
            if child is not None:
                child.close()


class ValuesPlan(Plan):
    """``VALUES (...), (...)`` — each cell is a compiled expression."""

    __slots__ = ("rows", "subplans")

    def __init__(self, rows, output_columns: list[str], subplans):
        super().__init__(output_columns)
        self.rows = rows
        self.subplans = subplans

    def label(self) -> str:
        return f"Values ({len(self.rows)} rows)"

    def instantiate(self, rt, ictx=None) -> "ValuesState":
        return ValuesState(rt, self, ictx)


class ValuesState(PlanState):
    __slots__ = ("plan", "slots", "pos", "ctx")

    def __init__(self, rt, plan: ValuesPlan, ictx):
        super().__init__(rt)
        self.plan = plan
        self.slots = make_slots(rt, ictx, plan.subplans)
        self.pos = 0
        self.ctx = None

    def open(self, outer) -> None:
        self.pos = 0
        if self.ctx is None or self.ctx.parent is not outer:
            self.ctx = EvalContext(self.rt, (), parent=outer, slots=self.slots)

    def next(self) -> Optional[tuple]:
        if self.pos >= len(self.plan.rows):
            return None
        row = self.plan.rows[self.pos]
        self.pos += 1
        ctx = self.ctx
        return tuple([cell(ctx) for cell in row])


class RowExpandPlan(Plan):
    """Engine extension: expand a single composite column into N columns.

    The paper's CTE template wraps the adapted UDF body in
    ``LATERAL (body) AS iter("call?", args, result)`` where the body yields a
    single ROW-valued CASE.  PostgreSQL spells this with a registered
    composite type and ``(x).*``; our engine performs the expansion whenever a
    FROM subquery with a multi-column alias list produces single-column rows
    holding ROW values of the matching arity.
    """

    __slots__ = ("child",)

    def __init__(self, child: Plan, output_columns: list[str]):
        super().__init__(output_columns)
        self.child = child

    def label(self) -> str:
        return f"RowExpand ({self.width} cols)"

    def children(self) -> list[Plan]:
        return [self.child]

    def instantiate(self, rt, ictx=None) -> "RowExpandState":
        return RowExpandState(rt, self, self.child.instantiate(rt, ictx))


class RowExpandState(PlanState):
    __slots__ = ("plan", "child")

    def __init__(self, rt, plan: RowExpandPlan, child: PlanState):
        super().__init__(rt)
        self.plan = plan
        self.child = child

    def open(self, outer) -> None:
        self.child.open(outer)

    def next(self) -> Optional[tuple]:
        row = self.child.next()
        if row is None:
            return None
        if len(row) == self.plan.width:
            return row
        if len(row) == 1:
            value = row[0]
            if value is None:
                return (None,) * self.plan.width
            if isinstance(value, Row) and len(value) == self.plan.width:
                return value.values
        raise ExecutionError(
            f"cannot expand row of width {len(row)} to "
            f"{self.plan.width} columns {self.plan.output_columns}")

    def close(self) -> None:
        self.child.close()


def make_slots(rt, ictx, subplans) -> list:
    """Eagerly instantiate a node's expression subplans into its slot list.

    This is the per-execution cost the paper attributes to ExecutorStart:
    every scalar subquery / EXISTS / IN-subquery in the node's expressions
    gets a fresh state tree here, once per plan instantiation — and exactly
    once for a compiled query, no matter how many recursive steps follow.
    """
    return [plan.instantiate(rt, ictx) for plan in subplans]
