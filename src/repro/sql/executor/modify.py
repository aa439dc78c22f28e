"""Modify nodes: INSERT, UPDATE and DELETE as plans.

A row-changing statement is a plan like a SELECT is: ``Insert`` sits over
the plan of its source, ``Update`` and ``Delete`` over a *target scan* of
the one table they change - whichever of SeqScan / IndexScan /
IndexRangeScan the planner's access-path selection chose for the WHERE
clause, handing out row versions instead of row tuples (``versions`` in
executor/scan.py).  Each yields one ``(count,)`` row.

The state collects every target version and every replacement tuple
*before* it writes anything.  That is what makes a statement read the
table as it stood (``SET a = b, b = a``, a subquery over the target, a
scan that must not meet the versions it just created) and all-or-nothing
when an expression raises or the statement is cancelled halfway.  What is
then done to the versions - first-writer-wins, undo, WAL records, index
upkeep - is the storage layer's business (``HeapTable.insert_many`` /
``update_versions`` / ``delete_versions``).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..errors import ExecutionError, NameResolutionError
from ..expr import EvalContext, selects
from .base import Plan, PlanState
from .scan import make_slots


class _ModifyState(PlanState):
    """Shared shape: resolve the target table at instantiation (late
    binding, like the scans), open and close the one *child* (INSERT's
    source, the others' target scan) and do the work on the first
    ``next()`` - ExecutorRun - not in ``open()``."""

    __slots__ = ("plan", "table", "child", "done")

    def __init__(self, rt, plan, child: PlanState):
        super().__init__(rt)
        self.plan = plan
        self.table = rt.catalog.tables.get(plan.table_name)
        if self.table is None:
            raise NameResolutionError(f"unknown table {plan.table_name!r}")
        self.child = child
        self.done = False

    def open(self, outer) -> None:
        self.child.open(outer)
        self.done = False

    def next(self) -> Optional[tuple]:
        if self.done:
            return None
        self.done = True
        return (self.modify(),)

    def modify(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        self.child.close()


class InsertPlan(Plan):
    """Append the rows of *source*, each coerced to the declared types of
    the columns at *positions* (the others NULL)."""

    __slots__ = ("table_name", "positions", "types", "source")

    def __init__(self, table_name: str, positions: list[int],
                 types: list[str], source: Plan):
        super().__init__(["count"])
        self.table_name = table_name
        self.positions = positions
        self.types = types
        self.source = source

    def label(self) -> str:
        return f"{super().label()} on {self.table_name}"

    def children(self) -> list[Plan]:
        return [self.source]

    def instantiate(self, rt, ictx=None) -> "InsertState":
        return InsertState(rt, self, self.source.instantiate(rt, ictx))


class InsertState(_ModifyState):
    __slots__ = ()

    def modify(self) -> int:
        plan = self.plan
        positions = plan.positions
        columns = list(zip(positions, plan.types))
        width = len(self.table.column_names)
        coerce = self.rt.db._coerce
        rows = []
        # The source is drained before the first row lands: it may read
        # the target.
        for row in self.child.fetch_all():
            if len(row) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, got {len(row)}")
            full = [None] * width
            for (position, type_name), value in zip(columns, row):
                full[position] = coerce(value, type_name)
            rows.append(tuple(full))
        # One bulk insert: index maintenance sees the whole batch at once.
        return self.table.insert_many(rows)


class _TargetPlan(Plan):
    """UPDATE and DELETE: change the versions *scan* hands out that pass
    *where* - the part of the WHERE clause the scan's access path did not
    absorb, a compiled predicate over the target row (or None)."""

    __slots__ = ("table_name", "scan", "where", "subplans")

    def __init__(self, table_name: str, scan: Plan, where, subplans):
        super().__init__(["count"])
        self.table_name = table_name
        self.scan = scan
        self.where = where
        self.subplans = subplans

    def label(self) -> str:
        return f"{super().label()} on {self.table_name}"

    def children(self) -> list[Plan]:
        return [self.scan]


class _TargetState(_ModifyState):
    __slots__ = ("slots",)

    def __init__(self, rt, plan: _TargetPlan, ictx):
        super().__init__(rt, plan, plan.scan.instantiate(rt, ictx))
        self.slots = make_slots(rt, ictx, plan.subplans)

    def targets(self) -> Iterator[tuple]:
        """``(version, context)`` per version to change; the context binds
        the version's row as the target relation."""
        where = self.plan.where
        vector: list = [None]
        ctx = EvalContext(self.rt, vector, slots=self.slots)
        cancel = self.rt.cancel
        next_version = self.child.next
        scanned = 0
        while True:
            if not scanned & 4095:
                cancel.check()  # amortized, as in SeqScan
            scanned += 1
            version = next_version()
            if version is None:
                return
            vector[0] = version.data
            if where is None or selects(where(ctx)):
                yield version, ctx


class DeletePlan(_TargetPlan):
    __slots__ = ()

    def instantiate(self, rt, ictx=None) -> "DeleteState":
        return DeleteState(rt, self, ictx)


class DeleteState(_TargetState):
    __slots__ = ()

    def modify(self) -> int:
        return self.table.delete_versions(
            [version for version, _ in self.targets()])


class UpdatePlan(_TargetPlan):
    """Each target is replaced by a copy with *assignments* applied:
    ``(column position, declared type, compiled expression over the old
    row)`` triples."""

    __slots__ = ("assignments",)

    def __init__(self, table_name: str, scan: Plan, where, assignments,
                 subplans):
        super().__init__(table_name, scan, where, subplans)
        self.assignments = assignments

    def instantiate(self, rt, ictx=None) -> "UpdateState":
        return UpdateState(rt, self, ictx)


class UpdateState(_TargetState):
    __slots__ = ()

    def modify(self) -> int:
        assignments = self.plan.assignments
        coerce = self.rt.db._coerce
        pairs = []
        for version, ctx in self.targets():
            row = list(version.data)
            for position, type_name, expr in assignments:
                row[position] = coerce(expr(ctx), type_name)
            pairs.append((version, tuple(row)))
        return self.table.update_versions(pairs)
