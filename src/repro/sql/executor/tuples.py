"""Tuple-stream operators between SELECT levels: sort, limit, set ops."""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional, Sequence

from ..errors import ExecutionError
from ..values import hashable_row as _hashable_row
from ..values import sort_keys
from .base import Plan, PlanState, RowListState


class SortPlan(Plan):
    """Sort the child's tuples by trailing hidden key columns.

    The planner appends one hidden column per ORDER BY key to the child's
    projection; ``key_start`` marks where they begin, ``strip`` says whether
    to cut them from emitted rows (true unless keys are real output columns).
    """

    __slots__ = ("child", "key_start", "descending", "nulls_first", "strip",
                 "key_indices")

    def __init__(self, child: Plan, output_columns: list[str], key_start: int,
                 descending: Sequence[bool],
                 nulls_first: Sequence[Optional[bool]], strip: bool,
                 key_indices: Optional[Sequence[int]] = None):
        super().__init__(output_columns)
        self.child = child
        self.key_start = key_start
        self.descending = list(descending)
        self.nulls_first = list(nulls_first)
        self.strip = strip
        #: When set, sort keys are these column positions instead of a
        #: trailing hidden-key block (used for ORDER BY over set operations).
        self.key_indices = list(key_indices) if key_indices is not None else None

    def children(self) -> list[Plan]:
        return [self.child]

    def instantiate(self, rt, ictx=None) -> "SortState":
        return SortState(rt, self, self.child.instantiate(rt, ictx))


class SortState(RowListState):
    __slots__ = ("plan", "child")

    def __init__(self, rt, plan: SortPlan, child: PlanState):
        super().__init__(rt)
        self.plan = plan
        self.child = child

    def open(self, outer) -> None:
        self.child.open(outer)
        plan = self.plan
        rows = self.child.fetch_all()
        # Stable: equal keys keep arrival order.
        keys = make_row_keys(plan)(rows)
        order = sorted(range(len(rows)), key=keys.__getitem__)
        self.rows = cut_sort_keys(plan, map(rows.__getitem__, order))
        self.pos = 0

    def close(self) -> None:
        self.child.close()


def make_row_keys(plan) -> Callable[[list[tuple]], list[tuple]]:
    """The rows -> sort keys function for a :class:`SortPlan`-shaped node
    (``key_start`` / ``key_indices`` / ``descending`` / ``nulls_first``):
    one key per row, built a key column at a time
    (:func:`~repro.sql.values.sort_keys`).  Shared by :class:`SortState`
    and the TopN operator (:mod:`repro.sql.executor.select_core`), which
    must order rows identically to stay differentially equivalent."""
    indices = plan.key_indices
    if indices is None:
        indices = range(plan.key_start,
                        plan.key_start + len(plan.descending))
    columns = list(zip(map(itemgetter, indices), plan.descending,
                       plan.nulls_first))

    def keys(rows: list[tuple]) -> list[tuple]:
        return list(zip(*[sort_keys(list(map(getter, rows)), desc, flag)
                          for getter, desc, flag in columns]))

    return keys


def cut_sort_keys(plan, rows) -> list[tuple]:
    """*rows* as the node emits them: without the trailing hidden key
    columns when the plan says ``strip``."""
    if plan.strip and plan.key_indices is None:
        return list(map(itemgetter(slice(plan.key_start)), rows))
    return list(rows)


class LimitPlan(Plan):
    """LIMIT/OFFSET; the bounds are compiled expressions (params allowed)."""

    __slots__ = ("child", "limit", "offset", "subplans")

    def __init__(self, child: Plan, limit, offset, subplans):
        super().__init__(child.output_columns)
        self.child = child
        self.limit = limit
        self.offset = offset
        self.subplans = subplans

    def children(self) -> list[Plan]:
        return [self.child]

    def instantiate(self, rt, ictx=None) -> "LimitState":
        from .scan import make_slots
        return LimitState(rt, self, self.child.instantiate(rt, ictx),
                          make_slots(rt, ictx, self.subplans))


class LimitState(PlanState):
    __slots__ = ("plan", "child", "slots", "remaining", "to_skip")

    def __init__(self, rt, plan: LimitPlan, child: PlanState, slots):
        super().__init__(rt)
        self.plan = plan
        self.child = child
        self.slots = slots
        self.remaining: Optional[int] = None
        self.to_skip = 0

    def open(self, outer) -> None:
        from ..expr import EvalContext
        self.child.open(outer)
        ctx = EvalContext(self.rt, (), parent=outer, slots=self.slots)
        self.remaining = None
        if self.plan.limit is not None:
            value = self.plan.limit(ctx)
            if value is not None:
                if not isinstance(value, int) or value < 0:
                    raise ExecutionError("LIMIT must be a non-negative integer")
                self.remaining = value
        self.to_skip = 0
        if self.plan.offset is not None:
            value = self.plan.offset(ctx)
            if value is not None:
                if not isinstance(value, int) or value < 0:
                    raise ExecutionError("OFFSET must be a non-negative integer")
                self.to_skip = value

    def next(self) -> Optional[tuple]:
        while self.to_skip > 0:
            if self.child.next() is None:
                return None
            self.to_skip -= 1
        if self.remaining is not None:
            if self.remaining <= 0:
                return None
            self.remaining -= 1
        return self.child.next()

    def close(self) -> None:
        self.child.close()


class AppendPlan(Plan):
    """UNION ALL — concatenate children."""

    __slots__ = ("parts",)

    def __init__(self, parts: list[Plan], output_columns: list[str]):
        super().__init__(output_columns)
        self.parts = parts

    def children(self) -> list[Plan]:
        return self.parts

    def instantiate(self, rt, ictx=None) -> "AppendState":
        return AppendState(rt, [p.instantiate(rt, ictx) for p in self.parts])


class AppendState(PlanState):
    __slots__ = ("parts", "index", "outer")

    def __init__(self, rt, parts: list[PlanState]):
        super().__init__(rt)
        self.parts = parts
        self.index = 0
        self.outer = None

    def open(self, outer) -> None:
        self.outer = outer
        self.index = 0
        if self.parts:
            self.parts[0].open(outer)

    def next(self) -> Optional[tuple]:
        while self.index < len(self.parts):
            row = self.parts[self.index].next()
            if row is not None:
                return row
            self.index += 1
            if self.index < len(self.parts):
                self.parts[self.index].open(self.outer)
        return None

    def close(self) -> None:
        for part in self.parts:
            part.close()


class SetOpPlan(Plan):
    """UNION / INTERSECT / EXCEPT with SQL duplicate-elimination."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Plan, right: Plan,
                 output_columns: list[str]):
        super().__init__(output_columns)
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> list[Plan]:
        return [self.left, self.right]

    def label(self) -> str:
        return self.op.upper()

    def instantiate(self, rt, ictx=None) -> "SetOpState":
        return SetOpState(rt, self, self.left.instantiate(rt, ictx),
                          self.right.instantiate(rt, ictx))


class SetOpState(RowListState):
    __slots__ = ("plan", "left", "right")

    def __init__(self, rt, plan: SetOpPlan, left: PlanState, right: PlanState):
        super().__init__(rt)
        self.plan = plan
        self.left = left
        self.right = right

    def open(self, outer) -> None:
        self.left.open(outer)
        self.right.open(outer)
        left_rows = self.left.fetch_all()
        right_rows = self.right.fetch_all()
        op = self.plan.op
        out: list[tuple] = []
        seen: set = set()
        if op == "union":
            for row in left_rows + right_rows:
                key = _hashable_row(row)
                if key not in seen:
                    seen.add(key)
                    out.append(row)
        elif op == "intersect":
            right_keys = {_hashable_row(r) for r in right_rows}
            for row in left_rows:
                key = _hashable_row(row)
                if key in right_keys and key not in seen:
                    seen.add(key)
                    out.append(row)
        elif op == "except":
            right_keys = {_hashable_row(r) for r in right_rows}
            for row in left_rows:
                key = _hashable_row(row)
                if key not in right_keys and key not in seen:
                    seen.add(key)
                    out.append(row)
        else:
            raise ExecutionError(f"unknown set operation {op!r}")
        self.rows = out
        self.pos = 0

    def close(self) -> None:
        self.left.close()
        self.right.close()
