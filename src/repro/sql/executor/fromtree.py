"""FROM-clause evaluation: join trees over a shared row vector.

A SELECT's FROM clause is planned into a tree of :class:`FromLeafPlan` /
:class:`FromJoinPlan` (nested loop) / :class:`~.hashjoin.HashJoinPlan`
nodes that all write into one shared *row vector* — one slot per FROM
relation, in syntactic left-to-right order.  Expressions over the SELECT
(WHERE, projections, join conditions) evaluate against that vector.  The
planner picks the join strategy per node at plan time: equi-joins become
build/probe hash joins, everything else (non-equi conditions, LATERAL)
stays on the nested-loop path below.  Single-relation WHERE conjuncts are
pushed down onto the leaves as *filters*, so they run before any join
multiplies rows.

LATERAL falls out naturally: the right side of a join is re-opened for every
left tick, and a lateral subquery is simply opened with an
:class:`~repro.sql.expr.EvalContext` over the (partially filled) vector, so
references to earlier FROM items resolve as level-1 correlations.  This is
the mechanism that executes the paper's ``LEFT JOIN LATERAL`` chains — the
SQL encoding of PL/SQL statement sequencing — and, because each lateral
source processes single-row bindings, each "join" costs one rescan.
"""

from __future__ import annotations

from typing import Optional

from ..expr import EvalContext
from .base import Plan, PlanState, call_site_lines
from .scan import make_slots


class FromNodePlan:
    """Base for FROM-tree plan nodes (not tuple sources themselves)."""

    __slots__ = ("rel_slots",)

    def __init__(self, rel_slots: list[tuple[int, int]]):
        #: (vector index, relation width) pairs covered by this subtree —
        #: used for NULL-filling the right side of LEFT JOINs.
        self.rel_slots = rel_slots

    def instantiate(self, rt, ictx, vector: list) -> "FromNodeState":
        raise NotImplementedError

    def children(self) -> list[Plan]:
        return []

    def explain(self, indent: int = 0) -> str:
        raise NotImplementedError


class FromNodeState:
    """Runtime counterpart: fills vector slots; ``next()`` returns a bool."""

    __slots__ = ("rt", "vector", "outer")

    def __init__(self, rt, vector: list):
        self.rt = rt
        self.vector = vector
        self.outer: Optional[EvalContext] = None

    def open(self, outer: Optional[EvalContext]) -> None:
        raise NotImplementedError

    def next(self) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass


class FromLeafPlan(FromNodePlan):
    """One FROM item: a tuple source writing to ``vector[rel_index]``.

    ``filter`` (set by the planner's predicate pushdown) is a compiled
    conjunction of the WHERE conjuncts that reference only this relation;
    rows failing it never reach the enclosing join.  ``filter_ast`` is the
    conjunction it was compiled from, kept for the vectorized core's batch
    form of the same filter.
    """

    __slots__ = ("rel_index", "source", "lateral", "filter", "filter_subplans",
                 "filter_ast")

    def __init__(self, rel_index: int, width: int, source: Plan, lateral: bool):
        super().__init__([(rel_index, width)])
        self.rel_index = rel_index
        self.source = source
        self.lateral = lateral
        self.filter = None
        self.filter_subplans: list = []
        self.filter_ast = None

    def instantiate(self, rt, ictx, vector: list) -> "FromLeafState":
        return FromLeafState(rt, vector, self,
                             self.source.instantiate(rt, ictx),
                             make_slots(rt, ictx, self.filter_subplans))

    def children(self) -> list[Plan]:
        return [self.source]

    def explain(self, indent: int = 0) -> str:
        head = "  " * indent + ("-> Lateral" if self.lateral else "-> From")
        head += f" #{self.rel_index}"
        if self.filter is not None:
            head += "  (pushed-down filter)"
        return "\n".join([head,
                          *call_site_lines(indent + 1, self.filter_subplans),
                          self.source.explain(indent + 1)])


class FromLeafState(FromNodeState):
    __slots__ = ("plan", "source", "_vector_ctx", "source_next", "rel_index",
                 "filter_slots", "_filter_ctx")

    def __init__(self, rt, vector, plan: FromLeafPlan, source: PlanState,
                 filter_slots: list):
        super().__init__(rt, vector)
        self.plan = plan
        self.source = source
        self.source_next = source.next
        self.rel_index = plan.rel_index
        self.filter_slots = filter_slots
        self._vector_ctx: EvalContext | None = None
        self._filter_ctx: EvalContext | None = None

    def open(self, outer) -> None:
        rebind = self.outer is not outer
        if self.plan.filter is not None and (self._filter_ctx is None or rebind):
            self._filter_ctx = EvalContext(self.rt, self.vector, parent=outer,
                                           slots=self.filter_slots)
        if self.plan.lateral or type(self.source).__name__ in (
                "IndexScanState", "IndexRangeScanState"):
            # The source sees the shared vector as its immediate outer scope
            # (index scans evaluate their correlated keys against it).
            if self._vector_ctx is None or rebind:
                self._vector_ctx = EvalContext(self.rt, self.vector,
                                               parent=outer)
            self.outer = outer
            self.source.open(self._vector_ctx)
        else:
            self.outer = outer
            self.source.open(outer)

    def next(self) -> bool:
        predicate = self.plan.filter
        # lint: bounded — advances the source operator; leaf scans poll
        while True:
            row = self.source_next()
            if row is None:
                return False
            self.vector[self.rel_index] = row
            if predicate is None or predicate(self._filter_ctx) is True:
                return True

    def close(self) -> None:
        self.source.close()


class FromJoinPlan(FromNodePlan):
    """Nested-loop join of two FROM subtrees over the shared vector.

    ``kind`` is ``inner``, ``left`` or ``cross``.  ``condition`` is a
    compiled predicate (None for cross); ``condition_subplans`` are the
    subquery slots its evaluation may need.
    """

    __slots__ = ("kind", "left", "right", "condition", "condition_subplans")

    def __init__(self, kind: str, left: FromNodePlan, right: FromNodePlan,
                 condition, condition_subplans):
        super().__init__(left.rel_slots + right.rel_slots)
        self.kind = kind
        self.left = left
        self.right = right
        self.condition = condition
        self.condition_subplans = condition_subplans

    def instantiate(self, rt, ictx, vector: list) -> "FromJoinState":
        return FromJoinState(
            rt, vector, self,
            self.left.instantiate(rt, ictx, vector),
            self.right.instantiate(rt, ictx, vector),
            make_slots(rt, ictx, self.condition_subplans))

    def explain(self, indent: int = 0) -> str:
        head = "  " * indent + f"-> NestLoop {self.kind.upper()} JOIN"
        return "\n".join([head,
                          *call_site_lines(indent + 1,
                                           self.condition_subplans),
                          self.left.explain(indent + 1),
                          self.right.explain(indent + 1)])


class FromJoinState(FromNodeState):
    __slots__ = ("plan", "left", "right", "slots", "need_left", "matched")

    def __init__(self, rt, vector, plan: FromJoinPlan,
                 left: FromNodeState, right: FromNodeState, slots: list):
        super().__init__(rt, vector)
        self.plan = plan
        self.left = left
        self.right = right
        self.slots = slots
        self.need_left = True
        self.matched = False

    def open(self, outer) -> None:
        self.outer = outer
        self.left.open(outer)
        self.need_left = True
        self.matched = False

    def _null_fill_right(self) -> None:
        for rel_index, width in self.plan.right.rel_slots:
            self.vector[rel_index] = (None,) * width

    def next(self) -> bool:
        plan = self.plan
        # lint: bounded — advances child operators; leaf scans poll
        while True:
            if self.need_left:
                if not self.left.next():
                    return False
                # Re-open the right side for the new left tick; lateral
                # references pick up the freshly filled vector slots.
                self.right.open(self.outer)
                self.need_left = False
                self.matched = False
            if self.right.next():
                if plan.condition is not None:
                    ctx = EvalContext(self.rt, self.vector, parent=self.outer,
                                      slots=self.slots)
                    if plan.condition(ctx) is not True:
                        continue
                self.matched = True
                return True
            # Right side exhausted for this left tick.
            self.need_left = True
            if plan.kind == "left" and not self.matched:
                self._null_fill_right()
                return True

    def close(self) -> None:
        self.left.close()
        self.right.close()
