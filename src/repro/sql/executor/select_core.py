"""The SELECT-core operator: FROM → WHERE → [GROUP/HAVING] → [WINDOW] →项目.

One :class:`SelectCorePlan` evaluates a single SELECT block.  The streaming
path (no aggregation, no window functions) pipelines tuples; grouping and
windowing materialize, as they must.

The shared row-vector protocol (see executor/fromtree.py) keeps scope
alignment simple: every expression compiled for this block sees
``ctx.rows == vector`` and ``ctx.parent == outer``, matching the plan-time
scope chain exactly.
"""

from __future__ import annotations

import heapq
from itertools import chain
from operator import itemgetter
from typing import Callable, Optional, Sequence

from ..errors import SqlError
from ..expr import EvalContext, selects
from ..functions import make_aggregate
from ..profiler import TOPN_INPUT_ROWS, TOPN_SCANS
from ..values import hashable_row as _hashable_row
from ..values import hashable_value as _hashable_value
from . import base
from .base import Plan, PlanState, call_site_lines
from .fromtree import FromNodePlan
from .scan import make_slots
from .tuples import SortPlan, SortState, cut_sort_keys, make_row_keys
from .window import WindowCallPlan, compute_window_columns


class TopNPlan(SortPlan):
    """Bounded ``ORDER BY ... LIMIT``: Sort's answer to small limits.

    Replaces a :class:`~repro.sql.executor.tuples.SortPlan` when the
    statement's LIMIT (and OFFSET, if any) is a literal or a parameter and
    no index delivers the order.  Each open reads ``count = limit +
    offset``, as PostgreSQL's ``ExecLimit`` recomputes its bounds per
    rescan: instead of materializing and sorting all n input rows (O(n log
    n) comparisons), the best ``count`` rows are kept while the child is
    pulled a chunk at a time (``heapq.nsmallest`` over the kept entries and
    the chunk's: O(n log count) comparisons, O(count + one chunk) memory).
    A NULL, negative or non-integer bound sorts in full, and the Limit
    above answers or raises as over a Sort.  Key semantics (direction,
    NULLS placement, stable ties by arrival order) are shared with Sort via
    :func:`~repro.sql.executor.tuples.make_row_keys`, so the two operators
    are observably identical — differentially tested.
    """

    __slots__ = ("limit", "offset", "shown")

    def __init__(self, sort: SortPlan, limit: Callable,
                 offset: Optional[Callable], shown: str):
        super().__init__(sort.child, sort.output_columns, sort.key_start,
                         sort.descending, sort.nulls_first, sort.strip,
                         sort.key_indices)
        self.limit = limit
        self.offset = offset
        #: The count as EXPLAIN shows it.
        self.shown = shown

    def label(self) -> str:
        return f"TopN (n={self.shown})"

    def instantiate(self, rt, ictx=None) -> "TopNState":
        return TopNState(rt, self, self.child.instantiate(rt, ictx))

    def count(self, ctx: EvalContext) -> Optional[int]:
        """``limit + offset`` when both are non-negative integers in
        *ctx*, else None (one that fails to evaluate too: the Limit above
        raises, after the rows, as over a Sort)."""
        try:
            values = [bound(ctx) for bound in (self.limit, self.offset)
                      if bound is not None]
        except SqlError:
            return None
        if all(type(value) is int and value >= 0 for value in values):
            return sum(values)
        return None


class TopNState(SortState):
    __slots__ = ()

    def open(self, outer) -> None:
        plan = self.plan
        count = plan.count(EvalContext(self.rt, (), parent=outer))
        if count is None:
            super().open(outer)
            return
        self.child.open(outer)
        keys_of = make_row_keys(plan)
        #: The best ``count`` (key, arrival, row) entries so far, in order.
        #: Arrival numbers are unique, so ties fall to arrival order - a
        #: stable full sort cut at ``count`` - and rows are never compared.
        best: list[tuple] = []
        seen = 0
        # Drain the child completely, exactly as Sort would: expression
        # side effects and row counts stay identical to the sort path.
        pull = self.child.next_rows
        cancel = self.rt.cancel
        while True:
            cancel.check()
            rows = pull()
            arrived = seen + len(rows)
            best = heapq.nsmallest(
                count, chain(best, zip(keys_of(rows), range(seen, arrived),
                                       rows)))
            seen = arrived
            if len(rows) < base.ROWS_PER_PULL:
                break
        profiler = self.rt.db.profiler
        profiler.bump(TOPN_SCANS)
        profiler.bump(TOPN_INPUT_ROWS, seen)
        self.rows = cut_sort_keys(plan, map(itemgetter(2), best))
        self.pos = 0


class AggCallPlan:
    """One aggregate call in the SELECT/HAVING of a grouped query.

    ``arg_ast`` keeps the (unrewritten) argument expression alongside the
    compiled closure so the vectorized executor can batch-compile the same
    expression; it is None for ``count(*)``.  ``separator`` is string_agg's
    compiled separator, evaluated once per execution (``make_aggregate``).
    """

    __slots__ = ("name", "star", "arg", "distinct", "separator", "arg_ast")

    def __init__(self, name: str, star: bool, arg: Optional[Callable],
                 distinct: bool, separator: Optional[Callable] = None,
                 arg_ast=None):
        self.name = name.lower()
        self.star = star
        self.arg = arg
        self.distinct = distinct
        self.separator = separator
        self.arg_ast = arg_ast


class AggStagePlan:
    """Grouping stage: key expressions + aggregate calls + HAVING."""

    __slots__ = ("group_keys", "agg_calls", "having", "subplans",
                 "having_subplans", "output_width")

    def __init__(self, group_keys: Sequence[Callable], agg_calls: list[AggCallPlan],
                 having: Optional[Callable], subplans, having_subplans):
        self.group_keys = list(group_keys)
        self.agg_calls = agg_calls
        self.having = having
        self.subplans = subplans            # for key and agg-arg expressions
        self.having_subplans = having_subplans
        self.output_width = len(self.group_keys) + len(agg_calls)


class WindowStagePlan:
    __slots__ = ("calls", "subplans")

    def __init__(self, calls: list[WindowCallPlan], subplans):
        self.calls = calls
        self.subplans = subplans


class SelectCorePlan(Plan):
    __slots__ = ("n_relations", "from_plan", "where", "where_subplans",
                 "agg_stage", "window_stage", "project_exprs",
                 "project_subplans", "distinct")

    def __init__(self, output_columns: list[str], n_relations: int,
                 from_plan: Optional[FromNodePlan],
                 where: Optional[Callable], where_subplans,
                 agg_stage: Optional[AggStagePlan],
                 window_stage: Optional[WindowStagePlan],
                 project_exprs: Sequence[Callable], project_subplans,
                 distinct: bool):
        super().__init__(output_columns)
        self.n_relations = n_relations
        self.from_plan = from_plan
        self.where = where
        self.where_subplans = where_subplans
        self.agg_stage = agg_stage
        self.window_stage = window_stage
        self.project_exprs = list(project_exprs)
        self.project_subplans = project_subplans
        self.distinct = distinct

    def label(self) -> str:
        bits = []
        if self.agg_stage is not None:
            bits.append("Aggregate")
        if self.window_stage is not None:
            bits.append("WindowAgg")
        bits.append("Select")
        return "+".join(bits)

    def children(self) -> list[Plan]:
        out: list[Plan] = []
        if self.from_plan is not None:
            out.extend(self.from_plan.children())
        return out

    def call_sites(self, indent: int) -> list[str]:
        """EXPLAIN lines of the trampoline sites in every expression of
        the block, in evaluation order."""
        slot_lists = [self.where_subplans]
        if self.agg_stage is not None:
            slot_lists += [self.agg_stage.subplans,
                           self.agg_stage.having_subplans]
        if self.window_stage is not None:
            slot_lists.append(self.window_stage.subplans)
        slot_lists.append(self.project_subplans)
        return call_site_lines(indent, *slot_lists)

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + "-> " + self.label()
                 + f"  [{', '.join(self.output_columns)}]"]
        lines.extend(self.call_sites(indent + 1))
        if self.from_plan is not None:
            lines.append(self.from_plan.explain(indent + 1))
        return "\n".join(lines)

    def instantiate(self, rt, ictx=None) -> "SelectCoreState":
        return SelectCoreState(rt, self, ictx)


class SelectCoreState(PlanState):
    __slots__ = ("plan", "vector", "from_state", "where_slots", "agg_slots",
                 "having_slots", "window_slots", "project_slots", "outer",
                 "materialized", "mat_pos", "seen", "exhausted",
                 "_where_ctx", "_project_ctx")

    def __init__(self, rt, plan: SelectCorePlan, ictx):
        super().__init__(rt)
        self.plan = plan
        self.vector: list = [None] * plan.n_relations
        self.from_state = (plan.from_plan.instantiate(rt, ictx, self.vector)
                           if plan.from_plan is not None else None)
        self.where_slots = make_slots(rt, ictx, plan.where_subplans)
        agg = plan.agg_stage
        self.agg_slots = make_slots(rt, ictx, agg.subplans) if agg else []
        self.having_slots = (make_slots(rt, ictx, agg.having_subplans)
                             if agg else [])
        win = plan.window_stage
        self.window_slots = make_slots(rt, ictx, win.subplans) if win else []
        self.project_slots = make_slots(rt, ictx, plan.project_subplans)
        self.outer = None
        self.materialized: Optional[list[tuple]] = None
        self.mat_pos = 0
        self.seen: Optional[set] = None
        self.exhausted = False
        # Streaming-path contexts: the row vector is shared and mutated in
        # place, so one context per (state, outer) pair suffices — this
        # keeps the per-tuple allocation count down.
        self._where_ctx: Optional[EvalContext] = None
        self._project_ctx: Optional[EvalContext] = None

    # ------------------------------------------------------------------

    def open(self, outer) -> None:
        if outer is not self.outer or self._where_ctx is None:
            self._where_ctx = EvalContext(self.rt, self.vector, parent=outer,
                                          slots=self.where_slots)
            self._project_ctx = EvalContext(self.rt, self.vector, parent=outer,
                                            slots=self.project_slots)
        self.outer = outer
        self.mat_pos = 0
        self.materialized = None
        self.exhausted = False
        self.seen = set() if self.plan.distinct else None
        if self.from_state is not None:
            self.from_state.open(outer)
        plan = self.plan
        if plan.agg_stage is not None or plan.window_stage is not None:
            self.materialized = self._evaluate_materialized()

    def next(self) -> Optional[tuple]:
        if self.materialized is not None:
            while self.mat_pos < len(self.materialized):
                row = self.materialized[self.mat_pos]
                self.mat_pos += 1
                if self._distinct_ok(row):
                    return row
            return None
        return self._next_streaming()

    def next_rows(self) -> list[tuple]:
        if self.materialized is None or self.seen is not None:
            return super().next_rows()
        rows = self.materialized[self.mat_pos:]
        self.mat_pos = len(self.materialized)
        return rows

    def close(self) -> None:
        if self.from_state is not None:
            self.from_state.close()

    # ------------------------------------------------------------------

    def _distinct_ok(self, row: tuple) -> bool:
        if self.seen is None:
            return True
        key = _hashable_row(row)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def _ticks(self):
        """Yield once per surviving FROM tick (vector filled, WHERE applied)."""
        plan = self.plan
        where = plan.where
        ctx = self._where_ctx
        if self.from_state is None:
            if where is None or selects(where(ctx)):
                yield ctx
            return
        from_next = self.from_state.next
        cancel = self.rt.cancel
        while from_next():
            cancel.check()
            if where is None or selects(where(ctx)):
                yield ctx

    def _next_streaming(self) -> Optional[tuple]:
        plan = self.plan
        if self.exhausted:
            return None
        where = plan.where
        where_ctx = self._where_ctx
        if self.from_state is None:
            # Table-less SELECT: exactly one candidate tick.
            self.exhausted = True
            if where is not None and not selects(where(where_ctx)):
                return None
            return self._project_current()
        from_next = self.from_state.next
        cancel = self.rt.cancel
        while True:
            cancel.check()
            if not from_next():
                self.exhausted = True
                return None
            if where is not None and not selects(where(where_ctx)):
                continue
            row = self._project_current()
            if self.seen is None or self._distinct_ok(row):
                return row

    def _project_current(self) -> tuple:
        ctx = self._project_ctx
        return tuple(e(ctx) for e in self.plan.project_exprs)

    def _project(self, rows_vector) -> tuple:
        ctx = EvalContext(self.rt, rows_vector, parent=self.outer,
                          slots=self.project_slots)
        return tuple(e(ctx) for e in self.plan.project_exprs)

    # ------------------------------------------------------------------

    def _evaluate_materialized(self) -> list[tuple]:
        plan = self.plan
        if plan.agg_stage is not None:
            vectors = self._run_aggregation(plan.agg_stage)
        else:
            vectors = [tuple(self.vector) for _ctx in self._ticks()]
        if plan.window_stage is not None:
            win_cols = compute_window_columns(
                self.rt, vectors, plan.window_stage.calls, self.outer,
                self.window_slots)
            vectors = [vec + (win,) for vec, win in zip(vectors, win_cols)]
        return [self._project(vec) for vec in vectors]

    def _run_aggregation(self, stage: AggStagePlan) -> list[tuple]:
        groups: dict[tuple, list] = {}
        group_values: dict[tuple, tuple] = {}
        distinct_seen: dict[tuple, list[set]] = {}
        once = EvalContext(self.rt, (), parent=self.outer)
        aggs = [make_aggregate(c.name, c.star, c.separator, once)
                for c in stage.agg_calls]
        for _tick in self._ticks():
            ctx = EvalContext(self.rt, self.vector, parent=self.outer,
                              slots=self.agg_slots)
            key_values = tuple(k(ctx) for k in stage.group_keys)
            key = _hashable_row(key_values)
            if key not in groups:
                groups[key] = [agg.create() for agg in aggs]
                group_values[key] = key_values
                distinct_seen[key] = [set() for _ in aggs]
            states = groups[key]
            for index, (call, agg) in enumerate(zip(stage.agg_calls, aggs)):
                if call.star:
                    value: object = True
                else:
                    value = call.arg(ctx)  # type: ignore[misc]
                if call.distinct and not call.star:
                    marker = _hashable_value(value)
                    if marker in distinct_seen[key][index]:
                        continue
                    distinct_seen[key][index].add(marker)
                states[index] = agg.step(states[index], value)
        if not groups and not stage.group_keys:
            # Aggregate over an empty input: one row of "empty" finals.
            groups[()] = [agg.create() for agg in aggs]
            group_values[()] = ()
        out: list[tuple] = []
        for key, states in groups.items():
            finals = tuple(agg.final(state) for agg, state in zip(aggs, states))
            row = group_values[key] + finals
            vec = (row,)
            if stage.having is not None:
                ctx = EvalContext(self.rt, vec, parent=self.outer,
                                  slots=self.having_slots)
                if not selects(stage.having(ctx)):
                    continue
            out.append(vec)
        return out


