"""Window-function evaluation over materialized input rows.

The paper's compiled ``walk()`` relies on Q2's window aggregates::

    COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo,
    SUM(a.prob) OVER leq            AS hi
    WINDOW leq AS (ORDER BY a.there),
           lt  AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW)

so this module implements ORDER BY windows with peer groups, ROWS and RANGE
frames, frame exclusion (``EXCLUDE CURRENT ROW / TIES / GROUP``), the rank
family, lag/lead, first/last/nth_value, and aggregates over frames.

Input rows arrive as full scope vectors (one tuple per FROM relation) so the
window expressions see exactly what WHERE saw.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .. import ast as A
from ..errors import ExecutionError, PlanError
from ..expr import EvalContext
from ..functions import is_aggregate_name, make_aggregate
from ..values import sort_key, sort_keys


class WindowCallPlan:
    """One windowed function call, fully compiled."""

    __slots__ = ("func_name", "args", "star", "partition_by", "order_by",
                 "order_desc", "order_nulls", "frame", "separator")

    def __init__(self, func_name: str, args: Sequence[Callable], star: bool,
                 partition_by: Sequence[Callable], order_by: Sequence[Callable],
                 order_desc: Sequence[bool],
                 order_nulls: Sequence[Optional[bool]],
                 frame: Optional[A.FrameSpec],
                 separator: Optional[Callable] = None):
        self.func_name = func_name.lower()
        self.args = list(args)
        self.star = star
        self.partition_by = list(partition_by)
        self.order_by = list(order_by)
        self.order_desc = list(order_desc)
        #: Per key: NULLS FIRST (True) / LAST (False), None = the default.
        self.order_nulls = list(order_nulls)
        self.frame = frame
        #: string_agg's compiled separator (``make_aggregate``).
        self.separator = separator


def compute_window_columns(rt, input_rows: list[tuple], calls: list[WindowCallPlan],
                           outer, slots: list) -> list[tuple]:
    """Return one tuple of window values per input row (input order kept)."""
    columns = [_compute_one_call(rt, input_rows, call, outer, slots)
               for call in calls]
    return [tuple(col[i] for col in columns) for i in range(len(input_rows))]


def _compute_one_call(rt, input_rows, call: WindowCallPlan, outer, slots):
    n = len(input_rows)
    results: list = [None] * n
    contexts = [EvalContext(rt, rows, parent=outer, slots=slots)
                for rows in input_rows]
    part_keys = [tuple(sort_key(e(ctx)) for e in call.partition_by)
                 for ctx in contexts]
    order_values = [[e(ctx) for e in call.order_by] for ctx in contexts]
    order_keys = (list(zip(*[
        sort_keys(column, desc, nulls) for column, desc, nulls in
        zip(zip(*order_values), call.order_desc, call.order_nulls)]))
        if call.order_by else [()] * n)
    arg_rows = [[a(ctx) for a in call.args] for ctx in contexts]

    partitions: dict[tuple, list[int]] = {}
    for i in range(n):
        partitions.setdefault(part_keys[i], []).append(i)

    # One aggregate per call and execution; each frame creates its state.
    agg = (make_aggregate(call.func_name, call.star, call.separator,
                          EvalContext(rt, (), parent=outer))
           if is_aggregate_name(call.func_name) else None)
    for indices in partitions.values():
        ordered = sorted(indices, key=lambda i: order_keys[i])
        _eval_partition(call, agg, ordered, order_keys, arg_rows, contexts,
                        results)
    return results


def _peer_groups(ordered: list[int], order_keys) -> list[int]:
    """For each position, the index of the first row of its peer group."""
    starts = [0] * len(ordered)
    for p in range(1, len(ordered)):
        if order_keys[ordered[p]] == order_keys[ordered[p - 1]]:
            starts[p] = starts[p - 1]
        else:
            starts[p] = p
    return starts


def _peer_group_ends(starts: list[int]) -> list[int]:
    n = len(starts)
    ends = [0] * n
    p = n - 1
    while p >= 0:
        start = starts[p]
        for q in range(start, p + 1):
            ends[q] = p
        p = start - 1
    return ends


def _eval_partition(call: WindowCallPlan, agg, ordered, order_keys,
                    arg_rows, contexts, results) -> None:
    name = call.func_name
    size = len(ordered)
    starts = _peer_groups(ordered, order_keys)
    if name == "row_number":
        for p, i in enumerate(ordered):
            results[i] = p + 1
        return
    if name == "rank":
        for p, i in enumerate(ordered):
            results[i] = starts[p] + 1
        return
    if name == "dense_rank":
        dense = 0
        for p, i in enumerate(ordered):
            if starts[p] == p:
                dense += 1
            results[i] = dense
        return
    if name == "ntile":
        for p, i in enumerate(ordered):
            buckets = arg_rows[i][0]
            if buckets is None or buckets <= 0:
                raise ExecutionError("ntile argument must be positive")
            results[i] = p * buckets // size + 1
        return
    if name in ("lag", "lead"):
        sign = -1 if name == "lag" else 1
        for p, i in enumerate(ordered):
            args = arg_rows[i]
            offset = args[1] if len(args) > 1 else 1
            default = args[2] if len(args) > 2 else None
            target = p + sign * (offset if offset is not None else 1)
            if 0 <= target < size:
                results[i] = arg_rows[ordered[target]][0]
            else:
                results[i] = default
        return
    # Frame-based functions: first/last/nth_value and aggregates.
    ends = _peer_group_ends(starts)
    for p, i in enumerate(ordered):
        frame = _frame_indices(call, p, size, starts, ends, ordered,
                               order_keys, contexts)
        if name == "first_value":
            results[i] = arg_rows[ordered[frame[0]]][0] if frame else None
        elif name == "last_value":
            results[i] = arg_rows[ordered[frame[-1]]][0] if frame else None
        elif name == "nth_value":
            nth = arg_rows[i][1]
            if frame and nth is not None and 1 <= nth <= len(frame):
                results[i] = arg_rows[ordered[frame[nth - 1]]][0]
            else:
                results[i] = None
        else:
            state = agg.create()
            for q in frame:
                value = True if call.star else arg_rows[ordered[q]][0]
                state = agg.step(state, value)
            results[i] = agg.final(state)


def _frame_indices(call: WindowCallPlan, p: int, size: int, starts, ends,
                   ordered, order_keys, contexts) -> list[int]:
    """Positions (within the ordered partition) of row *p*'s frame."""
    frame = call.frame
    if frame is None:
        if call.order_by:
            lo, hi = 0, ends[p]  # RANGE UNBOUNDED PRECEDING .. CURRENT ROW
        else:
            lo, hi = 0, size - 1
    elif frame.mode == "rows":
        lo = _rows_bound(frame.start, p, size, contexts, ordered, is_start=True)
        hi = _rows_bound(frame.end, p, size, contexts, ordered, is_start=False)
    elif frame.mode == "range":
        lo, hi = _range_bounds(frame, p, size, starts, ends, ordered,
                               order_keys, call, contexts)
    elif frame.mode == "groups":
        lo, hi = _groups_bounds(frame, p, size, starts, ends, contexts, ordered)
    else:
        raise PlanError(f"unsupported frame mode {frame.mode!r}")
    lo = max(lo, 0)
    hi = min(hi, size - 1)
    if lo > hi:
        return []
    indices = list(range(lo, hi + 1))
    if frame is not None and frame.exclusion:
        if frame.exclusion == "current row":
            indices = [q for q in indices if q != p]
        elif frame.exclusion == "group":
            indices = [q for q in indices if not starts[p] <= q <= ends[p]]
        elif frame.exclusion == "ties":
            indices = [q for q in indices
                       if q == p or not starts[p] <= q <= ends[p]]
    return indices


def _bound_offset(bound: A.FrameBound, contexts, ordered, p) -> int:
    assert bound.offset is not None
    value = bound.offset(contexts[ordered[p]])  # type: ignore[operator]
    if value is None or (isinstance(value, bool)) or not isinstance(value, int):
        raise ExecutionError("frame offset must be a non-null integer")
    if value < 0:
        raise ExecutionError("frame offset must not be negative")
    return value


def _rows_bound(bound: A.FrameBound, p: int, size: int, contexts, ordered,
                is_start: bool) -> int:
    kind = bound.kind
    if kind == "unbounded_preceding":
        return 0
    if kind == "unbounded_following":
        return size - 1
    if kind == "current":
        return p
    offset = _bound_offset(bound, contexts, ordered, p)
    return p - offset if kind == "preceding" else p + offset


def _range_bounds(frame, p, size, starts, ends, ordered, order_keys, call,
                  contexts):
    def simple(kind: str, is_start: bool) -> Optional[int]:
        if kind == "unbounded_preceding":
            return 0
        if kind == "unbounded_following":
            return size - 1
        if kind == "current":
            return starts[p] if is_start else ends[p]
        return None

    lo = simple(frame.start.kind, True)
    hi = simple(frame.end.kind, False)
    if lo is not None and hi is not None:
        return lo, hi
    # Offset RANGE frames need a single numeric ORDER BY key.
    if len(call.order_by) != 1:
        raise PlanError("RANGE with offset requires exactly one ORDER BY key")
    descending = call.order_desc[0]
    values = [call.order_by[0](contexts[i]) for i in ordered]
    current = values[p]
    if current is None:
        # A NULL row's offset bounds are its peer group (the NULLs).
        return (starts[p] if lo is None else lo, ends[p] if hi is None else hi)

    nulls_first = call.order_nulls[0]
    nulls_last = not (descending if nulls_first is None else nulls_first)

    def in_bound(value, bound: A.FrameBound, is_start: bool) -> bool:
        if value is None:
            # NULLs lie past every bound on their side of the order.
            return nulls_last if is_start else not nulls_last
        offset = _bound_offset(bound, contexts, ordered, p)
        delta = -offset if bound.kind == "preceding" else offset
        if descending:
            delta = -delta
        limit = current + delta
        # Ascending, the frame starts at the first value >= limit and ends
        # at the last value <= limit; descending, the other way round.
        return value >= limit if is_start != descending else value <= limit

    if lo is None:
        lo = next((q for q in range(size)
                   if in_bound(values[q], frame.start, True)), size)
    if hi is None:
        hi = next((q for q in range(size - 1, -1, -1)
                   if in_bound(values[q], frame.end, False)), -1)
    return lo, hi


def _groups_bounds(frame, p, size, starts, ends, contexts, ordered):
    def resolve(bound: A.FrameBound, is_start: bool) -> int:
        kind = bound.kind
        if kind == "unbounded_preceding":
            return 0
        if kind == "unbounded_following":
            return size - 1
        if kind == "current":
            return starts[p] if is_start else ends[p]
        # Walk *offset* peer groups from the current row's group.
        remaining = _bound_offset(bound, contexts, ordered, p)
        position = starts[p] if is_start else ends[p]
        step = -1 if kind == "preceding" else 1
        while remaining > 0:
            if step < 0:
                nxt = starts[position] - 1
                if nxt < 0:
                    return 0 if is_start else -1
                position = starts[nxt] if is_start else nxt
            else:
                nxt = ends[position] + 1
                if nxt >= size:
                    return size if is_start else size - 1
                position = nxt if is_start else ends[nxt]
            remaining -= 1
        return position

    return resolve(frame.start, True), resolve(frame.end, False)
