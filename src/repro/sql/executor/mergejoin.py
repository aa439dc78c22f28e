"""Sorted-merge equi-joins over the shared row vector.

The planner (see :meth:`repro.sql.planner.Planner._finalize_node`) chooses a
merge join when both inputs of an inner equi-join are *index-ordered* on the
join key: each side is a base-table leaf whose scan has been replaced by an
ordered :class:`~repro.sql.executor.scan.IndexRangeScanPlan` over an existing
sorted index.  Both sides then stream in key order and one synchronized pass
finds every match — O(|L| + |R|) key comparisons plus the output size,
against the hash join's build-table construction per (re)open and the nested
loop's O(|L|·|R|) condition evaluations.  Because the ordered scans come from
incrementally-maintained indexes, a rescan costs two bisect-free re-opens and
nothing else, which is what makes the operator attractive under the
trampoline's repeated re-probes.

Vector protocol (same as :mod:`~repro.sql.executor.hashjoin`): both sides
write into the shared row vector.  Right-side rows of the current key group
are snapshotted so the group can be replayed for every equal-keyed left row;
on emit the snapshot is written back before the residual condition runs.

Semantics kept aligned with the nested loop:

* NULL keys never match; both inputs deliver NULLs *last* (ascending index
  order), so the first NULL key on either side ends the merge,
* key comparisons go through :func:`repro.sql.values.compare`, which raises
  the same type error a nested-loop ``l = r`` evaluation would raise for
  SQL-incomparable values.  (Unlike the nested loop, the merge only compares
  the pairs it visits, so a run that *skips* every incomparable pair can
  finish where the nested loop would raise — the differential tests pin the
  agreeing cases.)

Only inner (and keyed cross) joins take this path: LEFT JOIN stays on the
hash/nested-loop operators, whose preserved-side bookkeeping already exists.
"""

from __future__ import annotations

from ..expr import EvalContext
from ..profiler import MERGEJOIN_SCANS
from ..values import compare, sort_key
from .base import call_site_lines
from .fromtree import FromNodePlan, FromNodeState
from .scan import make_slots


class MergeJoinPlan(FromNodePlan):
    """Merge join of two index-ordered FROM leaves.

    ``left_key`` / ``right_key`` are single compiled key expressions, each
    referencing only its own side and matching the scan order of that
    side's ordered index scan; ``residual`` is the compiled conjunction of
    the remaining ON conjuncts (may be None).
    """

    __slots__ = ("left", "right", "left_key", "right_key", "residual",
                 "subplans", "key_display")

    def __init__(self, left: FromNodePlan, right: FromNodePlan,
                 left_key, right_key, residual, subplans, key_display: str):
        super().__init__(left.rel_slots + right.rel_slots)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual
        self.subplans = subplans
        self.key_display = key_display

    def instantiate(self, rt, ictx, vector: list) -> "MergeJoinState":
        return MergeJoinState(
            rt, vector, self,
            self.left.instantiate(rt, ictx, vector),
            self.right.instantiate(rt, ictx, vector),
            make_slots(rt, ictx, self.subplans))

    def explain(self, indent: int = 0) -> str:
        head = ("  " * indent
                + f"-> MergeJoin INNER JOIN ({self.key_display})")
        return "\n".join([head,
                          *call_site_lines(indent + 1, self.subplans),
                          self.left.explain(indent + 1),
                          self.right.explain(indent + 1)])


class MergeJoinState(FromNodeState):
    __slots__ = ("plan", "left", "right", "slots", "_ctx",
                 "_right_slot_ids", "_left_value", "_have_left",
                 "_right_ahead", "_right_done", "_group", "_group_value",
                 "_group_pos")

    def __init__(self, rt, vector, plan: MergeJoinPlan,
                 left: FromNodeState, right: FromNodeState, slots: list):
        super().__init__(rt, vector)
        self.plan = plan
        self.left = left
        self.right = right
        self.slots = slots
        self._ctx: EvalContext | None = None
        self._right_slot_ids = [index for index, _ in plan.right.rel_slots]
        self._reset()

    def _reset(self) -> None:
        self._left_value = None
        self._have_left = False
        self._right_ahead = None  # (key value, right-slot snapshot)
        self._right_done = False
        self._group: list | None = None
        self._group_value = None
        self._group_pos = 0

    def open(self, outer) -> None:
        if self._ctx is None or self.outer is not outer:
            self._ctx = EvalContext(self.rt, self.vector, parent=outer,
                                    slots=self.slots)
        self.outer = outer
        self.left.open(outer)
        self.right.open(outer)
        self._reset()
        self.rt.db.profiler.bump(MERGEJOIN_SCANS)

    # -- side advancement ------------------------------------------------

    def _next_left(self) -> bool:
        """Advance the left side; False at exhaustion or first NULL key
        (NULLs sort last in the scan order, so no matches remain)."""
        if not self.left.next():
            return False
        value = self.plan.left_key(self._ctx)
        if value is None:
            return False
        self._left_value = value
        return True

    def _next_right(self):
        """``(key value, right-slot snapshot)`` for the next right row, or
        None at exhaustion / first NULL key."""
        if self._right_done:
            return None
        if not self.right.next():
            self._right_done = True
            return None
        value = self.plan.right_key(self._ctx)
        if value is None:
            self._right_done = True
            return None
        vector = self.vector
        return value, tuple(vector[i] for i in self._right_slot_ids)

    # -- the merge -------------------------------------------------------

    def next(self) -> bool:
        ctx = self._ctx
        plan = self.plan
        vector = self.vector
        slot_ids = self._right_slot_ids
        residual = plan.residual
        cancel = self.rt.cancel
        while True:
            cancel.check()
            # Replay the buffered right group for the current left row.
            group = self._group
            if group is not None:
                while self._group_pos < len(group):
                    snapshot = group[self._group_pos]
                    self._group_pos += 1
                    for slot, value in zip(slot_ids, snapshot):
                        vector[slot] = value
                    if residual is None or residual(ctx) is True:
                        return True
                # Group exhausted: the next left row may share the key.
                if not self._next_left():
                    return False
                if compare(self._left_value, self._group_value) == 0:
                    self._group_pos = 0
                    continue
                self._group = None
                self._have_left = True
            if not self._have_left:
                if not self._next_left():
                    return False
                self._have_left = True
            # Synchronized advance until the heads share a key.
            # Every iteration consumes a left or right row; finite child
            # streams, and leaf scans poll the token amortized.
            # lint: bounded
            while True:
                if self._right_ahead is None:
                    self._right_ahead = self._next_right()
                    if self._right_ahead is None:
                        return False
                right_value, snapshot = self._right_ahead
                ordering = compare(self._left_value, right_value)
                if ordering is None:
                    # A NULL *field* inside a row/array key: the SQL
                    # comparison is NULL, never a match (top-level NULL
                    # keys were already cut off by _next_left/_next_right).
                    # Such a key can never compare TRUE-equal to anything,
                    # so advance whichever side the index order puts
                    # first and keep merging.
                    if sort_key(self._left_value) <= sort_key(right_value):
                        if not self._next_left():
                            return False
                    else:
                        self._right_ahead = None
                    continue
                if ordering > 0:
                    self._right_ahead = None
                    continue
                if ordering < 0:
                    if not self._next_left():
                        return False
                    continue
                # Equal heads: buffer every right row of this key.
                group = [snapshot]
                self._right_ahead = None
                # lint: bounded — drains one key group from the right side.
                while True:
                    ahead = self._next_right()
                    if ahead is None:
                        break
                    if compare(ahead[0], right_value) == 0:
                        group.append(ahead[1])
                    else:
                        self._right_ahead = ahead
                        break
                self._group = group
                self._group_value = right_value
                self._group_pos = 0
                self._have_left = False
                break

    def close(self) -> None:
        self.left.close()
        self.right.close()
