"""Build/probe hash joins over the shared row vector.

The planner (see :meth:`repro.sql.planner.Planner._finalize_from`) turns a
join whose condition contains equality conjuncts straddling the two sides —
from an explicit ``JOIN ... ON`` or from WHERE conjuncts over a cross join —
into a :class:`HashJoinPlan`.  At open, the *build* side is drained once into
a hash table keyed by its key expressions; the *probe* side then streams,
looking up matches per row.  This replaces the O(|L|·|R|) condition
evaluations of the nested-loop path with O(|L|+|R|) work, which is the whole
point of compiling PL/SQL into plain queries: once the workload is relational,
the engine can pick the join algorithm.

Vector protocol: both sides still write into the shared row vector.  While
building, each build-side tick's slot values are snapshotted into the hash
table; on a probe match the snapshot is written back into the vector before
the residual condition (non-equi leftovers of the join condition) runs and
the row is emitted.

Semantics kept identical to the nested loop:

* NULL keys never match (``NULL = x`` is not TRUE) — NULL build rows are
  not hashed, NULL probe rows find nothing,
* LEFT JOIN emits a NULL-filled right side for probe rows with no surviving
  match; the build side is therefore always the right (nullable) side,
* for INNER joins the planner picks the smaller estimated side as the build
  side (``storage.HeapTable.estimate_rows`` via the catalog).

LATERAL subtrees never reach this operator — the right side of a lateral
join must be re-evaluated per left tick, so the planner keeps those on the
nested-loop path.

The rules of the build table — what a row's hash key is, which rows have
none, which probe values raise — are :func:`hash_key` and its column form
:func:`hash_keys`, shared with the vectorized core's batch hash join
(:class:`repro.sql.executor.vector.VectorHashJoin`), which runs the same
plan node a batch of probe rows at a time.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..errors import TypeError_
from ..expr import EvalContext, IntColumn, selects
from ..profiler import HASHJOIN_BUILD_ROWS, HASHJOIN_BUILDS
from ..values import Row, hashable_value
from ..values import key_class as _key_class
from .base import call_site_lines
from .fromtree import FromNodePlan, FromNodeState
from .scan import make_slots

_NO_MATCHES: list = []


def _key_type_error(probe_value, build_class, build_display) -> TypeError_:
    if isinstance(build_class, tuple) and isinstance(probe_value, Row):
        return TypeError_("cannot compare rows of different arity")
    return TypeError_(f"cannot compare {type(probe_value).__name__} "
                      f"with {build_display}")


def hash_key(values: Iterable, classes: Sequence[dict], probe: bool):
    """The build-table key of one row's join-key *values*, or None when a
    component is NULL: ``NULL = x`` is not TRUE, so such a build row is not
    hashed and such a probe row finds nothing.

    A component keys as its :func:`~repro.sql.values.hashable_value`; one
    component is the key itself, several make a tuple.  ``classes`` holds,
    per component, the comparability classes the build side had (class ->
    a type name for the message): a build row records its own — NULL
    components' neighbours included — and a *probe* value of a class the
    build side never saw raises the error the nested loop would raise on
    the first such pair.  *values* may be lazy: nothing past a raising
    component is evaluated.
    """
    key: Optional[list] = []
    for value, seen in zip(values, classes):
        if value is None:
            key = None
            continue
        kind = _key_class(value)
        if not probe:
            seen.setdefault(kind, type(value).__name__)
        elif seen and kind not in seen:
            build_class, display = next(iter(seen.items()))
            raise _key_type_error(value, build_class, display)
        if key is not None:
            key.append(hashable_value(value))
    if key is None:
        return None
    return key[0] if len(key) == 1 else tuple(key)


def hash_keys(cols: Sequence[list], classes: Sequence[dict],
              probe: bool) -> Iterable:
    """:func:`hash_key` of every row of the parallel key columns *cols*.
    Columns of exact ints have no NULL, one class — recorded or checked on
    the first row for all of them — and each value is its own hashable
    stand-in, so they key as they are."""
    if all(type(col) is IntColumn for col in cols):
        if cols[0]:
            hash_key([col[0] for col in cols], classes, probe)
        return cols[0] if len(cols) == 1 else zip(*cols)
    return [hash_key(values, classes, probe) for values in zip(*cols)]


class HashJoinPlan(FromNodePlan):
    """Hash join of two FROM subtrees.

    ``kind`` is ``inner`` or ``left`` (a keyed cross join is planned as
    ``inner``).  ``left_keys`` / ``right_keys`` are parallel lists of
    compiled key expressions, each referencing only its own side;
    ``residual`` is the compiled conjunction of the remaining condition
    conjuncts (may be None); ``subplans`` are the subquery slots any of
    those expressions need.  ``build_side`` is ``"left"`` or ``"right"``
    (always ``"right"`` for LEFT joins).

    ``rebuild_on_rescan`` is False when the planner proved the build side
    and its keys independent of the outer context (plain base-table scans,
    uncorrelated keys and filters): the hash table is then built once per
    execution and reused across rescans — e.g. when this join sits under
    the re-opened right side of an enclosing nested loop.

    ``asts`` keeps what the closures were compiled from — ``(left key
    expressions, right key expressions, residual or None, their scope)`` —
    for the vectorized core, which derives the batch forms of the same
    expressions when the whole FROM tree qualifies.
    """

    __slots__ = ("kind", "left", "right", "left_keys", "right_keys",
                 "residual", "subplans", "build_side", "key_display",
                 "rebuild_on_rescan", "asts")

    def __init__(self, kind: str, left: FromNodePlan, right: FromNodePlan,
                 left_keys, right_keys, residual, subplans,
                 build_side: str, key_display: str,
                 rebuild_on_rescan: bool = True, asts: tuple = ()):
        super().__init__(left.rel_slots + right.rel_slots)
        self.kind = kind
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.subplans = subplans
        self.build_side = build_side
        self.key_display = key_display
        self.rebuild_on_rescan = rebuild_on_rescan
        self.asts = asts

    def instantiate(self, rt, ictx, vector: list) -> "HashJoinState":
        return HashJoinState(
            rt, vector, self,
            self.left.instantiate(rt, ictx, vector),
            self.right.instantiate(rt, ictx, vector),
            make_slots(rt, ictx, self.subplans))

    def explain(self, indent: int = 0) -> str:
        head = ("  " * indent
                + f"-> HashJoin {self.kind.upper()} JOIN"
                + f" ({self.key_display}) [build={self.build_side}]")
        return "\n".join([head,
                          *call_site_lines(indent + 1, self.subplans),
                          self.left.explain(indent + 1),
                          self.right.explain(indent + 1)])


class HashJoinState(FromNodeState):
    __slots__ = ("plan", "left", "right", "slots", "_ctx", "_table",
                 "_build", "_build_node", "_build_slot_ids", "_probe",
                 "_probe_keys", "_matches", "_match_pos", "_matched",
                 "_key_cats")

    def __init__(self, rt, vector, plan: HashJoinPlan,
                 left: FromNodeState, right: FromNodeState, slots: list):
        super().__init__(rt, vector)
        self.plan = plan
        self.left = left
        self.right = right
        self.slots = slots
        if plan.build_side == "right":
            self._build_node = plan.right
            build_state, build_keys = right, plan.right_keys
            self._probe, self._probe_keys = left, plan.left_keys
        else:
            self._build_node = plan.left
            build_state, build_keys = left, plan.left_keys
            self._probe, self._probe_keys = right, plan.right_keys
        # Stashed for open(); avoids re-deriving the pairing per rescan.
        self._build = (build_state, build_keys)
        self._ctx: EvalContext | None = None
        self._table: dict | None = None  # None = not built yet
        self._key_cats: list[dict] = [{} for _ in self._probe_keys]
        self._build_slot_ids = [index for index, _ in self._build_node.rel_slots]
        self._matches = None
        self._match_pos = 0
        self._matched = False

    def open(self, outer) -> None:
        if self._ctx is None or self.outer is not outer:
            self._ctx = EvalContext(self.rt, self.vector, parent=outer,
                                    slots=self.slots)
        self.outer = outer
        if self._table is not None and not self.plan.rebuild_on_rescan:
            # Uncorrelated build side: reuse the table across rescans.
            self._probe.open(outer)
            self._matches = None
            self._match_pos = 0
            self._matched = False
            return
        ctx = self._ctx
        build_state, build_keys = self._build
        slot_ids = self._build_slot_ids
        vector = self.vector
        table: dict = {}
        key_cats: list[dict] = [{} for _ in build_keys]
        build_state.open(outer)
        cancel = self.rt.cancel
        count = 0
        while build_state.next():
            cancel.check()
            key = hash_key([key_expr(ctx) for key_expr in build_keys],
                           key_cats, False)
            if key is None:
                continue
            count += 1
            table.setdefault(key, []).append(
                tuple(vector[i] for i in slot_ids))
        self._table = table
        self._key_cats = key_cats
        profiler = self.rt.db.profiler
        profiler.bump(HASHJOIN_BUILDS)
        profiler.bump(HASHJOIN_BUILD_ROWS, count)
        self._probe.open(outer)
        self._matches = None
        self._match_pos = 0
        self._matched = False

    def _null_fill_build(self) -> None:
        for rel_index, width in self._build_node.rel_slots:
            self.vector[rel_index] = (None,) * width

    def next(self) -> bool:
        plan = self.plan
        ctx = self._ctx
        vector = self.vector
        slot_ids = self._build_slot_ids
        residual = plan.residual
        cancel = self.rt.cancel
        while True:
            cancel.check()
            matches = self._matches
            if matches is not None:
                while self._match_pos < len(matches):
                    snapshot = matches[self._match_pos]
                    self._match_pos += 1
                    for slot, value in zip(slot_ids, snapshot):
                        vector[slot] = value
                    if residual is None or selects(residual(ctx)):
                        self._matched = True
                        return True
                self._matches = None
                if plan.kind == "left" and not self._matched:
                    # Probe side is the preserved left side; fill the
                    # (right) build side with NULLs.
                    self._null_fill_build()
                    return True
            if not self._probe.next():
                return False
            self._matched = False
            # Lazily: a key expression after a mismatched one never runs,
            # as in the nested loop's AND.
            key = hash_key((key_expr(ctx) for key_expr in self._probe_keys),
                           self._key_cats, True)
            self._matches = (_NO_MATCHES if key is None
                             else self._table.get(key, _NO_MATCHES))
            self._match_pos = 0

    def close(self) -> None:
        self.left.close()
        self.right.close()
