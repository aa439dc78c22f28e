"""Common table expressions: materialization, recursion, and WITH ITERATE.

``WITH RECURSIVE`` follows PostgreSQL's working-table algorithm: seed the
working table from the base term, then repeatedly evaluate the recursive
term with the CTE's self-reference bound to the *previous step's* rows,
appending every step to the union trace that the final query reads.

That trace is exactly the "wasted effort" the paper calls out for
tail-recursive computations: only the last activation matters, yet vanilla
WITH RECURSIVE buffers them all (quadratic page writes for ``parse()``,
Table 2).  ``WITH ITERATE`` — the paper's proposed construct, which we
implement here as the engine-side "modest local change" of Section 3 —
keeps only the most recent step: the CTE's result is the last *non-empty*
working table, and nothing is ever spilled to the buffer manager.

Engine extension: unlike PostgreSQL, CTE bodies here may reference columns
of an enclosing query.  Inlined compiled functions need this — their
argument expressions live inside the CTE's base term.  Each (re)open of the
enclosing statement therefore invalidates and re-materializes its CTEs.
"""

from __future__ import annotations

from typing import Optional

from ...faults import FAULTS
from ..errors import ExecutionError, PlanError
from ..profiler import (RECURSION_DEDUP_DROPPED, TRAMPOLINE_ITERATIONS,
                        TRAMPOLINE_WORKING_ROWS)
from ..storage import TupleStore
from .base import Plan, PlanState
from ..values import hashable_row as _hashable_row


class WorkingSetDedup:
    """Hash-based dedup for ``UNION`` (not ALL) recursion.

    A row may enter the union trace — and therefore the working set — only
    once over the whole evaluation; rows re-derived in a later step are
    dropped in O(1) via a hash set over their hashable form.  This is what
    terminates cyclic traversals (the paper's graph workload): without it a
    cycle re-derives the same rows forever.
    """

    __slots__ = ("seen", "dropped")

    def __init__(self):
        self.seen: set = set()
        self.dropped = 0

    def fresh(self, rows: list[tuple]) -> list[tuple]:
        """The not-yet-seen subset of *rows* (marking them seen)."""
        out = []
        seen = self.seen
        for row in rows:
            key = _hashable_row(row)
            if key not in seen:
                seen.add(key)
                out.append(row)
            else:
                self.dropped += 1
        return out


class CteDef:
    """Plan-time description of one CTE.  Identity (not name) keys runtime
    lookup, so shadowed names in nested scopes behave correctly."""

    __slots__ = ("name", "columns", "plan", "base_plan", "rec_plan",
                 "union_all", "iterate", "recursive")

    def __init__(self, name: str, columns: list[str]):
        self.name = name
        self.columns = columns
        self.plan: Optional[Plan] = None          # plain CTE
        self.base_plan: Optional[Plan] = None     # recursive CTE seed
        self.rec_plan: Optional[Plan] = None      # recursive term
        self.union_all = True
        self.iterate = False
        self.recursive = False


class InstantiationContext:
    """Chain of CteDef -> CteRuntime bindings threaded through instantiate."""

    __slots__ = ("parent", "bindings")

    def __init__(self, parent: Optional["InstantiationContext"] = None):
        self.parent = parent
        self.bindings: dict[CteDef, "CteRuntime"] = {}

    def find(self, cte_def: CteDef) -> "CteRuntime":
        node: Optional[InstantiationContext] = self
        while node is not None:
            runtime = node.bindings.get(cte_def)
            if runtime is not None:
                return runtime
            node = node.parent
        raise PlanError(f"CTE {cte_def.name!r} has no runtime binding "
                        "(scan outside its WITH scope?)")


class CteRuntime:
    """Per-instantiation storage and evaluation driver for one CTE."""

    __slots__ = ("cte_def", "rt", "plain_state", "base_state", "rec_state",
                 "rows", "working", "in_recursion", "materializing", "outer",
                 "iterations")

    def __init__(self, cte_def: CteDef, rt):
        self.cte_def = cte_def
        self.rt = rt
        self.plain_state: Optional[PlanState] = None
        self.base_state: Optional[PlanState] = None
        self.rec_state: Optional[PlanState] = None
        self.rows: Optional[list[tuple]] = None
        self.working: list[tuple] = []
        self.in_recursion = False
        self.materializing = False
        self.outer = None
        self.iterations = 0

    def build_states(self, ictx: InstantiationContext) -> None:
        """Instantiate the definition plans.  Called after this runtime is
        bound in *ictx* so that the recursive term's self-scan resolves."""
        cte_def = self.cte_def
        if cte_def.plan is not None:
            self.plain_state = cte_def.plan.instantiate(self.rt, ictx)
        if cte_def.base_plan is not None:
            self.base_state = cte_def.base_plan.instantiate(self.rt, ictx)
        if cte_def.rec_plan is not None:
            self.rec_state = cte_def.rec_plan.instantiate(self.rt, ictx)

    def invalidate(self, outer) -> None:
        """Called when the owning statement (re)opens: forget results and
        remember the outer context the definition query must see."""
        self.rows = None
        self.outer = outer

    def ensure_materialized(self) -> list[tuple]:
        if self.rows is not None:
            return self.rows
        if self.materializing:
            raise ExecutionError(
                f"recursive reference to CTE {self.cte_def.name!r} outside "
                "its recursive term")
        self.materializing = True
        try:
            if self.cte_def.recursive:
                self.rows = self._materialize_recursive()
            else:
                assert self.plain_state is not None
                self.plain_state.open(self.outer)
                self.rows = self.plain_state.fetch_all()
        finally:
            self.materializing = False
        return self.rows

    def _materialize_recursive(self) -> list[tuple]:
        cte = self.cte_def
        profiler = self.rt.db.profiler
        assert self.base_state is not None and self.rec_state is not None
        self.base_state.open(self.outer)
        working = self.base_state.fetch_all()
        dedup: Optional[WorkingSetDedup] = None
        if not cte.union_all:
            dedup = WorkingSetDedup()
            working = dedup.fresh(working)
        iterate = cte.iterate
        # The union trace is what WITH RECURSIVE spills; WITH ITERATE keeps
        # only the newest step and therefore writes no pages at all.
        trace = TupleStore(self.rt.db.buffers, tracked=True) if not iterate else None
        if trace is not None:
            trace.extend(working)
        last_nonempty = working
        limit = self.rt.db.settings.active.max_recursion_iterations
        cancel = self.rt.cancel
        self.iterations = 0
        while working:
            cancel.check()
            if FAULTS.active:
                FAULTS.fire("exec.recursion", profiler)
            self.iterations += 1
            if self.iterations > limit:
                raise ExecutionError(
                    f"recursive CTE {cte.name!r} exceeded "
                    f"{limit} iterations (possible infinite recursion)")
            profiler.bump(TRAMPOLINE_ITERATIONS)
            profiler.bump(TRAMPOLINE_WORKING_ROWS, len(working))
            self.working = working
            self.in_recursion = True
            try:
                self.rec_state.open(self.outer)
                new_rows = self.rec_state.fetch_all()
            finally:
                self.in_recursion = False
            if dedup is not None:
                before = dedup.dropped
                new_rows = dedup.fresh(new_rows)
                profiler.bump(RECURSION_DEDUP_DROPPED, dedup.dropped - before)
            if trace is not None:
                trace.extend(new_rows)
            if new_rows:
                last_nonempty = new_rows
            working = new_rows
        self.working = []
        return last_nonempty if iterate else trace.rows  # type: ignore[union-attr]


class CTEScanPlan(Plan):
    """Scan of a CTE by name.  Inside the CTE's own recursive term this reads
    the working table (PostgreSQL's WorkTableScan); elsewhere it reads the
    materialized result, materializing on first use."""

    __slots__ = ("cte_def",)

    def __init__(self, cte_def: CteDef, output_columns: list[str]):
        super().__init__(output_columns)
        self.cte_def = cte_def

    def label(self) -> str:
        return f"CTEScan on {self.cte_def.name}"

    def instantiate(self, rt, ictx=None) -> "CTEScanState":
        if ictx is None:
            raise PlanError(f"CTE scan of {self.cte_def.name!r} requires an "
                            "instantiation context")
        return CTEScanState(rt, self, ictx.find(self.cte_def))


class CTEScanState(PlanState):
    __slots__ = ("plan", "runtime", "rows", "pos")

    def __init__(self, rt, plan: CTEScanPlan, runtime: CteRuntime):
        super().__init__(rt)
        self.plan = plan
        self.runtime = runtime
        self.rows: list[tuple] = []
        self.pos = 0

    def open(self, outer) -> None:
        runtime = self.runtime
        if runtime.in_recursion:
            self.rows = runtime.working
        else:
            self.rows = runtime.ensure_materialized()
        self.pos = 0

    def next(self) -> Optional[tuple]:
        if self.pos >= len(self.rows):
            return None
        row = self.rows[self.pos]
        self.pos += 1
        return row


class SelectStmtPlan(Plan):
    """Root of one SELECT statement level: owns CTE definitions, delegates
    tuple flow to the child (body [+ Sort + Limit]) plan."""

    __slots__ = ("cte_defs", "child")

    def __init__(self, cte_defs: list[CteDef], child: Plan):
        super().__init__(child.output_columns)
        self.cte_defs = cte_defs
        self.child = child

    def children(self) -> list[Plan]:
        return [self.child]

    def label(self) -> str:
        if self.cte_defs:
            names = ", ".join(d.name for d in self.cte_defs)
            return f"WithClause [{names}]"
        return "Select"

    def instantiate(self, rt, ictx=None) -> "SelectStmtState":
        return SelectStmtState(rt, self, ictx)


class SelectStmtState(PlanState):
    __slots__ = ("plan", "runtimes", "child")

    def __init__(self, rt, plan: SelectStmtPlan, ictx):
        super().__init__(rt)
        self.plan = plan
        inner = InstantiationContext(parent=ictx)
        self.runtimes = []
        for cte_def in plan.cte_defs:
            runtime = CteRuntime(cte_def, rt)
            inner.bindings[cte_def] = runtime
            runtime.build_states(inner)
            self.runtimes.append(runtime)
        self.child = plan.child.instantiate(rt, inner)

    def open(self, outer) -> None:
        for runtime in self.runtimes:
            runtime.invalidate(outer)
        self.child.open(outer)

    def next(self) -> Optional[tuple]:
        return self.child.next()

    def next_rows(self) -> list[tuple]:
        return self.child.next_rows()

    def close(self) -> None:
        self.child.close()
