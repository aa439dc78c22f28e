"""Execution-state protocol shared by all plan operators.

The engine deliberately mirrors PostgreSQL's executor life cycle because the
paper's cost analysis hangs off it:

* ``Plan.instantiate(rt)`` — build the operator *state* tree
  (**ExecutorStart**: per-execution memory, expression slots, child states),
* ``state.open(outer)`` / ``state.next()`` — pull tuples (**ExecutorRun**),
* ``state.close()`` — release state (**ExecutorEnd**).

Correlated subplans are re-*opened* (rescan), not re-instantiated, which is
why a compiled query pays instantiation once while the PL/SQL interpreter
pays it per embedded-query evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..expr import EvalContext, RuntimeContext


class Plan:
    """Base class for immutable plan nodes.

    A plan is built once by the planner (and possibly cached by SQL text);
    ``instantiate`` builds the per-execution :class:`PlanState` tree.  The
    ``ictx`` argument is the instantiation context used to wire CTE scans to
    the runtime storage of their defining WITH clause (see
    executor/recursion.py).
    """

    __slots__ = ("output_columns",)

    def __init__(self, output_columns: list[str]):
        self.output_columns = output_columns

    @property
    def width(self) -> int:
        return len(self.output_columns)

    def instantiate(self, rt: "RuntimeContext", ictx=None) -> "PlanState":
        raise NotImplementedError

    def children(self) -> list["Plan"]:
        """Direct child plans, for EXPLAIN-style rendering."""
        return []

    def label(self) -> str:
        return type(self).__name__.replace("Plan", "")

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + "-> " + self.label()
                 + f"  [{', '.join(self.output_columns)}]"]
        lines.extend(call_site_lines(indent + 1,
                                     getattr(self, "subplans", ())))
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


def call_site_lines(indent: int, *slot_lists) -> list[str]:
    """EXPLAIN lines for the per-call trampoline sites parked in an
    operator's expression subplan slots (executor/batched_udf.py).  The
    subquery plans sharing those slots print nothing, as before: only a
    site says which evaluator a compiled call runs on."""
    return [plan.explain(indent) for subplans in slot_lists
            for plan in subplans if getattr(plan, "per_call", False)]


class PlanState:
    """Base class for per-execution operator state.

    The tuple protocol: after :meth:`open`, repeated :meth:`next` calls yield
    row tuples until ``None``.  :meth:`open` may be called again at any time
    (rescan), possibly with a different outer context — lateral and
    correlated subplans rely on this.
    """

    __slots__ = ("rt",)

    def __init__(self, rt: "RuntimeContext"):
        self.rt = rt

    def open(self, outer: Optional["EvalContext"]) -> None:
        raise NotImplementedError

    def next(self) -> Optional[tuple]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- convenience ----------------------------------------------------
    def fetch_all(self) -> list[tuple]:
        out = []
        # lint: bounded — drains a finite child stream; leaf scans poll
        while True:
            row = self.next()
            if row is None:
                return out
            out.append(row)
