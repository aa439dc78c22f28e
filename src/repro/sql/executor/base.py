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

from itertools import islice
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

    __slots__ = ("output_columns", "read_only")

    def __init__(self, output_columns: list[str]):
        self.output_columns = output_columns
        #: Set on a statement's root plan by ``Planner.plan_statement``.
        self.read_only = False

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
    """EXPLAIN lines for the trampoline call sites parked in an operator's
    expression subplan slots (executor/trampoline.py).  The subquery
    plans sharing those slots - the slots' only other kind, and a
    :class:`Plan` - print nothing: only a site says which evaluator a
    compiled call runs on."""
    return [plan.explain(indent) for subplans in slot_lists
            for plan in subplans if not isinstance(plan, Plan)]


#: Rows a bulk pull (:meth:`PlanState.next_rows`) hands on at least, unless
#: the stream ends first.  Module-level (not a GUC) so tests can sweep it;
#: read where it is used, never copied.
ROWS_PER_PULL = 256


class PlanState:
    """Base class for per-execution operator state.

    The tuple protocol: after :meth:`open`, repeated :meth:`next` calls yield
    row tuples until ``None``.  :meth:`open` may be called again at any time
    (rescan), possibly with a different outer context — lateral and
    correlated subplans rely on this.

    The bulk pull: :meth:`next_rows` hands on the next rows as a list, for
    consumers that take every row anyway (``fetch_all``, Sort, TopN).  It
    and :meth:`next` read the same stream and may be mixed.
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

    def next_rows(self) -> list[tuple]:
        """The next rows of the stream, in a list that is the caller's: at
        least :data:`ROWS_PER_PULL` of them unless the stream ends with
        them, so a shorter list - an empty one included - says it has
        ended.  The default is a short loop over :meth:`next` (which it
        never calls again after a ``None``); an operator whose rows already
        sit in a list hands that on instead."""
        return list(islice(iter(self.next, None), ROWS_PER_PULL))

    # -- convenience ----------------------------------------------------
    def fetch_all(self) -> list[tuple]:
        out = rows = self.next_rows()
        # lint: bounded — drains a finite child stream; leaf scans poll
        while len(rows) >= ROWS_PER_PULL:
            rows = self.next_rows()
            out += rows
        return out


class RowListState(PlanState):
    """An operator whose :meth:`open` leaves its whole output in ``rows``
    (Sort, TopN, set operations): both pulls serve it from there."""

    __slots__ = ("rows", "pos")

    def __init__(self, rt: "RuntimeContext"):
        super().__init__(rt)
        self.rows: list[tuple] = []
        self.pos = 0

    def next(self) -> Optional[tuple]:
        if self.pos >= len(self.rows):
            return None
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def next_rows(self) -> list[tuple]:
        rows = self.rows[self.pos:]
        self.pos = len(self.rows)
        return rows
