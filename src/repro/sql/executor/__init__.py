"""Iterator-model plan operators (the engine's executor).

Each plan node (:mod:`repro.sql.planner`) knows how to *instantiate* itself
into a per-execution state object (:class:`~repro.sql.executor.base.PlanState`).
Instantiation is the engine's ``ExecutorStart`` — the cost the paper's
``f→Qi`` context switches pay on every embedded-query evaluation and the cost
a compiled ``WITH RECURSIVE`` query pays exactly once.
"""

from .base import PlanState

__all__ = ["PlanState"]
