"""The statement record every door hands to ``Database._run``, and the
text cache that holds records - what PostgreSQL's ``CachedPlanSource``
(``plancache.c``) is to its simple-query, extended-protocol and SPI paths.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from . import ast as A
from .astutil import calls_user_function
from .errors import PlanError, SqlError
from .profiler import PLAN, PLAN_CACHE_EVICTIONS, PREPARED_REPLANS

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Database


class Statement:
    """One statement: the AST, its row of :data:`repro.sql.ast.STATEMENTS`
    and, for the kinds that are plans, the stamped plan.

    The text cache holds records, a prepared handle is one, and an
    ``EXECUTE`` record answers :meth:`plan` and :attr:`read_only` with its
    handle's (``target``, resolved in *session*; None on any other record,
    so that a record is no reference cycle and goes with its last
    reference, plan and all).  A *door* that takes plans only
    (``prepare``, ``explain``, ``executemany``) names itself and is
    refused any other kind here - the one place that rule is checked.
    """

    __slots__ = ("db", "ast", "row", "target", "_plan", "_stamp")

    def __init__(self, db: "Database", ast: A.Statement, session=None,
                 door: Optional[str] = None):
        self.row = row = A.STATEMENTS.get(type(ast))
        if row is None:
            raise SqlError(f"unsupported statement {type(ast).__name__}")
        self.db, self.ast = db, ast
        self._plan = self._stamp = self.target = None
        if session is not None and isinstance(ast, A.ExecuteStmt):
            self.target = session.lookup_prepared(ast.name)
        if door is not None and (self.target or self).row.plan is None:
            raise PlanError(
                f"cannot {door} a {type(ast).__name__}; only SELECT, "
                "INSERT, UPDATE and DELETE have plans")

    def plan(self):
        """The current plan, (re)planned when the stamp moved: against
        whatever catalog now exists, so a stale record raises the same
        clean error a fresh query would (e.g. after ``DROP TABLE``)."""
        if self.target is not None:
            return self.target.plan()
        db = self.db
        stamp = db.plan_stamp()
        if self._stamp != stamp:
            if self._plan is not None:
                db.profiler.bump(PREPARED_REPLANS)
            # A failed replan must leave no plan and no stamp behind.
            self._plan = self._stamp = None
            with db.profiler.phase(PLAN):
                self._plan = db.planner.plan_statement(self.ast)
            self._stamp = stamp
        return self._plan

    @property
    def read_only(self) -> bool:
        """Whether the statement may run beside a pending commit: only
        when the record already holds a current plan whose
        ``Plan.read_only`` is set.  One still to be planned is planned
        inside the statement and counts as one that may write; so does an
        ``EXECUTE`` whose arguments call a user-defined function."""
        target = self.target or self
        plan = target._plan
        if plan is None or not plan.read_only \
                or target._stamp != self.db.plan_stamp():
            return False
        return target is self or not calls_user_function(
            self.ast.args, self.db.catalog.functions)

    def explain(self) -> str:
        """Render the current plan (replanned if stale)."""
        return self.plan().explain()


class PlanCache:
    """The text cache: an LRU of :class:`Statement` records of kind ROWS,
    keyed by (SQL text, settings fingerprint), so a plan built under one
    combination of plan-affecting settings is invisible under any other;
    DDL empties it.  ``SET plan_cache_size = N`` bounds it; evictions are
    counted.
    """

    __slots__ = ("_entries", "profiler")

    def __init__(self, profiler):
        self._entries: OrderedDict[tuple, Statement] = OrderedDict()
        self.profiler = profiler

    def get(self, key: tuple) -> Optional[Statement]:
        statement = self._entries.get(key)
        if statement is not None:
            self._entries.move_to_end(key)
        return statement

    def put(self, key: tuple, statement: Statement, capacity: int) -> None:
        self._entries[key] = statement
        self.trim(capacity)

    def trim(self, capacity: int) -> None:
        evicted = len(self._entries) - capacity
        for _ in range(evicted):
            self._entries.popitem(last=False)
        if evicted > 0:
            self.profiler.bump(PLAN_CACHE_EVICTIONS, evicted)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
