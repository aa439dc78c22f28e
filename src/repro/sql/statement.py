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
from .profiler import (PLAN, PLAN_CACHE_EVICTIONS, PLAN_CACHE_HIT,
                       PLAN_CACHE_MISS, PREPARED_REPLANS)

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
    """The text cache: an LRU of :class:`Statement` records, keyed by (SQL
    text, settings fingerprint), so a plan built under one combination of
    plan-affecting settings is invisible under any other; DDL empties it.
    Both text doors use it - ``Database.execute`` / ``Connection.execute``
    and a one-statement wire ``Query`` - through :meth:`lookup` before
    parsing and :meth:`offer` after a miss has run.

    Admission is on second sight, after the A1out list of 2Q (Johnson &
    Shasha, VLDB 1994): a miss only records its key in a *ghost* list, and
    a record is kept when its key is already there, i.e. when the text
    came back within ``plan_cache_size`` other misses.  A stream of
    one-shot texts therefore keeps no plan.  Only a record of a planned
    kind that produces rows, holding the plan its run built, is offered
    (a SELECT whose planning failed is not).  ``SET plan_cache_size = N``
    bounds the cache and the ghost list alike; evictions from the cache
    are counted.
    """

    __slots__ = ("_entries", "_ghosts", "profiler")

    def __init__(self, profiler):
        self._entries: OrderedDict[tuple, Statement] = OrderedDict()
        #: Keys of recent misses, oldest first; values unused.
        self._ghosts: OrderedDict[tuple, None] = OrderedDict()
        self.profiler = profiler

    def lookup(self, text: str, values) -> tuple:
        """``(record, None)`` when *text* is cached under the setting
        *values*, else ``(None, key)``: the key a miss is offered under."""
        key = (text, values.fingerprint)
        if values.plan_cache_size > 0:
            statement = self._entries.get(key)
            if statement is not None:
                self._entries.move_to_end(key)
                self.profiler.bump(PLAN_CACHE_HIT)
                return statement, None
        return None, key

    def offer(self, key: tuple, statement: Statement, capacity: int) -> None:
        """A miss has run: count it, and keep *statement* if it may be."""
        row = statement.row
        if row.plan is None or row.kind != A.ROWS:
            return
        self.profiler.bump(PLAN_CACHE_MISS)
        if capacity <= 0 or statement._plan is None:
            return
        if key in self._ghosts:
            del self._ghosts[key]
            self._entries[key] = statement
        else:
            self._ghosts[key] = None
        self.trim(capacity)

    def trim(self, capacity: int) -> None:
        for _ in range(len(self._ghosts) - capacity):
            self._ghosts.popitem(last=False)
        evicted = len(self._entries) - capacity
        for _ in range(evicted):
            self._entries.popitem(last=False)
        if evicted > 0:
            self.profiler.bump(PLAN_CACHE_EVICTIONS, evicted)

    def clear(self) -> None:
        self._entries.clear()
        self._ghosts.clear()

    def __len__(self) -> int:
        return len(self._entries)
