"""The statement record every door hands to ``Database._run``, and the
text cache that holds records - what PostgreSQL's ``CachedPlanSource``
(``plancache.c``) is to its simple-query, extended-protocol and SPI paths.

The text cache keys a record by the statement's *shape* (its tokens with
every literal replaced by the literal's type): the literals of a text
become parameters, so the texts of one shape share one plan, as SQL
Server's simple parameterization does.  A plan-time choice that reads a
literal's value (:meth:`Planner.constant <repro.sql.planner.Planner.constant>`)
makes that value part of the key: a *guard*.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from . import ast as A
from .astutil import calls_user_function, walk
from .errors import PlanError, SqlError
from .lexer import LexedText
from .parser import parse_statement
from .profiler import (PLAN, PLAN_CACHE_EVICTIONS, PLAN_CACHE_HIT,
                       PLAN_CACHE_MISS, PREPARED_REPLANS)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Database


#: The leading words of the statements the text cache keeps: the kinds
#: that are plans, the ones PREPARE takes (SELECT, INSERT, UPDATE,
#: DELETE).  Utilities and EXPLAIN are never kept, so they are parsed with
#: their literals as written.
_CACHED_KEYWORDS = frozenset(
    keyword for row in A.STATEMENTS.values()
    if row.plan is not None for keyword in row.keywords)


class Literals:
    """The literals of the text a record was parsed from, when they are
    parameters (``$first + 1`` on): their ``values`` in text order, the
    position of each ``Param`` node that holds one (``slots``, keyed by
    ``id``: nothing else in a plan's reach is that node), and the guard -
    ``guards`` maps a position to its value for every literal the
    statement depends on: one the parser kept as written (an ORDER BY
    ordinal) and one :meth:`Planner.constant` read while planning."""

    __slots__ = ("values", "slots", "pinned", "guards", "lexed")

    def __init__(self, ast: A.Statement, lexed: LexedText):
        first = lexed.first
        self.values = lexed.literals
        self.slots = {id(node): node.index - first - 1 for node in walk(ast)
                      if type(node) is A.Param and node.index > first}
        held = set(self.slots.values())
        self.pinned = {slot: value for slot, value in enumerate(self.values)
                       if slot not in held}
        self.guards = dict(self.pinned)
        #: Kept until the first plan, for a fallback to the text as written.
        self.lexed: Optional[LexedText] = lexed

    def guard(self) -> tuple:
        """``(positions, values)`` of the guard, the half of a cache key
        after the shape."""
        positions = tuple(sorted(self.guards))
        return positions, tuple(self.values[p] for p in positions)


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
    A record parsed from a text whose literals are parameters (*lexed*,
    see :class:`PlanCache`) holds them as ``literals``.
    """

    __slots__ = ("db", "ast", "row", "target", "literals", "_plan", "_stamp")

    def __init__(self, db: "Database", ast: A.Statement, session=None,
                 door: Optional[str] = None,
                 lexed: Optional[LexedText] = None):
        self.row = row = A.STATEMENTS.get(type(ast))
        if row is None:
            raise SqlError(f"unsupported statement {type(ast).__name__}")
        self.db, self.ast = db, ast
        self._plan = self._stamp = self.target = None
        self.literals = None if lexed is None or lexed.params is None \
            else Literals(ast, lexed)
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
                self._plan = self._planned()
            self._stamp = stamp
        return self._plan

    def _planned(self):
        planner, literals = self.db.planner, self.literals
        if literals is None:
            return planner.plan_statement(self.ast)
        literals.guards = dict(literals.pinned)
        try:
            plan = planner.plan_bound(self.ast, literals)
        except SqlError:
            if literals.lexed is None:
                raise
            # The shape does not plan: the text as written, kept by no
            # shape.
            self.ast = parse_statement(literals.lexed.plain())
            self.literals = None
            return planner.plan_statement(self.ast)
        literals.lexed = None
        return plan

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
    """The text cache: an LRU of :class:`Statement` records, keyed by the
    statement's shape, the setting values' fingerprint (a plan built under
    one combination of plan-affecting settings is invisible under any
    other) and the guard of the record's plan; DDL empties it.  Both text
    doors use it - ``Database.execute`` / ``Connection.execute`` and a
    one-statement wire ``Query`` - through :meth:`lookup` before parsing
    and :meth:`offer` after a miss has run.

    :meth:`lookup` lexes the text once.  A hit binds the text's literals
    as parameters after the caller's and runs the record's plan: no parse,
    no plan.  A miss parses the same tokens, a statement of a kind that is
    a plan (SELECT, INSERT, UPDATE, DELETE: what PREPARE takes) with its
    literals as parameters (``$first + 1`` on), and plans that under
    :class:`Literals`: the literals whose values the plan reads make
    its guard, so a text with other values there is another record (a
    *variant* of the shape) and runs the plan a fresh plan of its own
    text would build.  A statement whose shape does not plan is planned
    as written, and not kept.

    Admission is on second sight, after the A1out list of 2Q (Johnson &
    Shasha, VLDB 1994): a miss only records its key in a *ghost* list, and
    a record is kept when its key is already there, i.e. when its shape and
    guard came back within ``plan_cache_size`` other misses.  A stream of
    one-shot shapes therefore keeps no plan.  Only a record of a planned
    kind holding the plan its run built is offered (a statement whose
    planning failed is not; one whose run failed is).  ``SET
    plan_cache_size = N`` bounds the cache and the ghost list alike;
    evictions from the cache are counted.
    """

    __slots__ = ("_entries", "_ghosts", "_guards", "profiler")

    def __init__(self, profiler):
        self._entries: OrderedDict[tuple, Statement] = OrderedDict()
        #: Keys of recent misses, oldest first; values unused.
        self._ghosts: OrderedDict[tuple, None] = OrderedDict()
        #: (shape, fingerprint) -> {guard positions: records kept with
        #: them}: the guards a lookup of that shape tries.
        self._guards: dict[tuple, dict[tuple, int]] = {}
        self.profiler = profiler

    def lookup(self, text: str, params, values) -> tuple:
        """Lex *text*: ``(record, params, None)`` when a record of its
        shape is cached under the setting *values* and its guard holds,
        where *params* are the caller's followed by the text's literals;
        else ``(None, params, lexed)``, what a miss parses (and offers)."""
        lexed = LexedText(text)
        if values.plan_cache_size <= 0 \
                or lexed.tokens[0].value not in _CACHED_KEYWORDS:
            return None, params, lexed
        lexed.parameterize()
        first = lexed.first
        if len(params) < first:
            # A parameter is missing: the run reports it as written.
            lexed.params = None
            return None, params, lexed
        params = (*params[:first], *lexed.literals)
        key = self._find(lexed, values)
        if key is None:
            return None, params, lexed
        self._entries.move_to_end(key)
        self.profiler.bump(PLAN_CACHE_HIT)
        return self._entries[key], params, None

    def peek(self, text: str, values) -> Optional[Statement]:
        """The record a lookup of *text* (with no caller parameters) would
        run, without counting or renewing it; None on a miss."""
        lexed = LexedText(text)
        if lexed.tokens[0].value not in _CACHED_KEYWORDS:
            return None
        lexed.parameterize()
        key = self._find(lexed, values)
        return None if key is None else self._entries[key]

    def _find(self, lexed: LexedText, values) -> Optional[tuple]:
        shape = (lexed.shape, values.fingerprint)
        literals = lexed.literals
        for positions in self._guards.get(shape, ()):
            key = (shape, positions, tuple(literals[p] for p in positions))
            if key in self._entries:
                return key
        return None

    def offer(self, lexed: LexedText, statement: Statement,
              capacity: int) -> None:
        """A miss has run: count it, and keep *statement* if it may be:
        under the settings its plan was built with, while that plan is
        current."""
        if statement.row.plan is None:
            return
        self.profiler.bump(PLAN_CACHE_MISS)
        literals, stamp = statement.literals, statement._stamp
        if capacity <= 0 or statement._plan is None or literals is None \
                or stamp != statement.db.plan_stamp():
            return
        shape = (lexed.shape, stamp[1])
        positions, guarded = literals.guard()
        key = (shape, positions, guarded)
        if key in self._ghosts:
            del self._ghosts[key]
            if key not in self._entries:
                guards = self._guards.setdefault(shape, {})
                guards[positions] = guards.get(positions, 0) + 1
            self._entries[key] = statement
        else:
            self._ghosts[key] = None
        self.trim(capacity)

    def trim(self, capacity: int) -> None:
        for _ in range(len(self._ghosts) - capacity):
            self._ghosts.popitem(last=False)
        evicted = len(self._entries) - capacity
        for _ in range(evicted):
            (shape, positions, _), _ = self._entries.popitem(last=False)
            guards = self._guards[shape]
            guards[positions] -= 1
            if not guards[positions]:
                del guards[positions]
                if not guards:
                    del self._guards[shape]
        if evicted > 0:
            self.profiler.bump(PLAN_CACHE_EVICTIONS, evicted)

    def clear(self) -> None:
        self._entries.clear()
        self._ghosts.clear()
        self._guards.clear()

    def __len__(self) -> int:
        return len(self._entries)
