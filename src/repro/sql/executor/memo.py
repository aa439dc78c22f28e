"""Memoize: a re-opened subplan or a repeated call answers from before.

A correlated subquery is re-opened (rescanned) once per outer row, and it
recomputes its rows every time even when the outer values it reads repeat.
The compiled ``walk`` re-opens three per trampoline step - the ``policy``
lookup, the windowed ``actions`` derived table and the ``cells`` lookup -
over outer values that take two dozen distinct values.  This is
PostgreSQL 14's Memoize node, which caches a parameterized inner side by its
parameter values, and the subquery result caching of Elhemali et al.
("Execution strategies for SQL subqueries", SIGMOD 2007).  The planner puts
it over a re-openable subquery (:meth:`repro.sql.planner.Planner.
plan_subquery`) whose rows :func:`memoize` finds a function of the outer
values it reads and of the tables it names.

:func:`memoize` leaves a subplan bare when

* it reads no outer value: it is opened once per instantiation anyway;
* it calls something volatile (``expr_is_volatile``): its rows are no
  function of the key;
* :func:`memo_tables` refuses it: a callee that is volatile or reads
  tables of its own, or a CTE of the enclosing statement;
* a key column is bound directly to a volatile expression
  (``Relation.volatile``: a derived table's ``random()`` item, a machine
  let of one): the planner assumes such a key never repeats, so that
  every probe would miss and pay for its key and entry.  PostgreSQL 14
  chooses Memoize by cost from the estimated number of distinct key
  values, and estimates one per row for a volatile expression.  The
  assumption holds for a continuous draw - ``walk``'s ``move`` lookup,
  keyed by the step's float ``roll``, is the case it is made for - but
  not for a few-valued one such as ``floor(random() * 3)``, which repeats
  and loses a memo that would have hit: a known, accepted cost in speed
  only (``tests/test_memoize.py::TestWhereItWraps``).

The same entry table serves the other user, a per-call trampoline site of a
compiled function (:class:`repro.sql.executor.trampoline.MachineCallState`),
keyed by its argument values: Hellerstein & Naughton's method caching
("Query Execution Techniques for Caching Expensive Methods", SIGMOD 1996).

* **First open** passes straight through to the child: a subplan opened
  once per instantiation never pays for a key.  (A memo carried from an
  earlier execution, see *Lifetime*, is asked first; a miss stores
  nothing.)
* **Key**: from the second open on, the outer columns the subquery reads,
  recorded at plan time as ``(depth, relation, column)``, each value keyed
  by representation (:func:`repro.sql.values.representation_key`, the call
  sites' key too).
* **Entries** hold the *pulled prefix* and whether the child ran dry: the
  child is pulled only as far as a consumer asks (EXISTS one row, a scalar
  subquery two, IN up to its first match), so nothing is evaluated that
  the plain rescan would not evaluate.  A hit that wants more rows than
  the prefix holds re-opens the child, skips the prefix and goes on
  extending the entry.
* **Errors** are never cached: an entry exists only once its child opened,
  and a row that raised is in no prefix, so a hit re-raises it on reaching
  it.
* **Invalidation**, **bound** and **release** are the :class:`MemoTable`'s,
  shared with the call sites.

**Lifetime.** A memo of a plain statement, of a PL/pgSQL embedded query or
of the inlined Qf lives for one execution: its plan belongs to the
statement, and its entries are freed at ExecutorEnd.  A memo inside a
compiled function's machine template (the call sites' argument memo and the
Memoize nodes of the rules, planned once per function and plan stamp) lives
as long as the template, in the manner of Oracle's PL/SQL function result
cache: at ExecutorEnd its *finished* entries (activation results, Memoize
entries whose child ran dry) go to the template's :class:`MemoStore`, and
the next execution answers from them.  They are stored and served under the
condition :meth:`repro.sql.storage.HeapTable.visible_rows` builds and serves
its cache under - no transaction in flight, a maximally fresh building
snapshot and a serving one at least as fresh, every watched table's write
counter unchanged - and only to a session whose setting values all equal
the builder's (``max_recursion_iterations`` and the other budgets decide
whether a call raises, and the plan stamp does not cover them).  DDL drops
the template, and the store with it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .. import ast as A
from ..astutil import walk
from ..profiler import MEMO_CARRIED_HITS, MEMO_HITS, MEMO_MISSES
from ..values import representation_key
from .base import Plan, PlanState

#: Entries one memo table keeps, at most.  Module-level (not a GUC) so
#: tests can sweep it - 0 caches nothing, the plan the memo must agree
#: with; read where it is used, never copied.
MEMO_ENTRIES = 256


def memo_tables(asts, catalog, cte_env=None) -> Optional[list[str]]:
    """The catalog tables *asts* name, sorted: what a memo of their value
    must watch.  None when that value may change while those tables and
    the key do not: a user callee declared VOLATILE or not inferred
    immutable (it may read tables of its own, which the memo would not
    watch), or a CTE of the enclosing statement's *cte_env* (a recursive
    working table changes under an unchanged key).  Names no catalog table
    has are CTEs of the ASTs' own WITH: a function of the key like the
    rest."""
    from ...analysis.volatility import function_facts
    tables: set[str] = set()
    for node in walk(asts):
        if isinstance(node, A.TableName):
            name = node.name.lower()
            if cte_env is not None and cte_env.lookup(name) is not None:
                return None
            if name in catalog.tables:
                tables.add(name)
        elif isinstance(node, A.FuncCall):
            fdef = catalog.get_function(node.name)
            if fdef is not None and (
                    fdef.declared_volatility == "volatile"
                    or function_facts(fdef, catalog)[0] != "immutable"):
                return None
    return sorted(tables)


def memoize(plan: Plan, query: A.SelectStmt, reads: dict, catalog,
            cte_env, carried: bool = False) -> Plan:
    """*plan*, of the re-openable subquery *query*, under a MemoizePlan
    keyed by *reads* (``(depth, rel_index, col_index)`` -> display name:
    the outer columns it reads); *plan* itself when it reads none, when it
    reads a column bound directly to a volatile expression (display name
    None), when it calls something volatile (``expr_is_volatile``) or when
    :func:`memo_tables` refuses it.  *carried*: the plan belongs to a
    machine template, and its memo outlives the statement."""
    from ...analysis.volatility import expr_is_volatile
    if (not reads or None in reads.values()
            or expr_is_volatile(query, catalog)):
        return plan
    tables = memo_tables(query, catalog, cte_env)
    if tables is None:
        return plan
    return MemoizePlan(plan, list(reads), list(reads.values()), tables,
                       MemoStore() if carried else None)


def _settled_horizon(mgr) -> Optional[int]:
    """The xmax of the running statement's snapshot (the next xid while it
    has taken none) when no transaction is in flight anywhere, else None:
    the part of the visible-rows cache's condition that is about
    transactions."""
    if mgr.active_xids:
        return None
    txn = mgr.current
    snapshot = txn.snapshot if txn is not None else None
    if snapshot is None:
        return mgr.next_xid
    return None if snapshot.active else snapshot.xmax


class MemoStore:
    """The finished entries of one memo of a machine template, carried
    from execution to execution.

    ``state`` is None or ``(versions, xmax, settings, entries)``: the
    watched tables' write counters, the snapshot horizon and the session's
    setting values the entries were made under, and the entries (at most
    :data:`MEMO_ENTRIES`; a finished entry is never changed again).  A
    state made under the handing-over execution's versions and settings
    takes its entries in place (its horizon, the older, is still sound:
    no write touched the tables in between); otherwise a new state
    replaces it whole."""

    __slots__ = ("state",)

    def __init__(self):
        self.state: Optional[tuple] = None


class MemoTable:
    """The entries of one memo, for one execution, over those its
    :class:`MemoStore` carried in (``carried``, read-only) when it has one.

    * **Invalidation**: the entries are dropped when a watched table has
      moved its write counter since they were made.
    * **Bound**: :data:`MEMO_ENTRIES`; past it, misses go uncached.
    * **Release**: the entries are freed at ExecutorEnd
      (:meth:`repro.sql.expr.RuntimeContext.release`), since expression
      slot states are never closed; the entries *finished* accepts
      (every entry when it is None) go to the store first.
    """

    __slots__ = ("db", "tables", "versions", "entries", "store", "carried",
                 "finished")

    def __init__(self, rt, table_names, store: Optional[MemoStore] = None,
                 finished=None):
        self.db = rt.db
        self.tables = [rt.catalog.get_table(name) for name in table_names]
        self.versions: Optional[tuple] = None
        self.entries: dict = {}
        self.store = store
        self.carried: Optional[dict] = None
        self.finished = finished
        rt.memos.append(self)

    def get(self, key):
        """The entry under *key*, or None; drops every entry first when a
        watched table has been written since they were made."""
        versions = tuple([table._version for table in self.tables])
        if versions != self.versions:
            self.entries.clear()
            self.versions = versions
            if self.store is not None:
                self.carried = self._carried_in(versions)
        entry = self.entries.get(key)
        if entry is None and self.carried is not None:
            entry = self.carried.get(key)
            if entry is not None:
                self.db.profiler.bump(MEMO_CARRIED_HITS)
        return entry

    def _carried_in(self, versions: tuple) -> Optional[dict]:
        """The store's entries when this execution may be served them:
        same table versions and setting values as their builder, no
        transaction in flight, a snapshot at least as fresh."""
        state = self.store.state
        if state is None or state[0] != versions:
            return None
        horizon = _settled_horizon(self.db.txnman)
        if (horizon is None or horizon < state[1]
                or state[2] != self.db.settings.active):
            return None
        return state[3]

    def put(self, key, entry) -> None:
        if len(self.entries) < MEMO_ENTRIES:
            self.entries[key] = entry

    def release(self) -> None:
        if self.store is not None and self.entries:
            self._hand_over()
        self.entries = {}
        self.carried = None

    def _hand_over(self) -> None:
        """Store the finished entries, when they were made by a maximally
        fresh snapshot with no transaction in flight, over tables no write
        has touched since."""
        mgr = self.db.txnman
        versions = self.versions
        if (_settled_horizon(mgr) != mgr.next_xid or versions
                != tuple([table._version for table in self.tables])):
            return
        settings = self.db.settings.active
        state = self.store.state
        if state is None or state[0] != versions or state[2] != settings:
            state = (versions, mgr.next_xid, settings, {})
        entries, finished = state[3], self.finished
        for key, entry in self.entries.items():
            if len(entries) >= MEMO_ENTRIES:
                break
            if finished is None or finished(entry):
                entries[key] = entry
        if entries:
            self.store.state = state


class MemoizePlan(Plan):
    """A re-openable subplan, memoized by the outer values it reads.

    ``keys`` are ``(depth, rel_index, col_index)``: the value sits in
    ``rows[rel_index][col_index]`` of the context *depth* parents out from
    the one the subplan is opened with.  ``tables`` names the base tables
    whose write counters the entries depend on.  ``store`` carries the
    finished entries across executions, for a plan of a machine template;
    None for a plan a statement owns.
    """

    __slots__ = ("child", "keys", "key_names", "tables", "store")

    def __init__(self, child: Plan, keys, key_names, tables,
                 store: Optional[MemoStore] = None):
        super().__init__(child.output_columns)
        self.child = child
        self.keys = tuple(keys)
        self.key_names = tuple(key_names)
        self.tables = tuple(tables)
        self.store = store

    def label(self) -> str:
        return f"Memoize (keys: {', '.join(self.key_names)})"

    def children(self) -> list[Plan]:
        return [self.child]

    def explain(self, indent: int = 0) -> str:
        # A line above the child, which keeps its indent: EXPLAIN of a
        # memoized plan is the plan's EXPLAIN plus this line.
        return "\n".join(["  " * indent + "-> " + self.label(),
                          self.child.explain(indent)])

    def instantiate(self, rt, ictx=None) -> "MemoizeState":
        return MemoizeState(rt, self, self.child.instantiate(rt, ictx))


def memoize_nodes(plans) -> list[MemoizePlan]:
    """The Memoize nodes in *plans* and beneath them, expression subplan
    slots included, depth first.  EXPLAIN prints no expression subquery,
    so this is how a machine template's Memoize nodes are listed."""
    found = []
    for plan in plans:
        if isinstance(plan, MemoizePlan):
            found.append(plan)
        if isinstance(plan, Plan):
            found += memoize_nodes(plan.children())
            found += memoize_nodes(getattr(plan, "subplans", ()))
    return found


#: A Memoize entry is finished once its child ran dry.
_RAN_DRY = itemgetter(1)


class MemoizeState(PlanState):
    """``memo`` maps a key to ``[prefix rows, child ran dry]``; ``entry``
    is the one this open serves (None: passing through), and ``live`` says
    the child stands right after its prefix."""

    __slots__ = ("plan", "child", "memo", "entry", "pos", "live", "outer",
                 "opened")

    def __init__(self, rt, plan: MemoizePlan, child: PlanState):
        super().__init__(rt)
        self.plan = plan
        self.child = child
        self.memo = MemoTable(rt, plan.tables, plan.store, _RAN_DRY)
        self.entry: Optional[list] = None
        self.pos = 0
        self.live = False
        self.outer = None
        self.opened = False

    def open(self, outer) -> None:
        self.entry = None
        first = not self.opened
        if first:
            self.opened = True
            if self.plan.store is None:
                self.child.open(outer)
                return
        key = self._key(outer)
        entry = self.memo.get(key)
        if entry is None:
            if first:
                # Only a carried entry answers a first open.
                self.child.open(outer)
                return
            self.rt.db.profiler.bump(MEMO_MISSES)
            self.child.open(outer)
            entry = [[], False]
            self.memo.put(key, entry)
            self.live = True
        else:
            self.rt.db.profiler.bump(MEMO_HITS)
            self.live = False
        self.entry, self.pos, self.outer = entry, 0, outer

    def _key(self, outer) -> tuple:
        key = []
        for depth, rel_index, col_index in self.plan.keys:
            ctx = outer
            for _ in range(depth):
                ctx = ctx.parent
            key.append(representation_key(ctx.rows[rel_index][col_index]))
        return tuple(key)

    def next(self) -> Optional[tuple]:
        entry = self.entry
        if entry is None:
            return self.child.next()
        rows, pos = entry[0], self.pos
        if pos < len(rows):
            self.pos = pos + 1
            return rows[pos]
        if entry[1]:
            return None
        if not self.live:
            # Same outer values, same tables: the child makes the same
            # rows again, so it resumes right after the prefix.
            self.child.open(self.outer)
            for _ in range(pos):
                self.child.next()
            self.live = True
        row = self.child.next()
        if row is None:
            entry[1] = True
            return None
        rows.append(row)
        self.pos = pos + 1
        return row

    def close(self) -> None:
        self.child.close()
