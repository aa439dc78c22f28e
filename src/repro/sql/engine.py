"""The :class:`Database` facade: SQL entry point, plan cache, profiling.

Execution life cycle (mirroring PostgreSQL, which is what makes the paper's
cost accounting reproducible here):

1. **Parse** — text to AST (only on plan-cache miss),
2. **Plan** — AST to immutable plan tree (cached by SQL text + the
   plan-affecting settings fingerprint),
3. **ExecutorStart** — instantiate the plan into per-execution state,
4. **ExecutorRun** — pull all tuples,
5. **ExecutorEnd** — tear the state down.

Every embedded-query evaluation performed by the PL/pgSQL interpreter runs
through this same path, so steps 3 and 5 recur per evaluation — that is the
``f→Qi`` overhead of Section 1.  A compiled function is inlined into its
calling query by the planner and thus passes through steps 1–3 exactly once.

Statement dispatch is a single **parse → classify → dispatch** path: every
statement kind (including SELECTs behind leading comments or parentheses)
is parsed once and routed from its AST type through the statement table
(:data:`repro.sql.ast.STATEMENTS`: node class -> result kind and the
``_do_*`` handler, each ``(stmt, params, session) -> Result``).  SELECT,
INSERT, UPDATE and DELETE share one handler: each is planned
(``Planner.plan_statement``) and the plan run by ``_run_plan``, whichever
door it came in by - text, script, AST, prepared handle, ``executemany``,
``EXPLAIN``.  Plan-cache eligibility is a property of the statement's row
in that table (a planned kind producing rows), not a prefix match on the
SQL text.

``Database.execute`` remains the thin compatibility facade over the layered
session API in :mod:`repro.sql.session`: it runs every statement in the
*root session*, the one whose settings are the global values.
``Database.connect()`` opens an isolated session with its own settings
overlay, notices, and prepared-statement registry.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence

from . import ast as A
from .ast import COUNT, ROWS, UTILITY
from .catalog import Catalog, FunctionDef
from .errors import (CatalogError, CompileError, ExecutionError,
                     NameResolutionError, PlanError, PlsqlError,
                     QueryCanceledError, SqlError, TypeError_)
from .expr import EvalContext, ExprCompiler, RuntimeContext, Scope
from .parser import parse_script, parse_statement
from .planner import Planner
from .profiler import (EXEC_END, EXEC_RUN, EXEC_START, PARSE, PLAN,
                       PLAN_CACHE_EVICTIONS, PLAN_CACHE_HIT, PLAN_CACHE_MISS,
                       PLAN_INSTANTIATIONS, PREPARED_EXECUTIONS,
                       QUERIES_CANCELED, SETTINGS_ASSIGNMENTS, SWITCH_Q_TO_F,
                       TXN_BEGUN, Profiler)
from .settings import SettingsRegistry
from .storage import BufferManager
from .txn import TransactionManager
from .types import cast_value
from .values import Value

if TYPE_CHECKING:  # pragma: no cover
    from .session import Connection

class Result:
    """A query result: column names plus a list of row tuples."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = columns
        self.rows = rows

    def scalar(self) -> Value:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns")
        return self.rows[0][0]

    def first(self) -> Optional[tuple]:
        return self.rows[0] if self.rows else None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Result({self.columns}, {len(self.rows)} rows)"


class PlanCache:
    """LRU cache of SELECT plans keyed by (SQL text, settings fingerprint).

    The fingerprint component (see :class:`repro.sql.settings.
    SettingValues`) makes plan-affecting SET statements —
    and per-session overlays — safe without explicit invalidation: a plan
    built under one combination of flags is simply invisible under any
    other.  The LRU bound (``SET plan_cache_size = N``) keeps long-running
    sessions from growing memory without bound; evictions are counted.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def get(self, key: tuple):
        plan = self._entries.get(key)
        if plan is not None:
            self._entries.move_to_end(key)
        return plan

    def put(self, key: tuple, plan, capacity: int) -> int:
        """Insert and trim to *capacity*; returns the number of evictions."""
        self._entries[key] = plan
        self._entries.move_to_end(key)
        return self.trim(capacity)

    def trim(self, capacity: int) -> int:
        evicted = 0
        while len(self._entries) > max(capacity, 0):
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class _TxnScope:
    """Context manager giving every statement a transaction to run in.

    Reentrant: the outermost scope on the dispatch path wins, inner ones
    are no-ops (``_execute_info`` wraps ``_dispatch_ast`` wraps prepared
    re-dispatch, and all three are public entry points).

    Three cases:

    * the session has an open explicit block — install it as current and
      open a statement (command-id bump + implicit savepoint mark; on
      error the statement's effects are undone but the block survives,
      a deliberately friendlier divergence from PostgreSQL's
      abort-until-ROLLBACK),
    * no block — begin a throwaway autocommit transaction, committed on
      success and rolled back on error,
    * the statement was BEGIN — it flips the autocommit transaction to
      explicit and parks it on the session; the scope then leaves it
      open on exit.

    The scope also takes the database's **execution lock** for its whole
    duration (statement granularity, not transaction granularity): threaded
    callers — the wire server's worker pool above all — serialize at this
    choke point, so ``txnman.current``, the visible-rows caches and the
    profiler's phase stack are only ever touched by one thread at a time,
    while a session holding an open BEGIN block still releases the lock
    between its statements (conflicting writers fail fast with
    ``SerializationError`` instead of deadlocking).
    """

    __slots__ = ("db", "session", "txn", "nested", "mark")

    def __init__(self, db: "Database", session):
        self.db = db
        self.session = session

    def __enter__(self):
        self.db._exec_lock.acquire()
        mgr = self.db.txnman
        if mgr.current is not None:
            self.nested = True
            return self
        self.nested = False
        session = self.session
        txn = session._txn if session is not None else None
        if txn is None or txn.finished:
            txn = mgr.begin(session=session)
        self.txn = txn
        mgr.current = txn
        self.mark = txn.begin_statement()
        # Arm the session's cancel token for this statement: clears any
        # stale trip and starts the statement_timeout clock (the session's
        # values were installed before the scope opened, so a SET LOCAL
        # statement_timeout is already in effect here).  The token is
        # published on the database so RuntimeContexts built anywhere on
        # this statement's call path (subplans, UDFs, the interpreter)
        # poll the same flag the wire server trips cross-thread.
        if session is not None:
            token = session.cancel
            token.arm(self.db.settings.active.statement_timeout)
            self.db._active_cancel = token
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if self.nested:
                return False
            db = self.db
            if db._active_cancel is not None:
                db._active_cancel.disarm()
                db._active_cancel = None
            if exc_type is not None and issubclass(exc_type,
                                                   QueryCanceledError):
                db.profiler.bump(QUERIES_CANCELED)
            db.txnman.current = None
            txn = self.txn
            if txn.finished:
                # COMMIT / ROLLBACK ran inside this statement.
                if self.session is not None and self.session._txn is txn:
                    self.session._txn = None
            elif txn.explicit:
                # Either the session's open block, or this statement was the
                # BEGIN that opened one: statement-level atomicity only.
                # A canceled statement takes this same path, which is what
                # keeps the block's earlier work alive through a cancel.
                if exc_type is not None:
                    txn.rollback_to_mark(self.mark)
            elif exc_type is None:
                txn.commit()
            else:
                txn.rollback()
            if exc_type is None and db.wal is not None:
                # Still under the exec lock with this statement's txn
                # retired — the safe window for auto-compaction (the
                # manager defers itself while other writers are open).
                db.wal.maybe_checkpoint()
            return False
        finally:
            self.db._exec_lock.release()


class Database:
    """An in-memory relational database with PL/pgSQL support.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t(x int)")
    >>> _ = db.execute("INSERT INTO t VALUES (1), (2)")
    >>> db.execute("SELECT sum(x) FROM t").scalar()
    3

    The sessionful surface lives behind :meth:`connect`:

    >>> conn = db.connect()
    >>> cur = conn.cursor()
    >>> _ = cur.execute("SELECT x FROM t ORDER BY x")
    >>> cur.fetchall()
    [(1,), (2,)]
    """

    def __init__(self, seed: int = 0, profile: bool = True,
                 path: Optional[str] = None):
        import sys
        if sys.getrecursionlimit() < 20000:
            # Directly recursive SQL UDFs nest many Python frames per call;
            # let our own max_udf_depth guard fire before CPython's.
            sys.setrecursionlimit(20000)
        self.buffers = BufferManager()
        self.rng = random.Random(seed)
        #: The execution lock: every statement (and every session
        #: activation) runs under it, making one Database safe to share
        #: between threads — the wire server's bounded worker pool drives
        #: many sessions concurrently.  An RLock, because dispatch paths
        #: nest (_execute_info → prepared re-dispatch → _dispatch_ast).
        #: Granularity is one statement: sessions holding an open BEGIN
        #: block release it between statements, so interleaved explicit
        #: transactions still conflict-check instead of deadlocking.
        self._exec_lock = threading.RLock()
        self.profiler = Profiler(enabled=profile)
        #: MVCC transaction manager: every statement runs inside one of
        #: its transactions (a throwaway autocommit one unless the session
        #: opened an explicit block) and every heap write/read resolves
        #: through its snapshots.  See repro.sql.txn.
        self.txnman = TransactionManager(self.profiler, db=self)
        self.catalog = Catalog(self.buffers, self.txnman)
        self.planner = Planner(self)
        self._plan_cache = PlanCache()
        #: The DDL half of plan_stamp(): clear_plan_cache() (every DDL
        #: path) moves it to a number never used before, so a stamp taken
        #: inside a rolled-back transaction cannot come true again.
        self._generations = itertools.count(1)
        self._plan_generation = 0
        self._udf_depth = 0
        #: The cancel token of the statement currently holding the
        #: execution lock (None between statements).  RuntimeContext
        #: snapshots it; the wire server trips it from the event loop.
        self._active_cancel = None
        #: RAISE NOTICE/WARNING/INFO messages from PL/pgSQL execution.
        #: Sessions swap in their own list while executing, so notices
        #: raised on a Connection land on that Connection.
        self.notices: list[str] = []
        #: When set to a dict, the PL/pgSQL interpreter accumulates per-
        #: statement phase timings into it (Figure 3's profile bars):
        #: label -> {phase -> seconds}.
        self.plsql_statement_profile: Optional[dict] = None
        #: The settings store (SET / SHOW / RESET): every setting's value
        #: lives there and nowhere else; the engine reads ``.active``.
        self.settings = SettingsRegistry(self)
        self._root_session: Optional["Connection"] = None
        #: Durable mode (``Database(path=...)``): a write-ahead log that
        #: replays committed transactions on open and fsyncs on commit.
        self.wal = None
        if path is not None:
            from .wal import WalManager
            self.wal = WalManager(self, path)
            self.txnman.wal = self.wal

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def session(self) -> "Connection":
        """The root session backing the ``Database.execute`` facade.

        Its settings are the global values and its notices list *is*
        ``Database.notices`` — the legacy surface is one particular
        session, not a separate code path.
        """
        if self._root_session is None:
            from .session import Connection
            self._root_session = Connection(self, root=True)
        return self._root_session

    def connect(self) -> "Connection":
        """Open a new session: per-session settings overlay, notices, and
        prepared-statement registry (see :mod:`repro.sql.session`)."""
        from .session import Connection
        return Connection(self)

    def execute(self, sql: str, params: Sequence[Value] = ()) -> Result:
        """Execute one SQL statement (text) and return its result."""
        return self._execute_info(sql, params, self.session)[1]

    def execute_ast(self, stmt: A.Statement, params: Sequence[Value] = ()) -> Result:
        """Execute a pre-parsed statement AST."""
        return self._dispatch_ast(stmt, params, self.session)[1]

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a ``;``-separated script; return one Result per statement."""
        return self._execute_script(sql, self.session)

    def query_value(self, sql: str, params: Sequence[Value] = ()) -> Value:
        return self.execute(sql, params).scalar()

    def query_all(self, sql: str, params: Sequence[Value] = ()) -> list[tuple]:
        return self.execute(sql, params).rows

    def explain(self, sql: str) -> str:
        """Render the plan tree of a SELECT, INSERT, UPDATE or DELETE (or
        of the statement an EXECUTE names), EXPLAIN-style; nothing runs."""
        with self._exec_lock:
            with self.profiler.phase(PARSE):
                stmt = parse_statement(sql)
            return self._explain_ast(stmt, self.session)

    def reseed(self, seed: int) -> None:
        """Reset the engine RNG (``random()``) for reproducible runs."""
        self.rng = random.Random(seed)

    @property
    def wal_checkpoint_interval(self) -> int:
        """The one setting still spelled as an attribute, because
        ``benchmarks/e2e/serve.py`` (which no PR may edit) assigns it;
        everything else says ``SET`` or ``settings.assign``."""
        return self.settings.active.wal_checkpoint_interval

    @wal_checkpoint_interval.setter
    def wal_checkpoint_interval(self, value: int) -> None:
        self.settings.assign("wal_checkpoint_interval", value)

    def plan_stamp(self) -> tuple:
        """What a cached plan is valid for: the DDL generation and the
        executing session's plan-affecting setting values.  Prepared
        handles and function-body plans (``FunctionDef.body_plans``) carry
        it; either half moving makes them replan on next use."""
        return (self._plan_generation, self.settings.active.fingerprint)

    def clear_plan_cache(self) -> None:
        """The catalog changed: start a new DDL generation."""
        self._plan_cache.clear()
        self._plan_generation = next(self._generations)
        for fdef in self.catalog.functions.values():
            # Plans of earlier generations can never match again; inferred
            # volatility depends on callees and the schema, both of which
            # DDL can change (re-inference on next use is cheap).
            fdef.body_plans.clear()
            fdef.reset_analysis()

    def _trim_plan_cache(self) -> None:
        """Apply a lowered ``plan_cache_size`` immediately."""
        evicted = self._plan_cache.trim(self.settings.active.plan_cache_size)
        if evicted:
            self.profiler.bump(PLAN_CACHE_EVICTIONS, evicted)

    # ------------------------------------------------------------------
    # Parse -> classify -> dispatch
    # ------------------------------------------------------------------

    def _execute_info(self, sql: str, params: Sequence[Value],
                      session: "Connection") -> tuple[str, Result]:
        """Execute *sql* in *session*; returns ``(kind, result)``.

        The plan-cache probe happens on the raw text *before* parsing —
        the cache only ever holds plans of kind ROWS (whether the plans
        of the row-changing kinds are worth a slot is the admission
        question of ROADMAP item 1(a)), so a hit both classifies and plans
        in one dictionary lookup.  Leading comments and parenthesised
        SELECTs therefore take exactly the same cached path as a bare
        ``SELECT``.
        """
        profiler = self.profiler
        with _TxnScope(self, session):
            key = None
            values = self.settings.active
            if values.plan_cache_size > 0:
                key = (sql, values.fingerprint)
                plan = self._plan_cache.get(key)
                if plan is not None:
                    profiler.bump(PLAN_CACHE_HIT)
                    return ROWS, self._run_plan(plan, params)
            with profiler.phase(PARSE):
                stmt = parse_statement(sql)
            row = A.STATEMENTS[type(stmt)]
            if row.plan is None or row.kind != ROWS:
                return self._dispatch_ast(stmt, params, session)
            profiler.bump(PLAN_CACHE_MISS)
            plan = self._plan(stmt)
            if key is not None:
                evicted = self._plan_cache.put(key, plan,
                                               values.plan_cache_size)
                if evicted:
                    profiler.bump(PLAN_CACHE_EVICTIONS, evicted)
            return ROWS, self._run_plan(plan, params)

    def _execute_script(self, sql: str, session: "Connection") -> list[Result]:
        with self.profiler.phase(PARSE):
            statements = parse_script(sql)
        session.begin_script()
        try:
            return [self._dispatch_ast(stmt, (), session)[1]
                    for stmt in statements]
        finally:
            session.end_script()

    def _execute_many(self, sql: str, param_sets,
                      session: "Connection") -> tuple[str, Result]:
        """``Cursor.executemany``: parse and plan once, run the plan per
        parameter set, as one statement - an error in any set undoes them
        all.  Each set sees what the sets before it wrote (loop-of-execute
        semantics).  The affected-row counts are summed; a statement
        producing result sets runs but its rows are discarded (PEP-249
        leaves this undefined; we keep the side effects and report no
        result)."""
        with self.profiler.phase(PARSE):
            stmt = parse_statement(sql)
        row = A.STATEMENTS[type(stmt)]
        if row.plan is None:
            raise PlanError(
                f"executemany supports SELECT, INSERT, UPDATE and DELETE, "
                f"not {type(stmt).__name__}")
        kind = row.kind
        with _TxnScope(self, session):
            plan = self._plan(stmt)
            txn = self.txnman.current
            total = 0
            for index, params in enumerate(param_sets):
                if index:
                    # A row written at command N is visible from command
                    # N + 1 on.
                    txn.begin_statement()
                result = self._run_plan(plan, params)
                if kind == COUNT:
                    total += result.rows[0][0]
        if kind == COUNT:
            return COUNT, Result(["count"], [(total,)])
        return UTILITY, Result([], [])

    def _dispatch_ast(self, stmt: A.Statement, params: Sequence[Value],
                      session: "Connection") -> tuple[str, Result]:
        """Route one parsed statement by AST type; returns ``(kind, result)``."""
        with _TxnScope(self, session):
            return self._dispatch_in_txn(stmt, params, session)

    def _dispatch_in_txn(self, stmt: A.Statement, params: Sequence[Value],
                         session: "Connection") -> tuple[str, Result]:
        row = A.STATEMENTS.get(type(stmt))
        if row is None:
            raise SqlError(f"unsupported statement {type(stmt).__name__}")
        outcome = getattr(self, row.run)(stmt, params, session)
        # EXECUTE (no kind of its own) hands back the pair of what it ran.
        return outcome if row.kind is None else (row.kind, outcome)

    def _plan(self, stmt: A.Statement):
        with self.profiler.phase(PLAN):
            return self.planner.plan_statement(stmt)

    def _do_planned(self, stmt: A.Statement, params: Sequence[Value],
                    session: "Connection") -> Result:
        """SELECT, INSERT, UPDATE, DELETE: plan it, run the plan."""
        return self._run_plan(self._plan(stmt), params)

    # ------------------------------------------------------------------
    # Transaction control
    # ------------------------------------------------------------------

    def _session_txn(self, session: "Connection"):
        """The session's open explicit transaction, or None."""
        txn = session._txn
        if txn is not None and not txn.finished and txn.explicit:
            return txn
        return None

    def _do_begin(self, stmt, params, session: "Connection") -> Result:
        if self._session_txn(session) is not None:
            self.notices.append(
                "WARNING: there is already a transaction in progress")
            return Result([], [])
        # The dispatch scope already opened an autocommit transaction for
        # this very statement: promote it instead of opening another.
        txn = self.txnman.current
        txn.make_explicit(session)
        session._txn = txn
        self.profiler.bump(TXN_BEGUN)
        return Result([], [])

    def _do_commit(self, stmt, params, session: "Connection") -> Result:
        txn = self._session_txn(session)
        if txn is None:
            self.notices.append(
                "WARNING: there is no transaction in progress")
            return Result([], [])
        txn.commit()
        session._txn = None
        return Result([], [])

    def _do_rollback(self, stmt: A.RollbackStmt, params,
                     session: "Connection") -> Result:
        txn = self._session_txn(session)
        if stmt.savepoint is not None:
            if txn is None:
                raise ExecutionError(
                    "ROLLBACK TO SAVEPOINT can only be used in "
                    "transaction blocks")
            txn.rollback_to_savepoint(stmt.savepoint)
            return Result([], [])
        if txn is None:
            self.notices.append(
                "WARNING: there is no transaction in progress")
            return Result([], [])
        txn.rollback()
        session._txn = None
        return Result([], [])

    def _do_savepoint(self, stmt: A.SavepointStmt, params,
                      session: "Connection") -> Result:
        txn = self._session_txn(session)
        if txn is None:
            raise ExecutionError(
                "SAVEPOINT can only be used in transaction blocks")
        txn.define_savepoint(stmt.name)
        return Result([], [])

    def _do_release(self, stmt: A.ReleaseStmt, params,
                    session: "Connection") -> Result:
        txn = self._session_txn(session)
        if txn is None:
            raise ExecutionError(
                "RELEASE SAVEPOINT can only be used in transaction blocks")
        txn.release_savepoint(stmt.name)
        return Result([], [])

    def _do_checkpoint(self, stmt, params, session: "Connection") -> Result:
        if session is not None and self._session_txn(session) is not None:
            raise ExecutionError(
                "CHECKPOINT cannot run inside a transaction block")
        if self.wal is None:
            self.notices.append(
                "WARNING: database is not durable; CHECKPOINT is a no-op")
            return Result([], [])
        if self.txnman.active_xids:
            # Another session's write transaction is open; a snapshot now
            # would promote its uncommitted catalog/heap state.
            raise ExecutionError(
                "CHECKPOINT requires no write transaction in progress")
        self.wal.checkpoint()
        return Result([], [])

    def _do_explain(self, stmt: A.ExplainStmt, params,
                    session: "Connection") -> Result:
        lines = self._explain_ast(stmt.statement, session).split("\n")
        return Result(["QUERY PLAN"], [(line,) for line in lines])

    def _explain_ast(self, stmt: A.Statement, session: "Connection") -> str:
        while isinstance(stmt, A.ExplainStmt):
            stmt = stmt.statement
        if isinstance(stmt, A.ExecuteStmt):
            return session.lookup_prepared(stmt.name).explain()
        row = A.STATEMENTS.get(type(stmt))
        if row is None or row.plan is None:
            raise PlanError(
                f"EXPLAIN supports SELECT, INSERT, UPDATE, DELETE and "
                f"EXECUTE, not {type(stmt).__name__}")
        return self._plan(stmt).explain()

    # ------------------------------------------------------------------
    # Session statements: prepared execution and settings
    # ------------------------------------------------------------------

    def _do_prepare(self, stmt: A.PrepareStmt, params,
                    session: "Connection") -> Result:
        session.register_prepared(stmt.name, stmt.statement, stmt.param_types)
        return Result([], [])

    def _do_execute(self, stmt: A.ExecuteStmt, params: Sequence[Value],
                    session: "Connection") -> tuple[str, Result]:
        handle = session.lookup_prepared(stmt.name)
        return handle.dispatch(self._eval_standalone(stmt.args, params))

    def _do_deallocate(self, stmt: A.DeallocateStmt, params,
                       session: "Connection") -> Result:
        session.deallocate(stmt.name)
        return Result([], [])

    def run_prepared(self, handle, args: Sequence[Value]) -> tuple[str, Result]:
        """Execute a :class:`~repro.sql.session.PreparedStatement` body:
        run the plan the handle carries (replanned lazily when the DDL
        generation or settings fingerprint moved — see
        ``PreparedStatement.plan``)."""
        self.profiler.bump(PREPARED_EXECUTIONS)
        with _TxnScope(self, handle.session):
            return (A.STATEMENTS[type(handle.statement)].kind,
                    self._run_plan(handle.plan(), args))

    def _eval_standalone(self, exprs: Sequence[A.Expr],
                         params: Sequence[Value]) -> list[Value]:
        """Evaluate row-free expressions (EXECUTE arguments, SET values):
        literals, arithmetic, ``$n`` references to *params*, scalar
        subqueries — anything that needs no FROM-clause row context."""
        from .executor.scan import make_slots
        compiler = ExprCompiler(Scope([]), self.planner)
        compiled = [compiler.compile(expr) for expr in exprs]
        rt = RuntimeContext(self, params)
        ctx = EvalContext(rt, (), slots=make_slots(rt, None, compiler.subplans))
        return [c(ctx) for c in compiled]

    def _do_set(self, stmt: A.SetStmt, params: Sequence[Value],
                session: "Connection") -> Result:
        if stmt.value is None:          # SET name = DEFAULT
            return self._do_reset(A.ResetStmt(stmt.name), params, session)
        if isinstance(stmt.value, A.Literal):
            raw = stmt.value.value
        else:
            [raw] = self._eval_standalone([stmt.value], params)
        self.profiler.bump(SETTINGS_ASSIGNMENTS)
        if stmt.local:
            session.set_local(stmt.name, raw)
        else:
            session.set_setting(stmt.name, raw)
        return Result([], [])

    def _do_show(self, stmt: A.ShowStmt, params, session) -> Result:
        if stmt.name is not None:
            return Result([stmt.name.lower()],
                          [(self.settings.show(stmt.name),)])
        rows = [(s.name, self.settings.show(s.name), s.description)
                for s in sorted(self.settings, key=lambda s: s.name)]
        return Result(["name", "setting", "description"], rows)

    def _do_reset(self, stmt: A.ResetStmt, params,
                  session: "Connection") -> Result:
        self.profiler.bump(SETTINGS_ASSIGNMENTS)
        session.reset_setting(stmt.name)
        return Result([], [])

    # ------------------------------------------------------------------
    # Running plans
    # ------------------------------------------------------------------

    def _run_plan(self, plan, params: Sequence[Value]) -> Result:
        profiler = self.profiler
        rt = RuntimeContext(self, params)
        profiler.bump(PLAN_INSTANTIATIONS)
        # ExecutorStart: copy the cached plan into runtime state.
        profiler.push(EXEC_START)
        try:
            state = plan.instantiate(rt)
            state.open(None)
        finally:
            profiler.pop()
        profiler.push(EXEC_RUN)
        try:
            rows = state.fetch_all()
        finally:
            profiler.pop()
        # ExecutorEnd: tear down per-execution state.
        profiler.push(EXEC_END)
        try:
            state.close()
            del state
        finally:
            profiler.pop()
        return Result(list(plan.output_columns), rows)

    # ------------------------------------------------------------------
    # Function invocation (the Q->f context switch)
    # ------------------------------------------------------------------

    def call_function(self, fdef: FunctionDef, args: list[Value]) -> Value:
        """Invoke a registered function from a SQL expression.  Compiled
        functions never arrive here: the expression compiler inlines Qf or
        parks a trampoline site (ExprCompiler._compile_FuncCall)."""
        if len(args) != fdef.arity:
            raise ExecutionError(
                f"function {fdef.name}() takes {fdef.arity} arguments, "
                f"got {len(args)}")
        self.profiler.bump(SWITCH_Q_TO_F)
        if fdef.kind == "builtin":
            rt = RuntimeContext(self, ())
            return fdef.impl(rt, *args)  # type: ignore[misc]
        if fdef.kind == "plpgsql":
            from ..plsql.interpreter import call_plpgsql
            return call_plpgsql(self, fdef, args)
        if fdef.kind == "sql":
            return self._call_sql_function(fdef, args)
        raise ExecutionError(f"unknown function kind {fdef.kind!r}")

    def _call_sql_function(self, fdef: FunctionDef, args: list[Value]) -> Value:
        """Run a LANGUAGE SQL function body (one SELECT, params by name).

        This is the paper's intermediate **UDF** form.  Note the cost
        profile: the body plan is cached, but instantiation and teardown
        happen per call — and direct recursion hits the stack-depth limit,
        which is exactly why the paper pushes on to WITH RECURSIVE.
        """
        max_depth = self.settings.active.max_udf_depth
        if self._udf_depth >= max_depth:
            raise ExecutionError(
                f"stack depth limit exceeded while evaluating {fdef.name}() "
                f"(max_udf_depth={max_depth}); consider compiling "
                "the function away")
        stamp = self.plan_stamp()
        plan = fdef.body_plans.get(stamp)
        if plan is None:
            with self.profiler.phase(PARSE):
                stmt = parse_statement(fdef.body)
            if not isinstance(stmt, A.SelectStmt):
                raise PlsqlError(
                    f"SQL function {fdef.name} body must be a single SELECT")
            from .astutil import transform_select
            mapping = {name.lower(): index + 1
                       for index, name in enumerate(fdef.param_names)}

            def bind(expr: A.Expr) -> Optional[A.Expr]:
                if isinstance(expr, A.ColumnRef) and len(expr.parts) == 1:
                    index = mapping.get(expr.parts[0].lower())
                    if index is not None:
                        return A.Param(index)
                return None

            stmt = transform_select(stmt, bind)
            with self.profiler.phase(PLAN):
                plan = self.planner.plan_select(stmt)
            fdef.body_plans[stamp] = plan
        self._udf_depth += 1
        try:
            result = self._run_plan(plan, args)
        finally:
            self._udf_depth -= 1
        if len(result.columns) != 1 or len(result.rows) > 1:
            raise ExecutionError(
                f"SQL function {fdef.name} must return one scalar")
        return result.rows[0][0] if result.rows else None

    def register_compiled_function(self, name: str, param_names: list[str],
                                   param_types: list[str], return_type: str,
                                   query: A.SelectStmt,
                                   batch_machine: object = None,
                                   source: object = None,
                                   declared_volatility: Optional[str] = None,
                                   ) -> FunctionDef:
        """Register the pure-SQL query produced by the compiler as *name*.

        Subsequent queries calling ``name(...)`` are planned with it
        (replacing any previous PL/pgSQL definition): with *batch_machine*
        (every recursive function; see
        :func:`repro.compiler.template.build_batched_machine`) a call steps
        the trampoline machine, whole relations of calls through one
        set-oriented trampoline where the planner proves that safe; without
        it, or under ``batch_compiled = off``, *query* is inlined at the
        call site as a scalar subquery.
        """
        fdef = FunctionDef(name=name.lower(), kind="compiled",
                           param_names=list(param_names),
                           param_types=list(param_types),
                           return_type=return_type, query=query,
                           batch_machine=batch_machine,
                           plsql_source=source,
                           declared_volatility=declared_volatility)
        self.catalog.register_function(fdef, replace=True)
        self.clear_plan_cache()
        return fdef

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _ddl_done(self, undo, wal_op) -> None:
        """Close out one successful DDL operation: record its undo
        callable and WAL record on the current transaction (autocommit
        DDL discards the undo at commit) and invalidate cached plans."""
        txn = self.txnman.current
        if txn is not None:
            txn.record_ddl(undo, wal_op)
        self.clear_plan_cache()

    def _do_create_table(self, stmt: A.CreateTable, params, session) -> Result:
        if stmt.if_not_exists and self.catalog.has_table(stmt.name):
            self.catalog.create_table(stmt.name,
                                      [c.name for c in stmt.columns],
                                      [c.type_name for c in stmt.columns],
                                      if_not_exists=True)
            self.clear_plan_cache()
            return Result([], [])
        names = [c.name for c in stmt.columns]
        types = [c.type_name for c in stmt.columns]
        table = self.catalog.create_table(stmt.name, names, types,
                                          stmt.if_not_exists)
        key = table.name
        self._ddl_done(lambda: self.catalog.tables.pop(key, None),
                       ["create_table", key, list(table.column_names), types])
        return Result([], [])

    def _do_create_index(self, stmt: A.CreateIndex, params, session) -> Result:
        from .profiler import SORTED_INDEX_BUILDS
        columns = [(column.name, column.descending)
                   for column in stmt.columns]
        created = self.catalog.create_index(stmt.name, stmt.table, columns,
                                            stmt.if_not_exists)
        if created is None:  # IF NOT EXISTS hit: nothing changed
            self.clear_plan_cache()
            return Result([], [])
        if created[1]:
            self.profiler.bump(SORTED_INDEX_BUILDS)
        key = created[0].name
        # Plans choose access paths (range scans, sort elimination, merge
        # joins) from the indexes visible at plan time; cached plans must
        # not outlive an index change in either direction.
        self._ddl_done(
            lambda: self.catalog.drop_index(key, if_exists=True),
            ["create_index", key, created[0].table,
             [[name.lower(), bool(desc)] for name, desc in columns]])
        return Result([], [])

    def _do_create_type(self, stmt: A.CreateType, params, session) -> Result:
        field_names = [f.name for f in stmt.fields]
        field_types = [f.type_name for f in stmt.fields]
        ctype = self.catalog.create_type(stmt.name, field_names, field_types)
        key = ctype.name
        self._ddl_done(
            lambda: self.catalog.composite_types.pop(key, None),
            ["create_type", key, list(ctype.field_names), field_types])
        return Result([], [])

    def _do_create_function(self, stmt: A.CreateFunction, params,
                            session) -> Result:
        language = stmt.language.lower()
        if language not in ("sql", "plpgsql"):
            raise CatalogError(f"unsupported function language {stmt.language!r}")
        fdef = FunctionDef(
            name=stmt.name.lower(), kind=language,
            param_names=[p.name for p in stmt.params],
            param_types=[p.type_name for p in stmt.params],
            return_type=stmt.return_type, body=stmt.body,
            declared_volatility=stmt.volatility)
        key = fdef.name
        prior = self.catalog.functions.get(key)
        self.catalog.register_function(fdef, replace=stmt.replace)

        def undo():
            if prior is None:
                self.catalog.functions.pop(key, None)
            else:
                self.catalog.functions[key] = prior

        self._check_new_function(fdef, undo)
        self._ddl_done(undo, ["create_function",
                              {"name": key, "kind": language,
                               "params": fdef.param_names,
                               "types": fdef.param_types,
                               "ret": fdef.return_type, "body": fdef.body,
                               "volatility": fdef.declared_volatility}])
        return Result([], [])

    def _check_new_function(self, fdef: FunctionDef, undo) -> None:
        """The ``check_function_bodies`` gate: analyze the body the moment
        it is registered.  'warn' turns diagnostics into notices; 'error'
        additionally rejects (and unregisters) functions carrying
        error-severity findings — PostgreSQL's invalid_function_definition,
        SQLSTATE 42P13 territory, surfaced as a CompileError."""
        mode = self.settings.active.check_function_bodies
        if mode == "off":
            return
        from ..analysis import SEVERITIES, analyze_function
        try:
            diagnostics = analyze_function(self, fdef)
        except Exception:
            # The analyzer must never block otherwise-valid DDL.
            return
        worst = None
        for diagnostic in diagnostics:
            if diagnostic.severity == "info":
                continue
            if worst is None or (SEVERITIES.index(diagnostic.severity)
                                 > SEVERITIES.index(worst)):
                worst = diagnostic.severity
            location = (f" at line {diagnostic.line}"
                        if diagnostic.line is not None else "")
            self.notices.append(
                f"WARNING: {fdef.name}: {diagnostic.code}{location}: "
                f"{diagnostic.message}")
        if mode == "error" and worst == "error":
            undo()
            self.clear_plan_cache()
            raise CompileError(
                f"function {fdef.name!r} rejected by check_function_bodies="
                "error: "
                + "; ".join(f"{d.code}: {d.message}" for d in diagnostics
                            if d.severity == "error"))

    def _do_check_function(self, stmt: A.CheckFunctionStmt, params,
                           session) -> Result:
        """``CHECK FUNCTION name | ALL``: run the static analyzer and
        return its findings as rows, one per diagnostic."""
        from ..analysis import analyze_function
        if stmt.name is None:
            targets = [fdef for _, fdef
                       in sorted(self.catalog.functions.items())
                       if fdef.kind != "builtin"]
        else:
            fdef = self.catalog.get_function(stmt.name)
            if fdef is None:
                raise NameResolutionError(
                    f"unknown function {stmt.name!r}")
            targets = [fdef]
        rows = []
        for fdef in targets:
            for diagnostic in analyze_function(self, fdef):
                rows.append(tuple(diagnostic.row()))
        return Result(["function", "severity", "code", "line", "message"],
                      rows)

    def _do_drop_index(self, stmt: A.DropIndex, params, session) -> Result:
        key = stmt.name.lower()
        index_def = self.catalog.indexes.get(key)
        self.catalog.drop_index(stmt.name, stmt.if_exists)
        if index_def is None:  # IF EXISTS on a missing index
            self.clear_plan_cache()
            return Result([], [])

        def undo():
            # Re-declaring rebuilds the structure from the current heap —
            # a concurrent writer may have changed it since the drop.
            if key not in self.catalog.indexes \
                    and self.catalog.has_table(index_def.table):
                self.catalog.create_index(
                    key, index_def.table,
                    list(zip(index_def.column_names, index_def.descending)),
                    if_not_exists=True)

        self._ddl_done(undo, ["drop_index", key])
        return Result([], [])

    def _do_drop_table(self, stmt: A.DropTable, params, session) -> Result:
        key = stmt.name.lower()
        table = self.catalog.tables.get(key)
        if table is None:  # raises unless IF EXISTS
            self.catalog.drop_table(stmt.name, stmt.if_exists)
            self.clear_plan_cache()
            return Result([], [])
        removed_defs = {name: index_def
                        for name, index_def in self.catalog.indexes.items()
                        if index_def.table == key}
        self.catalog.drop_table(stmt.name, stmt.if_exists)

        def undo():
            # The table object still holds its versions and sorted
            # indexes; restoring it and the dependent IndexDef
            # registrations recovers the pre-drop state exactly.
            self.catalog.tables[key] = table
            self.catalog.indexes.update(removed_defs)

        self._ddl_done(undo, ["drop_table", key])
        return Result([], [])

    def _do_drop_function(self, stmt: A.DropFunction, params,
                          session) -> Result:
        key = stmt.name.lower()
        prior = self.catalog.functions.get(key)
        self.catalog.drop_function(stmt.name, stmt.if_exists)
        if prior is None:  # IF EXISTS on a missing function
            self.clear_plan_cache()
            return Result([], [])

        def undo():
            self.catalog.functions[key] = prior

        self._ddl_done(undo, ["drop_function", key])
        return Result([], [])

    def _coerce(self, value: Value, type_name: str) -> Value:
        if value is None:
            return None
        composite = self.catalog.get_type(type_name)
        try:
            return cast_value(value, type_name, composite)
        except TypeError_:
            return value  # keep as-is; the engine is dynamically typed
