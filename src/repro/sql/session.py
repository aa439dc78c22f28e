"""Sessions, prepared statements, and a PEP-249-style cursor surface.

The paper's cost model (parse/plan once, instantiate many times) needs a
client surface that can actually express "once": a :class:`Connection` is a
session with its own settings overlay, notices, and prepared-statement
registry; a :class:`PreparedStatement` carries its plan across executions;
a :class:`Cursor` exposes the familiar DB-API shape (``execute`` /
``executemany`` / ``description`` / ``fetchone`` / iteration).

``Database.execute`` keeps working unchanged — it is a thin facade over the
*root* session, the one session whose settings *are* the global values.

Isolation model (single-process, cooperative):

* **Settings** — ``SET`` on a connection lands in its overlay; the
  session's effective values (``globals.replace(**overlay)``, an immutable
  :class:`~repro.sql.settings.SettingValues`) are installed as
  ``db.settings.active`` for the duration of each statement.  Cached plans
  can never leak across differing plan-affecting settings because every
  plan-cache key, prepared-statement stamp and function-body plan embeds
  the settings fingerprint (:meth:`repro.sql.engine.Database.plan_stamp`).
* **Prepared statements** — per-session by name (SQL ``PREPARE``/
  ``EXECUTE``/``DEALLOCATE`` or the programmatic :meth:`Connection.
  prepare`).  A handle's plan is stamped with the DDL generation and the
  settings fingerprint: DDL (new index, dropped table, replaced function)
  or a plan-affecting ``SET`` makes the stamp stale and the handle replans
  on its next use — stale handles replan, they don't crash or return
  stale results.
* **Notices** — PL/pgSQL ``RAISE`` messages raised while a connection is
  executing land on that connection's :attr:`Connection.notices`.

>>> from repro.sql import Database
>>> db = Database()
>>> _ = db.execute("CREATE TABLE t(x int, y int)")
>>> conn = db.connect()
>>> cur = conn.cursor()
>>> _ = cur.executemany("INSERT INTO t VALUES ($1, $2)",
...                     [(1, 10), (2, 20), (3, 30)])
>>> cur.rowcount
3
>>> ps = conn.prepare("SELECT y FROM t WHERE x = $1")
>>> ps.execute([2]).scalar()
20
>>> _ = conn.execute("SET enable_rangescan = off")
>>> conn.execute("SHOW enable_rangescan").scalar()
'off'
>>> db.execute("SHOW enable_rangescan").scalar()  # overlay is per-session
'on'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import ast as A
from .astutil import statement_param_count
from .cancel import CancelToken
from .errors import CatalogError, ExecutionError, PlanError
from .statement import Statement

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Database, Result


class PreparedStatement(Statement):
    """A named statement record: the plan it carries is revalidated
    against ``(ddl generation, settings fingerprint)`` before every use
    (:meth:`~repro.sql.statement.Statement.plan`)."""

    __slots__ = ("session", "name", "param_types", "param_count")

    def __init__(self, session: "Connection", name: str,
                 statement: A.Statement,
                 param_types: Optional[list[str]] = None):
        super().__init__(session.db, statement, door="prepare")
        self.session = session
        self.name = name
        self.param_types = param_types
        used = statement_param_count(statement)
        if param_types is not None:
            if used > len(param_types):
                raise PlanError(
                    f"prepared statement {name!r} uses ${used} but declares "
                    f"only {len(param_types)} parameter types")
            self.param_count = len(param_types)
        else:
            self.param_count = used

    # -- execution -------------------------------------------------------

    def dispatch(self, args: Sequence) -> tuple:
        """Run with the owning session assumed active; returns
        ``(kind, Result)`` (the engine's dispatch contract)."""
        if len(args) != self.param_count:
            raise ExecutionError(
                f"prepared statement {self.name!r} requires "
                f"{self.param_count} parameters, got {len(args)}")
        if self.param_types:
            # Declared types coerce the arguments, PostgreSQL-style
            # (leniently, like INSERT coercion — the engine is
            # dynamically typed).
            args = [self.db._coerce(value, type_name)
                    for value, type_name in zip(args, self.param_types)]
        return self.db.run_prepared(self, args)

    def execute(self, params: Sequence = ()) -> "Result":
        """Programmatic execution (activates the owning session)."""
        with self.session._activated():
            return self.dispatch(tuple(params))[1]

    def deallocate(self) -> None:
        self.session.deallocate(self.name)

    def __repr__(self) -> str:
        return (f"PreparedStatement({self.name!r}, "
                f"{type(self.ast).__name__}, "
                f"params={self.param_count})")


class Connection:
    """One session against a :class:`~repro.sql.engine.Database`.

    The root session (``Database``'s own facade) assigns the global
    values; ordinary sessions keep their assignments in an overlay on top
    of them.
    """

    def __init__(self, db: "Database", root: bool = False):
        self.db = db
        self._root = root
        self._closed = False
        self._overlay: dict[str, object] = {}
        self._notices: list[str] = db.notices if root else []
        self._prepared: dict[str, PreparedStatement] = {}
        #: The open explicit transaction (set by BEGIN, cleared by
        #: COMMIT/ROLLBACK).  Autocommit statements never land here.
        self._txn = None
        #: Cancellation flag for whatever statement this session is
        #: running: armed per statement by the engine's ``_TxnScope``,
        #: tripped cross-thread by the wire server's CancelRequest path.
        self.cancel = CancelToken()
        self._active_depth = 0
        #: ``(globals, globals.replace(**overlay))`` as last computed;
        #: stale once either side is a different object.
        self._effective: tuple = (None, None)
        self._outer_notices: Optional[list[str]] = None
        #: One list of SET LOCAL restore records per nested script.
        self._script_stack: list[list] = []
        self._anon_counter = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def notices(self) -> list[str]:
        """RAISE NOTICE/WARNING/INFO messages from this session."""
        return self._notices

    def close(self) -> None:
        """Roll back any open transaction, deallocate prepared statements
        and refuse further execution."""
        if self._txn is not None and not self._closed:
            self.rollback()
        self._prepared.clear()
        self._overlay.clear()
        self._closed = True

    # -- transactions ----------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True while an explicit transaction block is open."""
        return self._txn is not None

    def begin(self) -> None:
        """Open an explicit transaction block (``BEGIN``)."""
        self.execute("BEGIN")

    def commit(self) -> None:
        """Commit the open transaction block; a no-op outside one
        (PEP-249 allows commit on a fresh connection)."""
        if self._txn is not None:
            self.execute("COMMIT")

    def rollback(self) -> None:
        """Roll back the open transaction block; a no-op outside one."""
        if self._txn is not None:
            self.execute("ROLLBACK")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("connection is closed")

    # -- execution -------------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: Sequence = ()) -> "Result":
        """Execute one statement in this session; returns the Result."""
        return self._execute_info(sql, params)[1]

    def execute_script(self, sql: str) -> "list[Result]":
        """Execute a ``;``-separated script (the scope of ``SET LOCAL``)."""
        self._check_open()
        with self._activated():
            return self.db._execute_script(sql, self)

    def query_value(self, sql: str, params: Sequence = ()):
        return self.execute(sql, params).scalar()

    def query_all(self, sql: str, params: Sequence = ()) -> list[tuple]:
        return self.execute(sql, params).rows

    def _execute_info(self, sql: str, params: Sequence) -> tuple:
        self._check_open()
        with self._activated():
            return self.db._execute_info(sql, params, self)

    def _execute_many(self, sql: str,
                      param_sets: Iterable[Sequence]) -> tuple:
        self._check_open()
        with self._activated():
            return self.db._execute_many(sql, param_sets, self)

    # -- prepared statements --------------------------------------------

    def prepare(self, sql: str, name: Optional[str] = None) -> PreparedStatement:
        """Parse *sql* once and return a :class:`PreparedStatement`.

        The handle is registered in this session (under a generated name
        when *name* is omitted), so SQL-level ``EXECUTE``/``DEALLOCATE``
        see it too.
        """
        self._check_open()
        from .parser import parse_statement
        from .profiler import PARSE
        with self.db.profiler.phase(PARSE):
            statement = parse_statement(sql)
        if isinstance(statement, A.PrepareStmt):
            return self.register_prepared(statement.name, statement.statement,
                                          statement.param_types)
        if name is None:
            self._anon_counter += 1
            name = f"_stmt{self._anon_counter}"
            while name in self._prepared:
                self._anon_counter += 1
                name = f"_stmt{self._anon_counter}"
        return self.register_prepared(name, statement)

    def register_prepared(self, name: str, statement: A.Statement,
                          param_types: Optional[list[str]] = None
                          ) -> PreparedStatement:
        self._check_open()
        key = name.lower()
        if key in self._prepared:
            raise CatalogError(f"prepared statement {name!r} already exists")
        handle = PreparedStatement(self, key, statement, param_types)
        self._prepared[key] = handle
        return handle

    def lookup_prepared(self, name: str) -> PreparedStatement:
        handle = self._prepared.get(name.lower())
        if handle is None:
            raise CatalogError(
                f"prepared statement {name!r} does not exist")
        return handle

    def deallocate(self, name: Optional[str]) -> None:
        """Drop one prepared statement, or all of them (``name`` None)."""
        if name is None:
            self._prepared.clear()
            return
        if self._prepared.pop(name.lower(), None) is None:
            raise CatalogError(
                f"prepared statement {name!r} does not exist")

    @property
    def prepared_names(self) -> list[str]:
        return sorted(self._prepared)

    # -- settings --------------------------------------------------------

    def _values(self):
        """This session's effective setting values, recomputed only when
        the globals or the overlay changed since the last call."""
        base = self.db.settings.globals
        if not self._overlay:
            return base
        if self._effective[0] is not base:
            self._effective = (base, base.replace(**self._overlay))
        return self._effective[1]

    def _store(self, name: str, value) -> None:
        """Record this session's (typed) *value* for setting *name*, None
        for "no assignment of its own"; takes effect at once when a
        statement of the session is running."""
        settings = self.db.settings
        if self._root:
            settings.assign(name, settings.lookup(name).default
                            if value is None else value)
        elif value is None:
            self._overlay.pop(name, None)
        else:
            self._overlay[name] = value
        self._effective = (None, None)
        if self._active_depth:
            settings.active = self._values()

    def get_setting(self, name: str):
        """Effective (typed) value of *name* as this session sees it."""
        return getattr(self._values(), self.db.settings.lookup(name).name)

    def set_setting(self, name: str, raw) -> object:
        """Session-scoped assignment (global on the root session).
        Validates against the setting's declared type/domain."""
        self._check_open()
        setting = self.db.settings.lookup(name)
        value = setting.parse(raw)
        self._store(setting.name, value)
        return value

    def reset_setting(self, name: Optional[str]) -> None:
        """Drop the session override of *name*, or of every setting
        (``name`` None) — root: restore the default."""
        self._check_open()
        settings = self.db.settings
        for key in (settings.names() if name is None
                    else [settings.lookup(name).name]):
            self._store(key, None)

    def set_local(self, name: str, raw) -> None:
        """``SET LOCAL``: scoped to the enclosing transaction block
        (reverted at COMMIT or ROLLBACK, PostgreSQL's semantics) or, when
        no block is open, to the enclosing script.  Outside both this is
        a no-op with a notice, matching PostgreSQL's behaviour outside a
        transaction block."""
        self._check_open()
        setting = self.db.settings.lookup(name)
        txn = self._txn if self._txn is not None and not self._txn.finished \
            else None
        if txn is None and not self._script_stack:
            self._notices.append(
                "WARNING: SET LOCAL has no effect outside a script")
            return
        # The restore record: what _store is to be called with afterwards.
        previous = (getattr(self.db.settings.globals, setting.name)
                    if self._root else self._overlay.get(setting.name))
        records = txn.local_restores if txn is not None \
            else self._script_stack[-1]
        records.append((setting.name, previous))
        self.set_setting(name, raw)

    def begin_script(self) -> None:
        self._script_stack.append([])

    def end_script(self) -> None:
        self._apply_restore_records(self._script_stack.pop())

    def _apply_restore_records(self, records: list) -> None:
        """Revert a batch of SET LOCAL restore records (newest first) —
        shared by script end and transaction finish."""
        for name, previous in reversed(records):
            self._store(name, previous)

    # -- activation ------------------------------------------------------

    def _activated(self):
        """Context manager making this session the executing one: its
        setting values and its notices list are installed on the database
        and the previous ones put back on exit.  Reentrant."""
        return _Activation(self)


class _Activation:
    """Installs a session's setting values and notices on the engine —
    under the database's execution lock, so two threads activating
    different sessions can never interleave (the lock is reentrant; the
    per-statement ``_TxnScope`` nests inside it).

    The outermost exit finishes the session's pending commit, if it made
    one: it releases the lock first, waits for the fsync of the commit
    record, and retakes the lock to finalize it
    (:meth:`~repro.sql.txn.TransactionManager.await_pending`), so other
    sessions' read-only statements run during the fsync while this
    session's caller still returns only after it."""

    __slots__ = ("conn",)

    def __init__(self, conn: Connection):
        self.conn = conn

    def __enter__(self):
        conn = self.conn
        db = conn.db
        db._exec_lock.acquire()
        conn._active_depth += 1
        if conn._active_depth == 1:
            conn._outer_notices = db.notices
            db.notices = conn._notices
            db.settings.active = conn._values()
        return conn

    def __exit__(self, *exc) -> None:
        conn = self.conn
        db = conn.db
        pending = None
        try:
            conn._active_depth -= 1
            if conn._active_depth == 0:
                db.notices = conn._outer_notices
                db.settings.active = db.settings.globals
                pending = db.txnman.pending
        finally:
            db._exec_lock.release()
        if pending is not None and pending.session is conn:
            db.txnman.await_pending(pending)


class Cursor:
    """PEP-249-shaped cursor over one :class:`Connection`.

    ``description`` is a list of 7-tuples (name first, the rest ``None`` —
    the engine is dynamically typed); ``rowcount`` is the affected-row
    count for DML, the result-set size for queries, and -1 for DDL and
    session statements.  Results are materialized (the engine's executor
    is pull-to-completion), so ``fetchmany`` batching shapes the client
    loop, not the execution.
    """

    __slots__ = ("connection", "arraysize", "description", "rowcount",
                 "_rows", "_pos", "_closed")

    def __init__(self, connection: Connection):
        self.connection = connection
        self.arraysize = 1
        self.description: Optional[list[tuple]] = None
        self.rowcount = -1
        self._rows: Optional[list[tuple]] = None
        self._pos = 0
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._rows = None
        self.description = None

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("cursor is closed")
        self.connection._check_open()

    # -- execution -------------------------------------------------------

    def execute(self, sql: str, params: Sequence = ()) -> "Cursor":
        """Execute one statement; returns self (chaining, PEP-249 style)."""
        self._check_open()
        kind, result = self.connection._execute_info(sql, params)
        self._absorb(kind, result)
        return self

    def executemany(self, sql: str,
                    param_sets: Iterable[Sequence]) -> "Cursor":
        """Parse and plan once, run the plan once per parameter set; an
        error in any set undoes them all."""
        self._check_open()
        kind, result = self.connection._execute_many(sql, param_sets)
        self._absorb(kind, result)
        return self

    def _absorb(self, kind: str, result: "Result") -> None:
        if kind == A.ROWS:
            self.description = [(name, None, None, None, None, None, None)
                                for name in result.columns]
            self._rows = list(result.rows)
            self.rowcount = len(self._rows)
        elif kind == A.COUNT:
            self.description = None
            self._rows = None
            self.rowcount = result.rows[0][0] if result.rows else 0
        else:
            self.description = None
            self._rows = None
            self.rowcount = -1
        self._pos = 0

    # -- fetching --------------------------------------------------------

    def _result_rows(self) -> list[tuple]:
        self._check_open()
        if self._rows is None:
            raise ExecutionError(
                "no result set (the last statement returned no rows)")
        return self._rows

    def fetchone(self) -> Optional[tuple]:
        rows = self._result_rows()
        if self._pos >= len(rows):
            return None
        row = rows[self._pos]
        self._pos += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        rows = self._result_rows()
        count = self.arraysize if size is None else size
        batch = rows[self._pos:self._pos + max(count, 0)]
        self._pos += len(batch)
        return batch

    def fetchall(self) -> list[tuple]:
        rows = self._result_rows()
        batch = rows[self._pos:]
        self._pos = len(rows)
        return batch

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> tuple:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- PEP-249 no-ops --------------------------------------------------

    def setinputsizes(self, sizes) -> None:
        """No-op; PEP-249 shape only."""

    def setoutputsize(self, size, column=None) -> None:
        """No-op; PEP-249 shape only."""
