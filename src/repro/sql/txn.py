"""Transaction manager: xids, snapshots, undo logs, savepoints.

The storage layer (:mod:`repro.sql.storage`) keeps every heap row as a
:class:`RowVersion` stamped with the transaction id that created it
(``xmin``) and, once deleted or superseded, the id that removed it
(``xmax``).  Nothing is ever mutated in place: UPDATE appends a new
version and stamps ``xmax`` on the old one, DELETE only stamps ``xmax``.
Which versions a statement sees is decided entirely by the
:class:`Snapshot` it runs under — the MVCC visibility rules in
:meth:`Snapshot.visible` mirror PostgreSQL's:

* a version is visible when its inserter committed before the snapshot
  (or is the snapshot's own transaction, in an earlier command), and
* it has no deleter, or the deleter is still in progress / aborted /
  committed after the snapshot (or is the snapshot's own transaction in
  a *later* command — a deleting statement still sees the rows it is
  deleting; this is what makes ``UPDATE t SET ...`` Halloween-safe).

Two reserved xids bracket the real ones: :data:`ABORTED_XID` (0) marks
versions whose inserter rolled back — invisible to everyone, reclaimed
by vacuum — and :data:`FROZEN_XID` (1) marks bootstrap rows written
outside any transaction (direct ``table.insert`` calls from workload
loaders, WAL replay, ...), which every snapshot treats as committed
infinitely long ago.  Real transactions take xids from 2 up, and only
when they first *write*: read-only transactions never consume an xid,
so a read-mostly workload keeps ``next_xid`` stable and the storage
layer's visible-rows cache hot.

Rollback is implemented with an undo log rather than by walking the
heap: every insert/delete records a compensating entry, and SAVEPOINT /
ROLLBACK TO / statement-level atomicity are all just marks into that
log.  First-writer-wins conflict detection lives here too: stamping
``xmax`` over a version some concurrent transaction already claimed
raises :class:`~repro.sql.errors.SerializationError`.
"""

from __future__ import annotations

from typing import Optional

from .errors import ExecutionError
from .profiler import TXN_COMMITTED, TXN_ROLLED_BACK

#: xmin sentinel for versions whose inserting transaction rolled back.
ABORTED_XID = 0
#: xid for bootstrap writes outside any transaction: always committed.
FROZEN_XID = 1
#: First xid handed to a real transaction.
FIRST_XID = 2

#: Transaction status bytes kept in :attr:`TransactionManager.statuses`.
COMMITTED = "C"
ABORTED = "A"


class RowVersion:
    """One immutable heap row plus its MVCC stamps.

    ``cmin``/``cmax`` are command ids *within* the stamping transaction:
    a statement with command id ``cid`` sees versions it inserted only
    when ``cmin < cid`` and still sees versions it deleted while
    ``cmax >= cid`` (i.e. its own deletions take effect for the *next*
    statement, not mid-scan).

    ``slot`` is the version's place in heap order: a heap's version list
    is sorted by it.  An inserted row takes a fresh one (its ``rid``), the
    replacement an UPDATE creates takes its predecessor's and sits right
    after it, so where to splice is found by bisection.
    """

    __slots__ = ("data", "xmin", "cmin", "xmax", "cmax", "rid", "slot")

    def __init__(self, data: tuple, xmin: int, cmin: int, rid: int,
                 slot: Optional[int] = None):
        self.data = data
        self.xmin = xmin
        self.cmin = cmin
        self.xmax: Optional[int] = None
        self.cmax = 0
        self.rid = rid
        self.slot = rid if slot is None else slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RowVersion(rid={self.rid}, xmin={self.xmin}, "
                f"xmax={self.xmax}, data={self.data!r})")


class Snapshot:
    """A consistent point-in-time view over versioned heaps.

    Captured per statement (autocommit) or once per transaction
    (explicit BEGIN, PostgreSQL's ``READ COMMITTED`` snapshot-per-
    statement is deliberately *not* modelled — one snapshot for the
    whole transaction gives snapshot isolation).  ``active`` is the set
    of xids in progress at capture time, ``xmax`` the next xid to be
    assigned; anything at or above ``xmax`` started after us.
    """

    __slots__ = ("xid", "cid", "xmax", "active", "_status")

    def __init__(self, xid: Optional[int], cid: int, xmax: int,
                 active: frozenset, status: dict):
        self.xid = xid          # owning txn's xid (None while read-only)
        self.cid = cid          # owning txn's current command id
        self.xmax = xmax        # first xid invisible to this snapshot
        self.active = active    # xids in progress when captured
        self._status = status   # shared manager status map

    def visible(self, v: RowVersion) -> bool:
        """Apply the MVCC visibility rules to one version."""
        xmin = v.xmin
        if xmin == self.xid:
            # Our own insert: visible to later commands only.
            if v.cmin >= self.cid:
                return False
        elif xmin != FROZEN_XID:
            if xmin >= self.xmax or xmin in self.active:
                return False  # inserter started after us / still running
            if self._status.get(xmin) != COMMITTED:
                return False  # inserter aborted (or ABORTED_XID sentinel)
        xmax = v.xmax
        if xmax is None:
            return True
        if xmax == self.xid:
            # Our own delete: takes effect for later commands.
            return v.cmax >= self.cid
        if xmax == FROZEN_XID:
            return False
        if xmax >= self.xmax or xmax in self.active:
            return True  # deleter started after us / still running
        return self._status.get(xmax) != COMMITTED


class Transaction:
    """One transaction: lazy xid, snapshot, undo log, savepoints.

    Autocommit statements run inside a throwaway Transaction that the
    engine commits (or rolls back) when the statement finishes; BEGIN
    simply flips ``explicit`` on the current one and parks it on the
    session so subsequent statements reuse it.
    """

    __slots__ = ("mgr", "db", "session", "explicit", "finished",
                 "xid", "cid", "snapshot", "undo", "wal_buf",
                 "savepoints", "local_restores", "tables_touched",
                 "gen_at_begin", "ddl_bumps", "ddl_partial_undo")

    def __init__(self, mgr: "TransactionManager", session=None,
                 explicit: bool = False):
        self.mgr = mgr
        self.db = mgr.db
        self.session = session
        self.explicit = explicit
        self.finished = False
        self.xid: Optional[int] = None
        self.cid = 0
        self.snapshot: Optional[Snapshot] = None
        self.undo: list = []
        self.wal_buf: list = []
        self.savepoints: list = []      # (name, undo_len, wal_len)
        self.local_restores: list = []  # SET LOCAL reversal records
        self.tables_touched: set = set()
        self.gen_at_begin = db._plan_generation if (db := mgr.db) else 0
        self.ddl_bumps = 0
        self.ddl_partial_undo = False

    # -- statement lifecycle ------------------------------------------

    def begin_statement(self) -> tuple[int, int]:
        """Advance the command id, ensure a snapshot, return an undo mark.

        The mark ``(len(undo), len(wal_buf))`` makes each statement
        atomic inside an explicit transaction: on error the engine rolls
        back to it, leaving earlier statements intact.
        """
        self.cid += 1
        if self.snapshot is None:
            self.snapshot = self.mgr.capture(self.xid, self.cid)
        else:
            self.snapshot.cid = self.cid
        return (len(self.undo), len(self.wal_buf))

    def make_explicit(self, session) -> None:
        """Turn the current autocommit transaction into a BEGIN block."""
        self.explicit = True
        self.session = session
        # Re-capture at the first post-BEGIN statement so the block's
        # snapshot does not predate BEGIN itself.
        self.snapshot = None
        self.gen_at_begin = self.db._plan_generation
        self.ddl_bumps = 0

    # -- write-side bookkeeping ---------------------------------------

    def ensure_xid(self) -> int:
        if self.xid is None:
            self.xid = self.mgr.assign_xid(self)
            if self.snapshot is not None:
                self.snapshot.xid = self.xid
        return self.xid

    def record_ddl(self, undo, wal_op) -> None:
        """Log one DDL operation: an undo callable plus its WAL record."""
        self.ensure_xid()
        self.undo.append(("ddl", undo))
        if wal_op is not None and self.mgr.wal is not None:
            self.wal_buf.append({"t": "ddl", "x": self.xid, "op": wal_op})
        self.ddl_bumps += 1

    # -- savepoints ----------------------------------------------------

    def define_savepoint(self, name: str) -> None:
        self.savepoints.append((name.lower(), len(self.undo), len(self.wal_buf)))

    def rollback_to_savepoint(self, name: str) -> None:
        key = name.lower()
        for i in range(len(self.savepoints) - 1, -1, -1):
            if self.savepoints[i][0] == key:
                _, undo_len, wal_len = self.savepoints[i]
                # Savepoints established after this one are destroyed;
                # the target itself survives (PostgreSQL semantics).
                del self.savepoints[i + 1:]
                self.rollback_to_mark((undo_len, wal_len))
                return
        raise ExecutionError(f"savepoint \"{name}\" does not exist")

    def release_savepoint(self, name: str) -> None:
        key = name.lower()
        for i in range(len(self.savepoints) - 1, -1, -1):
            if self.savepoints[i][0] == key:
                del self.savepoints[i:]
                return
        raise ExecutionError(f"savepoint \"{name}\" does not exist")

    # -- undo ----------------------------------------------------------

    def rollback_to_mark(self, mark: tuple[int, int],
                         partial: bool = True) -> None:
        """Undo everything recorded after *mark*, newest first.

        *partial* distinguishes statement/savepoint unwinds from the
        full-transaction rollback: only partial ones poison the DDL-
        generation restore (the transaction lives on with some of its
        DDL undone, so the simple all-or-nothing stamp accounting in
        :meth:`rollback` no longer holds).
        """
        undo_len, wal_len = mark
        undo = self.undo
        undid_ddl = False
        while len(undo) > undo_len:
            entry = undo.pop()
            kind = entry[0]
            if kind == "ins":
                entry[1]._undo_insert(entry[2])
            elif kind == "del":
                entry[1]._undo_delete(entry[2], entry[3], entry[4])
            else:  # "ddl"
                entry[1]()
                undid_ddl = True
        del self.wal_buf[wal_len:]
        # Drop savepoints that no longer point inside the log.
        while self.savepoints and self.savepoints[-1][1] > undo_len:
            self.savepoints.pop()
        if partial and undid_ddl:
            self.ddl_partial_undo = True
            if self.db is not None:
                # Plans cached while the undone DDL was live may reference
                # dropped structures: start a fresh generation.
                self.db.clear_plan_cache()

    # -- finish --------------------------------------------------------

    def commit(self) -> None:
        if self.finished:
            return
        mgr = self.mgr
        if self.xid is not None:
            if self.wal_buf and mgr.wal is not None:
                mgr.wal.commit(self.xid, self.wal_buf)
            mgr.statuses[self.xid] = COMMITTED
            mgr.active_xids.discard(self.xid)
            if mgr.profiler is not None:
                mgr.profiler.bump(TXN_COMMITTED)
        self.finished = True
        self._apply_local_restores()
        mgr.after_finish(self)

    def rollback(self) -> None:
        if self.finished:
            return
        mgr = self.mgr
        self.rollback_to_mark((0, 0), partial=False)
        if self.xid is not None:
            mgr.statuses[self.xid] = ABORTED
            mgr.active_xids.discard(self.xid)
            if mgr.profiler is not None:
                mgr.profiler.bump(TXN_ROLLED_BACK)
        self.finished = True
        if self.ddl_bumps and not self.ddl_partial_undo and self.db is not None:
            db = self.db
            only_ours = (db._plan_generation
                         == self.gen_at_begin + self.ddl_bumps)
            db.clear_plan_cache()
            if only_ours:
                # Only our own DDL moved the generation and every one of
                # those operations was just undone: go back to the
                # pre-transaction generation so prepared handles planned
                # before BEGIN stay valid (no spurious replan).  Plans
                # stamped *during* the transaction replan on next use:
                # clear_plan_cache never hands their generation out again.
                db._plan_generation = self.gen_at_begin
        self._apply_local_restores()
        mgr.after_finish(self)

    def _apply_local_restores(self) -> None:
        if self.local_restores and self.session is not None:
            self.session._apply_restore_records(self.local_restores)
            self.local_restores = []


class TransactionManager:
    """Hands out xids and snapshots; tracks commit/abort status.

    ``current`` is the transaction the engine is executing a statement
    under right now — storage consults it to stamp writes and resolve
    reads.  ``statuses`` maps every xid ever assigned to ``"C"`` or
    ``"A"`` (in-progress xids are simply absent and listed in
    ``active_xids``).
    """

    __slots__ = ("db", "profiler", "wal", "next_xid", "statuses",
                 "active_xids", "current", "open_count")

    def __init__(self, profiler=None, db=None):
        self.db = db
        self.profiler = profiler
        self.wal = None  # attached by Database when running durable
        self.next_xid = FIRST_XID
        self.statuses: dict[int, str] = {FROZEN_XID: COMMITTED}
        self.active_xids: set[int] = set()
        self.current: Optional[Transaction] = None
        #: Unfinished Transaction objects, including read-only ones that
        #: never took an xid: vacuum must not run while any are open —
        #: an old read-only snapshot may still see versions whose deleter
        #: committed after it.
        self.open_count = 0

    def begin(self, session=None, explicit: bool = False) -> Transaction:
        self.open_count += 1
        return Transaction(self, session=session, explicit=explicit)

    def assign_xid(self, txn: Transaction) -> int:
        xid = self.next_xid
        self.next_xid = xid + 1
        self.active_xids.add(xid)
        return xid

    def capture(self, xid: Optional[int], cid: int) -> Snapshot:
        return Snapshot(xid, cid, self.next_xid,
                        frozenset(self.active_xids), self.statuses)

    def instant_snapshot(self) -> Snapshot:
        """A fresh snapshot for bare (non-statement) table access."""
        return Snapshot(None, 0, self.next_xid,
                        frozenset(self.active_xids), self.statuses)

    def current_snapshot(self) -> Snapshot:
        txn = self.current
        if txn is not None:
            if txn.snapshot is None:
                txn.snapshot = self.capture(txn.xid, txn.cid)
            return txn.snapshot
        return self.instant_snapshot()

    def status(self, xid: int) -> Optional[str]:
        return self.statuses.get(xid)

    def after_finish(self, txn: Transaction) -> None:
        """Opportunistic vacuum once nothing at all is in flight."""
        if self.open_count > 0:
            self.open_count -= 1
        if not self.open_count and not self.active_xids:
            for table in txn.tables_touched:
                table.maybe_vacuum()
        txn.tables_touched = set()
