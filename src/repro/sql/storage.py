"""Version-chained heap storage with buffer-page accounting.

Two concerns live here.  First, the PostgreSQL-flavoured buffer model the
paper's Table 2 depends on: every tuple appended to a tracked
:class:`TupleStore` (still used by the recursive-CTE executor) or written
into a :class:`HeapTable` is charged ``ROW_OVERHEAD + sum(value sizes)``
bytes against the :class:`BufferManager`, and a page write is recorded
whenever the byte count crosses an 8 KiB boundary.  With PostgreSQL's
24-byte tuple header and 8192-byte pages this lands within ~1 % of the
paper's absolute counts (see EXPERIMENTS.md).

Second — since the MVCC refactor — multi-version concurrency: a
:class:`HeapTable` stores :class:`~repro.sql.txn.RowVersion` objects, never
mutates one in place, and resolves what a statement sees through the
:class:`~repro.sql.txn.Snapshot` visibility rules:

* INSERT appends a version stamped ``xmin = writer``;
* DELETE stamps ``xmax = writer`` on the visible version;
* UPDATE does both, placing the replacement version immediately after its
  predecessor so sequential scans keep the seed engine's delivery order;
* ROLLBACK undoes stamps through the transaction's undo log
  (:meth:`HeapTable._undo_insert` / :meth:`HeapTable._undo_delete`);
* dead versions are reclaimed by an opportunistic vacuum once no
  transaction is in flight.

Writes outside any transaction (workload loaders, WAL replay calling
``table.insert`` directly) are stamped :data:`~repro.sql.txn.FROZEN_XID`
and are immediately committed for every snapshot, so the pre-MVCC direct
API keeps working unchanged.

Sorted and hash indexes hold *versions*, not row tuples: scans filter
each candidate through the statement snapshot, which is what keeps index
results consistent with sequential scans while writers are in flight.
A per-table visible-rows cache short-circuits the common all-committed
case — it is built and served only under snapshots that provably agree
with it (fresh ``xmax``, no in-progress writers).

Thread-safety audit (wire-server era): nothing in this module locks, by
design.  Every code path that reads or writes heap versions, indexes, or
the ``_vis_cache`` tuple runs inside a statement dispatch, and every
statement dispatch holds ``Database._exec_lock`` (acquired by
``_TxnScope`` and by session activation).  The cache in particular is a
read-modify-write of two attributes (``_vis_cache`` + the rows list); two
unlocked threads could serve a stale tuple built for a dead snapshot.
The execution lock is the single serialization point — do not add
lock-free fast paths here without revisiting that invariant
(``tests/test_server_concurrency.py`` has the regression test).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

from .errors import CatalogError, SerializationError, TypeError_
from .profiler import HASH_INDEX_BUILDS, SNAPSHOT_SCANS
from .txn import (ABORTED_XID, COMMITTED, FROZEN_XID, RowVersion, Snapshot,
                  TransactionManager)
from .values import (Row, Value, comparison_class, desc_sort_key,
                     hashable_value, key_class, sort_key, value_byte_size)

PAGE_SIZE = 8192
ROW_OVERHEAD = 24  # PostgreSQL HeapTupleHeader is 23 bytes + padding


class BufferManager:
    """Counts logical page writes for all tuple stores of a database."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.pages_written = 0
        self.bytes_written = 0

    def charge(self, nbytes: int) -> None:
        """Charge *nbytes* of tuple data; record page writes on boundaries."""
        before = self.bytes_written // self.page_size
        self.bytes_written += nbytes
        after = self.bytes_written // self.page_size
        if after > before:
            self.pages_written += after - before

    def reset(self) -> None:
        self.pages_written = 0
        self.bytes_written = 0


def rows_byte_size(rows: Sequence[Sequence[Value]]) -> int:
    """On-disk size of *rows* under the model above.  Charging a batch at
    once counts the same pages as charging its rows one by one."""
    return (ROW_OVERHEAD * len(rows)
            + sum(map(value_byte_size, chain.from_iterable(rows))))


class TupleStore:
    """An append-only tuple container that charges a :class:`BufferManager`.

    Used for the recursive-CTE union accumulation (the paper's Table 2
    metric).  Set ``tracked=False`` for purely in-memory intermediates whose
    writes the paper's metric would not see (e.g. the one-row working
    "table" kept by WITH ITERATE).
    """

    def __init__(self, buffers: BufferManager | None, tracked: bool = True):
        self._buffers = buffers
        self._tracked = tracked and buffers is not None
        self.rows: list[tuple[Value, ...]] = []

    def append(self, row: Sequence[Value]) -> None:
        row_t = row if type(row) is tuple else tuple(row)
        self.rows.append(row_t)
        if self._tracked:
            self._buffers.charge(rows_byte_size((row_t,)))

    def extend(self, rows: Iterable[Sequence[Value]]) -> None:
        for row in rows:
            self.append(row)


_SLOT = attrgetter("slot")

#: Up to this many replacement versions are inserted into the heap's list
#: one by one (a memmove of the tail each, 0.4 ns per version behind the
#: insertion point); beyond it the list is rebuilt once from slices (a
#: reference count touched per version, 5 ns each whatever the number of
#: insertions).  Both costs grow with the table, so their ratio does not.
_SPLICE_IN_PLACE = 8

#: Sort-key prefix of SQL NULL — NULLs sit at the tail of every ascending
#: key column (see :func:`repro.sql.values.sort_key`), so bounded range
#: probes can exclude them with one bisect.
NULL_SORT_KEY = sort_key(None)


def _check_comparable(classes: dict, value: Value) -> None:
    """Raise unless *value* is in the one comparability class of a key
    column whose live classes are *classes* (class -> display name)."""
    kind = key_class(value)
    for other, display in classes.items():
        if other != kind:
            raise TypeError_(f"cannot compare {display} with "
                             f"{type(value).__name__}")


class SortedIndex:
    """A bisect-backed ordered access path over one or more columns.

    ``keys`` is a sorted list of per-row key tuples (one
    :func:`~repro.sql.values.sort_key` component per index column,
    :func:`~repro.sql.values.desc_sort_key` for DESC columns) and ``rows``
    the parallel list of :class:`~repro.sql.txn.RowVersion` objects.
    Ascending columns therefore deliver NULLS LAST and descending columns
    NULLS FIRST — PostgreSQL's defaults — and a reversed scan of the whole
    structure yields the fully flipped ordering.

    The index holds *every* version, including ones deleted by open or
    committed transactions: scans filter each candidate through their
    snapshot, and vacuum rebuilds the index when dead versions are
    reclaimed.  Maintenance stays incremental on the DML paths: point
    maintenance is O(log n) to locate plus O(n) list shift, against
    O(n log n) for a rebuild.

    Per-column comparability classes are tracked so range probes can raise
    the same :class:`~repro.sql.errors.TypeError_` a scan-and-compare
    evaluation of the predicate would raise, instead of silently bisecting
    across SQL-incomparable values (see :meth:`check_probe`).
    """

    __slots__ = ("columns", "descending", "keys", "rows", "pinned",
                 "_classes")

    def __init__(self, columns: Sequence[int], descending: Sequence[bool],
                 rows: Iterable[RowVersion] = ()):
        self.columns = tuple(columns)
        self.descending = tuple(bool(d) for d in descending)
        self.keys: list[tuple] = []
        self.rows: list[RowVersion] = []
        #: True for CREATE INDEX declarations: a pinned index survives
        #: bulk DML by rebuilding eagerly; an unpinned (lazily
        #: auto-created) one is dropped instead and rebuilt on its next
        #: probe — if that ever comes.
        self.pinned = False
        #: Per column: comparability class -> display type name.
        self._classes: list[dict] = [dict() for _ in self.columns]
        self.rebuild(rows)

    # -- keys ------------------------------------------------------------

    def key_of(self, version: RowVersion) -> tuple:
        data = version.data
        parts = []
        for column, desc in zip(self.columns, self.descending):
            value = data[column]
            parts.append(desc_sort_key(value) if desc else sort_key(value))
        return tuple(parts)

    def nonnull_end(self) -> int:
        """Index of the first all-trailing NULL-key row (single ascending
        column only): the exclusive upper bound of ``col > x`` probes."""
        return bisect_left(self.keys, (NULL_SORT_KEY,))

    # -- maintenance -----------------------------------------------------

    def rebuild(self, rows: Iterable[RowVersion]) -> None:
        # One key_of per row: sort decorated pairs on the key alone (ties
        # must not fall through to comparing version objects, which would
        # raise).
        pairs = sorted(((self.key_of(row), row) for row in rows),
                       key=itemgetter(0))
        self.keys = [key for key, _ in pairs]
        self.rows = [row for _, row in pairs]
        for classes in self._classes:
            classes.clear()
        for row in self.rows:
            self._track(row)

    def insert(self, row: RowVersion) -> None:
        key = self.key_of(row)
        pos = bisect_right(self.keys, key)
        self.keys.insert(pos, key)
        self.rows.insert(pos, row)
        self._track(row)

    def _track(self, row: RowVersion) -> None:
        data = row.data
        for position, column in enumerate(self.columns):
            value = data[column]
            if value is None:
                continue  # NULL never participates in comparisons
            self._classes[position].setdefault(key_class(value),
                                               type(value).__name__)

    # -- probing ---------------------------------------------------------

    def probe_classes(self, position: int) -> dict:
        """Comparability classes of key column *position*'s indexed values:
        ``class -> display type name`` (empty = only NULLs / no rows)."""
        return self._classes[position]

    def check_probe(self, position: int, value: Value) -> None:
        """Raise like a scan-and-compare would: a probe value whose class
        differs from any live key value's class is SQL-incomparable."""
        _check_comparable(self.probe_classes(position), value)

    def range_positions(self, lower, upper) -> tuple[int, int]:
        """``[start, stop)`` positions for a single-ascending-column range.

        *lower* / *upper* are ``(value, inclusive)`` or None for an open
        end.  NULL keys sit past ``nonnull_end()`` and are excluded
        whenever at least one bound is given (``col > x`` is never TRUE
        for NULL).
        """
        start, stop = 0, len(self.keys)
        if upper is not None:
            value, inclusive = upper
            probe = (sort_key(value),)
            stop = (bisect_right(self.keys, probe) if inclusive
                    else bisect_left(self.keys, probe))
        elif lower is not None:
            stop = self.nonnull_end()
        if lower is not None:
            value, inclusive = lower
            probe = (sort_key(value),)
            start = (bisect_left(self.keys, probe) if inclusive
                     else bisect_right(self.keys, probe))
        return start, max(start, stop)

    def __len__(self) -> int:
        return len(self.rows)


class HashIndex:
    """``key tuple -> [versions]`` for equality probes, plus each key
    column's comparability classes so a probe raises the
    :class:`~repro.sql.errors.TypeError_` a scan-and-compare would (as
    :meth:`SortedIndex.check_probe` and the hash-join build table do)
    instead of silently missing - or, for ``1 = true``, silently hitting.

    Keys go through :func:`~repro.sql.values.hashable_value`, except that
    an ``int``, a ``str`` and a ROW key as themselves.  The first two are
    their own ``hashable_value``.  A ROW is not, but normalising and
    classing one on every probe costs 2.1 us against 0.3 us, and the
    paper's ``walk`` probes ``cells`` and ``policy`` by coordinate a
    hundred times per call (-8% on the ``udf_compiled`` workload): a ROW
    probe of an all-ROW column is taken as comparable, its fields compare
    as Python values, and a ROW of another arity finds nothing."""

    __slots__ = ("columns", "buckets", "classes", "plain", "_samples")

    #: the types whose values key as themselves, by comparability class
    _PLAIN_TYPE = {"num": int, "str": str, "row": Row}

    def __init__(self, columns: tuple[int, ...],
                 versions: Iterable[RowVersion]):
        self.columns = columns
        self.buckets: dict = {}
        #: per key column: comparability class -> display type name
        self.classes: list[dict] = [{} for _ in columns]
        #: per key column: the plain type of its one class, if it has one -
        #: a probe of exactly that type is comparable and keys as itself
        self.plain: list = [None] * len(columns)
        self._samples: list = [None] * len(columns)  # a key value per column
        for version in versions:
            self.add(version)

    def add(self, version: RowVersion) -> None:
        """File *version* under its key.  Entries are only ever added:
        like the sorted index this one holds every version, dead ones
        included, until the table rebuilds it from the versions vacuum
        kept."""
        data = version.data
        samples = self._samples
        key = []
        for position, column in enumerate(self.columns):
            value = data[column]
            if value is None:
                return  # NULL keys are excluded: col = NULL is never TRUE
            kind = type(value)
            if kind is not type(samples[position]) or kind is Row:
                samples[position] = value  # a new class, possibly
                seen = self.classes[position]
                seen.setdefault(key_class(value), kind.__name__)
                self.plain[position] = (
                    self._PLAIN_TYPE.get(comparison_class(value))
                    if len(seen) == 1 else None)
            key.append(self._hash_key(value))
        self.buckets.setdefault(tuple(key), []).append(version)

    @staticmethod
    def _hash_key(value: Value):
        kind = type(value)
        if kind is int or kind is str or kind is Row:
            return value
        return hashable_value(value)

    def lookup(self, key: tuple) -> list:
        """The versions whose key equals the NULL-free *key* (``()`` for
        none); raises when a key value is SQL-incomparable with the
        column's values."""
        for position, value in enumerate(key):
            if type(value) is not self.plain[position]:
                key = self._checked(key)
                break
        return self.buckets.get(key, ())

    def _checked(self, key: tuple) -> tuple:
        for seen, value in zip(self.classes, key):
            _check_comparable(seen, value)
        return tuple([self._hash_key(value) for value in key])


class HeapTable:
    """A named base table: column schema plus a version-chained heap."""

    def __init__(self, name: str, column_names: Sequence[str],
                 column_types: Sequence[str],
                 buffers: BufferManager | None = None,
                 txnman: TransactionManager | None = None):
        if len(column_names) != len(column_types):
            raise CatalogError(f"table {name}: column name/type count mismatch")
        if len(set(c.lower() for c in column_names)) != len(column_names):
            raise CatalogError(f"table {name}: duplicate column names")
        self.name = name
        self.column_names = [c.lower() for c in column_names]
        self.column_types = list(column_types)
        self._buffers = buffers
        # A table created outside any Database gets a private manager:
        # with no transaction ever current, every write freezes and every
        # read sees everything — i.e. plain pre-MVCC heap behaviour.
        self._txnman = txnman if txnman is not None else TransactionManager()
        self._versions: list[RowVersion] = []
        self._live = 0            # versions with no deleter (estimate basis)
        self._dead_possible = 0   # stamped xmax / aborted xmin, pre-vacuum
        self._rid_counter = 0     # per-table monotonic row id (WAL identity)
        self._version = 0         # write counter: invalidates caches
        #: (write counter, snapshot xmax, visible row tuples) — see
        #: :meth:`visible_rows` for the exact build/serve conditions.
        self._vis_cache: Optional[tuple[int, int, list]] = None
        #: (that cache's row list, its transposed columns, per column
        #: "every value is an exact int") — see :meth:`columns`.
        self._col_cache: Optional[tuple[list, list[list], list[bool]]] = None
        #: Hash indexes by column positions, and sorted indexes by (column
        #: positions, descending flags).  Both kinds hold every version
        #: and are kept up where versions are created and where
        #: ``_versions`` is rebuilt, so a probe never pays a rebuild.
        self._indexes: dict[tuple[int, ...], HashIndex] = {}
        self._sorted: dict[tuple[tuple[int, ...], tuple[bool, ...]],
                           SortedIndex] = {}

    # -- snapshots & visibility ------------------------------------------

    def current_snapshot(self) -> Snapshot:
        return self._txnman.current_snapshot()

    def all_visible(self, snapshot: Snapshot) -> bool:
        """True when *every* version is visible to *snapshot*, letting
        scans skip the per-row visibility check: no version ever died
        (or vacuum reclaimed the dead), no writer is in flight, and the
        snapshot is current enough to see every committed xid."""
        mgr = self._txnman
        return (self._dead_possible == 0 and not mgr.active_xids
                and snapshot.xmax == mgr.next_xid)

    def visible_rows(self, snapshot: Optional[Snapshot] = None) -> list:
        """Row tuples visible to *snapshot* (default: the current one),
        in heap order.

        The result is cached, but only under conditions that make the
        cache sound for every snapshot it is later served to: it is
        *built* only by a maximally fresh snapshot with no in-progress
        transaction anywhere (so the builder saw the final status of
        every stamped xid), and *served* only while no write has touched
        the table since (write counter), again with no in-progress
        writers, to snapshots at least as fresh as the builder's.
        """
        mgr = self._txnman
        if snapshot is None:
            snapshot = mgr.current_snapshot()
        cache = self._vis_cache
        if (cache is not None and cache[0] == self._version
                and not snapshot.active and not mgr.active_xids
                and snapshot.xmax >= cache[1]):
            return cache[2]
        if mgr.profiler is not None:
            mgr.profiler.bump(SNAPSHOT_SCANS)
        if self.all_visible(snapshot):
            rows = [v.data for v in self._versions]
        else:
            vis = snapshot.visible
            rows = [v.data for v in self._versions if vis(v)]
        if (not snapshot.active and not mgr.active_xids
                and snapshot.xmax == mgr.next_xid):
            self._vis_cache = (self._version, snapshot.xmax, rows)
            self._col_cache = None
        return rows

    def columns(self, rows: list, build: bool) -> Optional[tuple]:
        """``(rows, columns, exact_int)`` for the row list *rows* a scan got
        from :meth:`visible_rows`: its transposed columns and, per column,
        whether every value is an exact ``int`` (``type(v) is int``: no
        NULL, no bool), so a vector kernel tests a column's type once
        instead of once per element.  Served only for the very list it
        was built from (``is``, not equal) and dropped with the
        visible-rows cache entry holding that list; a list that entry does
        not hold (uncommitted writes, an older snapshot) gets None and
        the scan transposes batch by batch.  Built only on request
        (*build*: the scan is going to read the whole table anyway), so a
        ``LIMIT 3`` after a write stays O(batch)."""
        cache = self._col_cache
        if cache is not None and cache[0] is rows:
            return cache
        vis = self._vis_cache
        if not build or not rows or vis is None or vis[2] is not rows:
            return None
        cols = [list(map(itemgetter(index), rows))
                for index in range(len(self.column_names))]
        exact = [set(map(type, col)) == {int} for col in cols]
        self._col_cache = cache = (rows, cols, exact)
        return cache

    @property
    def rows(self) -> list[tuple[Value, ...]]:
        return self.visible_rows()

    def estimate_rows(self) -> int:
        """Planner-facing cardinality estimate: the live version count.

        Like PostgreSQL's ``reltuples`` this is a statistic, not a promise —
        plans are cached by SQL text, so a plan may carry an estimate taken
        before later DML.  Only heuristics (hash-join build-side choice) may
        depend on it.
        """
        return self._live

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name.lower())
        except ValueError:
            raise CatalogError(f"table {self.name} has no column {name!r}")

    # -- writes ----------------------------------------------------------

    def _prepare_row(self, row: Sequence[Value]) -> tuple:
        if len(row) != len(self.column_names):
            raise CatalogError(
                f"table {self.name} has {len(self.column_names)} columns, "
                f"got {len(row)} values")
        return row if type(row) is tuple else tuple(row)

    def _new_version(self, data: tuple, txn,
                     slot: Optional[int] = None) -> RowVersion:
        """Create and account one version and file it in the hash indexes
        (caller places it, maintains the sorted indexes — insert appends,
        update splices at *slot* — and charges the buffers)."""
        self._rid_counter += 1
        if txn is not None:
            xid = txn.ensure_xid()
            version = RowVersion(data, xid, txn.cid, self._rid_counter, slot)
            txn.undo.append(("ins", self, version))
            txn.tables_touched.add(self)
            if self._txnman.wal is not None:
                txn.wal_buf.append(self._txnman.wal.insert_record(
                    xid, self.name, version.rid, data))
        else:
            version = RowVersion(data, FROZEN_XID, 0, self._rid_counter,
                                 slot)
        self._live += 1
        self._version += 1
        for index in self._indexes.values():
            index.add(version)
        return version

    def insert(self, row: Sequence[Value]) -> None:
        row_t = self._prepare_row(row)
        version = self._new_version(row_t, self._txnman.current)
        self._versions.append(version)
        self._charge((row_t,))
        for index in self._sorted.values():
            index.insert(version)

    def insert_many(self, rows: Iterable[Sequence[Value]]) -> int:
        """Bulk insert: indexes are maintained once for the whole batch,
        so a large load takes the O(n log n) rebuild path instead of one
        O(n) list shift per row (quadratic).  Every row is validated
        before any is appended — a mid-batch arity error must not leave
        rows in the heap that the indexes never saw."""
        staged = [self._prepare_row(row) for row in rows]
        if not staged:
            return 0
        txn = self._txnman.current
        versions = [self._new_version(row_t, txn) for row_t in staged]
        self._versions.extend(versions)
        self._charge(staged)
        self._maintain_sorted(versions)
        return len(staged)

    def _charge(self, rows: Sequence[tuple]) -> None:
        if self._buffers is not None:
            self._buffers.charge(rows_byte_size(rows))

    def _stamp_delete(self, version: RowVersion, txn) -> None:
        """Mark *version* deleted by *txn* (or frozen-deleted), enforcing
        first-writer-wins: a version some other transaction already
        stamped — still in progress, or committed after our snapshot
        (it must have, or the version would not have been visible to
        us) — raises :class:`SerializationError`."""
        old_xmax = version.xmax
        mgr = self._txnman
        if old_xmax is not None and (txn is None or old_xmax != txn.xid):
            if old_xmax in mgr.active_xids:
                raise SerializationError(
                    f"could not serialize access to table {self.name}: "
                    f"row updated by concurrent transaction {old_xmax}")
            if old_xmax == FROZEN_XID or mgr.statuses.get(old_xmax) == COMMITTED:
                raise SerializationError(
                    f"could not serialize access to table {self.name}: "
                    f"row updated by transaction {old_xmax}, which "
                    f"committed after this snapshot")
            # Aborted leftover stamp: safe to overwrite.
        if txn is not None:
            xid = txn.ensure_xid()
            txn.undo.append(("del", self, version, old_xmax, version.cmax))
            version.xmax = xid
            version.cmax = txn.cid
            txn.tables_touched.add(self)
            if mgr.wal is not None:
                txn.wal_buf.append(mgr.wal.delete_record(
                    xid, self.name, version.rid))
        else:
            version.xmax = FROZEN_XID
            version.cmax = 0
        if old_xmax is None:
            self._live -= 1
        self._dead_possible += 1
        self._version += 1

    def visible_versions(self) -> list[RowVersion]:
        """The versions the current snapshot sees, in heap order: what a
        sequential scan hands a modifying statement as its targets."""
        snapshot = self._txnman.current_snapshot()
        if self.all_visible(snapshot):
            return list(self._versions)
        return list(filter(snapshot.visible, self._versions))

    def delete_versions(self, versions: Sequence[RowVersion]) -> int:
        """Stamp every one of *versions* deleted; return their number."""
        txn = self._txnman.current
        for version in versions:
            self._stamp_delete(version, txn)
        if txn is None and versions:
            self.maybe_vacuum()
        return len(versions)

    def update_versions(self, pairs: Sequence[tuple[RowVersion, Sequence[Value]]]
                        ) -> int:
        """Replace each ``(version, new row)`` of *pairs*.

        MVCC-style: the old version gets ``xmax`` stamped, the new one is
        spliced in right after it so sequential scans deliver the updated
        row where the original sat (the seed engine's in-place order).
        Every replacement tuple is validated before anything is stamped.
        """
        staged = sorted((self._position(version), version,
                         self._prepare_row(row)) for version, row in pairs)
        if not staged:
            return 0
        versions = self._versions
        txn = self._txnman.current
        for _, version, _ in staged:
            self._stamp_delete(version, txn)
        added = [self._new_version(data, txn, version.slot)
                 for _, version, data in staged]
        self._charge([data for _, _, data in staged])
        if len(staged) <= _SPLICE_IN_PLACE:
            for (position, _, _), new in zip(reversed(staged),
                                             reversed(added)):
                versions.insert(position + 1, new)  # last first
        else:
            out = []
            done = 0
            for (position, _, _), new in zip(staged, added):
                out += versions[done:position + 1]
                out.append(new)
                done = position + 1
            out += versions[done:]
            self._versions = out
        self._maintain_sorted(added)
        if txn is None:
            self.maybe_vacuum()
        return len(staged)

    def _position(self, version: RowVersion) -> int:
        """Where *version* sits in the heap's list, which is sorted by
        slot; the versions sharing one (a row's successive replacements)
        are few."""
        versions = self._versions
        return versions.index(
            version, bisect_left(versions, version.slot, key=_SLOT))

    def truncate(self) -> None:
        """Drop every version unconditionally (non-transactional reset)."""
        self._versions = []
        self._live = 0
        self._dead_possible = 0
        self._version += 1
        self._vis_cache = self._col_cache = None
        self._reindex()

    # -- undo (called by Transaction.rollback_to_mark) -------------------

    def _undo_insert(self, version: RowVersion) -> None:
        version.xmin = ABORTED_XID
        if version.xmax is None:
            self._live -= 1
        self._dead_possible += 1
        self._version += 1

    def _undo_delete(self, version: RowVersion, old_xmax, old_cmax) -> None:
        version.xmax = old_xmax
        version.cmax = old_cmax
        if old_xmax is None:
            self._live += 1
        self._dead_possible -= 1
        self._version += 1

    # -- vacuum ----------------------------------------------------------

    def maybe_vacuum(self) -> None:
        """Reclaim dead versions when enough have piled up.

        Only safe — and only attempted — while no transaction is open
        anywhere (no snapshot can be holding a view that still sees a
        dead version).  The threshold keeps insert-only workloads from
        paying any vacuum cost and amortises the O(n) sweep.
        """
        mgr = self._txnman
        if mgr.open_count or mgr.active_xids:
            return
        if self._dead_possible <= max(16, len(self._versions) // 8):
            return
        status = mgr.statuses
        live = []
        for version in self._versions:
            xmin = version.xmin
            if xmin != FROZEN_XID and status.get(xmin) != COMMITTED:
                continue  # inserter aborted: dead to everyone
            xmax = version.xmax
            if xmax is not None and (xmax == FROZEN_XID
                                     or status.get(xmax) == COMMITTED):
                continue  # deleter committed: dead to every new snapshot
            live.append(version)
        if len(live) != len(self._versions):
            self._versions = live
            self._version += 1
            self._reindex()
        self._dead_possible = sum(1 for v in live if v.xmax is not None)
        self._live = len(live) - self._dead_possible

    # -- hash indexes ----------------------------------------------------

    def equality_index(self, columns: tuple[int, ...]) -> HashIndex:
        """The :class:`HashIndex` over *columns*.

        Built on its first probe over every version (snapshot-independent
        — scans filter hits through their own snapshot) and kept up from
        then on like a sorted index: a new version is filed where it is
        created, and the index is rebuilt where ``_versions`` is.  NULL
        keys are excluded, matching SQL's ``col = NULL`` semantics.  The
        planner uses these for equality lookups, correlated ones included
        — the moral equivalent of the B-tree probes PostgreSQL would use
        on the paper's ``policy`` / ``actions`` / ``cells`` tables — and
        to find the targets of a keyed UPDATE or DELETE.

        Why this exists beside :class:`SortedIndex` (ROADMAP 4(b),
        measured on a 10k-row table): an equality probe costs 0.21 us here,
        class check included, against 2.7 us through the sorted index
        (``sort_key`` plus two bisects; 3.4-3.8 us with ``check_probe``) -
        13 to 18 times more, or a sixth of a whole embedded prepared point
        read (18-20 us).  The planner picks by predicate shape - equality
        here, range / order there - so no setting chooses between them.
        """
        index = self._indexes.get(columns)
        if index is None:
            index = self._indexes[columns] = self._build_hash(columns)
        return index

    def _build_hash(self, columns: tuple[int, ...]) -> HashIndex:
        profiler = self._txnman.profiler
        if profiler is not None:
            profiler.bump(HASH_INDEX_BUILDS)
        return HashIndex(columns, self._versions)

    def _reindex(self) -> None:
        """``_versions`` was replaced by a list holding fewer versions
        (vacuum, truncate): rebuild every index over it."""
        for index in self._sorted.values():
            index.rebuild(self._versions)
        for columns in self._indexes:
            self._indexes[columns] = self._build_hash(columns)

    # -- sorted indexes --------------------------------------------------

    def sorted_index(self, columns: Sequence[int],
                     descending: Optional[Sequence[bool]] = None
                     ) -> SortedIndex:
        """The sorted index over *columns* (per-column *descending* flags,
        default all-ascending), built lazily like :meth:`equality_index`
        and then maintained incrementally by every write.  Serves
        range probes and ordered delivery (sort elimination)."""
        key = self._sorted_key(columns, descending)
        index = self._sorted.get(key)
        if index is None:
            index = SortedIndex(key[0], key[1], self._versions)
            self._sorted[key] = index
        return index

    def sorted_index_if_exists(self, columns: Sequence[int],
                               descending: Optional[Sequence[bool]] = None
                               ) -> Optional[SortedIndex]:
        return self._sorted.get(self._sorted_key(columns, descending))

    def drop_sorted_index(self, columns: Sequence[int],
                          descending: Optional[Sequence[bool]] = None) -> None:
        self._sorted.pop(self._sorted_key(columns, descending), None)

    def find_ordered_index(self, col_desc: Sequence[tuple[int, bool]]
                           ) -> Optional[tuple[SortedIndex, bool]]:
        """An existing sorted index delivering rows in the order described
        by *col_desc* — a ``(column, descending)`` sequence — as a prefix
        of its key, either scanning forward or fully reversed.  Returns
        ``(index, reverse)`` or None.  The planner's sort-elimination pass
        only consults *existing* indexes: building one on demand would be
        the very sort being eliminated."""
        want_cols = tuple(column for column, _ in col_desc)
        want_desc = tuple(bool(desc) for _, desc in col_desc)
        n = len(col_desc)
        for (cols, desc), index in self._sorted.items():
            if cols[:n] != want_cols:
                continue
            if desc[:n] == want_desc:
                return index, False
            if tuple(not d for d in desc[:n]) == want_desc:
                return index, True
        return None

    @staticmethod
    def _sorted_key(columns: Sequence[int],
                    descending: Optional[Sequence[bool]]
                    ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
        cols = tuple(columns)
        if descending is None:
            return cols, (False,) * len(cols)
        return cols, tuple(bool(d) for d in descending)

    def _maintain_sorted(self, added: Sequence[RowVersion]) -> None:
        """Enter newly written versions into every sorted index.  Writes
        only add entries: a delete stamps ``xmax`` on its version, and
        vacuum rebuilds the indexes.

        Each point insert pays an O(n) list shift, so a bulk change
        applied row by row would be quadratic; when the delta is a
        sizeable fraction of the index, one O(n log n) rebuild is cheaper
        and is used instead — and an *unpinned* (lazily auto-created)
        index is simply dropped at that point, deferring the rebuild to
        its next probe, which may never come.
        """
        if not self._sorted or not added:
            return
        dropped: list = []
        for key, index in self._sorted.items():
            if len(added) > max(16, (len(index) + len(added)) // 8):
                if index.pinned:
                    index.rebuild(self._versions)
                else:
                    dropped.append(key)
                continue
            for row in added:
                index.insert(row)
        for key in dropped:
            del self._sorted[key]

    def __len__(self) -> int:
        return self._live
