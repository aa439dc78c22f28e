"""Write-ahead log: fsync-on-commit durability and replay-on-open.

``Database(path=...)`` attaches a :class:`WalManager`.  Transactions
buffer their log records in memory (``Transaction.wal_buf``); nothing
touches the file until COMMIT, which appends every buffered record plus
a commit marker, flushes, and ``fsync``\\ s — so the log never contains a
half-transaction followed by its commit marker, and rollback is free
(the buffer is simply discarded).

Record format: one JSON object per line (a torn tail line from a crash
mid-write is detected and ignored during replay).

* ``{"t": "ins", "x": xid, "tb": table, "r": rid, "v": [values...]}``
* ``{"t": "del", "x": xid, "tb": table, "r": rid}``
* ``{"t": "ddl", "x": xid, "op": [opname, ...args]}``
* ``{"t": "commit", "x": xid}``

Row identity across the log is the per-table monotonic ``rid`` stamped
on every :class:`~repro.sql.txn.RowVersion` — an UPDATE logs a ``del``
of the old rid plus an ``ins`` of the new one.  Values are JSON with two
tagged containers (``{"R": [...]}`` for composite
:class:`~repro.sql.values.Row` values, ``{"L": [...]}`` for arrays);
everything else (NULL, bool, int, float including NaN/Infinity, text)
round-trips natively.

Replay (:meth:`WalManager.replay`) makes two passes: collect the xids
with a commit marker, then apply only their records in log order.  DDL
operations are applied structurally against the catalog; ``ins``/``del``
records fold into per-table ``rid -> row`` maps that bulk-load at the
end, so sorted and hash indexes — including ones a replayed
``CREATE INDEX`` declared — are rebuilt consistently by the ordinary
``insert_many`` maintenance path.

Checkpointing (:meth:`WalManager.checkpoint`) keeps replay O(live data):
it serializes the committed state — catalog DDL plus every visible row,
under the frozen pseudo-xid with one commit marker — into a temp file,
fsyncs it, and atomically renames it over the live log.  The snapshot is
an ordinary log prefix, so replay needs no special cases; a crash at any
step leaves either the complete old log or the complete new one (the
fault points ``wal.checkpoint.*`` let the recovery suite prove that).
Checkpoints run only while no write transaction is in flight — DDL and
row versions of an uncommitted transaction are already applied to the
in-memory catalog/heap, and a snapshot taken mid-flight would promote
them to committed.  The ``CHECKPOINT`` statement triggers one on demand;
``wal_checkpoint_interval`` auto-triggers after that many appended
records, deferring while transactions are open.  Compiled functions
registered programmatically (``register_compiled_function``) are not
logged or checkpointed — they live in Python objects, not SQL text — and
must be re-registered after a durable reopen.

Fault injection: the ``wal.append`` and ``wal.checkpoint.*`` points of
:data:`repro.faults.FAULTS` cover this module.  On ``wal.append``, crash
hard-exits right after appending the N-th record; torn writes half of
the N-th record with no newline, then hard-exits.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from ..faults import FAULTS, FaultInjectedError
from .profiler import WAL_CHECKPOINTS, WAL_RECORDS, WAL_REPLAYED
from .values import Row, Value

#: Pseudo-xid for checkpoint snapshot records: FROZEN_XID — replayed rows
#: bulk-load outside any transaction and freeze anyway, and no real
#: transaction ever takes xid 1, so its commit marker cannot collide.
CHECKPOINT_XID = 1


def encode_value(value: Value):
    """JSON-encodable form of one SQL value (tags Row and array)."""
    if isinstance(value, Row):
        encoded = {"R": [encode_value(v) for v in value.values]}
        if value.names is not None:
            encoded["n"] = list(value.names)
        if value.type_name is not None:
            encoded["tn"] = value.type_name
        return encoded
    if isinstance(value, list):
        return {"L": [encode_value(v) for v in value]}
    return value


def decode_value(value) -> Value:
    if isinstance(value, dict):
        if "R" in value:
            return Row(tuple(decode_value(v) for v in value["R"]),
                       names=value.get("n"), type_name=value.get("tn"))
        return [decode_value(v) for v in value["L"]]
    return value


def _dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


class WalManager:
    """Owns one log file: append path for commits, replay path for open."""

    def __init__(self, db, path: str):
        self.db = db
        self.path = path
        self.profiler = db.profiler
        #: Records appended since the last checkpoint (or since open,
        #: seeded with the replayed backlog so a long-lived log compacts
        #: on the first eligible commit after reopening).
        self._since_checkpoint = 0
        #: Set when an auto-checkpoint failed (the commit that triggered
        #: it still succeeded; the old log stays authoritative).
        self.last_checkpoint_error: Optional[Exception] = None
        tmp = path + ".ckpt"
        if os.path.exists(tmp):
            # A crash mid-checkpoint left a partial snapshot behind; the
            # live log is still authoritative.
            os.remove(tmp)
        if os.path.exists(path):
            replayed = self.replay()
            if replayed and self.profiler is not None:
                self.profiler.bump(WAL_REPLAYED, replayed)
            self._since_checkpoint = replayed
        self._fh = open(path, "a", encoding="utf-8")

    # -- record builders (storage calls these while buffering) ---------

    def insert_record(self, xid: int, table: str, rid: int, data) -> dict:
        return {"t": "ins", "x": xid, "tb": table, "r": rid,
                "v": [encode_value(v) for v in data]}

    def delete_record(self, xid: int, table: str, rid: int) -> dict:
        return {"t": "del", "x": xid, "tb": table, "r": rid}

    # -- commit path ---------------------------------------------------

    def commit(self, xid: int, records: list) -> None:
        """Append *records* plus the commit marker; flush and fsync.

        The commit marker is what makes the transaction durable: replay
        ignores any records whose xid never reached its marker.
        """
        for record in records:
            self._append(_dumps(record))
        self._append(_dumps({"t": "commit", "x": xid}))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if self.profiler is not None:
            self.profiler.bump(WAL_RECORDS, len(records) + 1)

    def _append(self, line: str) -> None:
        trigger = FAULTS.check("wal.append", self.profiler)
        if trigger is not None and trigger.kind == "torn":
            self._fh.write(line[:max(1, len(line) // 2)])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            os._exit(1)
        if trigger is not None and trigger.kind == "delay":
            time.sleep(trigger.delay_s)
        elif trigger is not None and trigger.kind == "error-once":
            raise FaultInjectedError("wal.append")
        self._fh.write(line + "\n")
        self._since_checkpoint += 1
        if trigger is not None and trigger.kind == "crash":
            self._fh.flush()
            os.fsync(self._fh.fileno())
            os._exit(1)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- checkpointing -------------------------------------------------

    def snapshot_records(self) -> list[str]:
        """Serialize the committed state as an ordinary log prefix.

        DDL first (types before functions, tables before their rows and
        indexes), then every row version visible to a fresh snapshot
        (keeping its real rid, so records appended later keep naming the
        rows they touch), then one commit marker for the pseudo-xid.
        Caller must ensure no write transaction is in flight.
        """
        db = self.db
        catalog = db.catalog
        x = CHECKPOINT_XID
        lines: list[str] = []

        def ddl(op: list) -> None:
            lines.append(_dumps({"t": "ddl", "x": x, "op": op}))

        for ctype in catalog.composite_types.values():
            ddl(["create_type", ctype.name, list(ctype.field_names),
                 list(ctype.field_types)])
        for fdef in catalog.functions.values():
            if fdef.kind in ("sql", "plpgsql"):
                ddl(["create_function",
                     {"name": fdef.name, "kind": fdef.kind,
                      "params": list(fdef.param_names),
                      "types": list(fdef.param_types),
                      "ret": fdef.return_type, "body": fdef.body,
                      "volatility": fdef.declared_volatility}])
        snapshot = db.txnman.instant_snapshot()
        for table in catalog.tables.values():
            ddl(["create_table", table.name, list(table.column_names),
                 list(table.column_types)])
            for version in table._versions:
                if snapshot.visible(version):
                    lines.append(_dumps(self.insert_record(
                        x, table.name, version.rid, version.data)))
        for index_def in catalog.indexes.values():
            ddl(["create_index", index_def.name, index_def.table,
                 [[name, bool(desc)] for name, desc
                  in zip(index_def.column_names, index_def.descending)]])
        lines.append(_dumps({"t": "commit", "x": x}))
        return lines

    def checkpoint(self) -> int:
        """Compact the log to a snapshot prefix; returns records written.

        Crash-safe at every step: the snapshot goes to a temp file that
        is fsynced before an atomic rename replaces the live log, so a
        crash leaves either the old complete log (before the rename) or
        the new complete one (after) — never a mixture.  Must run under
        the execution lock with no write transaction in flight (the
        dispatch layer guarantees both).
        """
        profiler = self.profiler
        FAULTS.fire("wal.checkpoint.start", profiler)
        lines = self.snapshot_records()
        tmp = self.path + ".ckpt"
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                FAULTS.fire("wal.checkpoint.write", profiler)
                fh.write(line + "\n")
            FAULTS.fire("wal.checkpoint.fsync", profiler)
            fh.flush()
            os.fsync(fh.fileno())
        FAULTS.fire("wal.checkpoint.rename", profiler)
        # Everything appended so far must be on disk in the *old* log
        # before it stops being the recovery source.
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        try:
            os.rename(tmp, self.path)
            FAULTS.fire("wal.checkpoint.reopen", profiler)
        finally:
            # Reopen whichever file now lives at the path — the new log
            # after a successful rename, the old one if it failed — so
            # an injected error leaves the manager appendable.
            self._fh = open(self.path, "a", encoding="utf-8")
        self._since_checkpoint = 0
        if profiler is not None:
            profiler.bump(WAL_CHECKPOINTS)
        return len(lines)

    def maybe_checkpoint(self) -> bool:
        """Auto-checkpoint once the appended-record threshold is crossed.

        Runs only when nothing is in flight (no active write xids, no
        current statement transaction) — otherwise it stays pending and
        the next eligible commit retries.  A failing checkpoint never
        fails the commit that triggered it: the old log is still intact
        and authoritative, so the error is recorded and swallowed.
        """
        interval = self.db.settings.active.wal_checkpoint_interval
        if not interval or self._since_checkpoint < interval:
            return False
        txnman = self.db.txnman
        if txnman.active_xids or txnman.current is not None:
            return False
        try:
            self.checkpoint()
        except Exception as error:  # noqa: BLE001 — commit must survive
            self.last_checkpoint_error = error
            return False
        return True

    # -- replay --------------------------------------------------------

    def replay(self) -> int:
        """Rebuild the database state from the log; returns the number of
        records applied (committed-transaction records plus markers)."""
        records = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.endswith("\n"):
                    break  # torn tail: the crash interrupted this write
                try:
                    records.append(json.loads(line))
                except ValueError:
                    break  # corrupt tail line; nothing after it counts
        committed = {r["x"] for r in records if r.get("t") == "commit"}
        heaps: dict[str, dict[int, tuple]] = {}
        # Highest rid mentioned per table — committed or not: versions
        # appended after this reopen must not reuse a logged rid, or a
        # later replay would fold two generations' rows together.
        max_rid: dict[str, int] = {}
        for record in records:
            if record.get("t") in ("ins", "del"):
                name, rid = record["tb"], record["r"]
                if rid > max_rid.get(name, 0):
                    max_rid[name] = rid
        applied = 0
        for record in records:
            kind = record.get("t")
            if kind == "commit":
                if record["x"] in committed:
                    applied += 1
                continue
            if record.get("x") not in committed:
                continue
            applied += 1
            if kind == "ins":
                heaps.setdefault(record["tb"], {})[record["r"]] = tuple(
                    decode_value(v) for v in record["v"])
            elif kind == "del":
                heaps.get(record["tb"], {}).pop(record["r"], None)
            elif kind == "ddl":
                self._apply_ddl(record["op"], heaps)
        for name, rows in heaps.items():
            table = self.db.catalog.tables.get(name)
            if table is not None and rows:
                # No transaction is current: the bulk load freezes, and
                # insert_many maintains every index the DDL pass declared.
                table.insert_many(list(rows.values()))
                # Restore each row's logged rid (insert_many assigned
                # fresh ones): delete records appended after this reopen
                # must keep naming the rows they actually touched.
                for version, rid in zip(table._versions[-len(rows):],
                                        rows.keys()):
                    version.rid = rid
        for name, top in max_rid.items():
            table = self.db.catalog.tables.get(name)
            if table is not None and table._rid_counter < top:
                table._rid_counter = top
        self.db.clear_plan_cache()
        return applied

    def _apply_ddl(self, op: list, heaps: dict) -> None:
        catalog = self.db.catalog
        kind = op[0]
        if kind == "create_table":
            catalog.create_table(op[1], op[2], op[3], if_not_exists=True)
        elif kind == "drop_table":
            catalog.drop_table(op[1], if_exists=True)
            heaps.pop(op[1], None)
        elif kind == "create_index":
            catalog.create_index(op[1], op[2],
                                 [(c, bool(d)) for c, d in op[3]],
                                 if_not_exists=True)
        elif kind == "drop_index":
            catalog.drop_index(op[1], if_exists=True)
        elif kind == "create_type":
            if catalog.get_type(op[1]) is None:
                catalog.create_type(op[1], op[2], op[3])
        elif kind == "create_function":
            from .catalog import FunctionDef
            spec = op[1]
            catalog.register_function(
                FunctionDef(name=spec["name"], kind=spec["kind"],
                            param_names=list(spec["params"]),
                            param_types=list(spec["types"]),
                            return_type=spec["ret"], body=spec["body"],
                            # .get(): logs written before volatility
                            # tracking replay fine without it
                            declared_volatility=spec.get("volatility")),
                replace=True)
        elif kind == "drop_function":
            catalog.drop_function(op[1], if_exists=True)
