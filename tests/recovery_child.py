"""Crash-recovery child: commits transactions until the WAL fault fires.

Run as ``python recovery_child.py <wal-path>`` with ``REPRO_FAULTS``
naming a registry point (see repro.faults): ``wal.append:crash:N`` or
``wal.append:torn:N`` (see repro.sql.wal), ``wal.sync:crash:N``, or a
``wal.checkpoint.*`` point.  Prints
``COMMITTED <k>`` after each transaction's COMMIT returns, so the parent
test knows exactly which transactions were acknowledged before the
injected crash killed the process with ``os._exit(1)``.

Each transaction k inserts two rows — ``(k, k*10)`` and
``(k+100, k*10+1)`` — so the parent can also check atomicity: a
transaction must be replayed with both rows or neither.

``REPRO_CHILD_CHECKPOINT=k`` issues a ``CHECKPOINT`` statement right
after transaction k commits (printing ``CHECKPOINTED`` if it returns) —
the hook the parent uses to crash inside the compaction path via the
``wal.checkpoint.*`` fault points.  ``REPRO_CHILD_IMAGE_ROWS=n`` sets
:data:`repro.sql.wal.IMAGE_ROWS`, so the checkpoint writes one table's
rows as several image records.
"""

import os
import sys

from repro.sql import Database, wal


def main() -> None:
    path = sys.argv[1]
    checkpoint_after = int(os.environ.get("REPRO_CHILD_CHECKPOINT", "0"))
    if "REPRO_CHILD_IMAGE_ROWS" in os.environ:
        wal.IMAGE_ROWS = int(os.environ["REPRO_CHILD_IMAGE_ROWS"])
    db = Database(path=path)
    db.execute("CREATE TABLE IF NOT EXISTS t(a int, b int)")
    db.execute("CREATE INDEX IF NOT EXISTS t_b ON t(b)")
    conn = db.connect()
    for k in range(1, 9):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES ($1, $2)", (k, k * 10))
        conn.execute("INSERT INTO t VALUES ($1, $2)", (k + 100, k * 10 + 1))
        conn.execute("COMMIT")
        print(f"COMMITTED {k}", flush=True)
        if k == checkpoint_after:
            db.execute("CHECKPOINT")
            print("CHECKPOINTED", flush=True)
    print("DONE", flush=True)


if __name__ == "__main__":
    main()
