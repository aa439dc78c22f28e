"""The server side: build a workload's durable database and serve it.

Run as a child process by ``run.py`` (never by hand)::

    python serve.py serve  <workload> <seed> <wal-path>
    python serve.py reopen <wal-path> <table>[,<table>...]

``serve`` builds the database, loads the workload's data, compiles and
registers its UDFs, starts :class:`repro.server.SqlServer` with two
workers on an ephemeral port and prints one JSON line naming the port.
It then answers ``stats`` lines on stdin with a JSON line each until
stdin closes or it is killed; the parent always ends it with SIGKILL, so
nothing here runs at exit.

``reopen`` opens an existing WAL in a fresh process, times the replay and
dumps the named tables: the second half of the durability check.  (The
traced run, whose server was this process all along, calls
:func:`reopen` directly.)

:class:`FsyncLedger` is the first half.  It stands in for ``os.fsync``
and notes, per inode, the file size at each call: the bytes the program
has actually asked the device to keep.  A kill leaves the operating
system's cache intact, so after the kill the parent cuts the WAL back to
the noted size itself (:func:`crash_image`) before reopening it.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, os.pardir, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("benchmarks/e2e needs the engine under src/repro; not found")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

WORKERS = 2


class FsyncLedger:
    """``os.fsync`` replacement recording ``inode -> size at last fsync``."""

    def __init__(self):
        self.sizes: dict[int, int] = {}
        self._fsync = os.fsync

    def __call__(self, fd) -> None:
        self._fsync(fd)
        status = os.fstat(fd)
        self.sizes[status.st_ino] = status.st_size

    def install(self) -> "FsyncLedger":
        os.fsync = self
        return self

    def uninstall(self) -> None:
        os.fsync = self._fsync

    def flushed_size(self, path: str) -> int:
        """Bytes of the file now at *path* that an fsync has covered."""
        return self.sizes.get(os.stat(path).st_ino, 0)


def crash_image(wal_path: str, flushed_size: int) -> None:
    """Discard what a power cut would: everything past the last fsync."""
    with open(wal_path, "r+b") as fh:
        fh.truncate(flushed_size)
    leftover = wal_path + ".ckpt"
    if os.path.exists(leftover):
        os.remove(leftover)


def build_database(spec, seed: int, wal_path: str, profile: bool):
    """A durable database holding *spec*'s data; returns ``(db, facts)``.

    fsync-on-commit is the engine's only flush policy; the CHECKPOINT at
    the end writes the bulk-loaded rows into the log, so a reopen finds
    them."""
    from repro.sql import Database
    db = Database(profile=profile, path=wal_path)
    db.wal_checkpoint_interval = spec.checkpoint_interval
    facts = spec.load(db, seed)
    db.execute("CHECKPOINT")
    return db, facts


def serve(workload: str, seed: int, wal_path: str) -> None:
    from repro.server import ServerThread
    from streams import SPECS
    ledger = FsyncLedger().install()
    db, _facts = build_database(SPECS[workload](), seed, wal_path,
                                profile=False)
    server = ServerThread(db, workers=WORKERS).start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    for line in sys.stdin:
        if line.strip() == "stats":
            print(json.dumps({"flushed_size": ledger.flushed_size(wal_path)}),
                  flush=True)


def reopen(wal_path: str, tables: list[str]) -> dict:
    """Open the log at *wal_path*; how long the replay took, how many
    records it applied and what *tables* hold afterwards."""
    from repro.sql import Database
    from repro.sql.profiler import WAL_REPLAYED
    started = time.perf_counter()
    db = Database(path=wal_path)
    open_s = time.perf_counter() - started
    found = {"open_s": open_s,
             "replayed": db.profiler.counts.get(WAL_REPLAYED, 0),
             "tables": {t: db.execute(f"SELECT * FROM {t}").rows
                        for t in tables}}
    db.wal.close()
    return found


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    elif sys.argv[1] == "reopen":
        print(json.dumps(reopen(sys.argv[2], sys.argv[3].split(","))),
              flush=True)
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
