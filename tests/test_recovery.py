"""Crash recovery: kill a child mid-WAL-write, reopen, check the prefix.

The child (``recovery_child.py``) opens a durable database, creates a
table plus a declared index, then commits transactions of two rows each,
printing ``COMMITTED k`` as each COMMIT returns.
``REPRO_FAULTS=wal.append:crash:N`` (or ``torn``) makes the WAL layer
hard-exit (``os._exit``) while appending its N-th record — before, on, or
after a commit marker depending on N.

The parent reopens the log and checks the recovery contract:

* every acknowledged transaction is fully there (durability),
* at most the single in-flight transaction beyond the acknowledged
  prefix may appear, and only if its commit marker made it to disk —
  and then with *both* rows (atomicity: never a torn half-transaction),
* the declared index was rebuilt by replay and agrees with a forced
  sequential scan.

Record layout, for choosing interesting fault points: CREATE TABLE is
records 1-2 (ddl + commit), CREATE INDEX records 3-4, then transaction
k occupies records ``5+3(k-1) .. 7+3(k-1)`` (ins, ins, commit).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.sql import Database

CHILD = os.path.join(os.path.dirname(__file__), "recovery_child.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_child(path: str, faults: str,
              checkpoint_after: int = 0) -> list[int]:
    """Run the child under *faults* (a ``REPRO_FAULTS=point:kind:N``
    registry spec); return the acknowledged ks."""
    env = dict(os.environ)
    env["REPRO_FAULTS"] = faults
    if checkpoint_after:
        env["REPRO_CHILD_CHECKPOINT"] = str(checkpoint_after)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    proc = subprocess.run([sys.executable, CHILD, path],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 1, (
        f"child should die via os._exit(1), got {proc.returncode}: "
        f"{proc.stderr}")
    return [int(line.split()[1]) for line in proc.stdout.splitlines()
            if line.startswith("COMMITTED")]


def check_recovered(path: str, acked: list[int]) -> None:
    db = Database(path=path)
    rows = sorted(db.execute("SELECT a, b FROM t").rows) \
        if db.catalog.has_table("t") else []
    present = sorted({a for a, _ in rows if a < 100})
    # Durability: every acknowledged transaction survived.
    for k in acked:
        assert k in present, f"acked txn {k} lost; recovered {rows}"
    # Prefix: anything extra is exactly the next (in-flight) transaction.
    extra = [k for k in present if k not in acked]
    assert extra in ([], [max(acked) + 1 if acked else 1]), (
        f"recovered non-prefix transactions {extra} (acked {acked})")
    # Atomicity: each recovered transaction has both of its rows.
    for k in present:
        assert (k, k * 10) in rows
        assert (k + 100, k * 10 + 1) in rows
    assert len(rows) == 2 * len(present)
    # Index consistency: if the CREATE INDEX survived, replay rebuilt it
    # and it agrees with a forced sequential scan.
    if "t_b" in db.catalog.indexes:
        query = "SELECT a, b FROM t WHERE b >= 0 ORDER BY b"
        assert "IndexRangeScan" in db.explain(query)
        fast = db.execute(query).rows
        db.execute("SET enable_rangescan = off")
        db.execute("SET enable_sort_elim = off")
        assert fast == db.execute(query).rows
    db.wal.close()


@pytest.mark.parametrize("fault", [
    "crash:3",    # mid CREATE INDEX commit: DDL prefix only
    "crash:7",    # exactly on txn 1's commit marker: durable, unacked
    "crash:12",   # mid txn 3 (after its 2nd ins, before the marker)
    "torn:5",     # txn 1's first insert record torn in half
    "torn:9",     # txn 2's second insert record torn
    "crash:19",   # on txn 5's commit marker
    "torn:22",    # txn 6's second insert torn
])
def test_kill_and_recover(tmp_path, fault):
    path = str(tmp_path / "crash.wal")
    acked = run_child(path, f"wal.append:{fault}")
    check_recovered(path, acked)


def test_unfaulted_child_then_recover(tmp_path):
    """No fault: all 8 transactions acknowledged and recovered."""
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    path = str(tmp_path / "clean.wal")
    proc = subprocess.run([sys.executable, CHILD, path],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "DONE" in proc.stdout
    db = Database(path=path)
    assert db.execute("SELECT count(a) FROM t").scalar() == 16
    assert db.execute("SELECT sum(b) FROM t WHERE a < 100").scalar() == \
        sum(k * 10 for k in range(1, 9))
    db.wal.close()


# ---------------------------------------------------------------------------
# Crashes inside the checkpoint path (wal.checkpoint.* fault points)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("faults", [
    "wal.checkpoint.start:crash:1",    # before the snapshot scan
    "wal.checkpoint.write:crash:1",    # empty temp file left behind
    "wal.checkpoint.write:crash:5",    # partial temp file left behind
    "wal.checkpoint.fsync:crash:1",    # complete but un-fsynced temp file
    "wal.checkpoint.rename:crash:1",   # complete temp file, old log live
    "wal.checkpoint.reopen:crash:1",   # rename done: snapshot is the log
])
def test_crash_during_checkpoint_recovers(tmp_path, faults):
    """A crash at any step of CHECKPOINT leaves either the complete old
    log or the complete new snapshot — recovery sees every acknowledged
    transaction either way, and a leftover ``.ckpt`` temp file never
    shadows the live log."""
    path = str(tmp_path / "ckpt.wal")
    acked = run_child(path, faults, checkpoint_after=4)
    assert acked == [1, 2, 3, 4]  # died inside the checkpoint, after 4
    check_recovered(path, acked)
    assert not os.path.exists(path + ".ckpt")  # reopen cleaned it up


def test_crash_after_checkpoint_keeps_compacting_log(tmp_path):
    """Checkpoint completes, later append crashes: replay goes through
    the snapshot prefix plus the post-checkpoint suffix."""
    path = str(tmp_path / "after.wal")
    # The fault counts appends, and the snapshot writes bypass _append:
    # DDL is records 1-4, txns 1-5 are 5-19, so 20 is txn 6's first
    # insert — appended to the compacted log the checkpoint left behind.
    acked = run_child(path, "wal.append:crash:20", checkpoint_after=4)
    assert acked == [1, 2, 3, 4, 5]
    check_recovered(path, acked)


def test_checkpointed_child_then_recover(tmp_path):
    """No fault: CHECKPOINT mid-run compacts and all 8 transactions
    survive a reopen (the snapshot is an ordinary replayable prefix)."""
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["REPRO_CHILD_CHECKPOINT"] = "4"
    env["PYTHONPATH"] = os.path.abspath(SRC)
    path = str(tmp_path / "ckpt-clean.wal")
    proc = subprocess.run([sys.executable, CHILD, path],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "CHECKPOINTED" in proc.stdout
    check_recovered(path, list(range(1, 9)))


def test_double_crash_recovery(tmp_path):
    """Crash, recover, crash again later, recover again: the log keeps
    accumulating and both committed prefixes survive."""
    path = str(tmp_path / "double.wal")
    acked1 = run_child(path, "wal.append:crash:12")
    # Run 2 replays first, so its own appends start at record 1 again
    # (DDL is IF NOT EXISTS and logs nothing): txn k = records 3k-2..3k.
    acked2 = run_child(path, "wal.append:crash:20")
    db = Database(path=path)
    rows = db.execute("SELECT a, b FROM t").rows
    firsts = [a for a, _ in rows if a < 100]
    for k in acked1 + acked2:
        assert k in firsts
    assert len(rows) == 2 * len(firsts)
    db.wal.close()
