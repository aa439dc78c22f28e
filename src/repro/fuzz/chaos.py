"""Chaos fuzzing: fault injection under the differential oracles.

The chaos axis (``python -m repro.fuzz --chaos``) stresses the paths the
other axes deliberately keep quiet: WAL checkpointing racing a live
workload, injected checkpoint failures, replay after reopen, and wire
delivery under injected latency.  The question it answers is *does a
fault ever corrupt state the engine already acknowledged?*

Each case reuses the regular query-fuzz corpus
(:func:`repro.fuzz.querygen.generate_case`) and drives **twin
databases** through the same workload:

* the *durable* twin lives in a temp directory with a WAL attached, a
  deliberately small ``wal_checkpoint_interval``, extra ``CHECKPOINT``
  statements sprinkled through the data load, and ``error-once`` faults
  armed on random ``wal.checkpoint.*`` points (a failing checkpoint must
  surface as an error — or be swallowed by the auto path — while the old
  log stays authoritative),
* the *memory* twin runs the identical workload with no WAL and no
  faults.

After the workload, the durable twin is closed and **reopened** (a full
replay of whatever mixture of snapshot and suffix the faults left
behind); every table must match the memory twin row-for-row and every
corpus query must agree.  A sampled wire sub-check then serves the
reopened twin behind a live :class:`~repro.server.ServerThread` with a
``delay`` fault armed on ``server.send`` — injected latency may slow
delivery but never change an answer.

All triggers are armed from the case's seeded RNG, so a failing case
replays from its seed exactly like the other axes (``--chaos --index N
--cases 1``).  There is no reducer: the workload is the case's data
load, so the script plus the chaos seed is the reproducer.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Optional

from repro.faults import FAULTS
from repro.server import ServerThread, connect
from repro.server.protocol import render_row
from repro.sql import Database
from repro.sql.profiler import (FUZZ_CASES, FUZZ_COMPARISONS,
                                FUZZ_DISCREPANCIES, FUZZ_EXECUTIONS,
                                Profiler)

from .oracle import rows_equal, run_statement
from .querygen import Case
from .wire import wire_outcome

#: Everywhere a checkpoint can fail; ``error-once`` on any of them must
#: leave the live log authoritative and the manager appendable.
CHECKPOINT_POINTS = (
    "wal.checkpoint.start",
    "wal.checkpoint.write",
    "wal.checkpoint.fsync",
    "wal.checkpoint.rename",
    "wal.checkpoint.reopen",
)


@dataclass
class ChaosDiscrepancy:
    """One broken invariant under fault injection."""

    kind: str            # 'workload' | 'checkpoint' | 'reopen' | 'query' | 'wire'
    case: Case
    sql: str
    detail: str

    def describe(self) -> str:
        return (f"[chaos/{self.kind}] case seed {self.case.seed}\n"
                f"  sql: {self.sql}\n"
                f"  {self.detail}")


def _workload(case: Case) -> list[tuple[str, tuple]]:
    """The DML stream both twins execute: the case's data load plus a
    few deterministic mutations over its int columns."""
    statements: list[tuple[str, tuple]] = []
    for table in case.schema.tables:
        holes = ", ".join(f"${i + 1}" for i in range(len(table.columns)))
        insert = f"INSERT INTO {table.name} VALUES ({holes})"
        for row in case.data.get(table.name, []):
            statements.append((insert, row))
    for table in case.schema.tables:
        ints = table.columns_of_dtype("int")
        if not ints:
            continue
        col = ints[0].name
        statements.append((f"UPDATE {table.name} SET {col} = {col} + 1 "
                           f"WHERE {col} % 2 = 0", ()))
        statements.append((f"DELETE FROM {table.name} "
                           f"WHERE {col} % 5 = 3", ()))
    return statements


def check_chaos_case(case: Case, *, profiler: Optional[Profiler] = None
                     ) -> list[ChaosDiscrepancy]:
    """Run one case's workload on durable-with-faults vs memory twins."""
    profiler = profiler if profiler is not None else Profiler()
    profiler.bump(FUZZ_CASES)
    rng = random.Random(case.seed ^ 0x5EED)
    discrepancies: list[ChaosDiscrepancy] = []

    def report(kind: str, sql: str, detail: str) -> None:
        profiler.bump(FUZZ_DISCREPANCIES)
        discrepancies.append(ChaosDiscrepancy(
            kind=kind, case=case, sql=sql, detail=detail))

    tmpdir = tempfile.mkdtemp(prefix="repro-chaos-")
    path = os.path.join(tmpdir, "chaos.wal")
    durable: Optional[Database] = None
    try:
        durable = Database(seed=0, profile=False, path=path)
        memory = Database(seed=0, profile=False)
        # Small interval: the auto-checkpoint path fires mid-workload.
        durable.execute(
            f"SET wal_checkpoint_interval = {rng.choice([7, 19, 53])}")
        for statement in case.setup_statements():
            durable.execute(statement)
            memory.execute(statement)
        for fn in case.functions:
            durable.execute(fn.source)
            memory.execute(fn.source)

        for sql, params in _workload(case):
            a = run_statement(durable, sql, params)
            b = run_statement(memory, sql, params)
            profiler.bump(FUZZ_EXECUTIONS, 2)
            profiler.bump(FUZZ_COMPARISONS)
            if (a.status, a.error) != (b.status, b.error):
                report("workload", sql,
                       f"durable: {a.describe()}\n  memory:  {b.describe()}")
            if rng.random() < 0.15:
                armed = rng.random() < 0.5
                if armed:
                    FAULTS.arm(rng.choice(CHECKPOINT_POINTS), "error-once",
                               at=rng.randint(1, 8))
                outcome = run_statement(durable, "CHECKPOINT")
                FAULTS.disarm()  # drop any unspent trigger
                if outcome.status == "error" and not armed:
                    report("checkpoint", "CHECKPOINT",
                           f"unexpected failure: {outcome.describe()}")

        # Close and reopen: replay whatever snapshot/suffix mixture the
        # injected checkpoint failures left behind.
        durable.wal.close()
        durable = Database(seed=0, profile=False, path=path)
        for table in case.schema.tables:
            sql = f"SELECT * FROM {table.name}"
            a = run_statement(durable, sql)
            b = run_statement(memory, sql)
            profiler.bump(FUZZ_EXECUTIONS, 2)
            profiler.bump(FUZZ_COMPARISONS)
            if a.status != "ok" or b.status != "ok" or \
                    not rows_equal(a.rows, b.rows):
                report("reopen", sql,
                       f"replayed: {a.describe()}\n"
                       f"  memory:   {b.describe()}")

        # The corpus queries must agree on the replayed state (compiled
        # twins are skipped: programmatic registrations are not logged;
        # so are plan-dependent queries, Query.per_config: a replayed
        # heap may hold its rows in another order, and a drawing query
        # draws in scan order).
        queries = [(q, q.variants({})[0][2])
                   for q in case.queries if not q.per_config]
        replayed = []
        for query, sql in queries:
            a = run_statement(durable, sql)
            replayed.append((sql, a))
            b = run_statement(memory, sql)
            profiler.bump(FUZZ_EXECUTIONS, 2)
            profiler.bump(FUZZ_COMPARISONS)
            if a.status != b.status or (
                    a.status == "error" and a.error != b.error):
                report("query", sql,
                       f"replayed: {a.describe()}\n"
                       f"  memory:   {b.describe()}")
            elif a.status == "ok" and not rows_equal(
                    a.rows, b.rows, ordered=query.order == "total"):
                report("query", sql,
                       f"replayed: {a.describe()}\n"
                       f"  memory:   {b.describe()}")

        # Sampled wire sub-check: serve the replayed twin with injected
        # send latency; delays must never change an answer.  The wire is
        # held to the replayed twin's own embedded answer: rows that tie
        # under a "total" ORDER BY (0.0 and -0.0) come in heap order,
        # which the memory twin need not share, and once rendered to text
        # they no longer compare as equal numbers.
        if queries and rng.random() < 0.3:
            FAULTS.arm("server.send", "delay", at=rng.randint(1, 6),
                       delay_s=rng.choice([0.001, 0.005, 0.02]))
            try:
                with ServerThread(durable, workers=2) as address:
                    with connect(*address) as client:
                        for (query, _), (sql, emb) in zip(queries[:3],
                                                          replayed):
                            wire = wire_outcome(client, sql)
                            profiler.bump(FUZZ_EXECUTIONS)
                            profiler.bump(FUZZ_COMPARISONS)
                            if emb.status != wire.status:
                                report("wire", sql,
                                       f"embedded: {emb.describe()}\n"
                                       f"  wire:     {wire.describe()}")
                            elif emb.status == "ok" and not rows_equal(
                                    [render_row(r) for r in emb.rows],
                                    wire.rows,
                                    ordered=query.order == "total"):
                                report("wire", sql,
                                       f"embedded: {emb.describe()}\n"
                                       f"  wire:     {wire.describe()}")
            finally:
                FAULTS.disarm()
    finally:
        FAULTS.disarm()
        if durable is not None and durable.wal is not None:
            durable.wal.close()
        shutil.rmtree(tmpdir, ignore_errors=True)
    return discrepancies
