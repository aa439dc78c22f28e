"""Multi-session transaction workload generation.

A :class:`TxnCase` is an interleaved script over 2-4 sessions exercising
BEGIN / COMMIT / ROLLBACK / SAVEPOINT / ROLLBACK TO / RELEASE around
plain literal DML.  Generation is shaped so the *expected* outcome of
every step is decidable without executing anything:

* each session writes a **dedicated** table, so interleavings can never
  conflict by accident — per table there is one writer, and committed-
  state equality against a serial replay (in commit order) holds by
  construction,
* write-write conflicts are injected only as **guaranteed-to-fail
  probes** against one shared table: a "winner" session updates a row
  inside an open block, and while that block stays open another session
  probes the same row — first-writer-wins must raise
  ``SerializationError`` every time,
* all values are small integer literals, so the same statements replay
  verbatim on SQLite for the dialect cross-check.

Everything is a pure function of ``random.Random``: the same
``(run seed, index)`` regenerates the identical script.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .querygen import case_seed

#: Step expectations the oracle asserts.
OK = "ok"
CONFLICT = "conflict"


@dataclass(frozen=True)
class TxnStep:
    """One scheduled statement: which session runs what, expecting what."""

    session: int
    sql: str
    expect: str = OK     # 'ok' | 'conflict' (SerializationError)


@dataclass
class TxnCase:
    """One multi-session transaction fuzz case."""

    seed: int
    sessions: int
    tables: list[str]            # dedicated tables, one per session
    shared: str | None           # the conflict-probe table (may be absent)
    setup: list[str] = field(default_factory=list)
    steps: list[TxnStep] = field(default_factory=list)

    def all_tables(self) -> list[str]:
        return self.tables + ([self.shared] if self.shared else [])

    def script(self) -> str:
        """Human-readable dump (``--txn --dump``)."""
        out = [f"-- txn case seed {self.seed}: {self.sessions} sessions"]
        out += [f"{sql};" for sql in self.setup]
        for step in self.steps:
            note = "  -- expect SerializationError" \
                if step.expect == CONFLICT else ""
            out.append(f"/*s{step.session}*/ {step.sql};{note}")
        return "\n".join(out) + "\n"


class _SessionState:
    """Generator-side mirror of one session's transaction state."""

    __slots__ = ("in_txn", "savepoints", "snap_fresh", "did_winner",
                 "winner_sp_len")

    def __init__(self):
        self.in_txn = False
        self.savepoints: list[str] = []
        #: True while the session's snapshot (not yet captured, or
        #: captured after the last shared-table commit) is current
        #: enough to safely take the winner role.
        self.snap_fresh = True
        self.did_winner = False
        #: Savepoint-stack depth when the winner update was emitted: a
        #: ROLLBACK TO anything shallower undoes the update (and its
        #: xmax stamp), releasing the row.
        self.winner_sp_len = 0


def generate_txn_case(run_seed: int, index: int) -> TxnCase:
    """Generate transaction fuzz case *index* of the run *run_seed*."""
    seed = case_seed(run_seed, index) ^ 0x7A7A7A
    rng = random.Random(seed)
    sessions = rng.randint(2, 4)
    tables = [f"w{i}" for i in range(sessions)]
    shared = "shared" if rng.random() < 0.8 else None
    case = TxnCase(seed=seed, sessions=sessions, tables=tables,
                   shared=shared)

    keys = list(range(rng.randint(3, 6)))
    for table in tables:
        case.setup.append(f"CREATE TABLE {table}(k int, v int)")
        values = ", ".join(f"({k}, {rng.randint(0, 9)})" for k in keys)
        case.setup.append(f"INSERT INTO {table} VALUES {values}")
    if shared:
        case.setup.append(f"CREATE TABLE {shared}(k int, v int)")
        values = ", ".join(f"({k}, {rng.randint(0, 9)})" for k in keys)
        case.setup.append(f"INSERT INTO {shared} VALUES {values}")

    states = [_SessionState() for _ in range(sessions)]
    #: Which session holds an uncommitted winner update, and on what key.
    lock_holder: int | None = None
    lock_key = 0
    next_value = 100   # distinct literals, so UPDATEs are observable

    def emit(session: int, sql: str, expect: str = OK) -> None:
        case.steps.append(TxnStep(session, sql, expect))

    def own_dml(session: int) -> str:
        nonlocal next_value
        table = tables[session]
        key = rng.choice(keys)
        next_value += 1
        roll = rng.random()
        if roll < 0.45:
            return f"INSERT INTO {table} VALUES ({key}, {next_value})"
        if roll < 0.8:
            return (f"UPDATE {table} SET v = {next_value} "
                    f"WHERE k = {key}")
        return f"DELETE FROM {table} WHERE k = {key} AND v < {next_value}"

    def finish(session: int, commit: bool) -> None:
        nonlocal lock_holder
        state = states[session]
        emit(session, "COMMIT" if commit else "ROLLBACK")
        if lock_holder == session:
            lock_holder = None
            if commit:
                # A new shared-table version landed: every other open
                # block's snapshot predates it, so none of them may take
                # the winner role until they finish.
                for other in states:
                    if other.in_txn and other is not state:
                        other.snap_fresh = False
        state.in_txn = False
        state.savepoints = []
        state.snap_fresh = True
        state.did_winner = False

    for _ in range(rng.randint(12, 32)):
        session = rng.randrange(sessions)
        state = states[session]
        if not state.in_txn:
            roll = rng.random()
            if roll < 0.55:
                emit(session, "BEGIN")
                state.in_txn = True
            elif roll < 0.9:
                emit(session, own_dml(session))
            elif shared and lock_holder is not None \
                    and lock_holder != session:
                # Autocommit probe against the held row: guaranteed loss.
                emit(session,
                     f"UPDATE {shared} SET v = v + 1 WHERE k = {lock_key}",
                     expect=CONFLICT)
            continue
        # Inside a block.
        roll = rng.random()
        if roll < 0.35:
            emit(session, own_dml(session))
        elif roll < 0.45:
            name = f"sp{len(state.savepoints)}"
            emit(session, f"SAVEPOINT {name}")
            state.savepoints.append(name)
        elif roll < 0.55 and state.savepoints:
            pick = rng.randrange(len(state.savepoints))
            name = state.savepoints[pick]
            if rng.random() < 0.5:
                emit(session, f"ROLLBACK TO {name}")
                # The target survives, later ones are destroyed.
                state.savepoints = state.savepoints[:pick + 1]
                if lock_holder == session \
                        and len(state.savepoints) <= state.winner_sp_len:
                    # The winner update was just undone: its xmax stamp
                    # is restored to None, so the row is probe-safe no
                    # more.
                    lock_holder = None
            else:
                emit(session, f"RELEASE SAVEPOINT {name}")
                state.savepoints = state.savepoints[:pick]
        elif roll < 0.65 and shared and lock_holder is None \
                and state.snap_fresh and not state.did_winner:
            lock_holder = session
            lock_key = rng.choice(keys)
            state.did_winner = True
            state.winner_sp_len = len(state.savepoints)
            emit(session,
                 f"UPDATE {shared} SET v = v + 10 WHERE k = {lock_key}")
        elif roll < 0.75 and shared and lock_holder is not None \
                and lock_holder != session:
            emit(session,
                 f"UPDATE {shared} SET v = v + 1 WHERE k = {lock_key}",
                 expect=CONFLICT)
        elif roll < 0.9:
            finish(session, commit=True)
        else:
            finish(session, commit=False)

    # Close every block deterministically so committed state is final.
    for session, state in enumerate(states):
        if state.in_txn:
            finish(session, commit=rng.random() < 0.7)
    return case
