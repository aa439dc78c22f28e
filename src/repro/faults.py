"""Deterministic fault injection: named points, seeded triggers.

A process-wide registry of **named fault points** that any layer can
declare inline::

    from repro.faults import FAULTS
    FAULTS.fire("wal.checkpoint.rename", profiler)

A point that nothing armed costs one attribute load and a branch (the
registry keeps an ``active`` flag), so fault points are safe to leave in
production paths.  Arming is deterministic: a trigger names the point,
the **kind** of fault, and the 1-based **hit number** it fires on, so
the same workload hits the same fault at the same place every run —
which is what lets the crash-recovery suite and the chaos fuzzer replay
failures from a seed.

Fault kinds
-----------

``crash``       hard ``os._exit(1)`` (the recovery suite's subprocess axis)
``torn``        like crash, but the WAL append path writes half the record
                first (only meaningful on ``wal.append``; elsewhere it
                degrades to crash)
``delay``       ``time.sleep`` for the trigger's ``delay_s`` (races and
                timing windows without killing anything)
``error-once``  raise :class:`FaultInjectedError` on the triggering hit,
                then disarm — the error path must unwind cleanly

Fault points currently wired in (the catalog ARCHITECTURE.md documents):

=========================  ==============================================
``wal.append``             before appending one WAL record (commit path)
``wal.sync``               before a commit's fsync (records flushed to the OS)
``wal.checkpoint.start``   CHECKPOINT admitted, before the snapshot scan
``wal.checkpoint.write``   per record written into the snapshot temp file
``wal.checkpoint.fsync``   snapshot temp file complete, before its fsync
``wal.checkpoint.rename``  before the atomic rename over the live log
``wal.checkpoint.reopen``  after the rename, before reopening for append
``server.send``            before the server flushes an outbox to a socket
``exec.recursion``         per WITH RECURSIVE / trampoline iteration
=========================  ==============================================

Environment syntax (parsed once at import): ``REPRO_FAULTS`` is a
comma-separated list of ``point:kind:N`` (or ``point:kind:N:delay_ms``
for delays), e.g. ``REPRO_FAULTS=wal.checkpoint.rename:crash:1``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from .sql.profiler import FAULTS_INJECTED


class FaultInjectedError(Exception):
    """Raised by an ``error-once`` trigger; deliberately *not* a
    :class:`~repro.sql.errors.SqlError` — it classifies as a crash, so
    an injected error that escapes to a differential oracle is visible
    instead of blending into the expected-error taxonomy."""

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point}")
        self.point = point


class _Trigger:
    __slots__ = ("kind", "at", "hits", "delay_s", "spent")

    def __init__(self, kind: str, at: int, delay_s: float):
        self.kind = kind
        self.at = max(1, at)
        self.hits = 0
        self.delay_s = delay_s
        self.spent = False


class FaultRegistry:
    """All armed triggers of this process, keyed by fault-point name."""

    def __init__(self) -> None:
        self._triggers: dict[str, _Trigger] = {}
        self._lock = threading.Lock()
        #: Fast-path flag: fault points return immediately when nothing
        #: is armed, so hot loops can afford to call :meth:`fire`.
        self.active = False

    # -- arming --------------------------------------------------------

    def arm(self, point: str, kind: str, at: int = 1,
            delay_s: float = 0.01) -> None:
        """Arm *point* to fire *kind* on its *at*-th hit from now."""
        if kind not in ("crash", "torn", "delay", "error-once"):
            raise ValueError(f"unknown fault kind {kind!r}")
        with self._lock:
            self._triggers[point] = _Trigger(kind, at, delay_s)
            self.active = True

    def disarm(self, point: Optional[str] = None) -> None:
        """Drop one trigger (or all of them with ``point=None``)."""
        with self._lock:
            if point is None:
                self._triggers.clear()
            else:
                self._triggers.pop(point, None)
            self.active = bool(self._triggers)

    def arm_from_env(self, spec: Optional[str] = None) -> None:
        """Arm triggers from a ``point:kind:N[:delay_ms],...`` spec."""
        if spec is None:
            spec = os.environ.get("REPRO_FAULTS", "")
        for part in filter(None, (p.strip() for p in spec.split(","))):
            fields = part.split(":")
            if len(fields) < 3:
                continue
            point, kind, at = fields[0], fields[1], fields[2]
            if not at.isdigit():
                continue
            delay_s = 0.01
            if len(fields) > 3 and fields[3].isdigit():
                delay_s = int(fields[3]) / 1000.0
            try:
                self.arm(point, kind, int(at), delay_s)
            except ValueError:
                continue

    # -- firing --------------------------------------------------------

    def check(self, point: str, profiler=None) -> Optional[_Trigger]:
        """Count one hit of *point*; return the trigger when it fires,
        None otherwise.  Callers that need custom behavior (the WAL's
        torn-write, its crash-after-append) use this; everyone else
        uses :meth:`fire`.  Each trigger fires exactly once.
        """
        if not self.active:
            return None
        with self._lock:
            trigger = self._triggers.get(point)
            if trigger is None or trigger.spent:
                return None
            trigger.hits += 1
            if trigger.hits != trigger.at:
                return None
            trigger.spent = True
        if profiler is not None:
            profiler.bump(FAULTS_INJECTED)
        return trigger

    def fire(self, point: str, profiler=None) -> None:
        """Hit *point* and apply the default behavior of its trigger."""
        trigger = self.check(point, profiler)
        if trigger is None:
            return
        if trigger.kind == "delay":
            time.sleep(trigger.delay_s)
        elif trigger.kind == "error-once":
            raise FaultInjectedError(point)
        else:  # crash / torn — outside the WAL both mean "die here"
            os._exit(1)


#: The process-wide registry; armed from ``REPRO_FAULTS`` at import.
FAULTS = FaultRegistry()
FAULTS.arm_from_env()
