"""Cooperative query cancellation: one token per session, checked in loops.

The engine runs every statement to completion on one thread while holding
``Database._exec_lock``, so cancellation cannot be preemptive — nothing
else can take the lock away from a runaway join or recursive CTE.  What a
canceller *can* do is flip a flag that the running statement polls from
its hot loops: the Volcano iterators (scan / join / recursion / batched
trampoline), the aggregation tick loop, and the PL/pgSQL interpreter's
per-statement ``_tick`` all call :meth:`CancelToken.check`, which raises
:class:`~repro.sql.errors.QueryCanceledError` (SQLSTATE 57014) once the
token is tripped or its deadline has passed.

Two writers arm or trip a token:

* ``_TxnScope`` arms it at statement start with the session's effective
  ``statement_timeout`` (milliseconds, 0 = no deadline), and
* the wire server's event loop trips it from *another thread* when a
  ``CancelRequest`` with the right (pid, secret) pair arrives.

The cross-thread trip is deliberately lock-free: ``_canceled`` is a
single attribute write, and the worst race — a trip landing just after
the statement finished — only cancels nothing, because arming at the
next statement start clears the flag.  That matches PostgreSQL, where a
cancel racing a statement boundary is allowed to get lost.

The error unwinds through the ordinary statement-error path:
``_TxnScope.__exit__`` rolls back to the statement's undo mark, so
inside an explicit transaction only the canceled statement is undone and
the block keeps its earlier work.
"""

from __future__ import annotations

import time
from typing import Optional

from .errors import QueryCanceledError


class CancelToken:
    """Per-session cancellation flag plus optional statement deadline."""

    __slots__ = ("_canceled", "_deadline")

    def __init__(self) -> None:
        self._canceled = False
        self._deadline: Optional[float] = None

    def arm(self, timeout_ms: int = 0) -> None:
        """Start a statement: clear stale trips, set the deadline.

        Called with the exec lock held, so it cannot race another
        statement on the same session; a concurrent :meth:`trip` may
        land just before or after and is honored either way at the next
        :meth:`check`.
        """
        self._canceled = False
        self._deadline = (time.monotonic() + timeout_ms / 1000.0
                          if timeout_ms > 0 else None)

    def disarm(self) -> None:
        """End a statement: drop the deadline, keep any pending trip.

        A trip that arrives between statements stays pending only until
        the next :meth:`arm` clears it (lost-cancel-at-the-boundary is
        the PostgreSQL-compatible behavior).
        """
        self._deadline = None

    def trip(self) -> None:
        """Request cancellation; safe to call from any thread."""
        self._canceled = True

    def check(self) -> None:
        """Raise :class:`QueryCanceledError` if canceled or timed out.

        Cheap enough for per-iteration use: two attribute loads on the
        happy path, a clock read only when a deadline is armed.
        """
        if self._canceled:
            raise QueryCanceledError("canceling statement due to user request")
        deadline = self._deadline
        if deadline is not None and time.monotonic() > deadline:
            raise QueryCanceledError(
                "canceling statement due to statement timeout")


#: Shared fallback for code running outside any statement (bare table
#: access, bootstrap loads): a token nobody ever arms or trips, so hot
#: loops can poll unconditionally instead of branching on None.
NEVER_CANCELED = CancelToken()
