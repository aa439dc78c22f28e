"""Spans recorded from outside the program, around each layer's entry points.

:class:`Tracer` replaces a fixed list of public functions and methods
(:data:`ENTRY_POINTS`) with timing wrappers, patched where the caller
looks the name up, and puts the originals back afterwards.  Nothing under
``src/`` knows it is being traced.

A span is ``(id, name, start, end, parent, op)``.  Each thread keeps its
own stack, so a span's parent is whatever the same thread entered last.
The server's top spans (:data:`SERVER_TOPS`: the event loop's
``data_received`` and a worker's ``_execute``) have nothing above them on
their own thread; each takes as parent the client span of the operation
its connection has in flight, found through the connection's peer port
(one request is in flight per connection).  A span's **self time** is its
duration minus the durations of its direct children, accumulated per span
name as spans close; the client span's children are on other threads, so
its self time (the round trip minus what the server's spans and the
client's own row decoding cover: the kernel's socket path, two thread
wake-ups, the outbox, waits for the GIL, client framing) has the server
spans' totals subtracted at the end.
``_send`` and ``_flush``, the way back, are not spans: each is still
returning, waiting for the GIL, while the client already works on the
reply, and would be subtracted from a round trip it is no longer part of.

Every span is accumulated; only the spans of the first
:data:`KEPT_OPS` operations are kept whole for ``trace_<workload>.jsonl``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

#: (module, owner attribute path or None for module level, attribute,
#: span name, layer).  Patched in this order, restored in reverse.
ENTRY_POINTS = [
    ("repro.server.client", "WireClient", "query",
     "client.query", "server.server"),
    ("repro.server.server", "_WireConnection", "data_received",
     "server.data_received", "server.server"),
    ("repro.server.server", "SqlServer", "_execute",
     "server.execute", "server.server"),
    ("repro.server.server", None, "run_script",
     "handler.run_script", "server.handler"),
    ("repro.server.protocol", None, "row_description",
     "protocol.row_description", "server.protocol"),
    ("repro.server.protocol", None, "data_row",
     "protocol.data_row", "server.protocol"),
    ("repro.server.handler", None, "render_row",
     "protocol.render_row", "server.protocol"),
    ("repro.server.protocol", None, "parse_data_row",
     "protocol.parse_data_row", "server.protocol"),
    ("repro.server.handler", None, "parse_script",
     "parser.parse_script", "sql.parser"),
    ("repro.sql.engine", None, "parse_statement",
     "parser.parse_statement", "sql.parser"),
    ("repro.sql.planner", "Planner", "plan_select",
     "planner.plan_select", "sql.planner"),
    ("repro.sql.session", "_Activation", "__enter__",
     "session.activate", "sql.session"),
    ("repro.sql.session", "PreparedStatement", "dispatch",
     "session.prepared_dispatch", "sql.session"),
    ("repro.sql.engine", "Database", "_dispatch_ast",
     "engine.dispatch_ast", "sql.engine"),
    ("repro.sql.engine", "Database", "run_prepared",
     "engine.run_prepared", "sql.engine"),
    ("repro.sql.engine", "Database", "_run_plan",
     "executor.run_plan", "sql.executor"),
    ("repro.plsql.interpreter", None, "call_plpgsql",
     "interpreter.call_plpgsql", "plsql.interpreter"),
    ("repro.sql.txn", "Transaction", "commit",
     "txn.commit", "sql.txn"),
    ("repro.sql.wal", "WalManager", "commit",
     "wal.commit", "sql.wal"),
    ("repro.sql.wal", "WalManager", "checkpoint",
     "wal.checkpoint", "sql.wal"),
    ("os", None, "fsync", "os.fsync", "os.fsync"),
]

#: Layers reported with self_us_per_op / self_share / calls_per_op.
LAYERS = ["server.server", "server.handler", "server.protocol",
          "sql.session", "sql.engine", "sql.parser", "sql.planner",
          "sql.executor", "plsql.interpreter", "sql.txn", "sql.wal",
          "os.fsync"]

LAYER_OF = {name: layer for _, _, _, name, layer in ENTRY_POINTS}

CLIENT_SPAN = "client.query"
SERVER_SPAN = "server.execute"
LOOP_SPAN = "server.data_received"

#: The server's top spans -> where the connection is in their arguments.
SERVER_TOPS = {LOOP_SPAN: 0, SERVER_SPAN: 1}

KEPT_OPS = 1000


class _ThreadState:
    __slots__ = ("stack", "totals", "op", "root_id", "spans", "bytes")

    def __init__(self):
        self.stack: list = []          # [name, start, child_seconds, span_id]
        self.totals: dict = {}         # name -> [self_s, total_s, calls, max_s]
        self.op = -1                   # operation this thread is serving
        self.root_id = None            # client span id (server threads)
        self.spans: list = []          # kept spans
        self.bytes: dict = {}          # counter name -> bytes


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count()
        self._undo: list = []
        #: local port of a client connection -> that client's thread
        #: state, so a server thread can find the operation it serves.
        self._clients: dict[int, _ThreadState] = {}

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def client_state(self, client) -> _ThreadState:
        """Called once by each load-generator thread: the state whose
        ``op`` it sets before every operation, filed under the port the
        server knows the connection by."""
        state = self._state()
        self._clients[client.sock.getsockname()[1]] = state
        return state

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import importlib
        probes = {"server.execute": self._probe_server_execute,
                  "wal.commit": self._probe_wal_commit,
                  "wal.checkpoint": self._probe_wal_checkpoint}
        for module_name, owner_name, attr, name, _layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            inner = probes[name](original) if name in probes else original
            setattr(owner, attr, self._wrap(inner, name))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name: str):
        get_state = self._state
        clock = time.perf_counter
        next_id = self._ids.__next__
        clients = self._clients
        connection_at = SERVER_TOPS.get(name)

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            if connection_at is not None:
                # Adopt the operation the connection's client has in flight.
                peer = args[connection_at].transport.get_extra_info(
                    "peername")
                client_state = clients.get(peer[1]) if peer else None
                if client_state is not None:
                    state.op = client_state.op
                    state.root_id = client_state.stack[-1][3] \
                        if client_state.stack else None
            keep = state.op < KEPT_OPS
            frame = [name, 0.0, 0.0, next_id() if keep else -1]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0.0, 0.0, 0, 0.0]
                totals[0] += duration - frame[2]
                totals[1] += duration
                totals[2] += 1
                if duration > totals[3]:
                    totals[3] = duration
                if keep:
                    parent = stack[-1][3] if stack else state.root_id
                    state.spans.append(
                        (frame[3], name, frame[1], end, parent, state.op))
            return result

        traced.__wrapped__ = original
        return traced

    # -- byte counts taken at the same boundaries ---------------------------

    def _add_bytes(self, counter: str, amount: int) -> None:
        counts = self._state().bytes
        counts[counter] = counts.get(counter, 0) + amount

    def _probe_server_execute(self, original):
        def execute(server, connection, sql):
            response = original(server, connection, sql)
            self._add_bytes("response", len(response))
            return response
        return execute

    def _probe_wal_commit(self, original):
        def commit(wal, xid, records):
            before = os.path.getsize(wal.path)
            original(wal, xid, records)
            self._add_bytes("wal_appended", os.path.getsize(wal.path) - before)
        return commit

    def _probe_wal_checkpoint(self, original):
        def checkpoint(wal):
            written = original(wal)
            self._add_bytes("checkpoint_rewritten", os.path.getsize(wal.path))
            return written
        return checkpoint

    def bytes(self, counter: str) -> int:
        """Bytes counted at ``response`` (encoded replies), ``wal_appended``
        (log growth across commits) or ``checkpoint_rewritten`` (log size
        after each compaction), over all threads."""
        return sum(state.bytes.get(counter, 0) for state in self._states)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """``name -> [self_s, total_s, calls, max_s]`` over all threads."""
        merged: dict[str, list] = {}
        for state in self._states:
            for name, (self_s, total_s, calls, max_s) in state.totals.items():
                into = merged.setdefault(name, [0.0, 0.0, 0, 0.0])
                into[0] += self_s
                into[1] += total_s
                into[2] += calls
                into[3] = max(into[3], max_s)
        client = merged.get(CLIENT_SPAN)
        if client is not None:
            # The server's spans are the client span's children too, on
            # other threads.
            client[0] -= sum(
                merged[name][1] for name in SERVER_TOPS if name in merged)
        return merged

    def layer_totals(self) -> dict[str, list]:
        """``layer -> [self_s, calls]``"""
        layers = {layer: [0.0, 0] for layer in LAYERS}
        for name, (self_s, _total, calls, _max) in self.totals().items():
            into = layers[LAYER_OF[name]]
            into[0] += self_s
            into[1] += calls
        return layers

    def spans(self) -> list[tuple]:
        spans = [span for state in self._states for span in state.spans]
        spans.sort(key=lambda span: span[2])
        return spans

    def write_jsonl(self, path: str) -> int:
        spans = self.spans()
        if not spans:
            return 0
        origin = spans[0][2]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "layer": LAYER_OF[name],
                    "start_us": round((start - origin) * 1e6, 2),
                    "end_us": round((end - origin) * 1e6, 2),
                    "parent": parent, "op": op}) + "\n")
        return len(spans)


def check_nesting(spans: list[tuple]) -> list[str]:
    """Violations of 'a child lies inside its parent' among kept spans."""
    by_id = {span[0]: span for span in spans}
    problems = []
    for span_id, name, start, end, parent, _op in spans:
        if end < start:
            problems.append(f"{name}#{span_id} ends before it starts")
        outer = by_id.get(parent)
        if outer is not None and not (outer[2] <= start and end <= outer[3]):
            problems.append(f"{name}#{span_id} escapes {outer[1]}#{parent}")
    return problems
