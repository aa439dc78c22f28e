"""End-to-end, layer-attributed benchmark: the one command.

    python benchmarks/e2e/run.py                       # every workload, both runs
    python benchmarks/e2e/run.py --workload point_read --seed 11 \\
        --seconds 12 --trace 0                         # one gated run
    python benchmarks/e2e/run.py --workload point_read --trace 1
    python benchmarks/e2e/run.py --rounds 5            # exactly five rounds each
    python benchmarks/e2e/run.py --smoke               # seconds, not minutes
    python benchmarks/e2e/run.py --repeat 2            # A/A agreement

Seeded statement streams (``streams.py``) go through the real front door,
``WireClient`` -> ``server.server`` -> ``server.handler`` -> ``sql.session``
/ ``sql.engine`` -> parser / planner / executor / interpreter or compiled
trampoline -> ``server.protocol`` -> ``sql.wal`` fsync, against a durable
database, closed loop, zero think time, never more connections than this
box has cores (2).  Every answer is checked against ``oracle.py``.

Load comes in **rounds** of a fixed number of operations
(``Spec.round_ops``: at least 100, at least a quarter of a second's
worth), after an untimed warm-up.  Rounds are run until ``--seconds`` have
passed (5 to 50 at the seed commit), or exactly ``--rounds`` of them.
Every end-to-end value is the **median over rounds** of that round's
throughput, median latency and 90th-percentile latency; the spread between
the rounds' quartiles is kept beside it.  Because this host's speed changes
under the run, a round's clock is first rescaled, slice by slice, to a
reference speed (see ``probe``); the medians as measured are reported
beside the rescaled ones.

**Untraced run** (``--trace 0``, the numbers that gate).  The server is a
child process (``serve.py``), this process is the load generator.  The
child is set up :data:`SETUPS` times (``setup_s`` is the median), the
last one is loaded, then killed with SIGKILL; its WAL is cut back to the
last fsync and reopened in a fresh process, and every acknowledged write
is compared with the model.

**Traced run** (``--trace 1``, the per-layer numbers).  Same streams with
the server in this process, in shorter rounds alternately without and
with ``tracing.py``'s wrappers and the engine's ``Profiler`` switched on;
the ratio of the two throughputs is the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import serve  # noqa: F401  (puts src/ and this directory on sys.path)
import compare
import oracle
import tracing
from streams import SPECS

from repro.server import ServerThread, connect
from repro.sql import profiler as P

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

#: Child set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: ``--smoke`` scales every operation count by this.
SMOKE_SCALE = 0.02
FLUSH_POLICY = "fsync on every commit (engine default)"
#: The CPUs this process may use (none where the platform cannot say).
CPUS = sorted(os.sched_getaffinity(0)) \
    if hasattr(os, "sched_getaffinity") else []


# ---------------------------------------------------------------------------
# The load generator
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (any order): the smallest value
    with at least ``q`` of the sample at or below it, so 100 samples leave
    ten beyond the 90th."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


class Round:
    """What one timed round of one or more closed-loop clients saw."""

    def __init__(self):
        self.wall = 0.0
        self.latencies: dict[str, list[float]] = {}
        self.tally = oracle.Tally()
        self.user_bytes = 0
        self.frames = 0
        self.statements = 0
        self.connections = 0

    @property
    def completed(self) -> int:
        return self.tally.attempted - self.tally.failed

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.wall

    def latency_ms(self, klass: str, q: float) -> float:
        return 1e3 * percentile(self.latencies[klass], q)


def _frames(results) -> int:
    """Backend messages in one Query's response."""
    count = 1  # ReadyForQuery
    for result in results:
        count += 1 if result.rows is None else 2 + len(result.rows)
    return count


class _ClientRun:
    """One connection's share of a :class:`Round`, before checking."""

    __slots__ = ("klass", "latencies", "answered", "tally")

    def __init__(self, klass: str):
        self.klass = klass
        self.latencies: list[float] = []
        self.answered: list[tuple] = []   # (op, results), checked later
        self.tally = oracle.Tally()


def _run_client(client, stream, ops, others_done, run: _ClientRun,
                tracer, op_ids) -> None:
    """The closed loop: *ops* operations, or, with ``ops`` None, operations
    until *others_done* is set.  Answers are kept and checked after the
    clock has stopped, so the oracle's cost is in neither latency nor
    throughput."""
    latencies, answered, tally = run.latencies, run.answered, run.tally
    clock = time.perf_counter
    query = client.query
    trace_state = tracer.client_state(client) if tracer is not None else None
    # A write stream updates its model as it yields, so nothing is drawn
    # from it that is not sent.
    while (tally.attempted < ops) if ops is not None \
            else not others_done.is_set():
        op = next(stream.ops)
        if trace_state is not None:
            trace_state.op = next(op_ids)
        started = clock()
        try:
            results = [query(sql) for sql in op.sqls]
        except (oracle.ServerError, ConnectionError) as exc:
            latencies.append(clock() - started)
            tally.attempted += 1
            tally.record_exception(exc)
            if isinstance(exc, ConnectionError):
                break
            continue
        latencies.append(clock() - started)
        tally.attempted += 1
        answered.append((op, results))


def run_round(clients, streams, ops: int, tracer=None, op_ids=None) -> Round:
    """One round: every stream does *ops* operations on its connection,
    one thread each, except that a stream that ``follows`` loops until the
    others are done.  (The last operation of a following stream may end
    after the others have; the round's wall clock covers it.)"""
    runs = [_ClientRun(stream.klass) for stream in streams]
    follows = [stream.follows for stream in streams]
    if all(follows):
        follows = [False] * len(streams)
    others_done = threading.Event()
    leaders, followers = [], []
    for client, stream, run, following in zip(clients, streams, runs,
                                              follows):
        (followers if following else leaders).append(
            (client, stream, None if following else ops, others_done, run,
             tracer, op_ids))
    lead_threads = [threading.Thread(target=_run_client, args=args)
                    for args in leaders[1:]]
    follow_threads = [threading.Thread(target=_run_client, args=args)
                      for args in followers]
    started = time.perf_counter()
    for thread in follow_threads + lead_threads:
        thread.start()
    _run_client(*leaders[0])
    for thread in lead_threads:
        thread.join()
    others_done.set()
    for thread in follow_threads:
        thread.join()
    result = Round()
    result.wall = time.perf_counter() - started
    result.connections = len(streams)
    for run in runs:
        result.latencies.setdefault(run.klass, []).extend(run.latencies)
        result.tally.merge(run.tally)
        for op, results in run.answered:
            if oracle.check_op(results, op.expects):
                result.user_bytes += op.user_bytes
            else:
                result.tally.wrong += 1
            result.statements += len(results)
            result.frames += sum(map(_frames, results))
    return result


# -- A host whose speed changes under the run ------------------------------
#
# This VM's vCPUs flip, for seconds at a time and now and then for minutes,
# between full speed and 0.3-0.7x of it (neighbours on the host: the guest
# sees no steal time, just slower cycles).  Twenty-five runs of unchanged
# code, pinned, as measured: point_read's median latency 0.17-0.52 ms,
# durable_write 298-516 ops/s, analytic_scan 31-54 ops/s; between the
# quartiles of the runs of one workload lie 17-100% of their median.  The
# driver refuses a benchmark whose spread exceeds its bound, and no bound
# may exceed 25%.  So a round is driven in slices of about 0.2 s with a
# fixed piece of pure-Python work, the **probe**, timed between them, and
# each slice's clock is rescaled to the speed at which the probe takes
# :data:`REFERENCE_PROBE_S`.  Percentiles are then taken over the whole
# round, and the median over rounds is what gates.  The same medians as
# measured, unrescaled, are reported beside them (``raw``).
#
# The probe is half a counting loop and half list and dict building,
# best of two passes.  A slow spell does not slow all code alike, so no
# probe is exact: timed beside adhoc_plan for 150 s in 3.5 s bins, this
# one followed the workload's slowdown with correlation 0.75 and slope 1.5
# (it sees two thirds of a spell), and rescaling by it left 0.031 of
# scatter (log scale) where the raw figures had 0.045.  Random look-ups in
# a 300k-entry dict, which miss the cache as the engine does, tracked
# better (0.83, slope 1.2, scatter 0.026), but what they read depends on
# what the server leaves in the cache (7.5 ms beside point_read, 8.9 ms
# beside udf_interp): a yardstick that the program under test can bend
# is worse than a blunt one.  REFERENCE_PROBE_S only fixes the unit
# (seconds of this VM's quiet state); two commits measured with the same
# constant compare the same whatever its value.

PROBE_LOOPS = 60_000
PROBE_ITEMS = 20_000
REFERENCE_PROBE_S = 4.1e-3


def probe() -> float:
    """Seconds a fixed piece of work takes here and now (best of two)."""
    best = math.inf
    for _ in range(2):
        started = time.perf_counter()
        n = 0
        for _ in range(PROBE_LOOPS):
            n += 1
        items = [i * 3 for i in range(PROBE_ITEMS)]
        seen = {}
        for item in items:
            seen[item & 1023] = item
        odd = [item for item in items if item & 1]
        best = min(best, time.perf_counter() - started)
        del items, seen, odd
    return best


def pooled(parts: list[Round], factors=None) -> Round:
    """One Round out of many; with *factors*, each part's clock (wall and
    latencies) is multiplied by its factor first."""
    total = Round()
    for part, factor in zip(parts, factors or itertools.repeat(1.0)):
        total.wall += factor * part.wall
        total.tally.merge(part.tally)
        total.user_bytes += part.user_bytes
        total.frames += part.frames
        total.statements += part.statements
        total.connections = part.connections
        for klass, latencies in part.latencies.items():
            total.latencies.setdefault(klass, []).extend(
                latencies if factors is None
                else [factor * latency for latency in latencies])
    return total


def sliced_round(clients, streams, ops: int,
                 slices: int) -> tuple[Round, Round]:
    """One round of *ops* operations, as measured and at the reference
    speed: driven in *slices* slices with the probe timed before and after
    each."""
    parts, factors = [], []
    reading = probe()
    for _ in range(slices):
        parts.append(run_round(clients, streams, ops // slices))
        before, reading = reading, probe()
        factors.append(2 * REFERENCE_PROBE_S / (before + reading))
    return pooled(parts), pooled(parts, factors)


def timed_rounds(clients, streams, ops: int, slices: int, seconds: float,
                 rounds=None) -> tuple[list[Round], list[Round]]:
    """Rounds of *ops* operations: exactly *rounds* of them, or, with
    ``rounds`` None, as many as start within *seconds* (at least one).
    Returns them as measured and at the reference speed."""
    raw, steady = [], []
    deadline = time.perf_counter() + seconds
    while (len(raw) < rounds) if rounds is not None \
            else (not raw or time.perf_counter() < deadline):
        measured, at_reference = sliced_round(clients, streams, ops, slices)
        raw.append(measured)
        steady.append(at_reference)
    return raw, steady


def open_clients(port: int, streams) -> list:
    clients = []
    for stream in streams:
        client = connect("127.0.0.1", port)
        for sql in stream.session_setup:
            client.query(sql)
        clients.append(client)
    return clients


def scaled(count: int, scale: float, least: int) -> int:
    return max(least, round(count * scale))


def share_one_cpu() -> None:
    """Pin this process, and so the server it starts, to one CPU, once.

    One side of a closed loop mostly waits for the other, so a second CPU
    buys little, a wake-up that crosses vCPUs goes through the hypervisor,
    and the probe can only vouch for the CPU it ran on.  Measured, twelve
    rounds or ten runs each: ``point_read``'s median latency is 0.163-0.175
    ms with both sides on one CPU, 0.19-0.27 ms on two, and left to the
    scheduler it starts at the first and drifts to the second within
    seconds; ``mix_oltp`` does 1830 ops/s on one CPU and 1375 on two, where
    its set-up time read 0.25 s in one hour and 0.39 s in the next because
    the probe sat on the other CPU."""
    if CPUS:
        os.sched_setaffinity(0, CPUS[-1:])


# ---------------------------------------------------------------------------
# The server child
# ---------------------------------------------------------------------------

class ServerChild:
    """``serve.py serve`` as a subprocess; always ended by SIGKILL."""

    def __init__(self, workload: str, seed: int, wal_path: str):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), "serve",
             workload, str(seed), wal_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.port = self._read()["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("server child exited before answering")
        return json.loads(line)

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return self._read()

    def kill(self) -> float:
        """SIGKILL and reap; returns the child's peak RSS in MiB.

        The peak is ``VmHWM`` read just before the kill: ``wait4``'s
        ``ru_maxrss`` also covers the forked image of *this* process that
        the child was until it exec'd, so it grows with the load
        generator's own pools."""
        if self.proc.returncode is not None:
            return 0.0
        peak_kib = 0
        try:
            with open(f"/proc/{self.proc.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kib = int(line.split()[1])
            self.proc.send_signal(signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass  # already gone
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        return peak_kib / 1024.0


def verify_durability(wal_path: str, flushed_size: int, model: dict,
                      fresh_process: bool) -> dict:
    """Cut the log back to its last fsync, reopen it and compare with
    *model*."""
    serve.crash_image(wal_path, flushed_size)
    if fresh_process:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "serve.py"), "reopen",
             wal_path, ",".join(model)],
            capture_output=True, text=True, check=True)
        dumped = json.loads(out.stdout.splitlines()[-1])
    else:
        dumped = serve.reopen(wal_path, list(model))
    return {"lost_writes": oracle.lost_writes(model, dumped["tables"]),
            "replay_records_per_s": dumped["replayed"] / dumped["open_s"]}


def work_dir() -> str:
    path = os.path.join(WORK, str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(rounds: list[Round], klass: str) -> tuple[dict, dict, dict]:
    """``(medians, spreads, per_round)`` over *rounds* of each round's
    throughput and of *klass*'s median and 90th-percentile latency."""
    per_round = {
        "ops_per_s": [each.ops_per_s for each in rounds],
        "p50_ms": [each.latency_ms(klass, 0.50) for each in rounds],
        "p90_ms": [each.latency_ms(klass, 0.90) for each in rounds],
    }
    return ({key: statistics.median(values)
             for key, values in per_round.items()},
            {key: spread(values) for key, values in per_round.items()},
            per_round)


def run_untraced(name: str, seed: int, seconds: float, rounds=None,
                 scale: float = 1.0, setups: int = SETUPS) -> dict:
    share_one_cpu()
    directory = work_dir()
    setup_s, raw_setup_s = [], []
    child = None
    try:
        for attempt in range(setups):
            if child is not None:
                child.kill()
            spec = SPECS[name]()
            streams = spec.streams(seed)
            wal_path = os.path.join(directory, f"{name}.{attempt}.wal")
            before = probe()
            child = ServerChild(name, seed, wal_path)
            clients = open_clients(child.port, streams)
            warm = run_round(clients, streams, scaled(spec.warm_ops, scale, 2))
            elapsed = time.perf_counter() - child.spawned
            raw_setup_s.append(elapsed)
            setup_s.append(
                elapsed * 2 * REFERENCE_PROBE_S / (before + probe()))
            if attempt < setups - 1:
                for client in clients:
                    client.close()
        ops = scaled(spec.round_ops, scale, 6)
        raw, timed = timed_rounds(clients, streams, ops,
                                  min(spec.slices, ops // 5), seconds, rounds)
        stats = child.stats()
        for client in clients:
            client.close()
        rss_mb = child.kill()
        model = spec.model()
        durability = verify_durability(wal_path, stats["flushed_size"],
                                       model, True) if model else None
    finally:
        if child is not None:
            child.kill()
        shutil.rmtree(directory, ignore_errors=True)

    tally = pooled(raw).tally
    tally.merge(warm.tally)
    lost = durability["lost_writes"] if durability else 0
    medians, spreads, per_round = end_to_end(timed, spec.primary)
    raw_medians, _, _ = end_to_end(raw, spec.primary)
    return {
        "workload": name, "seed": seed,
        "attempted": tally.attempted, "failed": tally.failed + lost,
        "failed_share": tally.failed / tally.attempted,
        "lost_writes": lost,
        "metrics": {**medians,
                    "setup_s": statistics.median(setup_s),
                    "peak_rss_mb": rss_mb},
        "rounds": len(timed),
        "samples_per_round": min(len(each.latencies[spec.primary])
                                 for each in timed),
        "round_spread": spreads,
        "per_round": per_round,
        # The same medians as measured, before any rescaling.
        "raw": {**raw_medians, "setup_s": statistics.median(raw_setup_s)},
    }


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------

def run_traced(name: str, seed: int, seconds: float, rounds=None,
               scale: float = 1.0) -> dict:
    directory = work_dir()
    wal_path = os.path.join(directory, f"{name}.traced.wal")
    spec = SPECS[name]()
    streams = spec.streams(seed)
    share_one_cpu()
    ledger = serve.FsyncLedger().install()
    tracer = tracing.Tracer()
    server = None
    try:
        db, facts = serve.build_database(spec, seed, wal_path, profile=False)
        server = ServerThread(db, workers=serve.WORKERS).start()
        clients = open_clients(server.address[1], streams)
        warm = run_round(clients, streams, scaled(spec.warm_ops, scale, 2))
        # One slice's worth a round, about 0.2 s, so that an untraced round
        # and the traced one after it see the same machine.
        ops = scaled(spec.round_ops // spec.slices, scale, 6)
        solo = None
        if len(streams) > 1:
            # The read class alone, for the outside estimate of what
            # running beside the writer costs it.
            solo = run_round(clients[:1], streams[:1], 10 * ops)
        # Untraced and traced rounds alternate, so that both see the same
        # machine and their ratio is the tracing and nothing else.
        plain, traced = [], []
        op_ids = itertools.count()
        deadline = time.perf_counter() + seconds
        db.profiler.reset()
        while (len(traced) < rounds) if rounds is not None \
                else (not traced or time.perf_counter() < deadline):
            plain.append(run_round(clients, streams, ops))
            tracer.install()
            db.profiler.enabled = True
            try:
                traced.append(run_round(clients, streams, ops, tracer=tracer,
                                        op_ids=op_ids))
            finally:
                db.profiler.enabled = False
                tracer.uninstall()
        for client in clients:
            client.close()
        server.stop()
        server = None
        db.wal.close()
        model = spec.model()
        durability = verify_durability(
            wal_path, ledger.flushed_size(wal_path), model,
            False) if model else None
    finally:
        tracer.uninstall()
        if server is not None:
            server.stop()
        ledger.uninstall()
        shutil.rmtree(directory, ignore_errors=True)

    tracer.write_jsonl(os.path.join(RESULTS, f"trace_{name}.jsonl"))
    tally = oracle.Tally()
    for result in [warm, *plain, *traced] + ([solo] if solo else []):
        tally.merge(result.tally)
    overhead = 1.0 - statistics.median(
        each.ops_per_s for each in traced) / statistics.median(
        each.ops_per_s for each in plain)
    metrics = layer_metrics(spec, db.profiler, tracer, pooled(plain),
                            pooled(traced), solo, overhead, facts, durability)
    return {
        "workload": name, "seed": seed,
        "attempted": tally.attempted,
        "failed": tally.failed + int(metrics["sql.wal.lost_writes"]),
        "metrics": metrics,
        "rounds": len(traced),
        "nesting_problems": tracing.check_nesting(tracer.spans()),
    }


def layer_metrics(spec, profiler, tracer, plain: Round, traced: Round,
                  solo, overhead: float, facts: dict, durability) -> dict:
    """Every per-layer metric, by name.  Counts and self times are per
    completed operation of the traced rounds; the ``client.*`` latencies
    are from the untraced rounds between them."""
    ops = max(traced.completed, 1)
    counts = profiler.counts
    times = profiler.times
    totals = tracer.totals()
    layers = tracer.layer_totals()
    client_seconds = traced.wall * traced.connections

    def total(name, field):
        return totals.get(name, (0.0, 0.0, 0, 0.0))[field]

    def per_op(counter):
        return counts.get(counter, 0) / ops

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    # The interpreter span covers the embedded queries it starts; the
    # Profiler's exclusive Interp phase says how much of it is the
    # interpreter proper, and the rest is executor time.
    interp_span = layers["plsql.interpreter"][0]
    interp_self = min(times.get(P.INTERP, 0.0), interp_span)
    layers["plsql.interpreter"][0] = interp_self
    layers["sql.executor"][0] += interp_span - interp_self

    m: dict[str, float] = {}
    for layer, (self_s, calls) in layers.items():
        m[f"{layer}.self_us_per_op"] = 1e6 * self_s / ops
        m[f"{layer}.self_share"] = self_s / client_seconds
        m[f"{layer}.calls_per_op"] = calls / ops
    # By the load generator's own clock, not the tracer's: the share of
    # the clients' wall that lies outside every operation.  The layers'
    # shares above come from span self times, so the two add up to 1 only
    # if every second of an operation was credited once and only once.
    m["trace.unattributed_share"] = 1.0 - sum(
        map(sum, traced.latencies.values())) / client_seconds
    m["trace.overhead_share"] = overhead
    # What no wrapper on either side covers: the kernel's socket path, two
    # thread wake-ups, the outbox, waits for the GIL and the client's own
    # framing.  It is in server.server's self time; this is its size.
    residual_s = total(tracing.CLIENT_SPAN, 0)
    m["trace.residual_share"] = residual_s / client_seconds

    primary = plain.latencies[spec.primary]
    m["client.p99_ms"] = 1e3 * percentile(primary, 0.99)
    m["client.max_ms"] = 1e3 * max(primary)
    m["client.samples"] = len(primary)
    writes = plain.latencies.get("write") if spec.primary == "read" else None
    m["client.write_p50_ms"] = 1e3 * percentile(writes, 0.5) if writes else 0.0
    m["client.write_p90_ms"] = 1e3 * percentile(writes, 0.9) if writes else 0.0
    m["client.failed_share"] = ratio(plain.tally.failed + traced.tally.failed,
                                     plain.tally.attempted
                                     + traced.tally.attempted)

    m["server.server.residual_us_per_op"] = 1e6 * residual_s / ops
    m["server.server.loop_us_per_op"] = \
        1e6 * total(tracing.LOOP_SPAN, 0) / ops
    m["server.server.execute_self_us_per_op"] = \
        1e6 * total(tracing.SERVER_SPAN, 0) / ops
    scripts = total("handler.run_script", 2)
    m["server.handler.fastpath_hit_ratio"] = \
        1.0 - ratio(total("parser.parse_script", 2), scripts)
    m["server.protocol.bytes_out_per_op"] = tracer.bytes("response") / ops
    m["server.protocol.frames_per_op"] = traced.frames / ops

    hits = counts.get(P.PLAN_CACHE_HIT, 0)
    m["sql.engine.plan_cache_hit_ratio"] = \
        ratio(hits, hits + counts.get(P.PLAN_CACHE_MISS, 0))
    m["sql.engine.plan_cache_evictions_per_op"] = \
        per_op(P.PLAN_CACHE_EVICTIONS)
    m["sql.engine.plan_instantiations_per_op"] = per_op(P.PLAN_INSTANTIATIONS)
    m["sql.engine.lock_wait_est_us"] = 1e6 * (
        percentile(primary, 0.5)
        - percentile(solo.latencies[spec.primary], 0.5)) if solo else 0.0
    m["sql.session.prepared_replans"] = counts.get(P.PREPARED_REPLANS, 0)
    parses = total("parser.parse_script", 2) + total(
        "parser.parse_statement", 2)
    m["sql.parser.us_per_stmt"] = 1e6 * ratio(layers["sql.parser"][0], parses)
    m["sql.planner.us_per_stmt"] = 1e6 * ratio(
        layers["sql.planner"][0], traced.statements)

    phase_total = sum(times.values())
    m["sql.executor.start_share"] = ratio(times.get(P.EXEC_START, 0.0),
                                          phase_total)
    m["sql.executor.run_share"] = ratio(times.get(P.EXEC_RUN, 0.0),
                                        phase_total)
    m["sql.executor.end_share"] = ratio(times.get(P.EXEC_END, 0.0),
                                        phase_total)
    m["plsql.interpreter.interp_share"] = ratio(times.get(P.INTERP, 0.0),
                                                phase_total)
    m["sql.executor.vector.batches_per_op"] = per_op(P.VECTOR_BATCHES)
    m["sql.executor.vector.rows_per_op"] = per_op(P.VECTOR_ROWS)
    m["sql.executor.recursion.iterations_per_op"] = \
        per_op(P.TRAMPOLINE_ITERATIONS)
    m["sql.executor.recursion.working_rows_per_op"] = \
        per_op(P.TRAMPOLINE_WORKING_ROWS)
    m["sql.executor.batched_udf.rows_per_op"] = per_op(P.BATCHED_UDF_ROWS)
    m["sql.executor.batched_udf.distinct_ratio"] = ratio(
        counts.get(P.BATCHED_UDF_DISTINCT, 0),
        counts.get(P.BATCHED_UDF_ROWS, 0))
    calls = total("interpreter.call_plpgsql", 2)
    m["plsql.interpreter.us_per_call"] = 1e6 * ratio(interp_span, calls)
    m["plsql.interpreter.embedded_queries_per_call"] = ratio(
        counts.get(P.SWITCH_F_TO_Q, 0), calls)
    m["compiler.pipeline.compile_ms_per_fn"] = \
        facts.get("compile_ms_per_fn", 0.0)
    m["compiler.pipeline.qf_chars"] = facts.get("qf_chars", 0)

    m["sql.storage.visibility_scans_per_op"] = per_op(P.SNAPSHOT_SCANS)
    m["sql.storage.index_builds"] = counts.get(P.SORTED_INDEX_BUILDS, 0)
    m["sql.txn.commits_per_op"] = per_op(P.TXN_COMMITTED)
    m["sql.txn.serialization_failures"] = \
        plain.tally.serialization_failures \
        + traced.tally.serialization_failures
    wal_bytes = tracer.bytes("wal_appended")
    m["sql.wal.bytes_per_op"] = wal_bytes / ops
    m["sql.wal.bytes_per_user_byte"] = ratio(wal_bytes, traced.user_bytes)
    m["sql.wal.fsyncs_per_op"] = total("os.fsync", 2) / ops
    m["sql.wal.checkpoints"] = total("wal.checkpoint", 2)
    m["sql.wal.checkpoint_ms_max"] = 1e3 * total("wal.checkpoint", 3)
    m["sql.wal.checkpoint_bytes_rewritten"] = tracer.bytes("checkpoint_rewritten")
    m["sql.wal.replay_records_per_s"] = \
        durability["replay_records_per_s"] if durability else 0.0
    m["sql.wal.lost_writes"] = durability["lost_writes"] if durability else 0
    return m


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def driver_line(result: dict, units: dict) -> str:
    """The contract's last line for one run of one workload."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}})


def print_run(result: dict, units: dict, sha256: str) -> None:
    name = result["workload"]
    print(f"# {name}  seed={result['seed']}  stream sha256={sha256[:16]}  "
          f"rounds={result['rounds']}  flush policy: {FLUSH_POLICY}")
    spreads, raw = result.get("round_spread", {}), result.get("raw", {})
    for metric, value in result["metrics"].items():
        extra = f"  (as measured {raw[metric]:.4f}" if metric in raw else ""
        if metric in spreads:
            extra += f", IQR/median over rounds {100 * spreads[metric]:.1f}%"
        print(f"{name:<14} {metric:<48} {value:>14.4f} "
              f"{units[metric]}{extra}{')' if extra else ''}")
    # The two end-to-end metrics that must stay 0 (BENCHMARK.json may
    # list only metrics that never are).
    for metric, unit in (("failed_share", "ratio"), ("lost_writes", "count")):
        if metric in result:
            print(f"{name:<14} {metric:<48} {result[metric]:>14.4f} {unit}")
    print(f"{name:<14} attempted={result['attempted']} "
          f"failed={result['failed']}")


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def full_pass(seed: int, seconds: float, rounds, scale: float, setups: int,
              units: dict, layer_units: dict) -> dict:
    """Every workload, untraced then traced (a third as long)."""
    workloads = {}
    for name, spec in SPECS.items():
        sha256 = spec().fingerprint(seed)
        untraced = run_untraced(name, seed, seconds, rounds, scale, setups)
        print_run(untraced, units, sha256)
        traced = run_traced(name, seed, seconds / 3, rounds, scale)
        print_run(traced, layer_units, sha256)
        workloads[name] = {
            "stream_sha256": sha256,
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failed_share": untraced["failed_share"],
            "lost_writes": untraced["lost_writes"],
            "end_to_end": untraced["metrics"],
            "rounds": untraced["rounds"],
            "samples_per_round": untraced["samples_per_round"],
            "round_spread": untraced["round_spread"],
            "per_round": untraced["per_round"],
            "raw": untraced["raw"],
            "per_layer": traced["metrics"],
            "nesting_problems": traced["nesting_problems"],
        }
    return {"commit": git_commit(),
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "seed": seed, "nproc": os.cpu_count(), "seconds": seconds,
            "flush_policy": FLUSH_POLICY, "claim": None,
            "workloads": workloads}


def append_history(report: dict) -> None:
    """One line of the checked-in trajectory per full pass."""
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "HISTORY.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps({
            "commit": report["commit"], "date": report["date"],
            "seed": report["seed"], "nproc": report["nproc"],
            "metrics": {name: {**w["end_to_end"],
                               "failed_share": w["failed_share"],
                               "lost_writes": w["lost_writes"]}
                        for name, w in report["workloads"].items()}}) + "\n")


def derived_figures(report: dict) -> list[str]:
    """The paper's figures, informational: never gated."""
    w = report["workloads"]
    compiled = w["udf_compiled"]["end_to_end"]["ops_per_s"]
    interp = w["udf_interp"]["end_to_end"]["ops_per_s"]
    layers = w["udf_interp"]["per_layer"]
    return [
        f"derived  compiled/interp time per op (Fig. 11 'relative runtime'): "
        f"{100 * interp / compiled:.1f}%",
        "derived  Table 1 shares on udf_interp: "
        + "  ".join(f"{label} {100 * layers[key]:.1f}%" for label, key in (
            ("ExecutorStart", "sql.executor.start_share"),
            ("ExecutorRun", "sql.executor.run_share"),
            ("ExecutorEnd", "sql.executor.end_share"),
            ("Interp", "plsql.interpreter.interp_share")))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="start rounds for this long "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--rounds", type=int,
                        help="run exactly this many rounds instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=None,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny round of every workload, both modes")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full passes to make; reports their agreement")
    parser.add_argument("--out", help="write the full report here as JSON")
    args = parser.parse_args(argv)

    contract = compare.load_contract()
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    rounds, scale, setups = args.rounds, 1.0, SETUPS
    if args.smoke:
        rounds, scale, setups = 1, SMOKE_SCALE, 1

    if args.workload is not None:
        sha256 = SPECS[args.workload]().fingerprint(args.seed)
        if args.trace:
            result = run_traced(args.workload, args.seed, seconds, rounds,
                                scale)
            print_run(result, layer_units, sha256)
            print(driver_line(result, layer_units))
        else:
            result = run_untraced(args.workload, args.seed, seconds, rounds,
                                  scale, setups)
            print_run(result, units, sha256)
            print(driver_line(result, units))
        return 0

    passes = []
    for _ in range(args.repeat):
        report = full_pass(args.seed, seconds, rounds, scale, setups, units,
                           layer_units)
        passes.append(report)
        for line in derived_figures(report):
            print(line)
        if not args.smoke:
            append_history(report)
    for later in passes[1:]:
        print("# A/A: the same code twice; any verdict but 'unchanged' means "
              "the two passes disagree by more than the metric's bound")
        for row in compare.compare(passes[0], later, contract)[0]:
            print(row)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(passes[-1], fh, indent=1)
    report = passes[-1]
    attempted = sum(w["attempted"] for w in report["workloads"].values())
    failed = sum(w["failed"] for w in report["workloads"].values())
    all_units = {**units, **layer_units}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            f"{name}.{metric}": {"value": value, "unit": all_units[metric]}
            for name, w in report["workloads"].items()
            for metric, value in {**w["end_to_end"],
                                  **w["per_layer"]}.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
