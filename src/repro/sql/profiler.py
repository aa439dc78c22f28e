"""Exclusive-time phase profiler reproducing the paper's cost taxonomy.

The paper attributes PL/SQL evaluation time to four buckets (Table 1):

* ``ExecutorStart`` — plan instantiation (copying the cached plan into a
  runtime structure, binding placeholders),
* ``ExecutorRun``   — productive query evaluation,
* ``ExecutorEnd``   — plan teardown / freeing memory contexts,
* ``Interp``        — PL/SQL statement interpretation proper.

Phases nest (the interpreter runs embedded queries, which run subplans);
:class:`Profiler` therefore keeps a phase *stack* and attributes wall-clock
time exclusively to the innermost active phase, so the buckets sum to total
measured time without double counting.

Counters track discrete events: ``Q->f`` context switches (SQL calling a
PL/SQL function), ``f->Q`` switches (the function evaluating an embedded
query), plan-cache hits and misses.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Phase names used throughout the engine.
PARSE = "Parse"
PLAN = "Plan"
EXEC_START = "ExecutorStart"
EXEC_RUN = "ExecutorRun"
EXEC_END = "ExecutorEnd"
INTERP = "Interp"

PHASES = (PARSE, PLAN, EXEC_START, EXEC_RUN, EXEC_END, INTERP)

#: Counter names.
SWITCH_Q_TO_F = "switch Q->f"
SWITCH_F_TO_Q = "switch f->Q"
PLAN_CACHE_HIT = "plan cache hit"
PLAN_CACHE_MISS = "plan cache miss"
PLAN_INSTANTIATIONS = "plan instantiations"
#: Hash-join activity: one "build" per hash table constructed (i.e. per
#: operator open/rescan), plus the number of rows hashed into build tables.
HASHJOIN_BUILDS = "hash join builds"
HASHJOIN_BUILD_ROWS = "hash join build rows"
#: Recursive-CTE activity (the compiled trampoline): one "iteration" per
#: evaluation of the recursive term (on the trampoline machine: per step of
#: one activation), "working rows" summing the working-set sizes those
#: evaluations saw (one state per machine step), and the rows a UNION (not
#: ALL) recursion's hash-based working-set dedup dropped.
TRAMPOLINE_ITERATIONS = "trampoline iterations"
TRAMPOLINE_WORKING_ROWS = "trampoline working rows"
RECURSION_DEDUP_DROPPED = "recursion dedup dropped rows"
#: Memoized compiled-UDF call sites (executor/trampoline.py): "rows"
#: counts the calls at a site memoized by argument values, "distinct" the
#: activations those calls ran (the memo's misses).  The names are those of
#: the set-oriented stage the memo replaced, which end-to-end reports read.
BATCHED_UDF_ROWS = "batched udf rows"
BATCHED_UDF_DISTINCT = "batched udf distinct calls"
#: Index upkeep and ordered access paths: one "build" per hash index built
#: from scratch (its first probe; vacuum or TRUNCATE rebuilding the heap
#: under it - never a write), one per sorted index constructed (lazily
#: by a scan, or eagerly by CREATE INDEX), one "scan" per IndexRangeScan
#: open (each correlated re-probe is one open), one TopN bump per bounded
#: heap evaluation ("input rows" counts what streamed through the heap
#: instead of a full sort).  The planner builds a sorted index too when
#: it sizes a constant range under an aggregate, and counts one "given
#: up" per plan that keeps the SeqScan because that range was too wide.
HASH_INDEX_BUILDS = "hash index builds"
SORTED_INDEX_BUILDS = "sorted index builds"
INDEX_RANGE_SCANS = "index range scans"
RANGE_SCANS_GIVEN_UP = "range scans given up"
TOPN_SCANS = "topn scans"
TOPN_INPUT_ROWS = "topn input rows"
#: Session surface: executions through a PreparedStatement handle (SQL
#: EXECUTE or the programmatic API), replans a stale handle paid after DDL
#: or a plan-affecting SET, declarative settings assignments (SET / RESET),
#: and statement plans dropped by the LRU bound on the plan cache.
PREPARED_EXECUTIONS = "prepared executions"
PREPARED_REPLANS = "prepared replans"
SETTINGS_ASSIGNMENTS = "settings assignments"
PLAN_CACHE_EVICTIONS = "plan cache evictions"
#: Differential fuzzing (repro.fuzz): generated cases checked, individual
#: statement executions across the oracle settings matrix, outcome pairs
#: compared, statements and function calls cross-checked against SQLite,
#: discrepancies found, and engine-vs-SQLite differences explained away by
#: the known-dialect classifier (integer width, NaN storage, ...), UPDATE /
#: DELETE statements checked across the matrix (affected rows against
#: count(*), the table afterwards against every other plan's and SQLite's),
#: and generated functions and those whose SQLite Qf was compared on
#: sqlite3 at least once.  Bumped on the harness's own profiler, not the
#: per-case scratch databases.
FUZZ_CASES = "fuzz cases"
FUZZ_EXECUTIONS = "fuzz oracle executions"
FUZZ_COMPARISONS = "fuzz oracle comparisons"
FUZZ_SQLITE_CHECKS = "fuzz sqlite cross-checks"
FUZZ_DISCREPANCIES = "fuzz discrepancies"
FUZZ_DIALECT_EXPLAINED = "fuzz dialect differences explained"
FUZZ_ANALYZER_CHECKS = "fuzz analyzer soundness checks"
FUZZ_DML_CHECKS = "fuzz dml checks"
FUZZ_TWIN_CHECKS = "fuzz literal twin checks"
FUZZ_DML_TWIN_CHECKS = "fuzz dml literal twin checks"
FUZZ_FUNCTIONS = "fuzz functions"
FUZZ_SQLITE_FUNCTIONS = "fuzz functions checked on sqlite"
#: Transactions & durability: explicit BEGIN blocks opened, write
#: transactions committed / rolled back (read-only transactions never
#: take an xid and are not counted), WAL records written (including the
#: per-commit marker), WAL records replayed on a durable open, and
#: full-table snapshot-visibility resolutions (cache misses — a warm
#: visible-rows cache serves repeat scans without re-checking).
TXN_BEGUN = "transactions begun"
TXN_COMMITTED = "transactions committed"
TXN_ROLLED_BACK = "transactions rolled back"
#: Durable commits whose fsync ran with the execution lock released (the
#: committing session waited for its own record outside the lock), and
#: statements that had to settle another session's pending commit first
#: (wait for its fsync and finalize it, holding the lock) — see
#: :mod:`repro.sql.txn`.
COMMITS_SYNCED_UNLOCKED = "commits synced unlocked"
PENDING_COMMITS_SETTLED = "pending commits settled"
WAL_RECORDS = "wal records written"
WAL_REPLAYED = "wal records replayed"
SNAPSHOT_SCANS = "snapshot visibility scans"
#: Wire server (repro.server): connections accepted / rejected by the
#: admission gate / reaped by the idle timeout, Query messages executed,
#: queries answered with an ErrorResponse, and queries whose latency
#: crossed the slow-query threshold.  Bumped from executor worker
#: threads, hence the counter lock in :meth:`Profiler.bump`.
SERVER_CONNECTIONS = "server connections"
SERVER_REJECTED = "server connections rejected"
SERVER_IDLE_CLOSED = "server idle timeouts"
SERVER_QUERIES = "server queries"
SERVER_ERRORS = "server query errors"
SERVER_SLOW_QUERIES = "server slow queries"
#: Vectorized execution (executor/vector.py): one "batch" per column
#: batch the VectorScan stage produced (cancellation is polled once per
#: batch), "rows" summing the rows those batches carried before
#: filtering, "typed rows" those of them whose batch came with at least
#: one column the table vouches is all exact ints (``HeapTable.columns``).
#: "join rows" sums the joined rows the batch hash join (VectorHashJoin)
#: handed on, before its residual condition; its builds are counted as
#: hash-join builds, like the row operator's.  "fused rows" sums the rows
#: of the batches a fused aggregate core's one generated loop consumed
#: instead of the per-kernel chain.
#: A statement that falls back to the row engine mid-flight keeps the
#: bumps of the batches it already produced and counts one "fallback".
VECTOR_BATCHES = "vector batches"
VECTOR_ROWS = "vector rows"
VECTOR_TYPED_ROWS = "vector typed rows"
VECTOR_FUSED_ROWS = "vector fused rows"
VECTOR_JOIN_ROWS = "vector join rows"
VECTOR_FALLBACKS = "vector fallbacks"
#: Memoized subplans (executor/memo.py): a re-open of a Memoize node is a
#: "hit" when an earlier open with the same outer values left rows to
#: serve, else a "miss" that runs its child.  The first open of each
#: Memoize state passes straight through and counts as neither, unless an
#: entry carried from an earlier execution answers it (a hit).  "carried
#: hits" counts the Memoize hits and memoized trampoline calls answered by
#: an entry a machine template's memo kept from an earlier execution.
MEMO_HITS = "memo hits"
MEMO_MISSES = "memo misses"
MEMO_CARRIED_HITS = "memo carried hits"
#: Resource governance: statements killed by the cooperative cancel token
#: (wire CancelRequest, statement_timeout, interpreter budget), WAL logs
#: compacted to a snapshot prefix (CHECKPOINT or the auto-checkpoint
#: threshold), and fault-point firings from the deterministic injection
#: registry (:mod:`repro.faults`).
QUERIES_CANCELED = "queries canceled"
WAL_CHECKPOINTS = "wal checkpoints"
FAULTS_INJECTED = "faults injected"


class Profiler:
    """Stack-based exclusive phase timer plus event counters.

    Thread-safety: phase timing (``push``/``pop``) manipulates a single
    stack and is only ever called from code that already holds the
    database's execution lock, so it needs no locking of its own.
    Counters are different — the wire server bumps ``SERVER_*`` counters
    from the event loop and from executor worker threads *outside* the
    execution lock, so :meth:`bump` takes a dedicated counter lock
    (``counts[k] += n`` is a read-modify-write, not atomic under
    free-threading or arbitrary bytecode interleavings).
    """

    __slots__ = ("enabled", "times", "counts", "_stack", "_counts_lock")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, last_mark]
        self._counts_lock = threading.Lock()

    # -- timing --------------------------------------------------------

    def push(self, name: str) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        if self._stack:
            top = self._stack[-1]
            self.times[top[0]] += now - top[1]
        self._stack.append([name, now])

    def pop(self) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        top = self._stack.pop()
        self.times[top[0]] += now - top[1]
        if self._stack:
            self._stack[-1][1] = now

    @contextmanager
    def phase(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    # -- counters --------------------------------------------------------

    def bump(self, counter: str, amount: int = 1) -> None:
        if self.enabled:
            with self._counts_lock:
                self.counts[counter] += amount

    # -- reporting --------------------------------------------------------

    def reset(self) -> None:
        self.times.clear()
        self.counts.clear()
        self._stack.clear()

    def total_time(self) -> float:
        return sum(self.times.values())

    def percentages(self, phases=PHASES) -> dict[str, float]:
        """Share of total profiled time per phase, in percent."""
        total = self.total_time()
        if total <= 0:
            return {name: 0.0 for name in phases}
        return {name: 100.0 * self.times.get(name, 0.0) / total
                for name in phases}

    def report(self) -> str:
        lines = ["phase             time[s]    share"]
        total = self.total_time()
        for name in PHASES:
            seconds = self.times.get(name, 0.0)
            share = 100.0 * seconds / total if total else 0.0
            lines.append(f"{name:<16} {seconds:9.4f}  {share:6.2f}%")
        for counter in sorted(self.counts):
            lines.append(f"{counter:<28} {self.counts[counter]:>10}")
        return "\n".join(lines)
