"""Vectorized batch-at-a-time execution of the FROM→filter→project→aggregate
pipeline.

The paper's thesis is that set-oriented execution beats row-at-a-time
dispatch; PR 2 proved it for compiled UDFs.  This module applies the same
idea to plain SELECT blocks over base tables: instead of pulling one FROM
tick at a time through the Volcano ``next()`` chain (one ``EvalContext``
allocation and a closure-tree walk per row), the engine pulls **batches**
of ~:data:`BATCH_SIZE` ticks from a *batch source* and evaluates each
expression's *batch form* in tight loops over the columns.

This module holds no expression semantics.  What a node computes is one
entry of the kernel table in :mod:`repro.sql.expr` (its children, null
rule, type guard and scalar kernel, or its laziness rule), and
``ExprCompiler.compile_batch`` derives ``(batch, sel) -> column`` from the
same entry the row closure ``ctx -> value`` comes from.  An entry is
*row-only* — and the SELECT core then keeps its row plan — when it has no
batch form (subqueries, outer and composite column references) or is not
side-effect free (user-defined and volatile function calls).

**Batch sources** (``open(draining)`` / ``next_batch()``, one instance per
execution, planned by :class:`ScanSource` / :class:`JoinSource`):

* :class:`VectorScan` — slices a table's visible-row snapshot into
  :class:`Batch` objects and applies the leaf's pushed-down filter.  The
  snapshot is (re)read at *open* time, never at plan or instantiation
  time, so same-transaction DML is always seen (the stale-batch
  read-your-own-writes bug class).  Cancellation is polled once per batch.
  A batch's columns are slices of the columns the table keeps for that
  very row list (``HeapTable.columns``: transposed once per table version,
  each with the fact "every value is an exact int"), handed on as
  :class:`~repro.sql.expr.IntColumn` so a kernel tests a column's type
  once instead of once per element.
* :class:`VectorHashJoin` — the batch form of an INNER
  :class:`~.hashjoin.HashJoinPlan` whose inputs are batch sources
  themselves: drains the side the plan names into a hash table, probes one
  batch of the other side at a time, and hands on batches holding one row
  list per joined relation, in the row engine's output order.  The build
  table's rules are :func:`~.hashjoin.hash_keys`, the row operator's own.

Stages over whatever source the core has (composed by
:class:`BatchAdapterState`):

* :class:`VectorFilter` — narrows the *selection vector* (row indices
  where the predicate is TRUE) instead of copying the columns, one
  top-level conjunct at a time, each conjunct's batch form over the rows
  the earlier ones left (MonetDB/X100's selection vectors).  A NULL keeps
  its row a candidate but never selects it, so each conjunct runs, and
  raises, on exactly the rows the lazy AND of the row engine runs it on.
* :class:`VectorProject` — either a C-speed ``itemgetter`` row projection
  (when every select item is a bare column of one relation) or per-item
  batch forms, hidden ORDER BY keys included.
* :class:`VectorAggregate` — grouped/ungrouped aggregation whose
  accumulators fold each column **in the exact order the row engine
  delivers** with the scalar aggregates' own step semantics (see
  :func:`_accumulate`), so row and batch engines are numerically
  identical — including the order-dependent ``avg()`` over
  ``{7, -2^63, 2^63}`` bigints that PR 5's fuzzer pinned.

**Fused aggregate cores.**  An aggregating core over one scan whose
conditions, group keys and arguments are exact-int expressions, and whose
aggregates are non-DISTINCT count / sum / avg, also carries a
:class:`FusedAggregate`: one generated loop per core shape that filters,
keys and collects a batch's rows in a single pass, composed from the
kernel table's own ``fast`` templates (:meth:`ExprCompiler.typed_form`),
instead of one list per kernel, a selection vector and a gather per
argument.  It runs when the snapshot vouches at open that every column it
reads is all exact ints, and otherwise the per-kernel chain does.

:class:`BatchAdapterState` is the boundary operator: it extends
:class:`~.select_core.SelectCoreState`, drains the batch pipeline and
emits ordinary row tuples, so parents (Sort, TopN, Limit, joins, set ops,
recursion) keep consuming rows unchanged — one at a time (``next()``: a
streaming LIMIT stops after the batch that satisfies it) or a projected
batch or more at a time (the bulk pull ``next_rows()``, which Sort, TopN
and ``fetch_all`` drain through).

**What stays row-only.**  LEFT joins, nested-loop joins, LATERAL,
index-scan / subquery / CTE leaves, window and batched-UDF stages, and any
row-only expression: such a core keeps its :class:`SelectCorePlan`.

**Row fallback.**  Only side-effect-free entries have a batch form, so
batch evaluation has no observable side effects, and every kernel raises
classified engine errors (:class:`~repro.sql.errors.SqlError`), never bare
Python ones.  That makes a very simple error story sound:
if *any* engine error is raised while evaluating a batch — a join key of a
class the build side never saw included — the adapter poisons itself and
transparently re-runs the statement through the inherited row-at-a-time
machinery, skipping the rows it already emitted
(earlier batches were fully evaluated, and pure expressions over the same
MVCC snapshot reproduce them exactly, in the same order).  The row engine
then reproduces the error — or the absence of one — with exact
row-at-a-time ordering and laziness, e.g. an error in row 50 under
``LIMIT 3`` is never raised.
Cancellation (:class:`~repro.sql.errors.QueryCanceledError`) always
propagates and never triggers the fallback.

Thread-safety: all state here is per-execution; statements are serialized
by ``Database._exec_lock``, and the only module-level value,
:data:`BATCH_SIZE`, is read-only at run time (tests monkeypatch it to
sweep batch-boundary edge cases).
"""

from __future__ import annotations

import copy
from collections import defaultdict
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .. import ast as A
from ..astutil import split_conjuncts
from ..errors import (NameResolutionError, QueryCanceledError, SqlError,
                      TypeError_)
from ..expr import (BatchExpr, BoolColumn, EvalContext, ExprCompiler,
                    IntColumn, RowOnly, Scope, _as_bool, _make, selects)
from ..functions import AvgAgg, CountAgg, SumAgg, make_aggregate
from ..profiler import (HASHJOIN_BUILD_ROWS, HASHJOIN_BUILDS, VECTOR_BATCHES,
                        VECTOR_FALLBACKS, VECTOR_FUSED_ROWS, VECTOR_JOIN_ROWS,
                        VECTOR_ROWS, VECTOR_TYPED_ROWS)
from ..values import hashable_row as _hashable_row
from ..values import hashable_value as _hashable_value
from . import base
from .fromtree import FromLeafPlan
from .hashjoin import HashJoinPlan, hash_keys
from .scan import SeqScanPlan
from .select_core import AggStagePlan, SelectCorePlan, SelectCoreState

#: Rows per column batch.  Module-level (not a GUC) so tests can sweep it —
#: the differential suite runs batch sizes 1 and rows±1 to flush
#: off-by-one drain bugs that would hide at the default size.
BATCH_SIZE = 1024

#: Batches whose rows a grouped fused core files by group key before it
#: folds them into the group states: folding each group once per batch
#: was a fifth of ``analytic_scan``'s grouped shape, and this bounds what
#: is held in between.
FUSED_FOLD_BATCHES = 16


def _gather(col, rows: list) -> list:
    """The elements of *col* at *rows*; a gather of exact ints is still
    all exact ints, so the tag goes with them."""
    kind = IntColumn if type(col) is IntColumn else list
    return kind(map(col.__getitem__, rows))


class Batch:
    """A batch of FROM ticks: one row list per relation, and their column
    vectors.

    ``rels[r]`` holds relation *r*'s row tuple of each of the ``n`` ticks
    (None for a relation the batch's source does not cover).  ``facts[r]``
    is that relation's table's ``(row list, columns, exact_int)`` entry for
    the snapshot the rows come from, or None (see ``HeapTable.columns``).
    A scan's batch is rows ``lo .. lo + n`` of the snapshot, so a column is
    sliced out of the entry on first reference; a join's batch (``lo`` is
    None) or one without an entry picks the column out of the row tuples —
    projections that only need ``itemgetter`` row access pay for neither.
    ``sel`` is the selection vector the filters narrow: ``None`` means "all
    rows", otherwise a list of row indices that survived every predicate
    so far.
    """

    __slots__ = ("rels", "n", "rt", "sel", "facts", "lo", "_cols")

    def __init__(self, rels: list, n: int, rt, facts: Sequence,
                 lo: Optional[int] = None):
        self.rels = rels
        self.n = n
        self.rt = rt
        self.sel: Optional[list[int]] = None
        self.facts = facts
        self.lo = lo
        self._cols: dict = {}

    def column(self, rel: int, index: int, sel: Optional[list]) -> list:
        """Column *index* of relation *rel* at the rows *sel* (None: all of
        them), as an :class:`~repro.sql.expr.IntColumn` when the table
        vouches for it.  The batch's own copy of a column is cut (and
        tagged) on its first reference and kept, so ``k + k`` or ``k`` in
        WHERE and again in an aggregate argument share it."""
        col = self._cols.get((rel, index))
        if col is None:
            fact = self.facts[rel]
            if fact is not None and self.lo is not None:
                col = fact[1][index][self.lo:self.lo + self.n]
            else:
                col = list(map(itemgetter(index), self.rels[rel]))
            if fact is not None and fact[2][index]:
                col = IntColumn(col)
            self._cols[rel, index] = col
        return col if sel is None else _gather(col, sel)

    def selected(self) -> int:
        return self.n if self.sel is None else len(self.sel)

    def selected_rows(self, rel: int) -> Sequence[tuple]:
        rows = self.rels[rel]
        if self.sel is None:
            return rows
        return list(map(rows.__getitem__, self.sel))


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


class VectorFilter:
    """Narrows a batch's selection vector to the rows where a predicate is
    TRUE, one top-level conjunct at a time: each conjunct's batch form runs
    over the rows every earlier one left, and a ``BoolColumn`` result
    narrows them with ``compress``.  A NULL leaves its row a candidate for
    the later conjuncts but never selected, so each conjunct sees exactly
    the rows the lazy AND would evaluate it on, and raises (a non-boolean
    value included, as :func:`~repro.sql.expr.selects`) exactly when that
    would."""

    __slots__ = ("fns",)

    def __init__(self, fns: list[BatchExpr]):
        self.fns = fns

    def apply(self, batch: Batch) -> Batch:
        sel = batch.sel
        rows = range(batch.n) if sel is None else sel
        unknown: set = set()
        for fn in self.fns:
            pred = fn(batch, sel)
            if type(pred) is BoolColumn:
                keep = list(compress(rows, pred))
            else:
                keep = [i for i, v in zip(rows, pred)
                        if v is True or v is None
                        or v is not False and _as_bool(v)]
                if None in pred:
                    unknown.update(i for i, v in zip(rows, pred)
                                   if v is None)
            if len(keep) != len(rows):
                rows = sel = keep
                if not keep:
                    break
        if unknown:
            rows = [i for i in rows if i not in unknown]
        batch.sel = None if len(rows) == batch.n else rows
        return batch


class VectorScan:
    """Batch source over one base table: slices its visible-row snapshot
    into batches and applies the leaf's pushed-down filter.

    The snapshot is read at :meth:`open` — the same late binding as
    ``SeqScanState.open`` — so a rescan after same-transaction DML sees
    the new row list, and a batch can never outlive the ``visible_rows``
    cache entry it was built from.  With it comes the table's column entry
    for that very list (``HeapTable.columns``): a *draining* scan
    (aggregation, a sort above, a join's build side: every row is read) has
    it built, a streaming one only uses what is there.  Cancellation is
    polled once per batch (the batch bounds the reaction latency); the
    profiler counts batches, the rows they carried, and those of them that
    came with a typed column.
    """

    __slots__ = ("rt", "table", "rel", "filter", "rows", "facts", "typed",
                 "pos", "size")

    def __init__(self, rt, plan: "ScanSource", width: int):
        self.rt = rt
        self.table = rt.catalog.tables.get(plan.table_name)
        if self.table is None:
            raise NameResolutionError(f"unknown table {plan.table_name!r}")
        self.rel = plan.rel_index
        self.filter = plan.filter
        self.rows: Sequence[tuple] = ()
        self.facts: list = [None] * width
        self.typed = False
        self.pos = 0
        self.size = BATCH_SIZE

    def open(self, draining: bool) -> None:
        self.rows = rows = self.table.rows
        self.facts[self.rel] = fact = self.table.columns(rows, draining)
        self.typed = fact is not None and any(fact[2])
        self.pos = 0
        self.size = max(1, BATCH_SIZE)

    def next_range(self) -> Optional[tuple[int, int]]:
        """Claim the next batch — ``(lo, n)``: rows ``lo .. lo + n`` of the
        snapshot — polling cancellation and counting it; None when the
        snapshot is drained.  A fused aggregate core slices its columns
        out of the column entry itself and applies no filter here."""
        pos = self.pos
        n = min(self.size, len(self.rows) - pos)
        if n <= 0:
            return None
        self.rt.cancel.check()
        self.pos = pos + n
        profiler = self.rt.db.profiler
        profiler.bump(VECTOR_BATCHES)
        profiler.bump(VECTOR_ROWS, n)
        if self.typed:
            profiler.bump(VECTOR_TYPED_ROWS, n)
        return pos, n

    def next_batch(self) -> Optional[Batch]:
        claimed = self.next_range()
        if claimed is None:
            return None
        lo, n = claimed
        rels: list = [None] * len(self.facts)
        rels[self.rel] = self.rows[lo:lo + n]
        batch = Batch(rels, n, self.rt, self.facts, lo)
        return batch if self.filter is None else self.filter.apply(batch)


class VectorHashJoin:
    """Batch source joining two batch sources: the batch form of an INNER
    :class:`~.hashjoin.HashJoinPlan`, one batch of probe rows at a time.

    Everything observable is the row operator's: the side the plan names
    is drained into the table at :meth:`open` (kept across rescans unless
    the plan says ``rebuild_on_rescan``), keys follow
    :func:`~.hashjoin.hash_keys` (NULLs never match; a probe key of a class
    the build side never saw raises, which sends the statement to the row
    engine), ``HASHJOIN_BUILDS`` / ``HASHJOIN_BUILD_ROWS`` count the same
    events, and joined rows come out probe row by probe row, each with its
    matches in build order — which is what lets a fallback skip the rows
    already emitted.  The build side is kept as one row list per relation
    and the table maps a key to positions in them; a joined batch gathers
    its row lists through the matched positions and then passes the join's
    residual condition as a :class:`VectorFilter`.
    """

    __slots__ = ("rt", "plan", "probe", "build", "facts", "buckets",
                 "classes", "build_rels", "unique", "_batches")

    def __init__(self, rt, plan: "JoinSource", width: int):
        self.rt = rt
        self.plan = plan
        self.probe = plan.probe.instantiate(rt, width)
        self.build = plan.build.instantiate(rt, width)
        self.facts: list = [None] * width
        self.buckets: Optional[dict] = None  # None = not built yet
        self.classes: list[dict] = []
        self.build_rels: list = []
        self.unique = False  # does every build key have one row?
        self._batches = iter(())

    def open(self, draining: bool) -> None:
        if self.buckets is None or self.plan.node.rebuild_on_rescan:
            self._build()
        self.probe.open(draining)
        self.facts = [mine if mine is not None else theirs for mine, theirs
                      in zip(self.probe.facts, self.build.facts)]
        self._batches = self._join()

    def next_batch(self) -> Optional[Batch]:
        return next(self._batches, None)

    def _build(self) -> None:
        plan = self.plan
        build = self.build
        build.open(True)
        rels: list = [None] * len(self.facts)
        for rel in plan.build.rels:
            rels[rel] = []
        buckets: dict = defaultdict(list)
        classes: list[dict] = [{} for _ in plan.build_keys]
        base = 0
        # The source drains finite row snapshots and polls the cancel token
        # once per batch.
        while True:  # lint: bounded
            batch = build.next_batch()
            if batch is None:
                break
            if not batch.selected():
                continue
            sel = batch.sel
            keys = hash_keys([fn(batch, sel) for fn in plan.build_keys],
                             classes, False)
            for pos, key in enumerate(keys, base):
                if key is not None:
                    buckets[key].append(pos)
            for rel in plan.build.rels:
                rels[rel].extend(batch.selected_rows(rel))
            base += batch.selected()
        self.buckets, self.classes, self.build_rels = buckets, classes, rels
        keyed = sum(map(len, buckets.values()))
        self.unique = keyed == len(buckets)
        profiler = self.rt.db.profiler
        profiler.bump(HASHJOIN_BUILDS)
        profiler.bump(HASHJOIN_BUILD_ROWS, keyed)

    def _join(self):
        """Generator of joined batches.  A probe batch whose rows match
        many build rows each is handed on in pieces of about a batch."""
        plan = self.plan
        find = self.buckets.get
        size = max(1, BATCH_SIZE)
        # The probe source drains finite row snapshots and polls the cancel
        # token once per batch, _emit once per joined batch.
        while True:  # lint: bounded
            batch = self.probe.next_batch()
            if batch is None:
                return
            if not batch.selected():
                continue
            sel = batch.sel
            keys = hash_keys([fn(batch, sel) for fn in plan.probe_keys],
                             self.classes, True)
            found = map(find, keys)
            if self.unique:
                # At most one match per probe row: one joined batch.
                found = list(found)
                ppos = [p for p, hits in enumerate(found) if hits is not None]
                if ppos:
                    yield self._emit(batch, ppos, [hits[0] for hits in found
                                                   if hits is not None])
                continue
            ppos, bpos = [], []
            for p, hits in enumerate(found):
                if hits is None:
                    continue
                ppos.extend([p] * len(hits))
                bpos.extend(hits)
                if len(bpos) >= size:
                    yield self._emit(batch, ppos, bpos)
                    ppos, bpos = [], []
            if bpos:
                yield self._emit(batch, ppos, bpos)

    def _emit(self, batch: Batch, ppos: list, bpos: list) -> Batch:
        """The joined batch of probe rows *ppos* (positions among the
        selected rows of *batch*) with build rows *bpos*."""
        self.rt.cancel.check()
        plan = self.plan
        if batch.sel is not None:
            ppos = list(map(batch.sel.__getitem__, ppos))
        rels: list = [None] * len(self.facts)
        for rel in plan.probe.rels:
            rels[rel] = list(map(batch.rels[rel].__getitem__, ppos))
        for rel in plan.build.rels:
            rels[rel] = list(map(self.build_rels[rel].__getitem__, bpos))
        self.rt.db.profiler.bump(VECTOR_JOIN_ROWS, len(bpos))
        joined = Batch(rels, len(bpos), self.rt, self.facts)
        if plan.residual is not None:
            plan.residual.apply(joined)
        return joined


class VectorProject:
    """Projects a filtered batch into output row tuples.

    When every select item is a bare column of one relation the projection
    is a single C-speed ``itemgetter`` map over the surviving row tuples (no
    column is ever cut); otherwise each item's batch evaluator produces an
    output column and the columns are zipped back into rows.
    """

    __slots__ = ("fns", "fast", "rel")

    def __init__(self, fns: list[BatchExpr]):
        self.fns = fns
        refs = [getattr(fn, "col_ref", None) for fn in fns]
        self.fast = None
        self.rel = None
        if None not in refs and len({rel for rel, _ in refs}) == 1:
            self.rel = refs[0][0]
            if len(refs) == 1:
                getter = itemgetter(refs[0][1])
                self.fast = lambda rows: [(v,) for v in map(getter, rows)]
            else:
                getter = itemgetter(*[index for _, index in refs])
                self.fast = lambda rows: list(map(getter, rows))

    def rows(self, batch: Batch) -> list[tuple]:
        if self.fast is not None:
            return self.fast(batch.selected_rows(self.rel))
        cols = [fn(batch, batch.sel) for fn in self.fns]
        return list(zip(*cols))


def _accumulate(agg, state, col, exact: bool = False):
    """Fold *col* into *state* in column order (*exact*: *col* holds exact
    ints, whatever its type says).

    ``sum``/``avg``/``count`` get inlined loops that are statement-for-
    statement the scalar ``step`` bodies (same None skip, same bool/type
    rejection, same exact-bigint accumulation seeded by ``AvgAgg.create``'s
    ``(0, 0)`` — the PR 5 order-dependent-avg fix); every other aggregate
    calls the scalar ``step`` itself.  Either way values are accumulated
    in the order SeqScan delivers them, so row and batch engines agree
    bit for bit.

    An :class:`~repro.sql.expr.IntColumn` has nothing to skip or reject,
    and ``sum(col, state)`` *is* that left-to-right fold, in C — taken only
    while the running total is itself an exact int, so a total some
    earlier float made a float keeps the loop below and its rounding.
    """
    if exact or type(col) is IntColumn:
        if type(agg) is SumAgg and (state is None or type(state) is int):
            return sum(col, state or 0) if col else state
        if type(agg) is AvgAgg and type(state[1]) is int:
            return (state[0] + len(col), sum(col, state[1]))
        if type(agg) is CountAgg and not agg.star:
            return state + len(col)
    if type(agg) is SumAgg:
        for v in col:
            if v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError_("sum expects numbers")
            state = v if state is None else state + v
        return state
    if type(agg) is AvgAgg:
        count, total = state
        for v in col:
            if v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError_("avg expects numbers")
            count += 1
            total = total + v
        return (count, total)
    if type(agg) is CountAgg and not agg.star:
        for v in col:
            if v is not None:
                state += 1
        return state
    step = agg.step
    for v in col:
        state = step(state, v)
    return state


class VectorAggregate:
    """Grouped/ungrouped aggregation over batches.

    Reuses the scalar aggregate state machines (``make_aggregate``) for
    creation and finalization; accumulation goes through
    :func:`_accumulate`.  The ungrouped case folds whole argument columns
    per aggregate; the grouped case buckets the batch's rows by key and
    folds each bucket's values (exactly the scalar loop's per-group order,
    minus the per-row ``EvalContext`` and closure dispatch).  Calls over
    the same argument (``sum(v), avg(v)``; :func:`vectorize_core` says
    what "same" is) share one ``arg_fns`` entry, so the argument is
    evaluated, and gathered per group, once.
    """

    __slots__ = ("stage", "key_fns", "arg_fns", "aggs", "groups",
                 "group_values", "distinct_seen", "states", "dsets", "fused",
                 "filed", "filed_batches")

    def __init__(self, stage: AggStagePlan, key_fns: list[BatchExpr],
                 arg_fns: list[Optional[BatchExpr]], once: EvalContext,
                 fused: Optional["FusedAggregate"] = None):
        self.stage = stage
        self.key_fns = key_fns
        self.arg_fns = arg_fns
        #: The fused loop, when it runs: its batches go to add_fused.
        self.fused = fused
        self.filed: dict = defaultdict(list)
        self.filed_batches = 0
        self.aggs = [make_aggregate(c.name, c.star, c.separator, once)
                     for c in stage.agg_calls]
        self.groups: dict[tuple, list] = {}
        self.group_values: dict[tuple, tuple] = {}
        self.distinct_seen: dict[tuple, list[set]] = {}
        # Ungrouped fast path: one state vector, per-call distinct sets.
        self.states = ([agg.create() for agg in self.aggs]
                       if not stage.group_keys else None)
        self.dsets = [set() if c.distinct and not c.star else None
                      for c in stage.agg_calls]

    def add_batch(self, batch: Batch) -> None:
        stage = self.stage
        calls = stage.agg_calls
        sel = batch.sel
        m = batch.selected()
        if m == 0:
            return
        arg_cols: dict = {}
        for fn in self.arg_fns:
            if fn is not None and fn not in arg_cols:
                arg_cols[fn] = fn(batch, sel)
        if self.states is not None:
            for index, (call, agg) in enumerate(zip(calls, self.aggs)):
                if call.star:
                    # count(*): CountAgg's ``state + 1`` per row, m times.
                    self.states[index] += m
                    continue
                col = arg_cols[self.arg_fns[index]]
                dset = self.dsets[index]
                if dset is None:
                    self.states[index] = _accumulate(agg, self.states[index],
                                                     col)
                    continue
                state = self.states[index]
                step = agg.step
                for v in col:
                    marker = _hashable_value(v)
                    if marker in dset:
                        continue
                    dset.add(marker)
                    state = step(state, v)
                self.states[index] = state
            return
        key_cols = [fn(batch, sel) for fn in self.key_fns]
        # Bucket the batch's rows by group key (dict order = first
        # occurrence in scan order, exactly the row engine's group order),
        # then fold each bucket's argument values column-at-a-time.  Each
        # group's values arrive in scan order relative to that group, so
        # per-group aggregate states match the row engine's interleaved
        # per-row stepping bit for bit.
        if len(key_cols) > 1:
            keys = map(_hashable_row, zip(*key_cols))
        elif type(key_cols[0]) is IntColumn:
            keys = key_cols[0]  # an exact int is its own hashable stand-in
        else:
            keys = map(_hashable_value, key_cols[0])
        buckets: dict = defaultdict(list)
        for r, key in enumerate(keys):
            buckets[key].append(r)
        groups = self.groups
        for key, rows in buckets.items():
            states = groups.get(key)
            if states is None:
                states = groups[key] = [agg.create() for agg in self.aggs]
                first = rows[0]
                self.group_values[key] = tuple(col[first] for col in key_cols)
                self.distinct_seen[key] = [set() for _ in self.aggs]
            dsets = self.distinct_seen[key]
            gathered: dict = {}
            for index, (call, agg) in enumerate(zip(calls, self.aggs)):
                if call.star:  # count(*)
                    states[index] += len(rows)
                    continue
                fn = self.arg_fns[index]
                if call.distinct:
                    col = arg_cols[fn]
                    seen = dsets[index]
                    step = agg.step
                    state = states[index]
                    for r in rows:
                        value = col[r]
                        marker = _hashable_value(value)
                        if marker in seen:
                            continue
                        seen.add(marker)
                        state = step(state, value)
                    states[index] = state
                else:
                    col = gathered.get(fn)
                    if col is None:
                        col = gathered[fn] = _gather(arg_cols[fn], rows)
                    states[index] = _accumulate(agg, states[index], col)

    def add_fused(self, cols: list) -> None:
        """Run one batch through the fused core's generated loop; *cols*
        are the batch's slices of the columns it reads.  Ungrouped, what
        the passing rows carry is folded at once.  Grouped, it is filed
        under the group keys, in the order the loop meets them (scan
        order), and folded every :data:`FUSED_FOLD_BATCHES` batches."""
        if self.states is not None:
            self._fold(self.states, self.fused.run(*cols))
            return
        self.fused.run(self.filed, *cols)
        self.filed_batches += 1
        if self.filed_batches >= FUSED_FOLD_BATCHES:
            self._fold_filed()

    def _fold_filed(self) -> None:
        groups = self.groups
        for key, items in self.filed.items():
            states = groups.get(key)
            if states is None:
                states = groups[key] = [agg.create() for agg in self.aggs]
                self.group_values[key] = (key if self.fused.keys > 1
                                          else (key,))
            self._fold(states, items)
        self.filed.clear()
        self.filed_batches = 0

    def _fold(self, states: list, items: list) -> None:
        """Fold what one group's passing rows carried (one item per row,
        see :func:`_fused_form`) into its states: ``count(*)`` adds the
        row count, the others fold their argument's exact ints."""
        width = self.fused.width
        if width == 1:
            cols = [items]
        elif width:
            cols = list(zip(*items)) or [()] * width
        else:
            cols = []
        for index, (arg, agg) in enumerate(zip(self.fused.arg_of,
                                               self.aggs)):
            states[index] = (states[index] + len(items) if arg is None else
                             _accumulate(agg, states[index], cols[arg], True))

    def finish(self) -> tuple[dict, dict]:
        """The (groups, group_values) maps, with the ungrouped fold folded
        in — including the empty-input "one row of empty finals" case."""
        if self.filed:
            self._fold_filed()
        if self.states is not None:
            self.groups[()] = self.states
            self.group_values[()] = ()
        return self.groups, self.group_values


# ---------------------------------------------------------------------------
# Plan-time qualification
# ---------------------------------------------------------------------------


class ScanSource:
    """Plan of a :class:`VectorScan`: a base-table leaf of the FROM tree and
    the batch form of its pushed-down conjuncts."""

    __slots__ = ("table_name", "rel_index", "filter", "rels")

    def __init__(self, table_name: str, rel_index: int,
                 filter: Optional[VectorFilter]):
        self.table_name = table_name
        self.rel_index = rel_index
        self.filter = filter
        self.rels = (rel_index,)

    def instantiate(self, rt, width: int) -> VectorScan:
        return VectorScan(rt, self, width)

    def explain(self, depth: int) -> str:
        return ("  " * depth + f"-> VectorScan on {self.table_name} "
                f"(batch={BATCH_SIZE})"
                + ("  (pushed-down filter)" if self.filter else ""))


class JoinSource:
    """Plan of a :class:`VectorHashJoin`: the :class:`HashJoinPlan` *node*
    it is the batch form of, the sources of its probe and build side, and
    the batch forms of their keys and of the join's residual."""

    __slots__ = ("node", "probe", "build", "probe_keys", "build_keys",
                 "residual", "rels")

    def __init__(self, node: HashJoinPlan, left, right,
                 left_keys: list[BatchExpr], right_keys: list[BatchExpr],
                 residual: Optional[VectorFilter]):
        self.node = node
        sides = [(left, left_keys), (right, right_keys)]
        if node.build_side == "left":
            sides.reverse()
        (self.probe, self.probe_keys), (self.build, self.build_keys) = sides
        self.residual = residual
        self.rels = left.rels + right.rels

    def instantiate(self, rt, width: int) -> VectorHashJoin:
        return VectorHashJoin(rt, self, width)

    def explain(self, depth: int) -> str:
        node = self.node
        left, right = ((self.probe, self.build) if node.build_side == "right"
                       else (self.build, self.probe))
        return "\n".join([
            "  " * depth + f"-> VectorHashJoin INNER JOIN "
            f"({node.key_display}) [build={node.build_side}]",
            left.explain(depth + 1), right.explain(depth + 1)])


def _batchable(node) -> bool:
    """Is this FROM tree made only of INNER hash joins over non-lateral
    base-table scans?  (Index-scan, subquery and CTE leaves, LEFT joins
    and nested loops keep the row engine.)"""
    if isinstance(node, FromLeafPlan):
        return not node.lateral and isinstance(node.source, SeqScanPlan)
    return (isinstance(node, HashJoinPlan) and node.kind == "inner"
            and _batchable(node.left) and _batchable(node.right))


def _source(node, scope: Scope):
    """The batch source of the :func:`_batchable` FROM tree *node*; raises
    :class:`RowOnly` from a filter, key or residual without a batch form."""
    if isinstance(node, FromLeafPlan):
        return ScanSource(node.source.table_name, node.rel_index,
                          _filter(ExprCompiler(scope), node.filter_ast))
    left, right = _source(node.left, scope), _source(node.right, scope)
    left_keys, right_keys, residual, on_scope = node.asts
    compiler = ExprCompiler(on_scope)
    batch = compiler.compile_batch
    return JoinSource(
        node, left, right, [batch(key) for key in left_keys],
        [batch(key) for key in right_keys], _filter(compiler, residual))


def _filter(compiler: ExprCompiler,
            predicate: Optional[A.Expr]) -> Optional[VectorFilter]:
    """The :class:`VectorFilter` of *predicate* (None: no filter), one
    batch form per top-level conjunct; raises :class:`RowOnly` like
    ``compile_batch``."""
    if predicate is None:
        return None
    return VectorFilter([compiler.compile_batch(conjunct)
                         for conjunct in split_conjuncts(predicate)])


@lru_cache(maxsize=None)
def _fused_form(conds: tuple, keys: tuple, args: tuple, columns: int,
                literals: int) -> Callable:
    """Generate the loop of one fused aggregate core shape: ``make(l0, ..)
    -> run``.  ``run(c0, ..)`` takes one batch's slices of the columns the
    core reads and returns, per row that passes every condition, its item:
    the value of the one distinct aggregate argument, a tuple of them, or
    0 when no aggregate takes one.  Grouped, ``run(groups, c0, ..)`` files
    the items under their group key in *groups*, a ``defaultdict(list)``.
    The texts name columns and literals (and parameters), never a value,
    so the statements of one shape share one entry whatever their
    literals."""
    cols = [f"c{i}" for i in range(columns)]
    names = [f"x{i}" for i in range(columns)]
    loop = (f"for {names[0]} in {cols[0]}" if columns == 1
            else f"for {', '.join(names)} in zip({', '.join(cols)})")
    cond = " and ".join(f"({text})" for text in conds)
    item = "0" if not args else f"({args[0]})" if len(args) == 1 \
        else f"({', '.join(args)})"
    if keys:
        key = f"({keys[0]})" if len(keys) == 1 else f"({', '.join(keys)})"
        body = f"groups[{key}].append({item})"
        lines = [f"def run(groups, {', '.join(cols)}):", f"    {loop}:"]
        lines += [f"        if {cond}:", f"            {body}"] if conds \
            else [f"        {body}"]
    elif not conds and (not args or len(args) == 1 and args[0] in names):
        # Every row passes: the column itself is the items (or, with no
        # argument, as many as there are rows) - copying it per batch would
        # make ``sum(v)`` over a whole table slower than the per-kernel
        # path's one ``sum()``.
        bare = names.index(args[0]) if args else 0
        lines = [f"def run({', '.join(cols)}):", f"    return {cols[bare]}"]
    else:
        test = f" if {cond}" if conds else ""
        lines = [f"def run({', '.join(cols)}):",
                 f"    return [{item} {loop}{test}]"]
    return _make(lines, tuple(f"l{i}" for i in range(literals)),
                 "fused aggregate")


class FusedAggregate:
    """Plan of a fused aggregate core: the generated loop of its shape
    (:func:`_fused_form`'s ``make``, to be given the ``literals``) over the
    columns ``columns`` of relation ``rel``, its number of group ``keys``,
    the ``width`` of an item and, per aggregate call, the item position of
    its argument (None: ``count(*)``).  A literal that is a parameter
    (``$n``, an ``A.Param`` among the ``literals``) is bound when the plan
    is opened (:meth:`bind`); the loop of a core with none is ``run``.

    It runs only when, at open, the scan's snapshot vouches that every one
    of those columns is all exact ints (``HeapTable.columns``) and every
    parameter it reads is one; otherwise the core takes the per-kernel
    path.  Its texts are the kernel table's
    ``fast`` templates (:meth:`ExprCompiler.typed_form`), which for exact
    ints are what the typed batch shapes run, and Python's ``and`` over
    them is SQL AND over non-NULL booleans with the row engine's per-row
    laziness.  An engine error it raises (a division by zero) sends the
    statement to the row engine like any batch error."""

    __slots__ = ("rel", "columns", "make", "literals", "run", "keys",
                 "width", "arg_of")

    def __init__(self, rel: int, columns: list[int], make: Callable,
                 literals: tuple, keys: int, width: int,
                 arg_of: list[Optional[int]]):
        self.rel = rel
        self.columns = columns
        self.make = make
        self.literals = literals
        self.run = None if any(type(literal) is A.Param
                               for literal in literals) else make(*literals)
        self.keys = keys
        self.width = width
        self.arg_of = arg_of

    def bind(self, params: Sequence) -> Optional["FusedAggregate"]:
        """This core with the values of its parameters in its loop, or
        None when one of them is not an exact int (or not supplied)."""
        if self.run is not None:
            return self
        values = []
        for literal in self.literals:
            if type(literal) is A.Param:
                index = literal.index - 1
                literal = params[index] if index < len(params) else None
                if type(literal) is not int:
                    return None
            values.append(literal)
        bound = copy.copy(self)
        bound.run = self.make(*values)
        return bound

    def table_columns(self, facts: Sequence) -> Optional[list]:
        """The whole columns the loop reads, out of the scan's column
        entry *facts*, if it vouches that each is all exact ints."""
        fact = facts[self.rel]
        if fact is None or not all(fact[2][c] for c in self.columns):
            return None
        return [fact[1][c] for c in self.columns]


#: The aggregates a fused core folds: over exact ints each is a ``len`` or
#: a ``sum`` (:func:`_accumulate`).
_FUSED_AGGREGATES = ("count", "sum", "avg")


def _fuse(base: SelectCorePlan, core: A.SelectCore, where: Optional[A.Expr],
          scope: Scope) -> Optional[FusedAggregate]:
    """The :class:`FusedAggregate` of an aggregating core over one scan, or
    None: when an aggregate is DISTINCT or not a count / sum / avg, or a
    condition (a conjunct of the leaf's pushed-down filter, then of
    *where*), group key or argument has no exact-int form."""
    leaf, calls = base.from_plan, base.agg_stage.agg_calls
    if not isinstance(leaf, FromLeafPlan) or any(
            call.distinct or call.name not in _FUSED_AGGREGATES
            for call in calls):
        return None
    typed_form = ExprCompiler(scope).typed_form
    columns: dict = {}
    literals: list = []

    def texts(exprs, yields) -> Optional[tuple]:
        out = []
        for expr in exprs:
            form = typed_form(expr, columns, literals)
            if form is None or form[1] is not yields:
                return None
            out.append(form[0])
        return tuple(out)

    conds = texts([conjunct for pred in (leaf.filter_ast, where)
                   if pred is not None for conjunct in split_conjuncts(pred)],
                  BoolColumn)
    keys = texts(core.group_by, IntColumn)
    # One item position per distinct argument, told apart by ``repr`` as
    # in vectorize_core.
    distinct: dict = {}
    for call in calls:
        if not call.star:
            distinct.setdefault(repr(call.arg_ast), call.arg_ast)
    positions = {key: index for index, key in enumerate(distinct)}
    arg_of = [None if call.star else positions[repr(call.arg_ast)]
              for call in calls]
    args = texts(distinct.values(), IntColumn)
    if conds is None or keys is None or args is None or not columns:
        return None
    make = _fused_form(conds, keys, args, len(columns), len(literals))
    return FusedAggregate(leaf.rel_index, [col for _, col in columns],
                          make, tuple(literals), len(keys), len(args), arg_of)


class VectorSpec:
    """Batch-compiled artifacts of one vectorizable SELECT core."""

    __slots__ = ("source", "draining", "where", "project", "key_fns",
                 "arg_fns", "fused")

    def __init__(self, source, draining: bool, where: Optional[VectorFilter],
                 project: Optional[VectorProject],
                 key_fns: Optional[list[BatchExpr]],
                 arg_fns: Optional[list[Optional[BatchExpr]]],
                 fused: Optional[FusedAggregate] = None):
        self.source = source
        #: Will every row be read (aggregation, a sort above)?
        self.draining = draining
        self.where = where
        self.project = project
        self.key_fns = key_fns
        self.arg_fns = arg_fns
        #: The one-loop form of an aggregating core over one scan.
        self.fused = fused


def vectorize_core(base: SelectCorePlan, core: A.SelectCore,
                   item_exprs: Sequence[A.Expr], scope: Scope,
                   where: Optional[A.Expr],
                   sorted_above: bool) -> Optional["VectorizedCorePlan"]:
    """Batch-compile *base* (already fully planned for the row engine) into
    a :class:`VectorizedCorePlan`, or return ``None``: when its FROM tree
    is not :func:`_batchable` — decided first, on the plan nodes alone — or
    when any needed expression contains a row-only kernel-table entry.

    The caller (the planner) has already established that the core has no
    window stage.  *where* is what predicate pushdown left of
    the WHERE clause above the FROM tree; the conjuncts it moved come back
    as the leaves' filters and the joins' keys.  Beyond those, expression
    support is needed for either every select item and hidden ORDER BY key
    (*item_exprs*; streaming) or every group key and aggregate argument
    (aggregation — HAVING and the post-aggregation projections, ORDER BY
    keys included, run row-wise over the few group rows, so they stay on
    the scalar closures and need no batch support).
    """
    if base.from_plan is None or not _batchable(base.from_plan):
        return None
    compiler = ExprCompiler(scope)
    batch = compiler.compile_batch
    project = key_fns = arg_fns = None
    try:
        source = _source(base.from_plan, scope)
        where_filter = _filter(compiler, where)
        if base.agg_stage is not None:
            key_fns = [batch(key) for key in core.group_by]
            # One batch form per distinct argument: ``sum(v), avg(v)``
            # evaluate ``v`` once per batch.  Told apart by ``repr``, not
            # ``==``: ``Literal(2) == Literal(2.0) == Literal(True)``, and
            # ``v / 2`` is not ``v / 2.0``.
            forms: dict = {}
            arg_fns = []
            for call in base.agg_stage.agg_calls:
                key = repr(call.arg_ast)
                if not call.star and key not in forms:
                    forms[key] = batch(call.arg_ast)
                arg_fns.append(None if call.star else forms[key])
        else:
            project = VectorProject([batch(item) for item in item_exprs])
    except RowOnly:
        return None
    draining = base.agg_stage is not None or sorted_above
    fused = (_fuse(base, core, where, scope)
             if base.agg_stage is not None and isinstance(source, ScanSource)
             else None)
    spec = VectorSpec(source, draining, where_filter, project, key_fns,
                      arg_fns, fused)
    return VectorizedCorePlan(base, spec)


# ---------------------------------------------------------------------------
# The boundary operator
# ---------------------------------------------------------------------------


class VectorizedCorePlan(SelectCorePlan):
    """A SELECT core that executes batch-at-a-time.

    Subclasses :class:`SelectCorePlan` and keeps every row-engine field
    intact, so the inherited machinery *is* the fallback plan: the state
    can switch to row-at-a-time execution mid-statement without replanning
    (see :class:`BatchAdapterState`).
    """

    __slots__ = ("vspec",)

    def __init__(self, base: SelectCorePlan, vspec: VectorSpec):
        super().__init__(
            output_columns=base.output_columns,
            n_relations=base.n_relations,
            from_plan=base.from_plan,
            where=base.where,
            where_subplans=base.where_subplans,
            agg_stage=base.agg_stage,
            window_stage=base.window_stage,
            project_exprs=base.project_exprs,
            project_subplans=base.project_subplans,
            distinct=base.distinct,
        )
        self.vspec = vspec

    def label(self) -> str:
        return "Vectorized" + super().label()

    def explain(self, indent: int = 0) -> str:
        spec = self.vspec
        lines = ["  " * indent + "-> " + self.label()
                 + f"  [{', '.join(self.output_columns)}]"]
        # Row-wise over the group rows: HAVING and the post-aggregation
        # projections, which may call a compiled function.
        lines.extend(self.call_sites(indent + 1))
        depth = indent + 1
        if self.agg_stage is not None:
            stage = self.agg_stage
            lines.append("  " * depth + "-> VectorAggregate "
                         f"({len(stage.group_keys)} keys, "
                         f"{len(stage.agg_calls)} calls)")
            depth += 1
        elif spec.project is not None:
            kind = "columns" if spec.project.fast is not None else "exprs"
            lines.append("  " * depth + f"-> VectorProject ({kind})")
            depth += 1
        if spec.where is not None:
            lines.append("  " * depth + "-> VectorFilter")
            depth += 1
        lines.append(spec.source.explain(depth))
        return "\n".join(lines)

    def instantiate(self, rt, ictx=None) -> "BatchAdapterState":
        return BatchAdapterState(rt, self, ictx)


class BatchAdapterState(SelectCoreState):
    """Boundary operator: drains the batch pipeline, emits row tuples.

    Extends :class:`SelectCoreState`, so DISTINCT, HAVING, the
    post-aggregation projections and the materialized-output protocol are
    the inherited row-engine code paths — only the hot FROM→WHERE→
    project/aggregate loop is replaced by batches.  On any engine error
    during batch evaluation the state *poisons* itself and re-executes
    through the inherited row path (see the module docstring for why that
    is observably identical).
    """

    __slots__ = ("_source", "_filter", "_use_vector", "_poisoned",
                 "_vbuf", "_vbuf_pos", "_emitted")

    def __init__(self, rt, plan: VectorizedCorePlan, ictx):
        super().__init__(rt, plan, ictx)
        self._source = plan.vspec.source.instantiate(rt, plan.n_relations)
        self._filter = plan.vspec.where
        self._use_vector = True
        self._poisoned = False
        self._vbuf: list[tuple] = []
        self._vbuf_pos = 0
        self._emitted = 0

    # ------------------------------------------------------------------

    def open(self, outer) -> None:
        if not self._poisoned:
            self._use_vector = True
            self._vbuf = []
            self._vbuf_pos = 0
            self._emitted = 0
            # The inherited FROM tree is the fallback: it stays closed (no
            # row hash table is built beside the batch one).
            from_state, self.from_state = self.from_state, None
            try:
                self._source.open(self.plan.vspec.draining)
                super().open(outer)  # aggregation runs vectorized in here
                return
            except QueryCanceledError:
                raise
            except SqlError:
                self._poison()
            finally:
                self.from_state = from_state
        self._use_vector = False
        super().open(outer)

    def next(self) -> Optional[tuple]:
        if not self._use_vector or self.materialized is not None:
            return super().next()
        if self._vbuf_pos >= len(self._vbuf):
            try:
                rows = self._next_batch_rows()
            except QueryCanceledError:
                raise
            except SqlError:
                return self._fall_back()
            if rows is None:
                return None
            self._vbuf = rows
            self._vbuf_pos = 0
        row = self._vbuf[self._vbuf_pos]
        self._vbuf_pos += 1
        self._emitted += 1
        return row

    def next_rows(self) -> list[tuple]:
        if not self._use_vector or self.materialized is not None:
            return super().next_rows()
        out = self._vbuf[self._vbuf_pos:]
        self._vbuf = []
        self._vbuf_pos = 0
        try:
            # lint: bounded — every turn takes a batch of a finite snapshot
            while len(out) < base.ROWS_PER_PULL:
                rows = self._next_batch_rows()
                if rows is None:
                    break
                out += rows
        except QueryCanceledError:
            raise
        except SqlError:
            self._emitted += len(out)
            row = self._fall_back()
            return out if row is None else out + [row] + super().next_rows()
        self._emitted += len(out)
        return out

    # ------------------------------------------------------------------

    def _next_batch_rows(self) -> Optional[list[tuple]]:
        """The output rows of the next batch that has any (DISTINCT
        applied), or None when the source is drained."""
        project = self.plan.vspec.project
        # The source drains finite row snapshots and polls the cancel token
        # once per batch.
        while True:  # lint: bounded
            batch = self._source.next_batch()
            if batch is None:
                return None
            if self._filter is not None:
                self._filter.apply(batch)
            if not batch.selected():
                continue
            rows = project.rows(batch)
            if self.seen is not None:
                rows = list(filter(self._distinct_ok, rows))
            if rows:
                return rows

    def _poison(self) -> None:
        self._poisoned = True
        self.rt.db.profiler.bump(VECTOR_FALLBACKS)

    def _fall_back(self) -> Optional[tuple]:
        """Re-execute through the inherited row engine, skipping the rows
        already emitted (pure expressions over the same snapshot reproduce
        them exactly)."""
        self._poison()
        self._use_vector = False
        emitted = self._emitted
        super().open(self.outer)
        for _ in range(emitted):
            if super().next() is None:
                break
        return super().next()

    # ------------------------------------------------------------------

    def _run_aggregation(self, stage: AggStagePlan) -> list[tuple]:
        if not self._use_vector:
            return super()._run_aggregation(stage)
        spec = self.plan.vspec
        source = self._source
        fused = spec.fused
        columns = None if fused is None else fused.table_columns(source.facts)
        if columns is not None:
            fused = fused.bind(self.rt.params)
            if fused is None:
                columns = None
        vagg = VectorAggregate(stage, spec.key_fns, spec.arg_fns,
                               EvalContext(self.rt, (), parent=self.outer),
                               None if columns is None else fused)
        # The source drains finite row snapshots and polls the cancel token
        # once per batch.
        if columns is not None:
            profiler = self.rt.db.profiler
            while True:  # lint: bounded
                claimed = source.next_range()
                if claimed is None:
                    break
                lo, n = claimed
                vagg.add_fused([col[lo:lo + n] for col in columns])
                profiler.bump(VECTOR_FUSED_ROWS, n)
        else:
            while True:  # lint: bounded
                batch = source.next_batch()
                if batch is None:
                    break
                if self._filter is not None:
                    self._filter.apply(batch)
                vagg.add_batch(batch)
        groups, group_values = vagg.finish()
        # Finalization + HAVING: the inherited row-engine tail, verbatim.
        out: list[tuple] = []
        for key, states in groups.items():
            finals = tuple(agg.final(state)
                           for agg, state in zip(vagg.aggs, states))
            row = group_values[key] + finals
            vec = (row,)
            if stage.having is not None:
                ctx = EvalContext(self.rt, vec, parent=self.outer,
                                  slots=self.having_slots)
                if not selects(stage.having(ctx)):
                    continue
            out.append(vec)
        return out
