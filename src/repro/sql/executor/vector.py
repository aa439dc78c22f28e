"""Vectorized batch-at-a-time execution of the scan→filter→project→aggregate
pipeline.

The paper's thesis is that set-oriented execution beats row-at-a-time
dispatch; PR 2 proved it for compiled UDFs.  This module applies the same
idea to plain SELECT blocks over a single base table: instead of pulling
one dict-row at a time through the Volcano ``next()`` chain (one
``EvalContext`` allocation and a closure-tree walk per row), the engine
pulls **column batches** of ~:data:`BATCH_SIZE` rows straight from
``HeapTable.visible_rows`` and evaluates each expression's *batch form*
in tight loops over the columns.

This module holds no expression semantics.  What a node computes is one
entry of the kernel table in :mod:`repro.sql.expr` (its children, null
rule, type guard and scalar kernel, or its laziness rule), and
``ExprCompiler.compile_batch`` derives ``(batch, sel) -> column`` from the
same entry the row closure ``ctx -> value`` comes from.  An entry is
*row-only* — and the SELECT core then keeps its row plan — when it has no
batch form (subqueries, outer and composite column references) or is not
side-effect free (user-defined and volatile function calls).

Pipeline stages (one instance per execution, composed by
:class:`BatchAdapterState`):

* :class:`VectorScan` — slices the table's visible-row snapshot into
  :class:`Batch` objects.  The snapshot is (re)read at *open* time, never
  at plan or instantiation time, so same-transaction DML is always seen
  (the stale-batch read-your-own-writes bug class).  Cancellation is
  polled once per batch.  A batch's columns are slices of the columns the
  table keeps for that very row list (``HeapTable.columns``: transposed
  once per table version, each with the fact "every value is an exact
  int"), handed on as :class:`~repro.sql.expr.IntColumn` so a kernel tests
  a column's type once instead of once per element.
* :class:`VectorFilter` — evaluates the WHERE predicate's batch form
  over the whole batch and attaches a *selection vector* (row indices
  where it is TRUE) instead of copying the columns.
* :class:`VectorProject` — either a C-speed ``itemgetter`` row projection
  (when every select item is a bare column) or per-item batch forms.
* :class:`VectorAggregate` — grouped/ungrouped aggregation whose
  accumulators fold each column **in the exact order SeqScan delivers**
  with the scalar aggregates' own step semantics (see
  :func:`_accumulate`), so row and batch engines are numerically
  identical — including the order-dependent ``avg()`` over
  ``{7, -2^63, 2^63}`` bigints that PR 5's fuzzer pinned.

:class:`BatchAdapterState` is the boundary operator: it extends
:class:`~.select_core.SelectCoreState`, drains the batch pipeline and
emits ordinary row tuples, so parents (Sort, Limit, joins, set ops,
recursion) keep consuming rows unchanged.

**Row fallback.**  Only side-effect-free entries have a batch form, so
batch evaluation has no observable side effects, and every kernel raises
classified engine errors (:class:`~repro.sql.errors.SqlError`), never bare
Python ones.  That makes a very simple error story sound:
if *any* engine error is raised while evaluating a batch, the adapter
poisons itself and transparently re-runs the statement through the
inherited row-at-a-time machinery, skipping the rows it already emitted
(earlier batches were fully evaluated, and pure expressions over the same
MVCC snapshot reproduce them exactly).  The row engine then reproduces the
error — or the absence of one — with exact row-at-a-time ordering and
laziness, e.g. an error in row 50 under ``LIMIT 3`` is never raised.
Cancellation (:class:`~repro.sql.errors.QueryCanceledError`) always
propagates and never triggers the fallback.

Thread-safety: all state here is per-execution; statements are serialized
by ``Database._exec_lock``, and the only module-level value,
:data:`BATCH_SIZE`, is read-only at run time (tests monkeypatch it to
sweep batch-boundary edge cases).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress
from operator import itemgetter
from typing import Optional, Sequence

from .. import ast as A
from ..errors import (NameResolutionError, QueryCanceledError, SqlError,
                      TypeError_)
from ..expr import (BatchExpr, BoolColumn, EvalContext, ExprCompiler,
                    IntColumn, RowOnly, Scope)
from ..functions import AvgAgg, CountAgg, SumAgg, make_aggregate
from ..profiler import (VECTOR_BATCHES, VECTOR_FALLBACKS, VECTOR_ROWS,
                        VECTOR_TYPED_ROWS)
from ..values import hashable_row as _hashable_row
from ..values import hashable_value as _hashable_value
from .select_core import AggStagePlan, SelectCorePlan, SelectCoreState

#: Rows per column batch.  Module-level (not a GUC) so tests can sweep it —
#: the differential suite runs batch sizes 1 and rows±1 to flush
#: off-by-one drain bugs that would hide at the default size.
BATCH_SIZE = 1024


def _gather(col, rows: list) -> list:
    """The elements of *col* at *rows*; a gather of exact ints is still
    all exact ints, so the tag goes with them."""
    kind = IntColumn if type(col) is IntColumn else list
    return kind(map(col.__getitem__, rows))


class Batch:
    """A batch of rows and their parallel column vectors.

    ``rows`` is a slice of the table's visible-row snapshot (tuples) and
    ``source`` the table's ``(row list, columns, exact_int)`` entry for
    that snapshot, of which this batch is rows ``lo .. lo + n``: a column
    is sliced out of it on first reference.  Without one (see
    ``HeapTable.columns``) the batch transposes itself on first touch —
    projections that only need ``itemgetter`` row access pay for neither.
    ``sel`` is the selection vector the filter stage attaches: ``None``
    means "all rows", otherwise a list of row indices that survived the
    predicate.
    """

    __slots__ = ("rows", "n", "rt", "sel", "source", "lo", "_cols")

    def __init__(self, rows: Sequence[tuple], rt, source=None, lo: int = 0):
        self.rows = rows
        self.n = len(rows)
        self.rt = rt
        self.sel: Optional[list[int]] = None
        self.source = source
        self.lo = lo
        self._cols: Optional[list] = None

    def column(self, index: int, sel: Optional[list]) -> list:
        """Column *index* of the rows *sel* (None: all of them), as an
        :class:`~repro.sql.expr.IntColumn` when the table vouches for it.
        The batch's own slice of a column is cut (and tagged) on its first
        reference and kept, so ``k + k`` or ``k`` in WHERE and again in an
        aggregate argument share it."""
        cols = self._cols
        if cols is None:
            cols = self._cols = (list(zip(*self.rows)) if self.source is None
                                 else [None] * len(self.source[1]))
        col = cols[index]
        if col is None:
            _, columns, exact = self.source
            col = columns[index][self.lo:self.lo + self.n]
            cols[index] = col = IntColumn(col) if exact[index] else col
        return col if sel is None else _gather(col, sel)

    def selected(self) -> int:
        return self.n if self.sel is None else len(self.sel)

    def selected_rows(self) -> Sequence[tuple]:
        if self.sel is None:
            return self.rows
        rows = self.rows
        return [rows[i] for i in self.sel]


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


class VectorScan:
    """Slices a table's visible-row snapshot into batches.

    The snapshot is read at :meth:`open` — the same late binding as
    ``SeqScanState.open`` — so a rescan after same-transaction DML sees
    the new row list, and a batch can never outlive the ``visible_rows``
    cache entry it was built from.  With it comes the table's column entry
    for that very list (``HeapTable.columns``): a *draining* scan
    (aggregation reads every row) has it built, a streaming one only uses
    what is there.  Cancellation is polled once per batch (the batch
    bounds the reaction latency); the profiler counts batches, the rows
    they carried, and those of them that came with a typed column.
    """

    __slots__ = ("rt", "table", "rows", "source", "typed", "pos", "size")

    def __init__(self, rt, table):
        self.rt = rt
        self.table = table
        self.rows: Sequence[tuple] = ()
        self.source: Optional[tuple] = None
        self.typed = False
        self.pos = 0
        self.size = BATCH_SIZE

    def open(self, draining: bool) -> None:
        self.rows = rows = self.table.rows
        self.source = source = self.table.columns(rows, draining)
        self.typed = source is not None and any(source[2])
        self.pos = 0
        self.size = max(1, BATCH_SIZE)

    def next_batch(self) -> Optional[Batch]:
        pos = self.pos
        rows = self.rows
        if pos >= len(rows):
            return None
        self.rt.cancel.check()
        chunk = rows[pos:pos + self.size]
        self.pos = pos + len(chunk)
        profiler = self.rt.db.profiler
        profiler.bump(VECTOR_BATCHES)
        profiler.bump(VECTOR_ROWS, len(chunk))
        if self.typed:
            profiler.bump(VECTOR_TYPED_ROWS, len(chunk))
        return Batch(chunk, self.rt, self.source, pos)


class VectorFilter:
    """Attaches a selection vector for the batch-compiled WHERE predicate."""

    __slots__ = ("fn",)

    def __init__(self, fn: BatchExpr):
        self.fn = fn

    def apply(self, batch: Batch) -> Batch:
        pred = self.fn(batch, None)
        if type(pred) is BoolColumn:
            sel = list(compress(range(batch.n), pred))
        else:
            sel = [i for i, v in enumerate(pred) if v is True]
        batch.sel = None if len(sel) == batch.n else sel
        return batch


class VectorProject:
    """Projects a filtered batch into output row tuples.

    When every select item is a bare column reference the projection is a
    single C-speed ``itemgetter`` map over the surviving row tuples (the
    batch is never transposed); otherwise each item's batch evaluator
    produces an output column and the columns are zipped back into rows.
    """

    __slots__ = ("fns", "fast")

    def __init__(self, fns: list[BatchExpr]):
        self.fns = fns
        indices = [getattr(fn, "col_index", None) for fn in fns]
        self.fast = None
        if all(i is not None for i in indices):
            if len(indices) == 1:
                getter = itemgetter(indices[0])
                self.fast = lambda rows: [(v,) for v in map(getter, rows)]
            else:
                getter = itemgetter(*indices)
                self.fast = lambda rows: list(map(getter, rows))

    def rows(self, batch: Batch) -> list[tuple]:
        if self.fast is not None:
            return self.fast(batch.selected_rows())
        cols = [fn(batch, batch.sel) for fn in self.fns]
        return list(zip(*cols))


def _accumulate(agg, state, col):
    """Fold *col* into *state* in column order.

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
    if type(col) is IntColumn:
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
                 "group_values", "distinct_seen", "states", "dsets")

    def __init__(self, stage: AggStagePlan, key_fns: list[BatchExpr],
                 arg_fns: list[Optional[BatchExpr]]):
        self.stage = stage
        self.key_fns = key_fns
        self.arg_fns = arg_fns
        self.aggs = [make_aggregate(c.name, c.star, c.separator)
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
                if call.star:
                    if type(agg) is CountAgg:
                        states[index] += len(rows)
                    else:
                        step = agg.step
                        state = states[index]
                        for _ in rows:
                            state = step(state, True)
                        states[index] = state
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

    def finish(self) -> tuple[dict, dict]:
        """The (groups, group_values) maps, with the ungrouped fold folded
        in — including the empty-input "one row of empty finals" case."""
        if self.states is not None:
            self.groups[()] = self.states
            self.group_values[()] = ()
        return self.groups, self.group_values


# ---------------------------------------------------------------------------
# Plan-time qualification
# ---------------------------------------------------------------------------


class VectorSpec:
    """Batch-compiled artifacts of one vectorizable SELECT core."""

    __slots__ = ("table_name", "where_fn", "project", "key_fns", "arg_fns")

    def __init__(self, table_name: str, where_fn: Optional[BatchExpr],
                 project: Optional[VectorProject],
                 key_fns: Optional[list[BatchExpr]],
                 arg_fns: Optional[list[Optional[BatchExpr]]]):
        self.table_name = table_name
        self.where_fn = where_fn
        self.project = project
        self.key_fns = key_fns
        self.arg_fns = arg_fns


def vectorize_core(base: SelectCorePlan, core: A.SelectCore,
                   item_exprs: Sequence[A.Expr], scope: Scope,
                   table_name: str) -> Optional["VectorizedCorePlan"]:
    """Batch-compile *base* (already fully planned for the row engine) into
    a :class:`VectorizedCorePlan`, or return ``None`` when any needed
    expression contains a row-only kernel-table entry.

    The caller (the planner) has already established the structural
    preconditions: single non-lateral base-table FROM still on a SeqScan,
    no ORDER BY, no window/batched-UDF stage.  What remains is expression
    support: the WHERE clause, and either every select item (streaming) or
    every group key and aggregate argument (aggregation — HAVING and the
    post-aggregation projections run row-wise over the few group rows, so
    they stay on the scalar closures and need no batch support).
    """
    batch = ExprCompiler(scope).compile_batch
    project = key_fns = arg_fns = None
    try:
        where_fn = batch(core.where) if core.where is not None else None
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
    spec = VectorSpec(table_name, where_fn, project, key_fns, arg_fns)
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
            batch_stage=base.batch_stage,
        )
        self.vspec = vspec

    def label(self) -> str:
        return "Vectorized" + super().label()

    def explain(self, indent: int = 0) -> str:
        spec = self.vspec
        lines = ["  " * indent + "-> " + self.label()
                 + f"  [{', '.join(self.output_columns)}]"]
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
        if spec.where_fn is not None:
            lines.append("  " * depth + "-> VectorFilter")
            depth += 1
        lines.append("  " * depth
                     + f"-> VectorScan on {spec.table_name} "
                       f"(batch={BATCH_SIZE})")
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

    __slots__ = ("_ictx", "_scan", "_filter", "_use_vector", "_poisoned",
                 "_vbuf", "_vbuf_pos", "_emitted")

    def __init__(self, rt, plan: VectorizedCorePlan, ictx):
        super().__init__(rt, plan, ictx)
        self._ictx = ictx
        table = rt.catalog.tables.get(plan.vspec.table_name)
        if table is None:
            raise NameResolutionError(
                f"unknown table {plan.vspec.table_name!r}")
        self._scan = VectorScan(rt, table)
        self._filter = (VectorFilter(plan.vspec.where_fn)
                        if plan.vspec.where_fn is not None else None)
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
            try:
                self._scan.open(draining=self.plan.agg_stage is not None)
                super().open(outer)  # aggregation runs vectorized in here
                return
            except QueryCanceledError:
                raise
            except SqlError:
                self._poison()
        self._use_vector = False
        super().open(outer)

    def next(self) -> Optional[tuple]:
        if not self._use_vector or self.materialized is not None:
            return super().next()
        try:
            row = self._next_vector()
        except QueryCanceledError:
            raise
        except SqlError:
            return self._fall_back()
        if row is not None:
            self._emitted += 1
        return row

    # ------------------------------------------------------------------

    def _next_vector(self) -> Optional[tuple]:
        project = self.plan.vspec.project
        # The scan drains a finite row snapshot and polls the cancel token
        # once per batch.
        while True:  # lint: bounded
            buf = self._vbuf
            if self._vbuf_pos < len(buf):
                row = buf[self._vbuf_pos]
                self._vbuf_pos += 1
                if self.seen is None or self._distinct_ok(row):
                    return row
                continue
            batch = self._scan.next_batch()
            if batch is None:
                return None
            if self._filter is not None:
                batch = self._filter.apply(batch)
                if batch.sel is not None and not batch.sel:
                    continue
            self._vbuf = project.rows(batch)
            self._vbuf_pos = 0

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
        vagg = VectorAggregate(stage, spec.key_fns, spec.arg_fns)
        scan = self._scan
        # The scan drains a finite row snapshot and polls the cancel token
        # once per batch.
        while True:  # lint: bounded
            batch = scan.next_batch()
            if batch is None:
                break
            if self._filter is not None:
                batch = self._filter.apply(batch)
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
                if stage.having(ctx) is not True:
                    continue
            out.append(vec)
        return out
