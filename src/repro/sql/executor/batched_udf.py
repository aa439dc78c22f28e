"""The trampoline machine: batched (``BatchedUdf``) and per-call sites.

The paper's finalization step splices a compiled function's Qf into the
call site as a *correlated scalar subquery*, so every evaluation re-opens
(and hence re-materializes) the whole ``WITH RECURSIVE`` trampoline through
the generic recursive-CTE operators, and every statement re-plans it.  With
``batch_compiled`` on (the default) a call to a *recursive* compiled
function instead runs the template's **machine form**
(:class:`repro.compiler.template.BatchedMachine`): the transition rules the
SQL template spells out, compiled once into expression closures
(:func:`compile_machine`, cached on the ``FunctionDef`` and so shared by
every call site of every statement) and stepped over the live machine
states only - the same engine-side move as ``WITH ITERATE``.  Two kinds of
site share those rules and one stepping loop (:meth:`MachineCallState.run`):

* **Batched** (``BatchedUdf``; select-list calls the planner proves safe to
  evaluate eagerly, see :meth:`repro.sql.planner.Planner._batchable`):

  1. the owning SELECT block materializes its surviving row vectors,
  2. for each call site the argument expressions are evaluated per row,
     producing a *batch input* relation ``(k, <args...>)`` keyed by the
     row's position; rows with equal argument vectors share one entry
     (sound because a batched function is never volatile),
  3. one trampoline advances every pending call in lock-step,
  4. the ``(k, result)`` output is joined back positionally - a key join on
     ``k`` against an array - and exposed to the projection as the
     ``__batch`` relation.

* **Per call** (``Trampoline``; every other site: volatile bodies, volatile
  or subquery arguments, WHERE / CASE / aggregate-argument / LIMIT-ed /
  nested-subquery positions): the site is parked in the owning
  expression's subplan slots (:meth:`repro.sql.expr.ExprCompiler.
  _compile_FuncCall`) and each evaluation of the call runs **one**
  activation to completion, alone and in place.  Nothing is evaluated
  earlier, later or more often than the inlined Qf would evaluate it, so
  volatile draw order, the RNG state a statement leaves behind and the
  not-evaluated cases (untaken CASE arm, rows past LIMIT, rows WHERE
  rejects) all agree with the inlined Qf and with the interpreter.

``batch_compiled = off`` is the single switch back to the paper's inlined
pure-SQL Qf at every site; loop-free (Froid) functions have no trampoline
and always inline as plain expressions.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ExecutionError
from ..expr import EvalContext, ExprCompiler, Relation, Scope
from ..profiler import (BATCHED_UDF_BATCHES, BATCHED_UDF_DISTINCT,
                        BATCHED_UDF_ROWS, TRAMPOLINE_ITERATIONS,
                        TRAMPOLINE_WORKING_ROWS)
from ..values import representation_key
from .base import call_site_lines
from .scan import make_slots


class BatchedUdfStagePlan:
    """All batched call sites of one SELECT block (plan-time)."""

    __slots__ = ("calls", "subplans")

    def __init__(self, calls: list, subplans):
        self.calls = calls
        self.subplans = subplans

    def explain(self, indent: int = 0) -> str:
        lines = []
        for call in self.calls:
            tags = "one trampoline, keyed on k; machine"
            if call.volatility:
                tags += f"; volatility={call.volatility}"
            lines.append("  " * indent
                         + f"-> BatchedUdf {call.name}({call.arg_display})"
                         + f"  [{tags}]")
            lines.extend(call.explain_children(indent + 1))
        return "\n".join(lines)


class BatchedUdfStageState:
    """Per-execution state: one instantiated trampoline per call site."""

    __slots__ = ("rt", "stage", "slots", "calls")

    def __init__(self, rt, stage: BatchedUdfStagePlan, ictx):
        self.rt = rt
        self.stage = stage
        self.slots = make_slots(rt, ictx, stage.subplans)
        self.calls = [call.instantiate(rt, ictx) for call in stage.calls]

    def attach(self, vectors: list[tuple], outer: Optional[EvalContext]
               ) -> list[tuple]:
        """Evaluate every batched call over *vectors*; returns the
        ``__batch`` relation row (one result column per call) per vector.
        The whole argument relation is in hand before the trampoline runs,
        which is what lets equal argument vectors share one activation; a
        per-call site sees one call at a time and cannot."""
        if not vectors:
            return []
        profiler = self.rt.db.profiler
        columns = []
        for call_state in self.calls:
            args = call_state.plan.args
            profiler.bump(BATCHED_UDF_BATCHES)
            profiler.bump(BATCHED_UDF_ROWS, len(vectors))
            # One activation per *distinct* argument vector; every caller
            # row keeps a remap index into the unique batch.
            seen: dict = {}
            batch_rows: list[tuple] = []
            remap = []
            for vec in vectors:
                ctx = EvalContext(self.rt, vec, parent=outer,
                                  slots=self.slots)
                values = tuple(arg(ctx) for arg in args)
                # By representation, not SQL equality: f(5) and f(5.0),
                # f(0.0) and f(-0.0) may answer differently.
                key = tuple(representation_key(v) for v in values)
                index = seen.get(key)
                if index is None:
                    index = len(batch_rows)
                    seen[key] = index
                    batch_rows.append((index,) + values)
                remap.append(index)
            profiler.bump(BATCHED_UDF_DISTINCT, len(batch_rows))
            unique = call_state.run(batch_rows)
            columns.append([unique[index] for index in remap])
        return [tuple(column[k] for column in columns)
                for k in range(len(vectors))]


# ---------------------------------------------------------------------------
# The machine: compiled transition rules over the live states
# ---------------------------------------------------------------------------


def compile_machine(machine, planner) -> "MachineCallPlan":
    """Compile a :class:`~repro.compiler.template.BatchedMachine`'s ASTs
    into closures.  The base rule sees one batch-input row ``(params...)``;
    each transition rule sees one state row ``(fn, vars...)`` — with the
    columns that belong to *other* rules masked, so a rule's let-bound
    locals can never capture them (the machine mirror of
    :func:`repro.compiler.template._dispatch_body`'s per-function binding).
    ``MachineLet`` bindings extend the row at run time, exactly like the
    template's LATERAL chain extends the iter row.

    Node closures return the *next* machine row: ``(label, vars...)`` for a
    tail call, ``(None, value)`` for a finished activation — ``fn`` labels
    are 1-based, so ``None`` in slot 0 is unambiguous.
    """
    base_subplans: list = []
    base = _compile_node(
        machine.base, planner,
        [Relation("b", machine.param_columns), Relation("_lets", [])],
        base_subplans)
    trans_subplans: list = []
    transitions = {}
    for label, node in machine.transitions.items():
        own = machine.own_params[label]
        columns = [c if c == "fn" or c in own else "\x00" + c
                   for c in machine.state_columns]
        transitions[label] = _compile_node(
            node, planner,
            [Relation("s", columns), Relation("_lets", [])],
            trans_subplans)
    return MachineCallPlan(base, base_subplans, transitions, trans_subplans)


def _compile_node(node, planner, rels: list, subplans: list):
    from ...compiler.template import (MachineCall, MachineIf, MachineLet,
                                      MachineResult)

    def compile_expr(ast):
        # Fresh compiler per expression (the visible columns grow through
        # let bindings) sharing one subplan slot list per rule set.
        compiler = ExprCompiler(Scope(rels), planner)
        compiler.subplans = subplans
        compiler.slot_count = len(subplans)
        return compiler.compile(ast)

    if isinstance(node, MachineLet):
        # Let values land in the second relation's mutable row (appended in
        # path order; only one branch runs per row, so indices line up).
        # Whole chains fuse into one closure — a let costs one expression
        # evaluation plus a list append, nothing more.
        values = []
        pushed = 0
        while isinstance(node, MachineLet):
            values.append(compile_expr(node.value))
            rels[1].columns.append(node.var.lower())
            pushed += 1
            node = node.body
        body_fn = _compile_node(node, planner, rels, subplans)
        del rels[1].columns[-pushed:]
        if len(values) == 1:
            value0, = values

            def run_let(ctx):
                ctx.rows[1].append(value0(ctx))
                return body_fn(ctx)

            return run_let

        def run_lets(ctx):
            lets = ctx.rows[1]
            for value in values:
                lets.append(value(ctx))
            return body_fn(ctx)

        return run_lets
    if isinstance(node, MachineIf):
        cond = compile_expr(node.condition)
        then_fn = _compile_node(node.then_node, planner, rels, subplans)
        else_fn = _compile_node(node.else_node, planner, rels, subplans)

        def run_if(ctx):
            return then_fn(ctx) if cond(ctx) is True else else_fn(ctx)

        return run_if
    if isinstance(node, MachineCall):
        arg_fns = [compile_expr(a) for a in node.args]
        label = node.label
        if len(arg_fns) == 1:
            a0, = arg_fns
            return lambda ctx: (label, a0(ctx))
        if len(arg_fns) == 2:
            a0, a1 = arg_fns
            return lambda ctx: (label, a0(ctx), a1(ctx))
        if len(arg_fns) == 3:
            a0, a1, a2 = arg_fns
            return lambda ctx: (label, a0(ctx), a1(ctx), a2(ctx))
        if len(arg_fns) == 4:
            a0, a1, a2, a3 = arg_fns
            return lambda ctx: (label, a0(ctx), a1(ctx), a2(ctx), a3(ctx))

        def run_call(ctx):
            return (label,) + tuple(fn(ctx) for fn in arg_fns)

        return run_call
    assert isinstance(node, MachineResult)
    value = compile_expr(node.value)

    def run_result(ctx):
        return (None, value(ctx))

    return run_result


class MachineCallPlan:
    """One call site evaluated via compiled transition rules: a batched
    site of a :class:`BatchedUdfStagePlan`, or (``per_call``) a site parked
    in an expression's subplan slots that runs one activation per call."""

    __slots__ = ("name", "arg_display", "args", "volatility", "per_call",
                 "base", "base_subplans", "transitions", "trans_subplans")

    def __init__(self, base, base_subplans, transitions, trans_subplans):
        self.name = ""
        self.arg_display = ""
        self.args: list = []
        self.volatility = ""
        self.per_call = False
        self.base = base
        self.base_subplans = base_subplans
        self.transitions = transitions
        self.trans_subplans = trans_subplans

    def at_call_site(self, name: str, arg_display: str,
                     args: list) -> "MachineCallPlan":
        """A shallow per-call-site copy (the compiled rules are shared)."""
        site = MachineCallPlan(self.base, self.base_subplans,
                               self.transitions, self.trans_subplans)
        site.name = name
        site.arg_display = arg_display
        site.args = args
        site.volatility = self.volatility
        return site

    def explain(self, indent: int = 0) -> str:
        """The EXPLAIN line of a per-call site (listed by the operator that
        owns the expression), with the sites its own rules call beneath."""
        tags = "machine, per call"
        if self.volatility:
            tags += f"; volatility={self.volatility}"
        lines = ["  " * indent
                 + f"-> Trampoline {self.name}({self.arg_display})  [{tags}]"]
        lines.extend(self._nested_sites(indent + 1))
        return "\n".join(lines)

    def explain_children(self, indent: int) -> list[str]:
        return ["  " * indent
                + f"-> Trampoline machine ({len(self.transitions)} "
                + ("transition rule)" if len(self.transitions) == 1
                   else "transition rules)")] + self._nested_sites(indent + 1)

    def _nested_sites(self, indent: int) -> list[str]:
        return call_site_lines(indent, self.base_subplans,
                               self.trans_subplans)

    def instantiate(self, rt, ictx) -> "MachineCallState":
        return MachineCallState(rt, self, ictx)


class MachineCallState:
    __slots__ = ("rt", "plan", "base_slots", "trans_slots")

    def __init__(self, rt, plan: MachineCallPlan, ictx):
        self.rt = rt
        self.plan = plan
        self.base_slots = make_slots(rt, ictx, plan.base_subplans)
        self.trans_slots = make_slots(rt, ictx, plan.trans_subplans)

    def call(self, values: tuple):
        """One activation, run to completion at the call's own evaluation
        point (the per-call site)."""
        return self.run(((0,) + values,))[0]

    def run(self, batch_rows) -> list:
        """Advance every pending call in lock-step; results aligned by k."""
        rt = self.rt
        plan = self.plan
        profiler = rt.db.profiler
        results: list = [None] * len(batch_rows)
        base = plan.base
        # One context per rule set, rebound per row through a shared vector
        # (slot 0: the machine row, slot 1: this row's let bindings).
        lets: list = []
        vector: list = [None, lets]
        base_ctx = EvalContext(rt, vector, slots=self.base_slots)
        working: list = []  # (k, state) pairs, state = (label, vars...)
        for row in batch_rows:
            vector[0] = row[1:]
            del lets[:]
            out = base(base_ctx)
            if out[0] is None:
                results[row[0]] = out[1]
            else:
                working.append((row[0], out))
        transitions = plan.transitions
        single = (next(iter(transitions.values()))
                  if len(transitions) == 1 else None)
        ctx = EvalContext(rt, vector, slots=self.trans_slots)
        limit = rt.db.settings.active.max_recursion_iterations
        cancel = rt.cancel
        iterations = 0
        while working:
            cancel.check()
            iterations += 1
            # ">=": the inlined WITH RECURSIVE spends one more (empty) step
            # filtering the result row out of its working table, so it
            # fails a call that needs *limit* steps; fail the same calls.
            if iterations >= limit:
                kind = "per-call" if plan.per_call else "batched"
                raise ExecutionError(
                    f"{kind} evaluation of {plan.name}() exceeded {limit} "
                    "iterations (possible infinite recursion)")
            profiler.bump(TRAMPOLINE_ITERATIONS)
            profiler.bump(TRAMPOLINE_WORKING_ROWS, len(working))
            next_working = []
            append = next_working.append
            if single is not None:
                for k, state in working:
                    vector[0] = state
                    del lets[:]
                    out = single(ctx)
                    if out[0] is None:
                        results[k] = out[1]
                    else:
                        append((k, out))
            else:
                for k, state in working:
                    vector[0] = state
                    del lets[:]
                    out = transitions[state[0]](ctx)
                    if out[0] is None:
                        results[k] = out[1]
                    else:
                        append((k, out))
            working = next_working
        return results

    def close(self) -> None:
        """Nothing to release; a per-call site is a slot state, and the
        PL/pgSQL interpreter closes every slot of an embedded expression."""
