"""The trampoline machine: one per-call site kind, memoized by argument.

The paper's finalization step splices a compiled function's Qf into the
call site as a *correlated scalar subquery*, the call's arguments bound in
its one-row FROM (:func:`repro.compiler.template.bind_arguments`), so
every evaluation re-opens (and hence re-materializes) the whole ``WITH
RECURSIVE`` trampoline through the generic recursive-CTE operators, and
every statement re-plans it.  With ``batch_compiled`` on (the default) a
call to a *recursive* compiled function instead runs the template's
**machine form** (:class:`repro.compiler.template.TrampolineMachine`):
the transition rules the
SQL template spells out, compiled once into expression closures
(:func:`compile_machine`, cached on the ``FunctionDef`` and so shared by
every call site of every statement) and stepped over one live machine
state - the same engine-side move as ``WITH ITERATE``.

Every call site, wherever it sits (select list, WHERE, aggregate argument,
ORDER BY, JOIN ON, CASE arm, a subquery), is parked in the owning
expression's subplan slots (:meth:`repro.sql.expr.ExprCompiler.
_compile_trampoline_call`), and each evaluation of the call runs **one**
activation to completion, alone and in place
(:meth:`MachineCallState.call`) over the argument values, each cast to
its parameter's declared type, as the Qf's binding row casts them.
Nothing is evaluated earlier, later or more often than the inlined Qf
would evaluate it - each argument once per call, before the body - so
volatile draw order, the RNG state a statement leaves behind and the
not-evaluated cases (untaken CASE arm, rows past LIMIT, rows WHERE
rejects) all agree with the inlined Qf and with the interpreter.

A site of a function whose machine is ``shareable`` and that is not
volatile (a declared VOLATILE counts) keeps the result of each activation
keyed by the argument values' representations
(:class:`repro.sql.executor.memo.MemoTable`, watching the tables the rules
read): a repeated argument vector answers without running the machine.
The results outlive the statement: at ExecutorEnd they go to the
function's machine template (:class:`~repro.sql.executor.memo.MemoStore`,
shared by every site of every statement, like the Memoize nodes of the
rules), and a later statement is answered from them while the watched
tables are unchanged and fully committed and its session's settings equal
the builder's.  Errors are never cached.

``batch_compiled = off`` is the single switch back to the paper's inlined
pure-SQL Qf at every site; loop-free (Froid) functions have no trampoline
and always inline their Qf, a plain expression over the binding row.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ExecutionError
from ..expr import EvalContext, ExprCompiler, Relation, Scope
from ..profiler import (BATCHED_UDF_DISTINCT, BATCHED_UDF_ROWS,
                        TRAMPOLINE_ITERATIONS, TRAMPOLINE_WORKING_ROWS)
from ..values import representation_key
from .base import call_site_lines
from .memo import MemoStore, MemoTable
from .scan import make_slots


# ---------------------------------------------------------------------------
# The machine: compiled transition rules over the live states
# ---------------------------------------------------------------------------


def compile_machine(machine, planner) -> "MachineCallPlan":
    """Compile a :class:`~repro.compiler.template.TrampolineMachine`'s ASTs
    into closures.  The base rule sees one argument row ``(params...)``;
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
    from ...analysis.volatility import expr_is_volatile
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
        # evaluation plus a list append, nothing more.  A let of a volatile
        # value is marked: a memo keyed by it could never hit.
        lets = rels[1]
        start = len(lets.columns)
        values = []
        while isinstance(node, MachineLet):
            values.append(compile_expr(node.value))
            if expr_is_volatile(node.value, planner.catalog):
                lets.volatile.add(len(lets.columns))
            lets.columns.append(node.var.lower())
            node = node.body
        body_fn = _compile_node(node, planner, rels, subplans)
        del lets.columns[start:]
        lets.volatile.difference_update(range(start, start + len(values)))
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
    """One call site evaluated via compiled transition rules, parked in an
    expression's subplan slots; it runs one activation per call.
    ``memo_tables`` are the tables a memo of its results watches, None
    when its calls are not memoized; ``memo_store`` keeps those results
    across statements, one per template."""

    __slots__ = ("name", "arg_display", "volatility", "memo_tables",
                 "memo_store", "base", "base_subplans", "transitions",
                 "trans_subplans")

    def __init__(self, base, base_subplans, transitions, trans_subplans,
                 memo_tables: Optional[list] = None,
                 memo_store: Optional[MemoStore] = None):
        self.name = ""
        self.arg_display = ""
        self.volatility = ""
        self.memo_tables = memo_tables
        self.memo_store = memo_store if memo_store is not None \
            else MemoStore()
        self.base = base
        self.base_subplans = base_subplans
        self.transitions = transitions
        self.trans_subplans = trans_subplans

    def at_call_site(self, name: str, arg_display: str,
                     volatility: str) -> "MachineCallPlan":
        """A shallow per-call-site copy (the compiled rules and the memo
        store are shared)."""
        site = MachineCallPlan(self.base, self.base_subplans,
                               self.transitions, self.trans_subplans,
                               self.memo_tables, self.memo_store)
        site.name = name
        site.arg_display = arg_display
        site.volatility = volatility
        return site

    def explain(self, indent: int = 0) -> str:
        """The EXPLAIN line of the site (listed by the operator that owns
        the expression), with the sites its own rules call beneath."""
        tags = "machine, per call"
        if self.volatility:
            tags += f"; volatility={self.volatility}"
        lines = ["  " * indent
                 + f"-> Trampoline {self.name}({self.arg_display})  [{tags}]"]
        lines.extend(call_site_lines(indent + 1, self.base_subplans,
                                     self.trans_subplans))
        return "\n".join(lines)

    def instantiate(self, rt, ictx) -> "MachineCallState":
        return MachineCallState(rt, self, ictx)


class MachineCallState:
    __slots__ = ("rt", "plan", "base_slots", "trans_slots", "memo")

    def __init__(self, rt, plan: MachineCallPlan, ictx):
        self.rt = rt
        self.plan = plan
        self.base_slots = make_slots(rt, ictx, plan.base_subplans)
        self.trans_slots = make_slots(rt, ictx, plan.trans_subplans)
        self.memo = (MemoTable(rt, plan.memo_tables, plan.memo_store)
                     if plan.memo_tables is not None else None)

    def call(self, values: tuple):
        """The call's result, at its own evaluation point: from the memo
        when an earlier call (of this statement, or one the template's
        store carried in) passed the same argument representations, else
        from one activation (stored unless it raised)."""
        memo = self.memo
        if memo is None:
            return self.run(values)
        profiler = self.rt.db.profiler
        profiler.bump(BATCHED_UDF_ROWS)
        # By representation, not SQL equality: f(5) and f(5.0), f(0.0) and
        # f(-0.0) may answer differently.
        key = tuple([representation_key(v) for v in values])
        entry = memo.get(key)
        if entry is None:
            profiler.bump(BATCHED_UDF_DISTINCT)
            entry = (self.run(values),)
            memo.put(key, entry)
        return entry[0]

    def run(self, values: tuple):
        """One activation of the machine over *values*, to completion."""
        rt = self.rt
        plan = self.plan
        # One context per rule set over a shared vector (slot 0: the
        # machine row, slot 1: this step's let bindings).
        lets: list = []
        vector: list = [values, lets]
        out = plan.base(EvalContext(rt, vector, slots=self.base_slots))
        if out[0] is None:
            return out[1]
        transitions = plan.transitions
        ctx = EvalContext(rt, vector, slots=self.trans_slots)
        limit = rt.db.settings.active.max_recursion_iterations
        check = rt.cancel.check
        iterations = 0
        while out[0] is not None:
            check()
            iterations += 1
            # ">=": the inlined WITH RECURSIVE spends one more (empty) step
            # filtering the result row out of its working table, so it
            # fails a call that needs *limit* steps; fail the same calls.
            if iterations >= limit:
                raise ExecutionError(
                    f"per-call evaluation of {plan.name}() exceeded {limit} "
                    "iterations (possible infinite recursion)")
            vector[0] = out
            del lets[:]
            out = transitions[out[0]](ctx)
        profiler = rt.db.profiler
        profiler.bump(TRAMPOLINE_ITERATIONS, iterations)
        profiler.bump(TRAMPOLINE_WORKING_ROWS, iterations)
        return out[1]

    def close(self) -> None:
        """Nothing to release; a site is a slot state, and the PL/pgSQL
        interpreter closes every slot of an embedded expression."""
