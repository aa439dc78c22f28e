"""The PL/pgSQL interpreter — the paper's baseline execution model.

Cost model (deliberately PostgreSQL-faithful, since the whole paper is about
these costs):

* Invoking a PL/pgSQL function from SQL is a **Q→f** context switch
  (counted by :meth:`repro.sql.engine.Database.call_function`); the body is
  then executed statement by statement under the ``Interp`` profiling phase.
* Every *embedded query* evaluation — any expression containing a subquery
  or a call to a recursive compiled function (its Qf, or its trampoline
  site, is a subplan of the expression) — is an **f→Qi** switch: its (cached) plan is *instantiated* anew
  (ExecutorStart), run, and torn down (ExecutorEnd), once per evaluation.
  A loop multiplies this toll, exactly as in Section 1.
* *Simple* expressions (no subplan) take the fast path: a one-time compile,
  then direct evaluation with no ExecutorStart/End — reproducing Table 1's
  ``fibonacci`` row, whose Exec·Start and Exec·End columns are zero.
"""

from __future__ import annotations

from typing import Optional

from ..sql import ast as SA
from ..sql.astutil import walk_expr
from ..sql.catalog import FunctionDef
from ..sql.cancel import NEVER_CANCELED
from ..sql.errors import (NoReturnError, PlsqlRuntimeError,
                          QueryCanceledError)
from ..sql.expr import EvalContext, ExprCompiler, Relation, RuntimeContext, Scope
from ..sql.executor.scan import make_slots
from ..sql.profiler import (EXEC_END, EXEC_RUN, EXEC_START, INTERP, PLAN,
                            SWITCH_F_TO_Q)
from ..sql.types import cast_value
from ..sql.values import Row, Value, render_value
from . import ast as P
from .parser import parse_plpgsql_function

_VARS_REL = "__plsql_vars"


class _Return(Exception):
    def __init__(self, value: Value):
        self.value = value


class _Exit(Exception):
    def __init__(self, label: Optional[str]):
        self.label = label


class _Continue(Exception):
    def __init__(self, label: Optional[str]):
        self.label = label


class CompiledPlExpr:
    """A PL/pgSQL expression compiled against the function's variable scope."""

    __slots__ = ("closure", "subplans", "simple")

    def __init__(self, closure, subplans, simple: bool):
        self.closure = closure
        self.subplans = subplans
        self.simple = simple


def _is_simple(expr: SA.Expr) -> bool:
    """PostgreSQL's "simple expression" test: no embedded query."""
    for node in walk_expr(expr):
        if isinstance(node, (SA.ScalarSubquery, SA.Exists, SA.InSubquery)):
            return False
    return True


def variable_scope(names: list[str]) -> Scope:
    """The scope a PL/pgSQL body's expressions resolve in: its variables,
    one relation bound once per evaluation, so every embedded-query
    evaluation instantiates its plan anew, and a name a FROM relation also
    supplies is an error (``Scope.resolve``).  The analyzer and the
    compiler resolve in it too (:func:`repro.analysis.sqlcheck.resolver`)."""
    scope = Scope([Relation(_VARS_REL, names)])
    scope.one_shot = True
    return scope


class FunctionRuntime:
    """Parsed body + compiled-expression cache, kept on the FunctionDef
    (one per plan stamp: the cached plans are that stamp's)."""

    def __init__(self, db, fdef: FunctionDef):
        self.db = db
        self.func = parse_plpgsql_function(
            fdef.name, fdef.param_names, fdef.param_types,
            fdef.return_type, fdef.body or "")
        variables = self.func.all_variables()
        self.var_names = [name for name, _ in variables]
        self.var_types = [type_name for _, type_name in variables]
        self.var_index = {name: i for i, name in enumerate(self.var_names)}
        self.scope = variable_scope(self.var_names)
        self._expr_cache: dict[int, CompiledPlExpr] = {}
        self._query_cache: dict[int, object] = {}

    def compiled_expr(self, expr: SA.Expr) -> CompiledPlExpr:
        key = id(expr)
        cached = self._expr_cache.get(key)
        if cached is None:
            with self.db.profiler.phase(PLAN):
                compiler = ExprCompiler(self.scope, self.db.planner)
                closure = compiler.compile(expr)
            # A call to a recursive compiled function parks a trampoline
            # site in the subplans without any subquery in the AST.
            simple = _is_simple(expr) and not compiler.subplans
            cached = CompiledPlExpr(closure, compiler.subplans, simple)
            self._expr_cache[key] = cached
        return cached

    def compiled_query(self, query: SA.SelectStmt):
        key = id(query)
        plan = self._query_cache.get(key)
        if plan is None:
            with self.db.profiler.phase(PLAN):
                plan = self.db.planner.plan_select(query, outer_scope=self.scope)
            self._query_cache[key] = plan
        return plan


class Interpreter:
    """One activation of a PL/pgSQL function."""

    def __init__(self, db, runtime: FunctionRuntime, args: list[Value]):
        self.db = db
        self.runtime = runtime
        self.values: list[Value] = [None] * len(runtime.var_names)
        self._stmt_budget = db.settings.active.max_interp_statements
        self._stmt_count = 0
        # The enclosing SQL statement's cancel token (an activation never
        # outlives its statement), so every interpreted statement polls
        # the same flag the executor loops do.
        cancel = getattr(db, "_active_cancel", None)
        self._cancel = cancel if cancel is not None else NEVER_CANCELED
        func = runtime.func
        for index, (name, type_name) in enumerate(
                zip(func.param_names, func.param_types)):
            self.values[runtime.var_index[name]] = self._cast(args[index],
                                                              type_name)

    # -- variable helpers --------------------------------------------------

    def _cast(self, value: Value, type_name: str) -> Value:
        """*value* as ``CAST(value AS type_name)`` makes it: an argument at
        entry, where a failed cast raises as it does in PostgreSQL."""
        return cast_value(value, type_name, self.db.catalog.get_type(type_name))

    def _coerce(self, value: Value, type_name: str) -> Value:
        """An assigned or returned value cast as :meth:`_cast` does, but
        kept as it is where that cast fails."""
        try:
            return self._cast(value, type_name)
        except Exception:
            return value

    def set_var(self, name: str, value: Value) -> None:
        index = self.runtime.var_index.get(name)
        if index is None:
            raise PlsqlRuntimeError(f"unknown variable {name!r}")
        self.values[index] = self._coerce(value, self.runtime.var_types[index])

    # -- expression / query evaluation ------------------------------------

    def eval_expr(self, expr: SA.Expr) -> Value:
        """Evaluate one PL/pgSQL expression, with the paper's cost model."""
        plan = self.runtime.compiled_expr(expr)
        profiler = self.db.profiler
        rt = RuntimeContext(self.db, ())
        if plan.simple:
            # Fast path: no plan instantiation, no ExecutorStart/End.
            ctx = EvalContext(rt, (tuple(self.values),), slots=())
            profiler.push(EXEC_RUN)
            try:
                return plan.closure(ctx)
            finally:
                profiler.pop()
        # Embedded query: f->Qi context switch with per-evaluation
        # instantiation and teardown.
        profiler.bump(SWITCH_F_TO_Q)
        profiler.push(EXEC_START)
        try:
            slots = make_slots(rt, None, plan.subplans)
            ctx = EvalContext(rt, (tuple(self.values),), slots=slots)
        finally:
            profiler.pop()
        profiler.push(EXEC_RUN)
        try:
            result = plan.closure(ctx)
        finally:
            profiler.pop()
        profiler.push(EXEC_END)
        try:
            for state in slots:
                state.close()
            del slots
            rt.release()
        finally:
            profiler.pop()
        return result

    def eval_bool(self, expr: SA.Expr) -> bool:
        return self.eval_expr(expr) is True

    def run_query(self, query: SA.SelectStmt):
        """Run an embedded full query (FOR ... IN SELECT, PERFORM): an
        f->Qi switch, then the engine's ExecutorStart/Run/End with the
        variables as the outer row."""
        plan = self.runtime.compiled_query(query)
        self.db.profiler.bump(SWITCH_F_TO_Q)
        return self.db._run_plan(plan, (), outer_row=tuple(self.values))

    # -- statement execution ---------------------------------------------

    def run(self) -> Value:
        func = self.runtime.func
        for declaration in func.declarations:
            if declaration.default is not None:
                self.set_var(declaration.name, self.eval_expr(declaration.default))
        try:
            self.exec_block(func.body)
        except _Return as signal:
            return self._coerce(signal.value, func.return_type)
        raise NoReturnError(
            f"control reached end of function {func.name}() without RETURN")

    def exec_block(self, statements: list[P.Stmt]) -> None:
        for stmt in statements:
            self.exec_stmt(stmt)

    #: Leaf statements attributed individually in per-statement profiles
    #: (containers like IF/FOR would double-count their bodies).
    _PROFILED_LEAVES = ("Assign", "ReturnStmt", "PerformStmt", "ExitStmt",
                        "ContinueStmt")

    def _tick(self) -> None:
        """Charge one statement against the activation's budget."""
        self._cancel.check()
        self._stmt_count += 1
        if self._stmt_count > self._stmt_budget:
            # Budget exhaustion is resource governance cutting off a
            # (most likely) non-terminating loop — the same family as a
            # statement timeout, so it classifies under SQLSTATE 57014
            # rather than as a generic execution error.
            raise QueryCanceledError(
                f"statement budget exceeded in {self.runtime.func.name}() "
                f"after {self._stmt_budget} statements "
                f"(max_interp_statements={self._stmt_budget}); "
                "non-terminating loop?")

    def exec_stmt(self, stmt: P.Stmt) -> None:
        self._tick()
        kind = type(stmt).__name__
        method = getattr(self, "_exec_" + kind, None)
        if method is None:
            raise PlsqlRuntimeError(f"unsupported statement {kind}")
        profile = self.db.plsql_statement_profile
        if profile is None or kind not in self._PROFILED_LEAVES:
            method(stmt)
            return
        times = self.db.profiler.times
        before = dict(times)
        try:
            method(stmt)
        finally:
            entry = profile.setdefault(stmt_label(stmt), {})
            for phase, total in times.items():
                delta = total - before.get(phase, 0.0)
                if delta > 0:
                    entry[phase] = entry.get(phase, 0.0) + delta

    def _exec_Assign(self, stmt: P.Assign) -> None:
        self.set_var(stmt.target, self.eval_expr(stmt.expr))

    def _exec_IfStmt(self, stmt: P.IfStmt) -> None:
        for condition, body in stmt.branches:
            if self.eval_bool(condition):
                self.exec_block(body)
                return
        self.exec_block(stmt.else_body)

    def _loop_body(self, stmt, body: list[P.Stmt]) -> bool:
        """Run one iteration; return False when the loop should stop."""
        # Charge the iteration itself, so even an empty or condition-only
        # loop (WHILE ... LOOP END LOOP) stays within the statement budget.
        self._tick()
        try:
            self.exec_block(body)
        except _Exit as signal:
            if signal.label is None or signal.label == stmt.label:
                return False
            raise
        except _Continue as signal:
            if signal.label is None or signal.label == stmt.label:
                return True
            raise
        return True

    def _exec_LoopStmt(self, stmt: P.LoopStmt) -> None:
        while True:
            if not self._loop_body(stmt, stmt.body):
                return

    def _exec_WhileStmt(self, stmt: P.WhileStmt) -> None:
        while self.eval_bool(stmt.condition):
            if not self._loop_body(stmt, stmt.body):
                return

    def _exec_ForRangeStmt(self, stmt: P.ForRangeStmt) -> None:
        start = self.eval_expr(stmt.start)
        stop = self.eval_expr(stmt.stop)
        if start is None or stop is None:
            raise PlsqlRuntimeError("FOR range bounds must not be NULL")
        step = 1
        if stmt.step is not None:
            step = self.eval_expr(stmt.step)
            if step is None or step <= 0:
                raise PlsqlRuntimeError("BY value of FOR loop must be positive")
        current = int(start)
        stop = int(stop)
        while (current >= stop) if stmt.reverse else (current <= stop):
            self.set_var(stmt.var, current)
            if not self._loop_body(stmt, stmt.body):
                return
            current += -step if stmt.reverse else step

    def _exec_ForQueryStmt(self, stmt: P.ForQueryStmt) -> None:
        result = self.run_query(stmt.query)
        for row in result.rows:
            value: Value = (row[0] if len(row) == 1
                            else Row(row, names=result.columns))
            self.set_var(stmt.var, value)
            if not self._loop_body(stmt, stmt.body):
                return

    def _exec_ForEachStmt(self, stmt: P.ForEachStmt) -> None:
        array = self.eval_expr(stmt.array)
        if array is None:
            return
        if not isinstance(array, list):
            raise PlsqlRuntimeError("FOREACH expects an array expression")
        for element in array:
            self.set_var(stmt.var, element)
            if not self._loop_body(stmt, stmt.body):
                return

    def _exec_ExitStmt(self, stmt: P.ExitStmt) -> None:
        if stmt.when is None or self.eval_bool(stmt.when):
            raise _Exit(stmt.label)

    def _exec_ContinueStmt(self, stmt: P.ContinueStmt) -> None:
        if stmt.when is None or self.eval_bool(stmt.when):
            raise _Continue(stmt.label)

    def _exec_ReturnStmt(self, stmt: P.ReturnStmt) -> None:
        value = self.eval_expr(stmt.expr) if stmt.expr is not None else None
        raise _Return(value)

    def _exec_PerformStmt(self, stmt: P.PerformStmt) -> None:
        self.run_query(stmt.query)

    def _exec_RaiseStmt(self, stmt: P.RaiseStmt) -> None:
        message = stmt.message
        for arg in stmt.args:
            value = self.eval_expr(arg)
            message = message.replace("%", render_value(value), 1)
        if stmt.level == "exception":
            raise PlsqlRuntimeError(message)
        self.db.notices.append(f"{stmt.level.upper()}: {message}")

    def _exec_NullStmt(self, stmt: P.NullStmt) -> None:
        pass

    def _exec_BlockStmt(self, stmt: P.BlockStmt) -> None:
        for declaration in stmt.declarations:
            default = (self.eval_expr(declaration.default)
                       if declaration.default is not None else None)
            self.set_var(declaration.name, default)
        try:
            self.exec_block(stmt.body)
        except _Exit as signal:
            if signal.label is not None and signal.label == stmt.label:
                return
            raise


def stmt_label(stmt: P.Stmt) -> str:
    """A short, human-readable label for one statement (Figure 3 bars)."""
    from ..compiler.dialects import render_expression

    def render(expr) -> str:
        return " ".join(render_expression(expr).split())

    if isinstance(stmt, P.Assign):
        rendered = render(stmt.expr)
        if len(rendered) > 40:
            rendered = rendered[:37] + "..."
        return f"{stmt.target} = {rendered}"
    if isinstance(stmt, P.ReturnStmt):
        if stmt.expr is None:
            return "RETURN"
        rendered = render(stmt.expr)
        return f"RETURN {rendered[:34]}" + ("..." if len(rendered) > 34 else "")
    if isinstance(stmt, P.PerformStmt):
        return "PERFORM ..."
    if isinstance(stmt, P.ExitStmt):
        return "EXIT" + (f" {stmt.label}" if stmt.label else "")
    if isinstance(stmt, P.ContinueStmt):
        return "CONTINUE" + (f" {stmt.label}" if stmt.label else "")
    return type(stmt).__name__


def call_plpgsql(db, fdef: FunctionDef, args: list[Value]) -> Value:
    """Interpret one invocation of PL/pgSQL function *fdef* (Q→f switch)."""
    stamp = db.plan_stamp()
    runtime: FunctionRuntime = fdef.body_plans.get(stamp)
    if runtime is None:
        with db.profiler.phase(PLAN):
            runtime = fdef.body_plans[stamp] = FunctionRuntime(db, fdef)
    db.profiler.push(INTERP)
    try:
        return Interpreter(db, runtime, args).run()
    finally:
        db.profiler.pop()
