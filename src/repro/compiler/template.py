"""The ``WITH RECURSIVE`` code template (the paper's **SQL** step, Fig. 8/9).

The tail-recursive UDF ``f*`` is *simulated* by a CTE ``run`` that tracks
its evaluation::

    SELECT (WITH RECURSIVE run("call?", fn, <vars...>, result) AS (
              SELECT base.*                          -- original invocation
              FROM (SELECT <adapted main>) AS base(...)
              UNION ALL
              SELECT iter.*                          -- calls and base cases
              FROM run AS r,
                   LATERAL (SELECT <adapted body>) AS iter(...)
              WHERE r."call?"
            )
            SELECT r.result FROM run AS r WHERE NOT r."call?")
    FROM (SELECT CAST($1 AS t1) AS p1, ..) AS args   -- the arguments

Adaptation replaces each recursive call site with a ``ROW(true, args, NULL)``
constructor and each base-case result with ``ROW(false, NULLs, v)`` — a
plain AST traversal, done here at the ANF level so the shared translation
machinery of :mod:`repro.compiler.udf` emits the final SQL.

The run table's ``args`` are flattened into one column per UDF parameter
(the paper's ``args`` abbreviation, footnote 2).  Every Qf, loop-free or
not, reads its parameters from the one-row FROM that binds the call's
arguments (:func:`bind_arguments`).  ``WITH ITERATE`` uses the
identical template with the ITERATE keyword — only the engine-side working
table behaviour differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.volatility import expr_is_volatile
from ..sql import ast as A
from ..sql.astutil import spelled_names
from ..sql.errors import CompileError
from .anf import AnfCall, exprs, fold
from .rename import rename_variables
from .udf import (LET_STYLE_LATERAL, LET_STYLE_NESTED, SqlUdf, call_args,
                  translate_anf, udf_is_recursive)

RUN_ALIAS = "r"
CALL_COLUMN = "call?"


def run_columns(udf: SqlUdf) -> list[str]:
    return [CALL_COLUMN] + udf.rec_params + ["result"]


def _call_row(udf: SqlUdf, call: AnfCall) -> A.Expr:
    args = call_args(udf.anf, call, udf.rec_params[1:])
    return A.RowExpr([A.Literal(True), A.Literal(udf.labels[call.func]),
                      *args, A.Cast(A.Literal(None), udf.return_type)])


def _result_row(udf: SqlUdf, value: A.Expr) -> A.Expr:
    items: list[A.Expr] = [A.Literal(False)]
    items.extend(A.Literal(None) for _ in udf.rec_params)
    items.append(value)
    return A.RowExpr(items)


def _translate_substituted(expr, call, ret) -> A.Expr:
    """Translate an ANF expression to a *single scalar expression* with let
    bindings inlined by substitution (no FROM chains at all); *call* and
    *ret* render the tails.

    This is the SQLite rewrite: the engine lacks LATERAL, and correlated
    derived tables are off the menu too, so each ``run`` column is computed
    by an independent copy of the body with lets substituted away.  The
    duplication is only sound for non-volatile bodies — the caller checks.
    """
    return fold(
        expr,
        let=lambda node, body: rename_variables(
            body, lambda name: node.value if name == node.var else None),
        if_=lambda node, then, else_: A.CaseExpr(
            None, [(node.condition, then)], else_),
        call=call, ret=ret)


def _split_column_exprs(udf: SqlUdf, body, binder=None) -> list[A.Expr]:
    """One independent scalar expression per run column (split rewrite)."""
    out = []
    for index in range(len(run_columns(udf))):
        expr = _translate_substituted(
            body,
            call=lambda node: _call_row(udf, node).items[index],
            ret=lambda node: _result_row(udf, node.expr).items[index])
        out.append(expr if binder is None
                   else rename_variables(expr, binder))
    return out


def _split_rec_items(udf: SqlUdf) -> list[A.SelectItem]:
    """The recursive term's run-column items, dispatched per ANF function
    over ``r.fn`` (split rewrite counterpart of :func:`_dispatch_body`)."""
    columns = run_columns(udf)
    exprs_per_function = []
    for func in udf.anf.recursive_functions():
        condition = A.BinaryOp("=", A.ColumnRef((RUN_ALIAS, "fn")),
                               A.Literal(udf.labels[func.name]))
        # Bind only this function's own parameters (see _dispatch_body).
        own = {name: A.ColumnRef((RUN_ALIAS, name)) for name in func.params}
        exprs_per_function.append(
            (condition, _split_column_exprs(udf, func.body,
                                            lambda n: own.get(n))))
    rec_items = []
    for index in range(len(columns)):
        branches = [(condition, exprs[index])
                    for condition, exprs in exprs_per_function]
        expr = (branches[0][1] if len(branches) == 1
                else A.CaseExpr(None, branches[:-1], branches[-1][1]))
        rec_items.append(A.SelectItem(expr, alias=columns[index]))
    return rec_items


def build_split_template_query(udf: SqlUdf, iterate: bool = False,
                               catalog=None) -> A.SelectStmt:
    """The Figure 8 template without any LATERAL: each run column is an
    independent scalar expression (SQLite-compatible rewrite)."""
    if not udf_is_recursive(udf):
        return loop_free_query(udf, LET_STYLE_NESTED)
    if udf_contains_volatile(udf, catalog):
        raise CompileError(
            "the LATERAL-free (SQLite) rewrite duplicates expressions per "
            "output column; volatile functions (random()) would be drawn "
            "more than once — not supported for this function")
    columns = run_columns(udf)
    anf = udf.anf

    entry = anf.functions[anf.entry]
    base_core = A.SelectCore(items=[
        A.SelectItem(e, alias=columns[i]) for i, e in enumerate(
            _split_column_exprs(udf, entry.body))])

    rec_core = A.SelectCore(
        items=_split_rec_items(udf),
        from_clause=A.TableName("run", alias=RUN_ALIAS),
        where=A.ColumnRef((RUN_ALIAS, CALL_COLUMN)))

    cte = A.CommonTableExpr(
        "run", list(columns),
        A.SelectStmt(None, A.SetOp("union_all", base_core, rec_core)))
    final_core = A.SelectCore(
        items=[A.SelectItem(A.ColumnRef((RUN_ALIAS, "result")), alias="result")],
        from_clause=A.TableName("run", alias=RUN_ALIAS),
        where=A.UnaryOp("not", A.ColumnRef((RUN_ALIAS, CALL_COLUMN))))
    return bind_arguments(udf, A.ScalarSubquery(A.SelectStmt(
        A.WithClause(recursive=True, ctes=[cte], iterate=iterate),
        final_core)))


def udf_contains_volatile(udf: SqlUdf, catalog=None) -> bool:
    """Does any expression anywhere in the UDF call a volatile function -
    a volatile builtin, or a user-defined function the analyzer classes
    volatile (:func:`repro.analysis.volatility.expr_is_volatile`)?

    Two consumers.  The split rewrite copies expressions once per run
    column, which would draw a volatile call more than once.  The machine
    form (:func:`build_machine`) is ``shareable`` only without one: a call
    site memoizes results by argument values, which would skip the draws
    of a repeated call, so a volatile body runs every call as its own
    activation.  This is a fact about the body's own text (through the
    helpers it calls), so a declared ``IMMUTABLE`` does not override it.
    """
    return any(expr_is_volatile(expr, catalog)
               for func in udf.anf.functions.values()
               for expr in exprs(func.body))


def loop_free_query(udf: SqlUdf, let_style: str) -> A.SelectStmt:
    """Qf of a loop-free function: just the translated body, exactly as in
    Froid, its ``let`` chains in *let_style*."""
    body = translate_anf(udf.anf.functions[udf.anf.entry].body,
                         on_call=_no_calls_expected,
                         on_return=lambda v: v,
                         let_style=let_style)
    return bind_arguments(udf, body)


def bind_arguments(udf: SqlUdf, body: A.Expr) -> A.SelectStmt:
    """Qf: *body*, which reads each parameter by its bare SSA name, over
    one row binding the arguments:
    ``SELECT <body> FROM (SELECT CAST($1 AS t1) AS p1, ..) AS <alias>``.

    The one place a parameter becomes a ``$k``, each exactly once: a call
    site's argument is evaluated once per call, before the body, read or
    not, cast as the interpreter coerces it at entry, and outside the
    body's FROM clauses, so no callee column captures a name it spells.
    *alias* is no name the body spells, so nothing inside the body
    captures its reads ``<alias>.<p>`` either.
    """
    if not udf.params:
        return _scalar_stmt(body)
    taken = spelled_names(body)
    alias, version = "args", 0
    while alias in taken:
        version += 1
        alias = f"args_{version}"
    row = A.SelectStmt(None, A.SelectCore(items=[
        A.SelectItem(A.Cast(A.Param(index), type_name),
                     alias=name)
        for index, (name, type_name)
        in enumerate(zip(udf.params, udf.param_types), start=1)]))
    reads = {name: A.ColumnRef((alias, name)) for name in udf.params}
    return A.SelectStmt(None, A.SelectCore(
        items=[A.SelectItem(rename_variables(body, reads.get))],
        from_clause=A.SubqueryRef(row, alias=alias)))


def build_template_query(udf: SqlUdf, iterate: bool = False) -> A.SelectStmt:
    """Produce the pure-SQL query Qf for *udf*.

    The arguments are bound once, in a one-row FROM over ``$1 .. $n``
    (:func:`bind_arguments`); the planner (or :mod:`repro.compiler.inline`)
    substitutes the call site's argument expressions there.  Loop-free
    functions skip the CTE entirely (:func:`loop_free_query`).
    """
    if not udf_is_recursive(udf):
        return loop_free_query(udf, LET_STYLE_LATERAL)

    columns = run_columns(udf)
    anf = udf.anf

    # Base term: the entry expression with calls/returns encoded as rows.
    entry = anf.functions[anf.entry]
    base_expr = translate_anf(
        entry.body,
        on_call=lambda call: _call_row(udf, call),
        on_return=lambda value: _result_row(udf, value))
    base_core = A.SelectCore(
        items=[A.Star("base")],
        from_clause=A.SubqueryRef(_scalar_stmt(base_expr), alias="base",
                                  column_aliases=list(columns)))

    # Recursive term: the adapted UDF body over the newest run row.
    body_expr = _dispatch_body(udf)
    rec_core = A.SelectCore(
        items=[A.Star("iter")],
        from_clause=A.Join(
            "cross",
            A.TableName("run", alias=RUN_ALIAS),
            A.SubqueryRef(_scalar_stmt(body_expr), alias="iter",
                          column_aliases=list(columns), lateral=True)),
        where=A.ColumnRef((RUN_ALIAS, CALL_COLUMN)))

    cte = A.CommonTableExpr(
        "run", list(columns),
        A.SelectStmt(None, A.SetOp("union_all", base_core, rec_core)))

    final_core = A.SelectCore(
        items=[A.SelectItem(A.ColumnRef((RUN_ALIAS, "result")), alias="result")],
        from_clause=A.TableName("run", alias=RUN_ALIAS),
        where=A.UnaryOp("not", A.ColumnRef((RUN_ALIAS, CALL_COLUMN))))

    return bind_arguments(udf, A.ScalarSubquery(A.SelectStmt(
        A.WithClause(recursive=True, ctes=[cte], iterate=iterate),
        final_core)))


def _dispatch_body(udf: SqlUdf) -> A.Expr:
    """Figure 9: the UDF body with rows replacing calls and base cases.

    Variable binding is per dispatched function: only *that* function's
    parameters map to ``r.<name>``.  A name can be a parameter of one
    function and a let-bound local of another (lambda lifting reuses SSA
    names), so a global map would capture locals.
    """
    anf = udf.anf
    whens: list[tuple[A.Expr, A.Expr]] = []
    for func in anf.recursive_functions():
        condition = A.BinaryOp("=", A.ColumnRef((RUN_ALIAS, "fn")),
                               A.Literal(udf.labels[func.name]))
        body = translate_anf(
            func.body,
            on_call=lambda call: _call_row(udf, call),
            on_return=lambda value: _result_row(udf, value))
        own = {name: A.ColumnRef((RUN_ALIAS, name)) for name in func.params}
        body = rename_variables(body, lambda n: own.get(n))
        whens.append((condition, body))
    if len(whens) == 1:
        return whens[0][1]
    return A.CaseExpr(None, whens[:-1], whens[-1][1])


# ---------------------------------------------------------------------------
# The machine form of the template
# ---------------------------------------------------------------------------
#
# The templates above *spell* a state machine in SQL: every run row is a
# machine state ``(fn, <vars...>)`` and the recursive term is its transition
# function.  The engine evaluates that machine directly — compiled
# condition/argument expressions over the live states, no generic operator
# overhead per step — exactly as WITH ITERATE is an engine-side evaluation
# strategy for the same template.  The structures below are that machine,
# handed to the engine alongside the SQL form: every call site runs one
# activation of it per call, memoized by argument values when the machine
# is shareable (executor/trampoline.py).


@dataclass
class MachineLet:
    """Bind *var* to *value* for *body* — the template's LATERAL binding,
    evaluated exactly once per step (no substitution duplication)."""

    var: str
    value: A.Expr
    body: object


@dataclass
class MachineIf:
    """Branch on *condition* (an SQL expression over the state columns)."""

    condition: A.Expr
    then_node: object
    else_node: object


@dataclass
class MachineCall:
    """Tail call: the next state is ``(label, <args...>)``."""

    label: int
    args: list  # one A.Expr per state variable column (rec_params[1:])


@dataclass
class MachineResult:
    """Base case: the activation finishes with *value*."""

    value: A.Expr


@dataclass
class TrampolineMachine:
    """The template's trampoline as explicit transition rules.

    ``base`` is evaluated over one row of ``(param_columns)`` per caller;
    ``transitions[label]`` over one state row of ``(state_columns)``, where
    only the columns in ``own_params[label]`` carry that rule's meaningful
    values (the rest are another rule's slots — see
    :func:`_dispatch_body`'s per-function binding note).  Expressions
    reference variables as bare SSA names, resolved against those columns
    plus any enclosing :class:`MachineLet` bindings.  ``shareable``: may
    calls with equal arguments share one activation's result
    (:func:`udf_contains_volatile` is false for the body: no volatile
    builtin and no call to a volatile user-defined helper)?
    """

    param_columns: list[str]
    state_columns: list[str]          # ["fn"] + machine variables
    own_params: dict[int, frozenset]  # label -> that rule's live columns
    shareable: bool
    base: object = field(repr=False)  # type: ignore[assignment]
    transitions: dict[int, object] = field(repr=False)  # type: ignore[assignment]


def build_machine(udf: SqlUdf, catalog=None) -> TrampolineMachine:
    """Derive the template's transition rules from the ANF.

    Volatile bodies get a machine too: a :class:`MachineLet` evaluates its
    binding exactly once per step, so there is none of the split rewrite's
    expression duplication to guard against.  What a volatile body may not
    do is *share* a result with other callers (``shareable`` is false);
    every one of its calls runs its own activation.
    """
    if not udf_is_recursive(udf):
        raise CompileError("the machine form requires a recursive UDF")
    anf = udf.anf
    state_vars = udf.rec_params[1:]  # "fn" is the dispatch slot

    def call(node: AnfCall) -> MachineCall:
        args = call_args(anf, node, state_vars)
        return MachineCall(udf.labels[node.func], args)

    def rules(body):
        return fold(body,
                    let=lambda node, rest: MachineLet(node.var, node.value,
                                                      rest),
                    if_=lambda node, then, else_: MachineIf(node.condition,
                                                            then, else_),
                    call=call,
                    ret=lambda node: MachineResult(node.expr))

    transitions = {}
    own_params = {}
    for func in anf.recursive_functions():
        label = udf.labels[func.name]
        transitions[label] = rules(func.body)
        own_params[label] = frozenset(p.lower() for p in func.params)
    return TrampolineMachine(
        param_columns=[p.lower() for p in udf.params],
        state_columns=[p.lower() for p in udf.rec_params],
        own_params=own_params,
        shareable=not udf_contains_volatile(udf, catalog),
        base=rules(anf.functions[anf.entry].body),
        transitions=transitions)


def _scalar_stmt(expr: A.Expr) -> A.SelectStmt:
    """``SELECT <expr>`` — unwrapping a redundant scalar-subquery shell."""
    if isinstance(expr, A.ScalarSubquery):
        # The let-chain translation already built a single-row SELECT whose
        # item is the row constructor; use it directly as the FROM body.
        return expr.query
    return A.SelectStmt(None, A.SelectCore(items=[A.SelectItem(expr)]))


def _no_calls_expected(call: AnfCall) -> A.Expr:
    raise CompileError("internal: loop-free function still contains a call "
                       f"to {call.func!r}")
