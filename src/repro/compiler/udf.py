"""ANF → one directly tail-recursive SQL UDF (the paper's **UDF** step).

Mutual recursion between the remaining ANF functions is flattened with an
additional dispatch parameter ``fn`` (defunctionalization, Reynolds / Grust
et al.), and the functional constructs map onto SQL:

* ``let v = e1 in e2``  →  chained single-row subqueries glued with
  ``LEFT JOIN LATERAL ... ON true`` (paper Figure 7) — LATERAL plays the
  role of ``;`` statement sequencing,
* ``if·then·else``       →  ``CASE WHEN``,
* tail calls             →  calls to the flattened UDF ``f*``.

The same translation machinery is reused by :mod:`repro.compiler.template`
with a different call/return treatment (rows instead of calls) and by the
SQLite dialect with a nested-subquery ``let`` style instead of LATERAL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..sql import ast as A
from ..sql.errors import CompileError
from .anf import AnfCall, AnfExpr, AnfProgram, fold

#: How ``let`` chains are rendered:
#: - "lateral": (SELECT e1) AS _0(v1) LEFT JOIN LATERAL (SELECT e2) AS _1(v2)
#: - "nested":  SELECT ... FROM (SELECT prev.*, e2 AS v2 FROM (...) prev)
LET_STYLE_LATERAL = "lateral"
LET_STYLE_NESTED = "nested"


def translate_anf(expr: AnfExpr,
                  on_call: Callable[[AnfCall], A.Expr],
                  on_return: Callable[[A.Expr], A.Expr],
                  let_style: str = LET_STYLE_LATERAL) -> A.Expr:
    """Translate an ANF expression to one SQL scalar expression.

    *on_call* renders tail calls (a recursive UDF invocation for the UDF
    form, a ``ROW(true, args, NULL)`` constructor for the CTE template);
    *on_return* renders base-case results likewise.  A run of ``let``s
    becomes one chain (the fold carries ``(bindings, item)`` up to the
    nearest ``if`` or the root, which closes it).
    """
    def close(folded) -> A.Expr:
        bindings, item = folded
        if not bindings:
            return item
        if let_style == LET_STYLE_LATERAL:
            from_clause = _lateral_chain(bindings)
        elif let_style == LET_STYLE_NESTED:
            from_clause = _nested_chain(bindings)
        else:
            raise CompileError(f"unknown let style {let_style!r}")
        core = A.SelectCore(items=[A.SelectItem(item)], from_clause=from_clause)
        return A.ScalarSubquery(A.SelectStmt(None, core))

    return close(fold(
        expr,
        let=lambda node, body: ([(node.var, node.value)] + body[0], body[1]),
        if_=lambda node, then, else_: ([], A.CaseExpr(
            None, [(node.condition, close(then))], close(else_))),
        call=lambda node: ([], on_call(node)),
        ret=lambda node: ([], on_return(node.expr))))


def call_args(program: AnfProgram, call: AnfCall,
              params: list[str]) -> list[A.Expr]:
    """What *call* passes for each of *params* (NULL for a parameter the
    callee does not have): the flattened argument list of a dispatched
    call."""
    target = program.functions.get(call.func)
    if target is None:
        raise CompileError(f"call to unknown function {call.func!r}")
    by_param = dict(zip(target.params, call.args))
    return [by_param.get(param, A.Literal(None)) for param in params]


def _one_row_select(value: A.Expr) -> A.SelectStmt:
    return A.SelectStmt(None, A.SelectCore(items=[A.SelectItem(value)]))


def _lateral_chain(bindings: list[tuple[str, A.Expr]]) -> A.TableRef:
    """Paper Figure 7: ``(SELECT e1) AS _0(v1) LEFT JOIN LATERAL ...``."""
    var0, value0 = bindings[0]
    chain: A.TableRef = A.SubqueryRef(_one_row_select(value0), alias="_0",
                                      column_aliases=[var0], lateral=False)
    for index, (var, value) in enumerate(bindings[1:], start=1):
        right = A.SubqueryRef(_one_row_select(value), alias=f"_{index}",
                              column_aliases=[var], lateral=True)
        chain = A.Join("left", chain, right, condition=A.Literal(True))
    return chain


def _nested_chain(bindings: list[tuple[str, A.Expr]]) -> A.TableRef:
    """LATERAL-free rewrite for SQLite: each binding level wraps the previous
    derived table and passes earlier columns through with ``prev.*``."""
    var0, value0 = bindings[0]
    inner = A.SelectStmt(None, A.SelectCore(
        items=[A.SelectItem(value0, alias=var0)]))
    current = A.SubqueryRef(inner, alias="_0")
    for index, (var, value) in enumerate(bindings[1:], start=1):
        core = A.SelectCore(
            items=[A.Star(current.alias), A.SelectItem(value, alias=var)],
            from_clause=current)
        current = A.SubqueryRef(A.SelectStmt(None, core), alias=f"_{index}")
    return current


# ---------------------------------------------------------------------------
# Defunctionalization
# ---------------------------------------------------------------------------


@dataclass
class SqlUdf:
    """The flattened tail-recursive UDF and its wrapper (paper Figure 7)."""

    name: str                       # original function name f
    star_name: str                  # the recursive worker f* ("<f>__rec")
    params: list[str]               # original parameter SSA names
    param_types: list[str]
    return_type: str
    labels: dict[str, int]          # ANF function name -> fn label value
    rec_params: list[str]           # ["fn", <union of ANF function params>]
    rec_param_types: list[str]
    star_body: A.Expr               # dispatch CASE with recursive calls
    wrapper_body: A.Expr            # the entry expression calling f*
    anf: AnfProgram = field(repr=False, default=None)  # type: ignore[assignment]


def build_udf(program: AnfProgram) -> SqlUdf:
    """Flatten *program* into one directly tail-recursive SQL UDF."""
    rec_functions = program.recursive_functions()
    labels = {func.name: index + 1 for index, func in enumerate(rec_functions)}
    star_name = f"{program.func_name}__rec"

    # Union of parameters over all dispatched functions, stable order:
    # first-seen wins; 'fn' goes first.
    rec_params: list[str] = []
    for func in rec_functions:
        for param in func.params:
            if param not in rec_params:
                rec_params.append(param)
    # SSA names always carry a version suffix ("x_1"), so the bare dispatch
    # name "fn" cannot collide with them.
    assert "fn" not in rec_params
    rec_param_types = [program.var_types.get(p, "int") for p in rec_params]

    def on_call(call: AnfCall) -> A.Expr:
        args = call_args(program, call, rec_params)
        return A.FuncCall(star_name, [A.Literal(labels[call.func])] + args)

    def on_return(value: A.Expr) -> A.Expr:
        return value

    whens: list[tuple[A.Expr, A.Expr]] = []
    for func in rec_functions:
        condition = A.BinaryOp("=", A.ColumnRef(("fn",)),
                               A.Literal(labels[func.name]))
        body = translate_anf(func.body, on_call, on_return)
        whens.append((condition, body))
    if not whens:
        star_body: A.Expr = A.Literal(None)
    elif len(whens) == 1:
        # A single recursive function needs no dispatch at all.
        star_body = whens[0][1]
    else:
        # Last label becomes the ELSE branch (no silent NULL fallthrough).
        star_body = A.CaseExpr(None, whens[:-1], whens[-1][1])

    entry = program.functions[program.entry]
    wrapper_body = translate_anf(entry.body, on_call, on_return)

    return SqlUdf(
        name=program.func_name,
        star_name=star_name,
        params=list(program.params),
        param_types=list(program.param_types),
        return_type=program.return_type,
        labels=labels,
        rec_params=["fn"] + rec_params,
        rec_param_types=["int"] + rec_param_types,
        star_body=star_body,
        wrapper_body=wrapper_body,
        anf=program,
    )


def udf_is_recursive(udf: SqlUdf) -> bool:
    return bool(udf.labels)
