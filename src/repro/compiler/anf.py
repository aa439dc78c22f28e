"""SSA → administrative normal form (the paper's **ANF** step).

Following Appel ("SSA is functional programming") and Chakravarty et al.,
each basic block becomes a function: jump labels turn into function names,
gotos into *tail* calls, φ-bound variables into parameters, and lambda
lifting adds the remaining free variables as explicit parameters.  Iteration
— looping back to a label — thereby turns into tail recursion (paper
Figure 6).

An inlining pass then merges functions with exactly one call site into
their caller, which collapses the straight-line blocks the CFG lowering
introduced and leaves only genuinely shared or recursive functions — the
ones the UDF stage must defunctionalize.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from ..sql import ast as A
from ..sql.errors import CompileError
from .cfg import CondGoto, Goto, Return
from .rename import collect_variable_uses
from .ssa import SsaProgram


class AnfExpr:
    __slots__ = ()


@dataclass
class AnfLet(AnfExpr):
    """``let var = value in body`` (value is a SQL expression)."""

    var: str
    value: A.Expr
    body: AnfExpr


@dataclass
class AnfIf(AnfExpr):
    condition: A.Expr
    then_branch: AnfExpr
    else_branch: AnfExpr


@dataclass
class AnfCall(AnfExpr):
    """Tail call to another ANF function."""

    func: str
    args: list[A.Expr]


@dataclass
class AnfRet(AnfExpr):
    expr: A.Expr


@dataclass
class AnfFunction:
    name: str
    params: list[str]
    body: AnfExpr


@dataclass
class AnfProgram:
    func_name: str
    params: list[str]           # SSA names of the original parameters
    param_types: list[str]
    return_type: str
    entry: str                  # name of the entry function ("main")
    functions: dict[str, AnfFunction] = field(default_factory=dict)
    var_types: dict[str, str] = field(default_factory=dict)
    base_of: dict[str, str] = field(default_factory=dict)

    def recursive_functions(self) -> list[AnfFunction]:
        """Every function except the entry, in stable (name) order."""
        return [f for name, f in sorted(self.functions.items())
                if name != self.entry]

    def pretty(self) -> str:
        from .dialects import render_expression

        def indent(lines: list[str]) -> list[str]:
            return ["  " + line for line in lines]

        def render(body: AnfExpr) -> list[str]:
            return indent(indent(fold(
                body,
                let=lambda node, rest: [f"let {node.var} = "
                                        f"{render_expression(node.value)} in",
                                        *rest],
                if_=lambda node, then, else_: [
                    f"if {render_expression(node.condition)} then",
                    *indent(then), "else", *indent(else_)],
                call=lambda node: [f"{node.func}(" + ", ".join(
                    render_expression(a) for a in node.args) + ")"],
                ret=lambda node: [render_expression(node.expr)])))

        lines = [f"function {self.func_name}({', '.join(self.params)}) ="]
        for func in self.recursive_functions():
            lines.append(f"  letrec {func.name}({', '.join(func.params)}) =")
            lines.extend(render(func.body))
        lines.append("  in")
        lines.extend(render(self.functions[self.entry].body))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The one traversal
# ---------------------------------------------------------------------------
#
# Every pass over an ANF body goes through ``_match`` - the one place that
# knows the four node kinds - by way of the helpers below.  Callers pass one
# callback per kind; none of them tests a node's class.


def _match(expr: AnfExpr, let, if_, call, ret):
    """``let(expr)`` / ``if_(expr)`` / ``call(expr)`` / ``ret(expr)`` by
    the kind of *expr*."""
    if isinstance(expr, AnfLet):
        return let(expr)
    if isinstance(expr, AnfIf):
        return if_(expr)
    if isinstance(expr, AnfCall):
        return call(expr)
    if isinstance(expr, AnfRet):
        return ret(expr)
    raise CompileError(f"unknown ANF node {type(expr).__name__}")


def children(expr: AnfExpr) -> tuple[AnfExpr, ...]:
    """The ANF nodes directly under *expr* (none under a tail)."""
    return _match(expr,
                  let=lambda node: (node.body,),
                  if_=lambda node: (node.then_branch, node.else_branch),
                  call=lambda node: (),
                  ret=lambda node: ())


def exprs(expr: AnfExpr) -> Iterator[A.Expr]:
    """Every SQL expression held in the tree under *expr*: let values,
    conditions, call arguments and results, in source order."""
    yield from _match(expr,
                      let=lambda node: (node.value,),
                      if_=lambda node: (node.condition,),
                      call=lambda node: node.args,
                      ret=lambda node: (node.expr,))
    for child in children(expr):
        yield from exprs(child)


def _rebuild_let(node: AnfLet, body) -> AnfLet:
    return AnfLet(node.var, node.value, body)


def _rebuild_if(node: AnfIf, then, else_) -> AnfIf:
    return AnfIf(node.condition, then, else_)


def _same(node: AnfExpr) -> AnfExpr:
    return node


def fold(expr: AnfExpr, let=_rebuild_let, if_=_rebuild_if, call=_same,
         ret=_same):
    """Fold the tree under *expr* bottom-up: ``let(node, body)``,
    ``if_(node, then, else_)`` receive their children's results,
    ``call(node)`` and ``ret(node)`` fold the tails.  The defaults rebuild
    the node, so ``fold(expr, call=f)`` replaces just the calls."""
    def go(node: AnfExpr):
        return _match(
            node,
            let=lambda n: let(n, go(n.body)),
            if_=lambda n: if_(n, go(n.then_branch), go(n.else_branch)),
            call=call, ret=ret)
    return go(expr)


def map_exprs(expr: AnfExpr, fn) -> AnfExpr:
    """A copy of the tree under *expr* with ``fn`` applied to each SQL
    expression it holds."""
    return fold(expr,
                let=lambda node, body: AnfLet(node.var, fn(node.value), body),
                if_=lambda node, then, else_: AnfIf(fn(node.condition),
                                                    then, else_),
                call=lambda node: AnfCall(node.func,
                                          [fn(a) for a in node.args]),
                ret=lambda node: AnfRet(fn(node.expr)))


def calls(expr: AnfExpr) -> list[str]:
    """The callee of every tail call in the tree under *expr*."""
    return fold(expr, let=lambda node, body: body,
                if_=lambda node, then, else_: then + else_,
                call=lambda node: [node.func], ret=lambda node: [])


# ---------------------------------------------------------------------------
# SSA -> ANF conversion
# ---------------------------------------------------------------------------


def ssa_to_anf(program: SsaProgram, catalog=None) -> AnfProgram:
    """Translate SSA blocks into mutually tail-recursive ANF functions."""
    entry_name = "main"
    names = {bid: (entry_name if bid == program.entry else f"l{bid}")
             for bid in program.blocks}
    variables = set(program.var_types)

    # Lambda lifting: compute each block-function's free variables.
    # Start from direct uses minus local definitions, then propagate the
    # frees of callees (their φ params are bound by the call, the rest flow
    # through the caller) until fixpoint.
    direct_uses: dict[int, set[str]] = {}
    local_defs: dict[int, set[str]] = {}
    phi_params: dict[int, list[str]] = {}
    for bid, block in program.blocks.items():
        uses: set[str] = set()
        for stmt in block.stmts:
            uses |= collect_variable_uses(stmt.expr, variables, catalog)
        terminator = block.terminator
        if isinstance(terminator, CondGoto):
            uses |= collect_variable_uses(terminator.condition, variables, catalog)
        elif isinstance(terminator, Return):
            uses |= collect_variable_uses(terminator.expr, variables, catalog)
        for successor in block.successors():
            for phi in program.blocks[successor].phis:
                operand = phi.args.get(bid)
                if operand is not None:
                    uses.add(operand)
        phi_params[bid] = [phi.target for phi in block.phis]
        local_defs[bid] = (set(phi_params[bid])
                           | {stmt.target for stmt in block.stmts})
        direct_uses[bid] = uses

    free: dict[int, set[str]] = {bid: direct_uses[bid] - local_defs[bid]
                                 for bid in program.blocks}
    changed = True
    while changed:
        changed = False
        for bid, block in program.blocks.items():
            for successor in block.successors():
                inherited = free[successor] - set(phi_params[successor])
                extra = inherited - local_defs[bid] - free[bid]
                if extra:
                    free[bid] |= extra
                    changed = True

    entry_free = free[program.entry] - set(program.params)
    if entry_free:
        raise CompileError(
            f"variables used before definition: {sorted(entry_free)}")

    params_of: dict[int, list[str]] = {}
    for bid in program.blocks:
        if bid == program.entry:
            params_of[bid] = list(program.params)
        else:
            params_of[bid] = phi_params[bid] + sorted(free[bid])

    def call_for_edge(source: int, target: int) -> AnfCall:
        args: list[A.Expr] = []
        for phi in program.blocks[target].phis:
            operand = phi.args.get(source)
            args.append(A.ColumnRef((operand,)) if operand is not None
                        else A.Literal(None))
        for name in sorted(free[target]):
            args.append(A.ColumnRef((name,)))
        return AnfCall(names[target], args)

    functions: dict[str, AnfFunction] = {}
    for bid, block in program.blocks.items():
        terminator = block.terminator
        if isinstance(terminator, Return):
            tail: AnfExpr = AnfRet(terminator.expr)
        elif isinstance(terminator, Goto):
            tail = call_for_edge(bid, terminator.target)
        elif isinstance(terminator, CondGoto):
            tail = AnfIf(terminator.condition,
                         call_for_edge(bid, terminator.then_target),
                         call_for_edge(bid, terminator.else_target))
        else:
            raise CompileError(f"block L{bid} lacks a terminator")
        body: AnfExpr = tail
        for stmt in reversed(block.stmts):
            body = AnfLet(stmt.target, stmt.expr, body)
        functions[names[bid]] = AnfFunction(names[bid], params_of[bid], body)

    return AnfProgram(
        func_name=program.func_name,
        params=list(program.params),
        param_types=list(program.param_types),
        return_type=program.return_type,
        entry=entry_name,
        functions=functions,
        var_types=dict(program.var_types),
        base_of=dict(program.base_of),
    )


# ---------------------------------------------------------------------------
# ANF inlining
# ---------------------------------------------------------------------------


def _call_edges(program: AnfProgram) -> dict[str, set[str]]:
    return {name: set(calls(func.body))
            for name, func in program.functions.items()}


def _cyclic_functions(program: AnfProgram) -> set[str]:
    """Functions that can reach themselves through the call graph."""
    edges = _call_edges(program)
    cyclic: set[str] = set()
    for start in program.functions:
        seen: set[str] = set()
        work = list(edges.get(start, ()))
        while work:
            name = work.pop()
            if name == start:
                cyclic.add(start)
                break
            if name in seen:
                continue
            seen.add(name)
            work.extend(edges.get(name, ()))
    return cyclic


def inline_anf(program: AnfProgram) -> AnfProgram:
    """Inline ANF functions until only cyclic ones (and the entry) remain.

    Two rules, applied to fixpoint:

    * a function with exactly one call site is grafted into its caller;
    * an *acyclic* function is grafted into all callers even when called
      from several sites (the code duplication Froid accepts too) — this is
      what makes loop-free input compile to a plain query with no CTE.

    Because SSA names are globally unique, inlining is pure tree grafting:
    the callee's parameters become ``let`` bindings of the argument
    expressions, no renaming required — except that a multi-site inline
    duplicates let-bound names across *disjoint* branches, which stays
    sound for translation (each branch is rendered independently).
    """
    progress = True
    while progress:
        progress = False
        counts = Counter(name for func in program.functions.values()
                         for name in calls(func.body))
        # Unreachable functions (no call sites) simply disappear.
        for name in list(program.functions):
            if name != program.entry and counts[name] == 0:
                del program.functions[name]
                progress = True
        if progress:
            continue
        cyclic = _cyclic_functions(program)
        for name, func in list(program.functions.items()):
            if name == program.entry:
                continue
            if counts[name] != 1 and name in cyclic:
                continue
            if name in calls(func.body):
                continue  # self-recursive: calls itself directly

            def graft(call: AnfCall) -> AnfExpr:
                if call.func != name:
                    return call
                body = func.body
                for param, arg in zip(reversed(func.params),
                                      reversed(call.args)):
                    body = AnfLet(param, arg, body)
                return body

            callers = [caller for caller_name, caller in
                       program.functions.items()
                       if caller_name != name and name in calls(caller.body)]
            if not callers:
                continue
            for caller in callers:
                caller.body = fold(caller.body, call=graft)
            del program.functions[name]
            progress = True
            break
    _simplify_trivial_lets(program)
    return program


def _simplify_trivial_lets(program: AnfProgram) -> None:
    """Drop ``let v = <var or literal> in body`` by substituting into body.

    Keeps the emitted LATERAL chains short after inlining introduced
    parameter bindings that are just variable renames.
    """
    from .rename import rename_variables

    def let(node: AnfLet, body: AnfExpr) -> AnfExpr:
        value = node.value
        if isinstance(value, A.Literal) or (
                isinstance(value, A.ColumnRef) and len(value.parts) == 1):
            return map_exprs(body, lambda expr: rename_variables(
                expr, lambda name: value if name == node.var else None))
        return AnfLet(node.var, value, body)

    for func in program.functions.values():
        func.body = fold(func.body, let=let)
