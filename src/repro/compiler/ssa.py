"""Static single assignment construction (second half of the paper's SSA step).

Given the goto CFG, place φ functions at dominance frontiers of each
variable's definition sites (Cytron et al.) and rename every definition to a
fresh version ``name_k``.  The result matches the paper's Figure 5: every
variable assigned exactly once, φs at join points carrying one operand per
predecessor, and expressions that are still plain SQL — now over versioned
variables.

Also provides :func:`evaluate_ssa`, a reference interpreter for SSA programs
used by the differential tests (PL/SQL interpreter vs SSA vs compiled SQL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from ..analysis.sqlcheck import resolver
from ..sql import ast as A
from ..sql.astutil import rebuild, spelled_names
from ..sql.errors import CompileError, VariableConflictError
from .cfg import CondGoto, ControlFlowGraph, Goto, Return, Terminator
from .dominators import DominatorInfo


@dataclass
class Phi:
    """``target <- φ(pred_bid: operand, ...)``; operand None means the
    variable is undefined along that edge (evaluates to NULL)."""

    target: str
    args: dict[int, Optional[str]] = field(default_factory=dict)


@dataclass
class SsaAssign:
    target: str
    expr: A.Expr


@dataclass
class SsaBlock:
    bid: int
    phis: list[Phi] = field(default_factory=list)
    stmts: list[SsaAssign] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    @property
    def label(self) -> str:
        return f"L{self.bid}"

    def successors(self) -> list[int]:
        t = self.terminator
        if isinstance(t, Goto):
            return [t.target]
        if isinstance(t, CondGoto):
            return [t.then_target, t.else_target]
        return []


@dataclass
class SsaProgram:
    func_name: str
    params: list[str]              # SSA names of the parameters (version 1)
    param_types: list[str]
    return_type: str
    blocks: dict[int, SsaBlock]
    entry: int
    base_of: dict[str, str]        # ssa name -> original variable
    var_types: dict[str, str]      # ssa name -> declared type

    def block_ids(self) -> list[int]:
        return sorted(self.blocks)

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {bid: [] for bid in self.blocks}
        for bid, block in self.blocks.items():
            for successor in block.successors():
                if successor in preds:
                    preds[successor].append(bid)
        return preds

    def pretty(self) -> str:
        from .dialects import render_expression
        lines = [f"function {self.func_name}({', '.join(self.params)})", "{"]
        for bid in self.block_ids():
            block = self.blocks[bid]
            lines.append(f"  {block.label}:")
            for phi in block.phis:
                operands = ", ".join(
                    f"L{pred}:{operand if operand is not None else 'NULL'}"
                    for pred, operand in sorted(phi.args.items()))
                lines.append(f"    {phi.target} <- phi({operands});")
            for stmt in block.stmts:
                lines.append(f"    {stmt.target} <- "
                             f"{render_expression(stmt.expr)};")
            t = block.terminator
            if isinstance(t, Goto):
                lines.append(f"    goto L{t.target};")
            elif isinstance(t, CondGoto):
                lines.append(f"    if {render_expression(t.condition)} "
                             f"then goto L{t.then_target} "
                             f"else goto L{t.else_target};")
            elif isinstance(t, Return):
                lines.append(f"    return {render_expression(t.expr)};")
        lines.append("}")
        return "\n".join(lines)


class SsaBuilder:
    def __init__(self, cfg: ControlFlowGraph, db):
        self.cfg = cfg
        # id(ref) -> variable, for each reference the planner resolves to
        # one.  It stops at its first error, so an expression that does not
        # plan and spells a variable is refused: it may not have got there.
        self.refs: dict[int, str] = {}
        resolve = resolver(db, cfg.variables())
        for expr in cfg.exprs():
            refs, error = resolve(expr)
            if error is not None and spelled_names(expr) & set(cfg.var_types):
                raise CompileError(
                    str(error) if isinstance(error, VariableConflictError)
                    else f"cannot tell a variable from a column: {error}"
                ) from error
            self.refs.update(refs)
        # What a generated name must not be: a name the body's SQL spells
        # or a column of the catalog.  One from neither cannot be bound to
        # a column by any query of the body, whatever its FROM clauses hold.
        self.taken = spelled_names(cfg.exprs()) | {
            column for table in db.catalog.tables.values()
            for column in table.column_names}
        self.counters: dict[str, int] = {}
        self.stacks: dict[str, list[str]] = {}
        self.base_of: dict[str, str] = {}
        self.var_types: dict[str, str] = {}
        self.ssa_blocks: dict[int, SsaBlock] = {}

    # ------------------------------------------------------------------

    def fresh(self, base: str) -> str:
        """The next version of *base* that is not :attr:`taken`."""
        version = self.counters.get(base, 0) + 1
        while f"{base}_{version}" in self.taken:
            version += 1
        self.counters[base] = version
        name = f"{base}_{version}"
        self.base_of[name] = base
        self.var_types[name] = self.cfg.var_types.get(base, "int")
        return name

    def current(self, base: str) -> Optional[str]:
        stack = self.stacks.get(base)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------

    def build(self) -> SsaProgram:
        cfg = self.cfg
        # Drop unreachable blocks first: dominance is undefined for them.
        reachable = self._reachable()
        successors = {bid: [s for s in cfg.blocks[bid].successors()]
                      for bid in reachable}
        dom = DominatorInfo(cfg.entry, successors)
        preds = {bid: dom.predecessors[bid] for bid in dom.rpo}

        # 1. φ placement at iterated dominance frontiers.
        defsites: dict[str, set[int]] = {v: set() for v in cfg.variables()}
        for bid in dom.rpo:
            for stmt in cfg.blocks[bid].stmts:
                defsites.setdefault(stmt.target, set()).add(bid)
        for param in cfg.params:
            defsites.setdefault(param, set()).add(cfg.entry)
        phi_sites: dict[int, list[Phi]] = {bid: [] for bid in dom.rpo}
        phi_bases: dict[int, set[str]] = {bid: set() for bid in dom.rpo}
        for variable, sites in defsites.items():
            work = list(sites)
            placed: set[int] = set()
            while work:
                site = work.pop()
                for frontier in dom.frontiers.get(site, ()):
                    if frontier in placed:
                        continue
                    placed.add(frontier)
                    phi_sites[frontier].append(Phi(target=variable))
                    phi_bases[frontier].add(variable)
                    if frontier not in sites:
                        work.append(frontier)

        for bid in dom.rpo:
            self.ssa_blocks[bid] = SsaBlock(bid=bid, phis=phi_sites[bid])

        # 2. Renaming along the dominator tree.
        params_ssa: list[str] = []
        for param in cfg.params:
            name = self.fresh(param)
            self.stacks.setdefault(param, []).append(name)
            params_ssa.append(name)
        self._rename_block(cfg.entry, dom, preds)

        return SsaProgram(
            func_name=cfg.func_name,
            params=params_ssa,
            param_types=list(cfg.param_types),
            return_type=cfg.return_type,
            blocks=self.ssa_blocks,
            entry=cfg.entry,
            base_of=dict(self.base_of),
            var_types=dict(self.var_types),
        )

    def _reachable(self) -> set[int]:
        seen = {self.cfg.entry}
        work = [self.cfg.entry]
        while work:
            bid = work.pop()
            for successor in self.cfg.blocks[bid].successors():
                if successor not in seen:
                    seen.add(successor)
                    work.append(successor)
        return seen

    # ------------------------------------------------------------------

    def _rename_expr(self, expr: A.Expr) -> A.Expr:
        def visit(node):
            base = self.refs.get(id(node))
            if base is None:
                return rebuild(node, visit)
            current = self.current(base)
            # Used before any definition: declared variables are NULL.
            value = A.ColumnRef((current,)) if current else A.Literal(None)
            return reduce(A.FieldAccess, node.parts[1:], value)

        return visit(expr)

    def _rename_block(self, bid: int, dom: DominatorInfo,
                      preds: dict[int, list[int]]) -> None:
        block = self.cfg.blocks[bid]
        ssa_block = self.ssa_blocks[bid]
        pushed: list[str] = []

        for phi in ssa_block.phis:
            base = phi.target
            name = self.fresh(base)
            phi.target = name
            self.stacks.setdefault(base, []).append(name)
            pushed.append(base)

        for stmt in block.stmts:
            expr = self._rename_expr(stmt.expr)
            name = self.fresh(stmt.target)
            ssa_block.stmts.append(SsaAssign(name, expr))
            self.stacks.setdefault(stmt.target, []).append(name)
            pushed.append(stmt.target)

        terminator = block.terminator
        if isinstance(terminator, Goto):
            ssa_block.terminator = Goto(terminator.target)
        elif isinstance(terminator, CondGoto):
            ssa_block.terminator = CondGoto(
                self._rename_expr(terminator.condition),
                terminator.then_target, terminator.else_target)
        elif isinstance(terminator, Return):
            ssa_block.terminator = Return(self._rename_expr(terminator.expr))
        else:  # pragma: no cover - CFG builder always terminates blocks
            raise CompileError(f"block L{bid} lacks a terminator")

        # Fill φ operands of successors for the edges leaving this block.
        for successor in ssa_block.successors():
            succ_block = self.ssa_blocks.get(successor)
            if succ_block is None:
                continue
            for phi in succ_block.phis:
                base = self.base_of.get(phi.target, phi.target)
                phi.args[bid] = self.current(base)

        for child in dom.children.get(bid, ()):
            self._rename_block(child, dom, preds)

        for base in reversed(pushed):
            self.stacks[base].pop()


def build_ssa(cfg: ControlFlowGraph, db) -> SsaProgram:
    """Construct SSA form for *cfg* (paper Figure 5), renaming the
    references *db*'s planner resolves to a variable to names clear of
    every column of its catalog."""
    return SsaBuilder(cfg, db).build()


# ---------------------------------------------------------------------------
# Reference interpreter (for differential testing)
# ---------------------------------------------------------------------------


def evaluate_ssa(program: SsaProgram, db, args: list) -> object:
    """Execute an SSA program directly against *db* (slow, for tests only).

    Expressions are evaluated through the engine's expression compiler with
    all live SSA variables in scope, mirroring the PL/pgSQL interpreter's
    variable binding but over versioned names.
    """
    from ..sql.expr import EvalContext, ExprCompiler, Relation, RuntimeContext, Scope
    from ..sql.executor.scan import make_slots

    names = sorted(program.var_types)
    index = {name: i for i, name in enumerate(names)}
    scope = Scope([Relation("__ssa", names)])
    rt = RuntimeContext(db, ())
    values: list = [None] * len(names)
    for name, value in zip(program.params, args):
        values[index[name]] = value

    compiled: dict[int, tuple] = {}

    def evaluate(expr: A.Expr):
        cached = compiled.get(id(expr))
        if cached is None:
            compiler = ExprCompiler(scope, db.planner)
            cached = (compiler.compile(expr), compiler.subplans)
            compiled[id(expr)] = cached
        closure, subplans = cached
        slots = make_slots(rt, None, subplans)
        ctx = EvalContext(rt, (tuple(values),), slots=slots)
        return closure(ctx)

    bid = program.entry
    previous: Optional[int] = None
    steps = 0
    limit = db.settings.active.max_recursion_iterations
    while True:
        steps += 1
        if steps > limit:
            raise CompileError("SSA evaluation did not terminate")
        block = program.blocks[bid]
        # φs read their operands simultaneously (pre-update snapshot).
        phi_values = []
        for phi in block.phis:
            operand = phi.args.get(previous)
            phi_values.append(None if operand is None
                              else values[index[operand]])
        for phi, value in zip(block.phis, phi_values):
            values[index[phi.target]] = value
        for stmt in block.stmts:
            values[index[stmt.target]] = evaluate(stmt.expr)
        terminator = block.terminator
        if isinstance(terminator, Return):
            return evaluate(terminator.expr)
        if isinstance(terminator, Goto):
            previous, bid = bid, terminator.target
        elif isinstance(terminator, CondGoto):
            condition = evaluate(terminator.condition)
            previous, bid = bid, (terminator.then_target if condition is True
                                  else terminator.else_target)
        else:  # pragma: no cover
            raise CompileError("missing terminator during SSA evaluation")
