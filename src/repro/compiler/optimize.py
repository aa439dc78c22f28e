"""SSA-level optimizations.

"The SSA invariant facilitates a wide range of code simplifications, among
these the tracking of redundant code, constant propagation, or strength
reduction" (paper, Section 2).  We implement the classic set — each pass is
small because SSA makes them small:

* φ simplification (single-operand / all-identical φs become copies),
* copy propagation and constant propagation,
* constant folding (pure operators only; division is never folded unless
  the divisor is a non-zero literal — errors must stay at run time),
* dead code elimination (volatile expressions - ``random()``, or a call to
  a user-defined helper the analyzer classes volatile - are never removed:
  the compiled function must draw the same random sequence as the
  interpreted one),
* jump threading (empty forwarding blocks disappear),
* block merging (straight-line chains collapse — this is what shrinks the
  paper's L0 into L1 between Figures 5 and 6).

All passes preserve the SSA invariants; :func:`optimize_ssa` iterates them
to a fixpoint (bounded), and the pipeline can disable them for ablation.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.volatility import expr_is_volatile
from ..sql import ast as A
from ..sql.astutil import transform_expr
from ..sql.errors import SqlError
from ..sql.expr import ExprCompiler, Scope
from .cfg import CondGoto, Goto, block_exprs, map_block_exprs
from .rename import collect_variable_uses, rename_variables
from .ssa import Phi, SsaAssign, SsaProgram


class _Subst:
    """name -> replacement expression (copies and constants)."""

    def __init__(self):
        self.map: dict[str, A.Expr] = {}

    def resolve(self, name: str) -> Optional[A.Expr]:
        seen = set()
        expr: Optional[A.Expr] = None
        current = name
        while current in self.map and current not in seen:
            seen.add(current)
            expr = self.map[current]
            if isinstance(expr, A.ColumnRef) and len(expr.parts) == 1:
                current = expr.parts[0]
            else:
                break
        return expr

    def resolve_name(self, name: str) -> str:
        """Follow copy chains name -> name (for φ operands)."""
        seen = set()
        current = name
        while current in self.map and current not in seen:
            seen.add(current)
            expr = self.map[current]
            if isinstance(expr, A.ColumnRef) and len(expr.parts) == 1:
                current = expr.parts[0]
            else:
                break
        return current

    def apply(self, expr: A.Expr) -> A.Expr:
        if not self.map:
            return expr
        return rename_variables(expr, self.resolve)


def optimize_ssa(program: SsaProgram, catalog=None,
                 max_rounds: int = 10) -> SsaProgram:
    """Run the optimization pipeline to a (bounded) fixpoint, in place."""
    for _ in range(max_rounds):
        changed = False
        changed |= simplify_phis(program)
        changed |= propagate_copies_and_constants(program)
        changed |= fold_constants(program)
        changed |= eliminate_dead_code(program, catalog)
        changed |= thread_jumps(program)
        changed |= merge_blocks(program)
        if not changed:
            break
    return program


# ---------------------------------------------------------------------------
# Individual passes
# ---------------------------------------------------------------------------


def simplify_phis(program: SsaProgram) -> bool:
    """φs whose operands all agree (modulo self-reference) become copies."""
    changed = False
    for block in program.blocks.values():
        kept: list[Phi] = []
        for phi in block.phis:
            operands = {operand for pred, operand in phi.args.items()
                        if operand != phi.target}
            if len(phi.args) <= 1 or len(operands) == 1:
                operand = next(iter(operands)) if operands else None
                expr: A.Expr = (A.ColumnRef((operand,)) if operand is not None
                                else A.Literal(None))
                block.stmts.insert(0, SsaAssign(phi.target, expr))
                changed = True
            else:
                kept.append(phi)
        block.phis = kept
    return changed


def propagate_copies_and_constants(program: SsaProgram) -> bool:
    """Substitute ``x_k := y_j`` copies and ``x_k := literal`` constants."""
    subst = _Subst()
    for block in program.blocks.values():
        for stmt in block.stmts:
            expr = stmt.expr
            if isinstance(expr, A.Literal):
                subst.map[stmt.target] = expr
            elif isinstance(expr, A.ColumnRef) and len(expr.parts) == 1 \
                    and expr.parts[0] in program.var_types:
                subst.map[stmt.target] = expr
    if not subst.map:
        return False
    changed = False
    for block in program.blocks.values():
        for phi in block.phis:
            for pred, operand in list(phi.args.items()):
                if operand is None:
                    continue
                resolved = subst.resolve_name(operand)
                if resolved != operand:
                    phi.args[pred] = resolved
                    changed = True
        changed |= map_block_exprs(block, subst.apply)
    return changed


def _fold_expr(expr: A.Expr) -> A.Expr:
    """Bottom-up constant folding of pure scalar operators (not crossing
    subqueries)."""
    return transform_expr(expr, _fold_node)


def _fold_node(expr: A.Expr) -> A.Expr:
    """Fold one node whose children are already folded."""
    if (isinstance(expr, A.UnaryOp) and isinstance(expr.operand, A.Literal)) \
            or (isinstance(expr, A.BinaryOp)
                and isinstance(expr.left, A.Literal)
                and isinstance(expr.right, A.Literal)):
        # The operator's kernel says what the node evaluates to; an error
        # (zero divisor, incomparable pair) is left to happen at run time.
        try:
            return A.Literal(ExprCompiler(Scope([])).compile(expr)(None))
        except SqlError:
            return expr
    if isinstance(expr, A.CaseExpr) and expr.operand is None:
        whens = []
        for condition, result in expr.whens:
            if isinstance(condition, A.Literal):
                if condition.value is True:
                    if not whens:
                        return result
                    whens.append((condition, result))
                    break
                continue  # constant false/NULL: branch unreachable
            whens.append((condition, result))
        if not whens:
            return expr.else_result if expr.else_result is not None \
                else A.Literal(None)
        if whens != expr.whens:
            return A.CaseExpr(None, whens, expr.else_result)
    if isinstance(expr, A.FuncCall) and expr.name.lower() == "coalesce":
        args = expr.args
        out = []
        for arg in args:
            if isinstance(arg, A.Literal):
                if arg.value is not None:
                    out.append(arg)
                    break
                continue
            out.append(arg)
        if len(out) == 1:
            return out[0]
        if not out:
            return A.Literal(None)
        if len(out) != len(args):
            return A.FuncCall("coalesce", out)
    return expr


def fold_constants(program: SsaProgram) -> bool:
    changed = False
    for block in program.blocks.values():
        changed |= map_block_exprs(block, _fold_expr)
        terminator = block.terminator
        if isinstance(terminator, CondGoto) \
                and isinstance(terminator.condition, A.Literal):
            target = (terminator.then_target
                      if terminator.condition.value is True
                      else terminator.else_target)
            block.terminator = Goto(target)
            changed = True
    return changed


def eliminate_dead_code(program: SsaProgram, catalog=None) -> bool:
    """Remove assignments and φs whose targets are never used.

    Volatile expressions (``random()``, a volatile helper) survive:
    removing one would shift the RNG sequence and desynchronise compiled
    vs interpreted runs.
    """
    names = set(program.var_types)
    changed = False
    while True:
        used: set[str] = set()
        for block in program.blocks.values():
            for phi in block.phis:
                for operand in phi.args.values():
                    if operand is not None:
                        used.add(operand)
            used |= collect_variable_uses(block_exprs(block), names)
        removed = False
        for block in program.blocks.values():
            kept_stmts = []
            for stmt in block.stmts:
                if stmt.target not in used \
                        and not expr_is_volatile(stmt.expr, catalog):
                    removed = True
                    continue
                kept_stmts.append(stmt)
            block.stmts = kept_stmts
            kept_phis = []
            for phi in block.phis:
                if phi.target not in used:
                    removed = True
                    continue
                kept_phis.append(phi)
            block.phis = kept_phis
        if not removed:
            break
        changed = True
    return changed


def thread_jumps(program: SsaProgram) -> bool:
    """Bypass empty blocks that merely ``goto`` somewhere else."""
    changed = False
    preds = program.predecessors()
    for bid in program.block_ids():
        block = program.blocks.get(bid)
        if block is None or bid == program.entry:
            continue
        if block.phis or block.stmts or not isinstance(block.terminator, Goto):
            continue
        target_bid = block.terminator.target
        if target_bid == bid:
            continue  # self-loop (infinite loop) — leave alone
        target = program.blocks[target_bid]
        redirected_all = True
        for pred_bid in list(preds.get(bid, ())):
            pred = program.blocks.get(pred_bid)
            if pred is None:
                continue
            # Don't create a duplicate edge with conflicting φ operands.
            conflict = False
            if pred_bid in preds.get(target_bid, ()):
                for phi in target.phis:
                    if phi.args.get(pred_bid) != phi.args.get(bid):
                        conflict = True
                        break
            if conflict:
                redirected_all = False
                continue
            _redirect(pred, bid, target_bid)
            for phi in target.phis:
                phi.args[pred_bid] = phi.args.get(bid)
            preds.setdefault(target_bid, []).append(pred_bid)
            preds[bid].remove(pred_bid)
            changed = True
        if redirected_all and not preds.get(bid):
            for phi in target.phis:
                phi.args.pop(bid, None)
            del program.blocks[bid]
            changed = True
    return changed


def _redirect(block, old_target: int, new_target: int) -> None:
    terminator = block.terminator
    if isinstance(terminator, Goto) and terminator.target == old_target:
        terminator.target = new_target
    elif isinstance(terminator, CondGoto):
        if terminator.then_target == old_target:
            terminator.then_target = new_target
        if terminator.else_target == old_target:
            terminator.else_target = new_target


def merge_blocks(program: SsaProgram) -> bool:
    """Merge B into A when A ends ``goto B`` and B's only pred is A."""
    changed = False
    while True:
        preds = program.predecessors()
        merged = False
        for bid in program.block_ids():
            block = program.blocks.get(bid)
            if block is None or not isinstance(block.terminator, Goto):
                continue
            target_bid = block.terminator.target
            if target_bid == bid or target_bid == program.entry:
                continue
            if len(preds.get(target_bid, [])) != 1:
                continue
            target = program.blocks[target_bid]
            if target.phis:
                # Single-pred φs should have been simplified already; be safe.
                continue
            block.stmts.extend(target.stmts)
            block.terminator = target.terminator
            # Successor φs that referenced the merged block now come from us.
            for successor in target.successors():
                succ = program.blocks.get(successor)
                if succ is None:
                    continue
                for phi in succ.phis:
                    if target_bid in phi.args:
                        phi.args[bid] = phi.args.pop(target_bid)
            del program.blocks[target_bid]
            merged = True
            changed = True
            break
        if not merged:
            return changed
