"""The Froid baseline (Ramachandra et al., VLDB 2018) — loop-free only.

Froid compiles sequences of PL/SQL assignments into subqueries chained with
OUTER APPLY (SQL Server) and inlines them — "elegant and simple but comes
with severe restrictions: foremost, the chaining will only work for
functions that exhibit loop-less control flow" (paper, Section 1).

We realise Froid as the prefix of our own pipeline: lowering, SSA, ANF, and
the lateral-chain translation are shared; the difference is that Froid
*stops* if any control-flow cycle remains.  This makes the baseline
faithful (identical translation quality on the loop-free subset) and the
comparison pointed (the only delta is recursion support).
"""

from __future__ import annotations

from typing import Union

from ..sql.errors import LoopNotSupportedError
from .cfg import build_cfg
from .pipeline import CompiledFunction, _parse_source, compile_plsql


def has_loop(cfg) -> bool:
    """Does the CFG contain a cycle (i.e. any iteration)?"""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {bid: WHITE for bid in cfg.blocks}

    def visit(bid: int) -> bool:
        color[bid] = GRAY
        for successor in cfg.blocks[bid].successors():
            if color[successor] == GRAY:
                return True
            if color[successor] == WHITE and visit(successor):
                return True
        color[bid] = BLACK
        return False

    return visit(cfg.entry)


def froid_compile(source: Union[str, object], db,
                  optimize: bool = True) -> CompiledFunction:
    """Compile a *loop-free* PL/pgSQL function the Froid way.

    Raises :class:`~repro.sql.errors.LoopNotSupportedError` when the
    function iterates — the show stopper the paper's approach removes.
    """
    func = _parse_source(source)
    cfg = build_cfg(func)
    if has_loop(cfg):
        raise LoopNotSupportedError(
            f"function {func.name}() contains a loop; Froid-style chaining "
            "only supports loop-less control flow (compile_plsql handles "
            "iteration via WITH RECURSIVE)")
    compiled = compile_plsql(func, db=db, optimize=optimize)
    assert not compiled.is_recursive
    return compiled
