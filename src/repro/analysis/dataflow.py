"""Def-use diagnostics over the analysis-mode CFG.

Two classic bit-vector analyses, both running on the same CFG the
control-flow pass uses:

* **must-defined** (forward, intersection) drives DF001 *use before
  assignment*: a variable read in a block where no path from entry is
  guaranteed to have written it first.  Parameters are defined at entry;
  the builder's implicit ``name <- NULL`` declaration initialisers are
  *not* definitions for this purpose — PostgreSQL initialises the slot,
  but reading it before the first real assignment is almost always a
  bug, hence a warning (never an error: NULL-reads are legal).
* **liveness** (backward, union) drives DF002 *dead store*: a real
  (non-implicit) write whose value cannot reach any read.  Writes to a
  variable that is never read anywhere are reported once as DF003
  *unused variable* (or DF004 *unused parameter*) instead of as a dead
  store per assignment.

Uses inside embedded queries are collected by walking the expression
dataclasses generically, so reads from a ``WHERE`` clause or a scalar
subquery count like any other read.  ``__``-prefixed names are compiler
temporaries and never reported.
"""

from __future__ import annotations

from typing import Optional

from ..compiler.cfg import CondGoto, ControlFlowGraph, Return
from ..sql import ast as A
from ..sql.astutil import walk
from .diagnostics import DiagnosticSink
from .controlflow import reachable_blocks


def expr_reads(expr, known: set[str]) -> set[str]:
    """Names from *known* that *expr* reads, including inside subqueries.
    A ColumnRef's head part counts (qualified refs like ``t.c`` name a
    table, not a variable)."""
    return {node.parts[0].lower() for node in walk(expr)
            if isinstance(node, A.ColumnRef) and len(node.parts) == 1
            and node.parts[0].lower() in known}


class _BlockSummary:
    __slots__ = ("uses_before_def", "defs", "events")

    def __init__(self):
        #: vars read in this block before any local real definition
        self.uses_before_def: set[str] = set()
        #: vars definitely written by this block (real defs only)
        self.defs: set[str] = set()
        #: ordered (kind, name, line, reads) for the per-statement walk;
        #: kind is 'def' (real), 'implicit', or 'use'
        self.events: list = []


def _summarise(cfg: ControlFlowGraph, known: set[str]
               ) -> dict[int, _BlockSummary]:
    out: dict[int, _BlockSummary] = {}
    for bid, block in cfg.blocks.items():
        summary = _BlockSummary()
        defined: set[str] = set()
        for stmt in block.stmts:
            reads = expr_reads(stmt.expr, known)
            summary.uses_before_def |= reads - defined
            kind = "implicit" if stmt.implicit else "def"
            summary.events.append((kind, stmt.target, stmt.line, reads))
            if not stmt.implicit:
                defined.add(stmt.target)
                summary.defs.add(stmt.target)
        terminator = block.terminator
        term_expr = None
        if isinstance(terminator, CondGoto):
            term_expr = terminator.condition
        elif isinstance(terminator, Return):
            term_expr = terminator.expr
        if term_expr is not None:
            reads = expr_reads(term_expr, known)
            summary.uses_before_def |= reads - defined
            summary.events.append(("use", None,
                                   getattr(terminator, "line", None), reads))
        out[bid] = summary
    return out


def _must_defined(cfg: ControlFlowGraph, reachable: set[int],
                  summaries: dict[int, _BlockSummary],
                  params: set[str], all_vars: set[str]) -> dict[int, set[str]]:
    """IN[b] for the forward must-defined analysis (real defs only)."""
    preds = cfg.predecessors()
    in_sets: dict[int, set[str]] = {bid: set(all_vars) for bid in reachable}
    in_sets[cfg.entry] = set(params)
    changed = True
    while changed:
        changed = False
        for bid in sorted(reachable):
            if bid == cfg.entry:
                incoming = set(params)
            else:
                incoming_preds = [p for p in preds[bid] if p in reachable]
                if incoming_preds:
                    incoming = set.intersection(
                        *(in_sets[p] | summaries[p].defs
                          for p in incoming_preds))
                else:
                    incoming = set(all_vars)
                incoming |= set(params)
            if incoming != in_sets[bid]:
                in_sets[bid] = incoming
                changed = True
    return in_sets


def _liveness(cfg: ControlFlowGraph, reachable: set[int],
              summaries: dict[int, _BlockSummary]) -> dict[int, set[str]]:
    """LIVE-OUT[b] for the backward liveness analysis."""
    out_sets: dict[int, set[str]] = {bid: set() for bid in reachable}
    changed = True
    while changed:
        changed = False
        for bid in sorted(reachable, reverse=True):
            block = cfg.blocks[bid]
            live_out: set[str] = set()
            for succ in block.successors():
                if succ in reachable:
                    summary = summaries[succ]
                    live_out |= summary.uses_before_def
                    live_out |= out_sets[succ] - summary.defs
            if live_out != out_sets[bid]:
                out_sets[bid] = live_out
                changed = True
    return out_sets


def check_dataflow(cfg: ControlFlowGraph, sink: DiagnosticSink) -> None:
    known = {name for name in cfg.var_types}
    params = {p.lower() for p in cfg.params}
    # Skip compiler temporaries and undeclared targets (the latter are the
    # DF005 driver's problem; double-reporting them as "unused" is noise).
    user_vars = {name for name in known
                 if not name.startswith("__")
                 and cfg.var_types.get(name) != "unknown"}
    reachable = reachable_blocks(cfg)
    summaries = _summarise(cfg, known)

    # Global read/write census over reachable code for DF003/DF004.
    reads_anywhere: set[str] = set()
    writes_anywhere: set[str] = set()
    for bid in reachable:
        for kind, target, _line, reads in summaries[bid].events:
            reads_anywhere |= reads
            if kind == "def":
                writes_anywhere.add(target)

    for name in sorted(user_vars - params - reads_anywhere):
        sink.add("DF003", f"variable {name!r} is never used")
    for name in sorted(params - reads_anywhere):
        sink.add("DF004", f"parameter {name!r} is never used")

    # DF001: use before (any real) assignment, flow-sensitively.
    in_sets = _must_defined(cfg, reachable, summaries, params, known)
    flagged: set[str] = set()
    for bid in sorted(reachable):
        defined = set(in_sets[bid])
        for kind, target, line, reads in summaries[bid].events:
            for name in sorted(reads - defined):
                if name in user_vars and name not in flagged:
                    flagged.add(name)
                    sink.add("DF001",
                             f"variable {name!r} may be used before "
                             "being assigned", line=line)
            if kind == "def":
                defined.add(target)

    # DF002: dead stores (per assignment), only for vars that ARE read
    # somewhere — vars never read at all already got DF003/DF004.
    live_out = _liveness(cfg, reachable, summaries)
    for bid in sorted(reachable):
        block = cfg.blocks[bid]
        # walk statements backwards tracking liveness inside the block
        live = set(live_out[bid])
        terminator = block.terminator
        if isinstance(terminator, CondGoto):
            live |= expr_reads(terminator.condition, known)
        elif isinstance(terminator, Return):
            live |= expr_reads(terminator.expr, known)
        for stmt in reversed(block.stmts):
            reads = expr_reads(stmt.expr, known)
            if (not stmt.implicit and not stmt.decl
                    and stmt.target in user_vars
                    and stmt.target in reads_anywhere
                    and stmt.target not in live):
                sink.add("DF002",
                         f"value assigned to {stmt.target!r} is never "
                         "read", line=stmt.line)
            live.discard(stmt.target)
            live |= reads
    # DF005 (assignment to an undeclared name) is reported by the driver
    # in __init__.py: the builder records such targets with type 'unknown'.


def undeclared_targets(cfg: ControlFlowGraph) -> list[tuple[str, Optional[int]]]:
    """(name, line) per first assignment to a variable the analysis-mode
    builder auto-registered as type 'unknown' (DF005)."""
    seen: set[str] = set()
    out: list[tuple[str, Optional[int]]] = []
    for bid in cfg.block_ids():
        for stmt in cfg.blocks[bid].stmts:
            if (cfg.var_types.get(stmt.target) == "unknown"
                    and stmt.target not in seen):
                seen.add(stmt.target)
                out.append((stmt.target, stmt.line))
    return out
