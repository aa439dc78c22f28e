"""Static analysis of user-defined functions (``CHECK FUNCTION``).

The paper's compilation pipeline already builds a goto CFG, SSA form and
dominator trees for every PL/pgSQL function it compiles
(:mod:`repro.compiler`).  This package points those same structures at a
different target: *diagnosing* functions instead of translating them.

One driver, :func:`analyze_function`, runs four families of passes:

* control flow (:mod:`.controlflow`) — unreachable code, fall-off-the-end
  without RETURN, loops that cannot terminate,
* dataflow (:mod:`.dataflow`) — use-before-assignment, dead stores,
  unused variables and parameters,
* embedded SQL (:mod:`.sqlcheck`) — the error planning each expression
  raises, with the planner and the variable scope the interpreter uses
  (unknown tables, columns and functions, wrong argument counts, ...),
  and literal-type mismatches,
* volatility (:mod:`.volatility`) — IMMUTABLE/STABLE/VOLATILE inference
  that the planner consumes to decide which compiled call sites are
  memoized and which expressions may move.

Names are resolved once, by that planner: the embedded-SQL diagnostics
are its errors, and the dataflow pass's read sets are the variables it
resolved (:func:`.sqlcheck.resolver`).

Results surface three ways: the ``CHECK FUNCTION name | ALL`` statement
(diagnostic rows), the ``check_function_bodies`` setting (off/warn/error
gate at CREATE FUNCTION time), and inferred volatility in EXPLAIN.

Severity is sound by construction: *error* is reserved for defects that
fire on **every** terminating call — whole-function impossibilities
(CF000/CF002) and catalog violations on the must-execute spine (blocks
that dominate every reachable exit).  Anything path-dependent is at most
a warning, so a function that executes cleanly can never carry an error
diagnostic — the property the fuzzer's soundness oracle enforces.
"""

from __future__ import annotations

from typing import Optional

from ..compiler.cfg import CondGoto, Return, build_cfg
from ..compiler.dominators import DominatorInfo
from ..sql.errors import ParseError, PlsqlError, SqlError
from .controlflow import check_control_flow, exit_blocks, reachable_blocks
from .dataflow import check_dataflow, undeclared_targets
from .diagnostics import CATALOG, SEVERITIES, Diagnostic, DiagnosticSink
from .sqlcheck import error_code, literal_type_mismatch, resolver
from .volatility import (LEVELS, effective_volatility, function_facts,
                         function_is_pure, plsql_def_for)

__all__ = [
    "CATALOG", "SEVERITIES", "Diagnostic", "analyze_function",
    "effective_volatility", "function_facts", "function_is_pure",
    "max_severity",
]


def max_severity(diagnostics) -> Optional[str]:
    """Highest severity among *diagnostics*, or None when empty."""
    return max((d.severity for d in diagnostics), key=SEVERITIES.index,
               default=None)


def analyze_function(db, fdef) -> list[Diagnostic]:
    """Run every analysis pass over *fdef*, returning sorted diagnostics.

    *db* is the owning :class:`~repro.sql.engine.Database`: its planner
    resolves the names of the body and its catalog scopes the volatility
    walk.  Builtins return no diagnostics (nothing to analyze).
    """
    sink = DiagnosticSink(fdef.name.lower())
    if fdef.kind == "builtin":
        return []
    if fdef.kind == "sql":
        _analyze_sql_function(db, fdef, sink)
    else:
        _analyze_plpgsql_function(db, fdef, sink)
    _report_volatility(fdef, db.catalog, sink)
    return sink.sorted()


def _report_planning(sink: DiagnosticSink, error, line: Optional[int],
                     must_execute: bool) -> None:
    if error is not None:
        sink.add(error_code(error), str(error), line=line,
                 must_execute=must_execute)


# -- SQL-language functions -------------------------------------------------

def _analyze_sql_function(db, fdef, sink: DiagnosticSink) -> None:
    try:
        db.planner.plan_select(db.sql_function_body(fdef))  # as a call
    except ParseError as exc:  # a diagnostic, not a crash
        sink.add("CF000", f"body does not parse: {exc}")
    except PlsqlError as exc:
        sink.add("CF000", str(exc))
    except SqlError as exc:
        # A SQL function's entire body is its only path: must-execute.
        _report_planning(sink, exc, line=None, must_execute=True)


# -- PL/pgSQL (interpreted or compiled) -------------------------------------

def _analyze_plpgsql_function(db, fdef, sink: DiagnosticSink) -> None:
    func = plsql_def_for(fdef, db.catalog)
    if func is None:
        sink.add("CF000", "no analyzable body")
        return
    try:
        cfg = build_cfg(func, for_analysis=True)
    except Exception as exc:
        sink.add("CF000", f"body does not lower to a CFG: {exc}")
        return

    # The interpreter's variables: undeclared assignment targets (type
    # 'unknown') are DF005's, and resolve to nothing at run time.
    resolve = resolver(db, [name for name, type_name in cfg.var_types.items()
                            if type_name != "unknown"])
    check_control_flow(cfg, sink)
    check_dataflow(cfg, sink, lambda expr: set(resolve(expr)[0].values()))

    reachable = reachable_blocks(cfg)
    exits = exit_blocks(cfg, reachable)
    dominators = DominatorInfo(
        cfg.entry, {bid: cfg.blocks[bid].successors() for bid in reachable})

    def must_execute(bid: int) -> bool:
        """Does every terminating call run this block?  True iff the block
        is reachable and dominates every reachable exit — then a defect in
        it fires on all calls, which is what licenses error severity."""
        if bid not in reachable:
            return False
        return all(dominators.dominates(bid, exit_bid)
                   for exit_bid in exits)

    # DF005: assignments to undeclared names (analysis-mode lowering
    # registers them with type 'unknown' instead of failing).
    by_line = {}
    for bid in reachable:
        for stmt in cfg.blocks[bid].stmts:
            by_line.setdefault(stmt.target, (bid, stmt.line))
    for name, line in undeclared_targets(cfg):
        bid, _ = by_line.get(name, (None, line))
        sink.add("DF005",
                 f"assignment to undeclared variable {name!r} raises at "
                 "run time",
                 line=line,
                 must_execute=bid is not None and must_execute(bid))

    # Planning errors + literal-type checks, block by block.
    declared_types = dict(cfg.var_types)
    for bid in sorted(reachable):
        block = cfg.blocks[bid]
        me = must_execute(bid)
        for stmt in block.stmts:
            if stmt.implicit:
                continue
            _report_planning(sink, resolve(stmt.expr)[1], stmt.line, me)
            message = literal_type_mismatch(stmt.expr,
                                            declared_types.get(stmt.target))
            if message is not None:
                sink.add("SQ005", message, line=stmt.line)
        terminator = block.terminator
        if isinstance(terminator, CondGoto):
            _report_planning(sink, resolve(terminator.condition)[1],
                             terminator.line, me)
        elif isinstance(terminator, Return) and not terminator.synthetic:
            _report_planning(sink, resolve(terminator.expr)[1],
                             terminator.line, me)
            message = literal_type_mismatch(terminator.expr,
                                            cfg.return_type)
            if message is not None:
                sink.add("SQ005", "RETURN: " + message,
                         line=terminator.line)


# -- volatility -------------------------------------------------------------

def _report_volatility(fdef, catalog, sink: DiagnosticSink) -> None:
    volatility, may_raise, has_loops = function_facts(fdef, catalog)
    notes = []
    if may_raise:
        notes.append("may raise")
    if has_loops:
        notes.append("loops")
    suffix = f" ({', '.join(notes)})" if notes else ""
    sink.add("VL001", f"inferred volatility: {volatility}{suffix}")
    declared = fdef.declared_volatility
    if declared is not None and LEVELS[declared] < LEVELS[volatility]:
        sink.add("VL002",
                 f"declared {declared.upper()} but the body looks "
                 f"{volatility.upper()}; the declaration wins, results "
                 "may be wrong")
