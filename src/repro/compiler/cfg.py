"""Lowering PL/pgSQL to a goto-based control-flow graph.

First half of the paper's **SSA** step: "the zoo of PL/SQL control flow
constructs — including LOOP, EXIT (to label), CONTINUE (at label), FOREACH,
FOR, WHILE — are now exclusively expressed in terms of goto and jump labels".

The CFG keeps expressions as SQL AST nodes with the *original* variable
names; versioning happens in :mod:`repro.compiler.ssa`.  Statements inside
blocks are plain assignments; control transfer lives only in block
terminators (``goto`` / conditional ``goto`` / ``return``).

Lowering notes (all matching PostgreSQL semantics):

* every declared variable is initialised at entry (default or NULL),
* FOR bounds (and BY) are evaluated once, into hidden temporaries,
* FOREACH desugars to an index loop over a hidden array temporary,
* PERFORM wraps its query in ``(SELECT count(*) FROM (...) ...)`` so the
  query is fully evaluated and the result discarded,
* each RAISE argument becomes an assignment to a hidden temporary, as
  PERFORM's query does, so the analyzer and the compiled function see what
  the interpreter evaluates; the message itself is dropped (RAISE NOTICE/...
  is side-effect-free in our engine's model), and RAISE EXCEPTION cannot be
  compiled away and raises :class:`~repro.sql.errors.CompileError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..plsql import ast as P
from ..sql import ast as A
from ..sql.errors import CompileError


@dataclass
class CfgAssign:
    """``target <- expr`` (expr may embed SQL queries)."""

    target: str
    expr: A.Expr
    #: Source line of the originating statement (None for synthesised code);
    #: carried for the static analyzer's diagnostics, ignored by codegen.
    line: Optional[int] = None
    #: True for the builder's default-less declaration initialisers
    #: (``name <- NULL``): real to codegen, but not a *programmer* write —
    #: the analyzer's def-use passes skip them.
    implicit: bool = False
    #: True for any declaration initialiser, explicit default included.
    #: The dead-store pass exempts these: ``x int := 0`` followed by an
    #: unconditional reassignment is a defensive idiom, not a bug.
    decl: bool = False


class Terminator:
    __slots__ = ()


@dataclass
class Goto(Terminator):
    target: int


@dataclass
class CondGoto(Terminator):
    condition: A.Expr
    then_target: int
    else_target: int
    line: Optional[int] = None


@dataclass
class Return(Terminator):
    expr: A.Expr
    #: True for the builder's fall-off-the-end return (no RETURN statement
    #: in the source reached this point).
    synthetic: bool = False
    #: True when this exit models RAISE EXCEPTION (analysis mode only) —
    #: a legitimate way to leave the function without returning a value.
    raises: bool = False
    line: Optional[int] = None


@dataclass
class BasicBlock:
    bid: int
    stmts: list[CfgAssign] = field(default_factory=list)
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


def block_exprs(block) -> list[A.Expr]:
    """The expressions of a CFG or SSA block: its assignments', then its
    terminator's condition or value."""
    t = block.terminator
    tail = ([t.condition] if isinstance(t, CondGoto)
            else [t.expr] if isinstance(t, Return) else [])
    return [stmt.expr for stmt in block.stmts] + tail


def map_block_exprs(block, fn) -> bool:
    """Replace each expression of a CFG or SSA block with ``fn(expr)``, in
    :func:`block_exprs` order; did any come back a new node?"""
    changed = False
    for stmt in block.stmts:
        new = fn(stmt.expr)
        changed |= new is not stmt.expr
        stmt.expr = new
    t = block.terminator
    if isinstance(t, CondGoto):
        new = fn(t.condition)
        changed |= new is not t.condition
        t.condition = new
    elif isinstance(t, Return):
        new = fn(t.expr)
        changed |= new is not t.expr
        t.expr = new
    return changed


@dataclass
class ControlFlowGraph:
    func_name: str
    params: list[str]
    param_types: list[str]
    return_type: str
    var_types: dict[str, str]
    blocks: dict[int, BasicBlock]
    entry: int

    def block_ids(self) -> list[int]:
        return sorted(self.blocks)

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {bid: [] for bid in self.blocks}
        for bid, block in self.blocks.items():
            for successor in block.successors():
                preds[successor].append(bid)
        return preds

    def variables(self) -> list[str]:
        """In declaration order: the order φs are placed in, and through
        them the parameter order of the ANF functions and the column order
        of the emitted query, must not depend on the process's hash seed."""
        return list(self.var_types)

    def exprs(self) -> list[A.Expr]:
        """Every expression of the graph, block by block."""
        return [expr for bid in self.block_ids()
                for expr in block_exprs(self.blocks[bid])]

    def pretty(self) -> str:
        """Render the CFG in the paper's Figure 5 style."""
        from .dialects import render_expression
        lines = [f"function {self.func_name}({', '.join(self.params)})", "{"]
        for bid in self.block_ids():
            block = self.blocks[bid]
            lines.append(f"  {block.label}:")
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


class _LoopContext:
    __slots__ = ("label", "break_target", "continue_target", "is_loop")

    def __init__(self, label: Optional[str], break_target: int,
                 continue_target: Optional[int], is_loop: bool = True):
        self.label = label
        self.break_target = break_target
        self.continue_target = continue_target
        self.is_loop = is_loop


class CfgBuilder:
    """Lowers one :class:`~repro.plsql.ast.PlsqlFunctionDef` to a CFG.

    With ``for_analysis=True`` the builder lowers interpreter-only
    constructs too, so the static analyzer can see every function: RAISE
    EXCEPTION becomes a ``Return(raises=True)`` exit and ``FOR ... IN
    <query>`` becomes a loop with an opaque condition.  Such CFGs are for
    inspection only — never feed them to the SSA/codegen pipeline.
    """

    def __init__(self, func: P.PlsqlFunctionDef, for_analysis: bool = False):
        self.func = func
        self.for_analysis = for_analysis
        self.blocks: dict[int, BasicBlock] = {}
        self.loops: list[_LoopContext] = []
        self.var_types: dict[str, str] = {}
        self._temp_counter = 0
        self._current: Optional[BasicBlock] = None
        self._line: Optional[int] = None

    # -- block helpers -----------------------------------------------------

    def new_block(self) -> BasicBlock:
        block = BasicBlock(bid=len(self.blocks))
        self.blocks[block.bid] = block
        return block

    def switch_to(self, block: BasicBlock) -> None:
        self._current = block

    def emit(self, target: str, expr: A.Expr,
             implicit: bool = False, decl: bool = False) -> None:
        assert self._current is not None and self._current.terminator is None
        self._current.stmts.append(CfgAssign(target.lower(), expr,
                                             line=self._line,
                                             implicit=implicit,
                                             decl=decl))

    def terminate(self, terminator: Terminator) -> None:
        assert self._current is not None
        if self._current.terminator is None:
            if getattr(terminator, "line", "absent") is None:
                terminator.line = self._line
            self._current.terminator = terminator

    def _ensure_open(self) -> None:
        """After RETURN/EXIT mid-block, keep lowering into a fresh
        (unreachable) block so the remaining statements stay well formed."""
        if self._current is None or self._current.terminator is not None:
            self.switch_to(self.new_block())

    def temp(self, prefix: str, type_name: str = "int") -> str:
        self._temp_counter += 1
        name = f"__{prefix}{self._temp_counter}"
        self.var_types[name] = type_name
        return name

    # -- entry point --------------------------------------------------------

    def build(self) -> ControlFlowGraph:
        func = self.func
        for name, type_name in zip(func.param_names, func.param_types):
            self.var_types[name.lower()] = type_name
        entry = self.new_block()
        self.switch_to(entry)
        self._declare_all(func.declarations)
        self.lower_statements(func.body)
        # Falling off the end raises at run time, matching PostgreSQL
        # (SQLSTATE 2F005): the synthetic terminator calls the raising
        # __no_return builtin.  Unreachable for functions that always
        # RETURN — SSA drops the dead blocks and nothing changes for them.
        self._line = None
        self.terminate(self._fall_off_return())
        for block in self.blocks.values():
            if block.terminator is None:
                block.terminator = self._fall_off_return()
        return ControlFlowGraph(
            func_name=func.name,
            params=[p.lower() for p in func.param_names],
            param_types=list(func.param_types),
            return_type=func.return_type,
            var_types=dict(self.var_types),
            blocks=self.blocks,
            entry=entry.bid,
        )

    def _fall_off_return(self) -> Return:
        return Return(A.FuncCall("__no_return", [A.Literal(self.func.name)]),
                      synthetic=True)

    def _declare_all(self, declarations: list[P.Declaration]) -> None:
        for declaration in declarations:
            name = declaration.name.lower()
            if name in self.var_types:
                raise CompileError(f"variable {name!r} declared twice")
            self.var_types[name] = declaration.type_name
            default = declaration.default if declaration.default is not None \
                else A.Literal(None)
            self._line = declaration.line
            self.emit(name, default, implicit=declaration.default is None,
                      decl=True)

    # -- statements ----------------------------------------------------------

    def lower_statements(self, statements: list[P.Stmt]) -> None:
        for stmt in statements:
            self._ensure_open()
            self.lower_statement(stmt)

    def lower_statement(self, stmt: P.Stmt) -> None:
        method = getattr(self, "_lower_" + type(stmt).__name__, None)
        if method is None:
            raise CompileError(
                f"cannot compile statement {type(stmt).__name__} "
                "(interpreter-only construct)")
        self._line = stmt.line
        method(stmt)

    def _lower_Assign(self, stmt: P.Assign) -> None:
        if stmt.target not in self.var_types:
            if not self.for_analysis:
                raise CompileError(f"assignment to undeclared variable "
                                   f"{stmt.target!r}")
            # Analysis mode keeps lowering; the analyzer reports the
            # undeclared target as its own diagnostic.
            self.var_types[stmt.target.lower()] = "unknown"
        self.emit(stmt.target, stmt.expr)

    def _lower_NullStmt(self, stmt: P.NullStmt) -> None:
        pass

    def _lower_ReturnStmt(self, stmt: P.ReturnStmt) -> None:
        expr = stmt.expr if stmt.expr is not None else A.Literal(None)
        self.terminate(Return(expr))

    def _lower_IfStmt(self, stmt: P.IfStmt) -> None:
        join = self.new_block()
        for condition, body in stmt.branches:
            then_block = self.new_block()
            else_block = self.new_block()
            self.terminate(CondGoto(condition, then_block.bid, else_block.bid))
            self.switch_to(then_block)
            self.lower_statements(body)
            self.terminate(Goto(join.bid))
            self.switch_to(else_block)
        self.lower_statements(stmt.else_body)
        self.terminate(Goto(join.bid))
        self.switch_to(join)

    def _lower_LoopStmt(self, stmt: P.LoopStmt) -> None:
        header = self.new_block()
        exit_block = self.new_block()
        self.terminate(Goto(header.bid))
        self.switch_to(header)
        self.loops.append(_LoopContext(stmt.label, exit_block.bid, header.bid))
        self.lower_statements(stmt.body)
        self.terminate(Goto(header.bid))
        self.loops.pop()
        self.switch_to(exit_block)

    def _lower_WhileStmt(self, stmt: P.WhileStmt) -> None:
        header = self.new_block()
        body_block = self.new_block()
        exit_block = self.new_block()
        self.terminate(Goto(header.bid))
        self.switch_to(header)
        self.terminate(CondGoto(stmt.condition, body_block.bid, exit_block.bid))
        self.switch_to(body_block)
        self.loops.append(_LoopContext(stmt.label, exit_block.bid, header.bid))
        self.lower_statements(stmt.body)
        self.terminate(Goto(header.bid))
        self.loops.pop()
        self.switch_to(exit_block)

    def _lower_ForRangeStmt(self, stmt: P.ForRangeStmt) -> None:
        var = stmt.var.lower()
        self.var_types.setdefault(var, "int")
        stop = self.temp("stop")
        self.emit(stop, stmt.stop)
        step: Optional[str] = None
        if stmt.step is not None:
            step = self.temp("step")
            self.emit(step, stmt.step)
        self.emit(var, stmt.start)
        header = self.new_block()
        body_block = self.new_block()
        incr_block = self.new_block()
        exit_block = self.new_block()
        self.terminate(Goto(header.bid))
        self.switch_to(header)
        comparison = ">=" if stmt.reverse else "<="
        condition = A.BinaryOp(comparison, A.ColumnRef((var,)),
                               A.ColumnRef((stop,)))
        self.terminate(CondGoto(condition, body_block.bid, exit_block.bid))
        self.switch_to(body_block)
        self.loops.append(_LoopContext(stmt.label, exit_block.bid, incr_block.bid))
        self.lower_statements(stmt.body)
        self.terminate(Goto(incr_block.bid))
        self.loops.pop()
        self.switch_to(incr_block)
        step_expr: A.Expr = A.ColumnRef((step,)) if step else A.Literal(1)
        op = "-" if stmt.reverse else "+"
        self.emit(var, A.BinaryOp(op, A.ColumnRef((var,)), step_expr))
        self.terminate(Goto(header.bid))
        self.switch_to(exit_block)

    def _lower_ForEachStmt(self, stmt: P.ForEachStmt) -> None:
        var = stmt.var.lower()
        self.var_types.setdefault(var, "text")
        array = self.temp("arr", "text[]")
        index = self.temp("idx")
        self.emit(array, stmt.array)
        self.emit(index, A.Literal(1))
        header = self.new_block()
        body_block = self.new_block()
        incr_block = self.new_block()
        exit_block = self.new_block()
        self.terminate(Goto(header.bid))
        self.switch_to(header)
        condition = A.BinaryOp(
            "<=", A.ColumnRef((index,)),
            A.FuncCall("coalesce",
                       [A.FuncCall("cardinality", [A.ColumnRef((array,))]),
                        A.Literal(0)]))
        self.terminate(CondGoto(condition, body_block.bid, exit_block.bid))
        self.switch_to(body_block)
        self.emit(var, A.ArrayIndex(A.ColumnRef((array,)), A.ColumnRef((index,))))
        self.loops.append(_LoopContext(stmt.label, exit_block.bid, incr_block.bid))
        self.lower_statements(stmt.body)
        self.terminate(Goto(incr_block.bid))
        self.loops.pop()
        self.switch_to(incr_block)
        self.emit(index, A.BinaryOp("+", A.ColumnRef((index,)), A.Literal(1)))
        self.terminate(Goto(header.bid))
        self.switch_to(exit_block)

    def _find_loop(self, label: Optional[str], want_continue: bool) -> _LoopContext:
        for context in reversed(self.loops):
            if label is None and not context.is_loop:
                continue  # unlabelled EXIT targets loops, not blocks
            if label is None or context.label == label:
                if want_continue and context.continue_target is None:
                    continue
                return context
        what = "CONTINUE" if want_continue else "EXIT"
        raise CompileError(f"{what}{' ' + label if label else ''} outside a "
                           "matching loop")

    def _lower_ExitStmt(self, stmt: P.ExitStmt) -> None:
        context = self._find_loop(stmt.label, want_continue=False)
        self._conditional_jump(stmt.when, context.break_target)

    def _lower_ContinueStmt(self, stmt: P.ContinueStmt) -> None:
        context = self._find_loop(stmt.label, want_continue=True)
        assert context.continue_target is not None
        self._conditional_jump(stmt.when, context.continue_target)

    def _conditional_jump(self, when: Optional[A.Expr], target: int) -> None:
        if when is None:
            self.terminate(Goto(target))
            return
        fallthrough = self.new_block()
        self.terminate(CondGoto(when, target, fallthrough.bid))
        self.switch_to(fallthrough)

    def _lower_BlockStmt(self, stmt: P.BlockStmt) -> None:
        exit_block = self.new_block()
        for declaration in stmt.declarations:
            name = declaration.name.lower()
            self.var_types.setdefault(name, declaration.type_name)
            default = declaration.default if declaration.default is not None \
                else A.Literal(None)
            self.emit(name, default, implicit=declaration.default is None,
                      decl=True)
        self.loops.append(_LoopContext(stmt.label, exit_block.bid, None,
                                       is_loop=False))
        self.lower_statements(stmt.body)
        self.loops.pop()
        self.terminate(Goto(exit_block.bid))
        self.switch_to(exit_block)

    def _lower_PerformStmt(self, stmt: P.PerformStmt) -> None:
        sink = self.temp("perform")
        wrapped = A.ScalarSubquery(A.SelectStmt(
            None,
            A.SelectCore(items=[A.SelectItem(A.FuncCall("count", [], star=True))],
                         from_clause=A.SubqueryRef(stmt.query, alias="_perform"))))
        self.emit(sink, wrapped)

    def _lower_RaiseStmt(self, stmt: P.RaiseStmt) -> None:
        # The interpreter evaluates every argument: the analyzer plans them
        # and counts their reads, and dead-code elimination keeps the
        # volatile ones, so a compiled function draws what it draws.
        for arg in stmt.args:
            self.emit(self.temp("raise", "text"), arg)
        if stmt.level == "exception":
            if not self.for_analysis:
                raise CompileError("RAISE EXCEPTION cannot be compiled to SQL")
            # A legitimate non-RETURN exit for control-flow analysis.
            self.terminate(Return(A.Literal(None), raises=True))
        # NOTICE/WARNING/INFO have no effect on the function's value; drop.

    def _lower_ForQueryStmt(self, stmt: P.ForQueryStmt) -> None:
        if not self.for_analysis:
            raise CompileError(
                "FOR ... IN <query> LOOP is not supported by the compiler "
                "(cursor iteration); rewrite using set-oriented SQL")
        # Model the cursor loop as: var <- <query>; while <opaque> loop.
        # The query rides along as the loop condition so the analyzer's
        # SQL checks and volatility inference still see it.
        var = stmt.var.lower()
        self.var_types.setdefault(var, "record")
        header = self.new_block()
        body_block = self.new_block()
        exit_block = self.new_block()
        self.terminate(Goto(header.bid))
        self.switch_to(header)
        self.terminate(CondGoto(A.ScalarSubquery(stmt.query),
                                body_block.bid, exit_block.bid))
        self.switch_to(body_block)
        self.emit(var, A.ScalarSubquery(stmt.query))
        self.loops.append(_LoopContext(stmt.label, exit_block.bid, header.bid))
        self.lower_statements(stmt.body)
        self.terminate(Goto(header.bid))
        self.loops.pop()
        self.switch_to(exit_block)


def build_cfg(func: P.PlsqlFunctionDef,
              for_analysis: bool = False) -> ControlFlowGraph:
    """Lower *func* to its goto-based control-flow graph."""
    return CfgBuilder(func, for_analysis=for_analysis).build()
