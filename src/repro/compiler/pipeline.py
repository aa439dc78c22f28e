"""The end-to-end compilation pipeline and its public API.

>>> from repro.sql import Database
>>> from repro.compiler import compile_plsql
>>> db = Database()
>>> compiled = compile_plsql('''
...     CREATE FUNCTION triple(n int) RETURNS int AS $$
...     BEGIN RETURN 3 * n; END;
...     $$ LANGUAGE PLPGSQL''', db)
>>> compiled.register(db)          # doctest: +ELLIPSIS
FunctionDef(...)
>>> db.query_value("SELECT triple(14)")
42

Every intermediate form of the paper's Figure 4 is retained on the returned
:class:`CompiledFunction`: the goto CFG (Fig. 5 via ``cfg.pretty()``), the
SSA program before and after optimization, the ANF program (Fig. 6 via
``anf.pretty()``), the flattened UDF (Fig. 7 via ``udf_sql()``), and the
final ``WITH RECURSIVE`` query Qf (Fig. 8/9 via ``sql()``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional, Union

from ..plsql.ast import PlsqlFunctionDef
from ..plsql.parser import parse_plpgsql_function
from ..sql import ast as A
from ..sql.errors import CompileError
from ..sql.parser import parse_statement
from .anf import AnfProgram, inline_anf, ssa_to_anf
from .cfg import ControlFlowGraph, build_cfg
from .dialects import (DIALECTS, POSTGRES, Dialect, render_create_function,
                       render_select)
from .optimize import optimize_ssa
from .ssa import SsaProgram, build_ssa
from .template import build_batched_machine, build_template_query
from .udf import (LET_STYLE_LATERAL, LET_STYLE_NESTED, SqlUdf, build_udf,
                  udf_is_recursive)


@dataclass
class CompiledFunction:
    """The result of compiling one PL/pgSQL function away."""

    name: str
    param_names: list[str]
    param_types: list[str]
    return_type: str
    source: PlsqlFunctionDef = field(repr=False)
    cfg: ControlFlowGraph = field(repr=False)
    ssa_raw: SsaProgram = field(repr=False)
    ssa: SsaProgram = field(repr=False)
    anf: AnfProgram = field(repr=False)
    udf: SqlUdf = field(repr=False)
    query: A.SelectStmt = field(repr=False)
    iterate: bool = False
    optimized: bool = True
    #: The catalog compiled against: the split rewrite asks it which
    #: called helpers are volatile.
    catalog: object = field(repr=False, default=None)

    # ------------------------------------------------------------------

    @property
    def is_recursive(self) -> bool:
        """Did the function contain iteration (=> Qf uses WITH RECURSIVE)?"""
        return udf_is_recursive(self.udf)

    def sql(self, dialect: Union[str, Dialect] = POSTGRES) -> str:
        """Render the pure-SQL query Qf (parameters as placeholders)."""
        dialect = _resolve_dialect(dialect)
        query = self.query
        if dialect.let_style == LET_STYLE_NESTED or dialect.name == "sqlite":
            # LATERAL-free target: column-wise split template (SQLite).
            from .template import build_split_template_query
            query = build_split_template_query(self.udf, self.iterate,
                                               self.catalog)
        if self.iterate and not dialect.supports_iterate:
            raise CompileError(f"dialect {dialect.name} lacks WITH ITERATE")
        return render_select(query, dialect)

    def _requery(self, let_style: str) -> A.SelectStmt:
        return build_template_query(self.udf, self.iterate, let_style)

    def udf_sql(self, dialect: Union[str, Dialect] = POSTGRES) -> str:
        """The intermediate UDF form as CREATE FUNCTION text (Figure 7)."""
        dialect = _resolve_dialect(dialect)
        renderer_style = (LET_STYLE_NESTED if dialect.let_style == "nested"
                          else LET_STYLE_LATERAL)
        udf = self.udf
        if renderer_style != LET_STYLE_LATERAL:
            udf = build_udf(self.udf.anf, renderer_style)
        from .dialects import render_expression
        statements = []
        if udf_is_recursive(udf):
            star_params = list(zip(udf.rec_params, udf.rec_param_types))
            statements.append(render_create_function(
                udf.star_name, star_params, udf.return_type,
                "SELECT " + render_expression(udf.star_body, dialect),
                dialect=dialect))
        wrapper_params = list(zip(udf.params, udf.param_types))
        statements.append(render_create_function(
            udf.name, wrapper_params, udf.return_type,
            "SELECT " + render_expression(udf.wrapper_body, dialect),
            dialect=dialect))
        return "\n\n".join(statements)

    # ------------------------------------------------------------------

    def register(self, db, name: Optional[str] = None):
        """Register Qf with *db* so calls to it are planned with the query.

        Recursive functions additionally register the trampoline's *machine
        form* (:func:`repro.compiler.template.build_batched_machine`), which
        the engine runs in place of the inlined ``WITH RECURSIVE`` unless
        ``batch_compiled`` is off: one trampoline advancing a whole relation
        of calls (``SELECT f(x) FROM t``) when no expression in the body is
        volatile, one activation per call otherwise.
        """
        batch_machine = (build_batched_machine(self.udf, db.catalog)
                         if self.is_recursive else None)
        return db.register_compiled_function(
            name or self.name, self.param_names, self.param_types,
            self.return_type, self.query,
            batch_machine=batch_machine, source=self.source)

    def register_udf_form(self, db, name: Optional[str] = None) -> str:
        """Register the *UDF intermediate form* (wrapper + recursive worker)
        as LANGUAGE SQL functions — the paper's cautionary ablation: direct
        recursive UDF evaluation pays per-call instantiation and hits stack
        depth limits."""
        wrapper_name = (name or self.name + "__udf").lower()
        udf = self.udf
        from .dialects import render_expression
        from .rename import rename_variables
        if udf_is_recursive(udf):
            star_body = "SELECT " + render_expression(udf.star_body)
            db.execute_ast(A.CreateFunction(
                udf.star_name, [A.FunctionParam(n, t) for n, t in
                                zip(udf.rec_params, udf.rec_param_types)],
                udf.return_type, "sql", star_body, replace=True))
        wrapper_body = "SELECT " + render_expression(udf.wrapper_body)
        db.execute_ast(A.CreateFunction(
            wrapper_name, [A.FunctionParam(n, t) for n, t in
                           zip(udf.params, udf.param_types)],
            udf.return_type, "sql", wrapper_body, replace=True))
        return wrapper_name

    def explain(self) -> str:
        """A multi-section dump of every intermediate form."""
        sections = [
            ("PL/pgSQL", f"{self.name}({', '.join(self.param_names)}) "
                         f"RETURNS {self.return_type}"),
            ("goto CFG (Figure 5, pre-SSA)", self.cfg.pretty()),
            ("SSA (optimized)" if self.optimized else "SSA", self.ssa.pretty()),
            ("ANF (Figure 6)", self.anf.pretty()),
            ("UDF (Figure 7)", self.udf_sql()),
            ("SQL (Figures 8/9)", self.sql()),
        ]
        out = []
        for title, body in sections:
            out.append("=" * 72)
            out.append(title)
            out.append("=" * 72)
            out.append(body)
        return "\n".join(out)


def _resolve_dialect(dialect: Union[str, Dialect]) -> Dialect:
    if isinstance(dialect, Dialect):
        return dialect
    resolved = DIALECTS.get(dialect.lower())
    if resolved is None:
        raise CompileError(f"unknown dialect {dialect!r} "
                           f"(have: {sorted(DIALECTS)})")
    return resolved


def _parse_source(source: Union[str, A.CreateFunction, PlsqlFunctionDef]
                  ) -> PlsqlFunctionDef:
    if isinstance(source, PlsqlFunctionDef):
        return source
    if isinstance(source, str):
        statement = parse_statement(source)
        if not isinstance(statement, A.CreateFunction):
            raise CompileError("expected a CREATE FUNCTION statement")
        source = statement
    if source.language.lower() != "plpgsql":
        raise CompileError(
            f"can only compile LANGUAGE PLPGSQL functions, got "
            f"{source.language!r}")
    return parse_plpgsql_function(
        source.name, [p.name for p in source.params],
        [p.type_name for p in source.params], source.return_type, source.body)


def compile_plsql(source: Union[str, A.CreateFunction, PlsqlFunctionDef],
                  db=None, optimize: bool = True, iterate: bool = False,
                  let_style: str = LET_STYLE_LATERAL) -> CompiledFunction:
    """Compile a PL/pgSQL function into pure SQL (the paper, end to end).

    Parameters
    ----------
    source:
        CREATE FUNCTION text, its parsed AST, or a PlsqlFunctionDef.
    db:
        Optional database; its catalog powers variable-vs-column shadow
        analysis inside embedded queries (recommended).
    optimize:
        Run the SSA cleanup pipeline (disable for ablation).
    iterate:
        Emit ``WITH ITERATE`` instead of ``WITH RECURSIVE`` (engine
        extension; Section 3 "When WITH RECURSIVE does too much").
    let_style:
        ``"lateral"`` (default, Figure 7) or ``"nested"`` (the SQLite
        rewrite) for the engine-executed query.
    """
    func = _parse_source(source)
    catalog = db.catalog if db is not None else None
    cfg = build_cfg(func)
    ssa_raw = build_ssa(cfg, catalog)
    ssa = copy.deepcopy(ssa_raw)
    if optimize:
        optimize_ssa(ssa, catalog)
    anf = inline_anf(ssa_to_anf(ssa, catalog))
    udf = build_udf(anf, let_style)
    query = build_template_query(udf, iterate, let_style)
    return CompiledFunction(
        name=func.name,
        param_names=list(func.param_names),
        param_types=list(func.param_types),
        return_type=func.return_type,
        source=func,
        cfg=cfg,
        ssa_raw=ssa_raw,
        ssa=ssa,
        anf=anf,
        udf=udf,
        query=query,
        iterate=iterate,
        optimized=optimize,
        catalog=catalog,
    )
