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
from .dialects import SqlRenderer, render_create_function, render_expression
from .optimize import optimize_ssa
from .ssa import SsaProgram, build_ssa
from .template import (build_machine, build_split_template_query,
                       build_template_query)
from .udf import SqlUdf, build_udf, udf_is_recursive


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

    def sql(self, dialect: str = "postgres") -> str:
        """Render the pure-SQL query Qf (parameters as placeholders) as
        ``"postgres"`` or ``"sqlite"`` text.

        The SQLite text is defined only for arguments of the declared
        types: SQLite has no raising cast, so a text argument that does
        not cast to an int parameter reads as 0 (``CAST(round('abc') AS
        int)``) where every engine form raises."""
        renderer = SqlRenderer(dialect.lower())
        query = self.query
        if renderer.sqlite:
            # LATERAL-free target: column-wise split template.
            query = build_split_template_query(self.udf, self.iterate,
                                               self.catalog)
        return renderer.select(query)

    def udf_sql(self) -> str:
        """The intermediate UDF form as PostgreSQL CREATE FUNCTION text
        (Figure 7)."""
        udf = self.udf
        statements = []
        if udf_is_recursive(udf):
            star_params = list(zip(udf.rec_params, udf.rec_param_types))
            statements.append(render_create_function(
                udf.star_name, star_params, udf.return_type,
                "SELECT " + render_expression(udf.star_body)))
        wrapper_params = list(zip(udf.params, udf.param_types))
        statements.append(render_create_function(
            udf.name, wrapper_params, udf.return_type,
            "SELECT " + render_expression(udf.wrapper_body)))
        return "\n\n".join(statements)

    # ------------------------------------------------------------------

    def register(self, db, name: Optional[str] = None):
        """Register Qf with *db* so calls to it are planned with the query.

        Recursive functions additionally register the trampoline's *machine
        form* (:func:`repro.compiler.template.build_machine`), which
        the engine runs in place of the inlined ``WITH RECURSIVE`` unless
        ``batch_compiled`` is off: one activation per call, shared by calls
        with equal arguments when no expression in the body is volatile.
        """
        machine = (build_machine(self.udf, db.catalog)
                         if self.is_recursive else None)
        return db.register_compiled_function(
            name or self.name, self.param_names, self.param_types,
            self.return_type, self.query,
            machine=machine, source=self.source)

    def register_udf_form(self, db, name: Optional[str] = None) -> str:
        """Register the *UDF intermediate form* (wrapper + recursive worker)
        as LANGUAGE SQL functions — the paper's cautionary ablation: direct
        recursive UDF evaluation pays per-call instantiation and hits stack
        depth limits."""
        wrapper_name = (name or self.name + "__udf").lower()
        udf = self.udf
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
                  db, optimize: bool = True,
                  iterate: bool = False) -> CompiledFunction:
    """Compile a PL/pgSQL function into pure SQL (the paper, end to end).

    Parameters
    ----------
    source:
        CREATE FUNCTION text, its parsed AST, or a PlsqlFunctionDef.
    db:
        The database the function is compiled against (required).  Its
        planner decides which references of the body are variables (a name
        that may be a variable or a column is refused), SSA renames exactly
        those, and the SSA names avoid every column of its catalog.
    optimize:
        Run the SSA cleanup pipeline (disable for ablation).
    iterate:
        Emit ``WITH ITERATE`` instead of ``WITH RECURSIVE`` (engine
        extension; Section 3 "When WITH RECURSIVE does too much").
    """
    func = _parse_source(source)
    cfg = build_cfg(func)
    ssa_raw = build_ssa(cfg, db)
    ssa = copy.deepcopy(ssa_raw)
    if optimize:
        optimize_ssa(ssa, db.catalog)
    anf = inline_anf(ssa_to_anf(ssa))
    udf = build_udf(anf)
    query = build_template_query(udf, iterate)
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
        catalog=db.catalog,
    )
