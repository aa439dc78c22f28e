"""Assemble a database with all four workloads, interpreted and compiled.

Conventions used throughout tests, examples, and benchmarks:

* ``<name>``    — the original PL/pgSQL function (interpreted),
* ``<name>_c``  — the compiled pure-SQL variant (inlined at plan time),
* ``<name>_it`` — compiled with ``WITH ITERATE`` instead of RECURSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler import CompiledFunction, compile_plsql
from ..sql.engine import Database
from .fibonacci import FIBONACCI_SOURCE, setup_fibonacci
from .graph import PARAMETRIC_TRAVERSE_SOURCE, setup_graph
from .parser_fsm import PARSE_SOURCE, setup_parser
from .robot import WALK_SOURCE, setup_robot

#: name -> PL/pgSQL source of the paper's four functions.
WORKLOADS: dict[str, str] = {
    "walk": WALK_SOURCE,
    "parse": PARSE_SOURCE,
    "traverse": PARAMETRIC_TRAVERSE_SOURCE,
    "fibonacci": FIBONACCI_SOURCE,
}


@dataclass
class DemoDatabase:
    """A database plus the compiled artifacts of every workload function."""

    db: Database
    compiled: dict[str, CompiledFunction]
    grid: object = None
    fsm: object = None
    graph: object = None


def compile_and_register_all(db: Database,
                             iterate_suffix: bool = True
                             ) -> dict[str, CompiledFunction]:
    """Compile every workload function present in *db* and register the
    ``_c`` (and optionally ``_it``) variants."""
    compiled: dict[str, CompiledFunction] = {}
    for name, source in WORKLOADS.items():
        if db.catalog.get_function(name) is None:
            continue
        artifact = compile_plsql(source, db)
        artifact.register(db, name=f"{name}_c")
        compiled[name] = artifact
        if iterate_suffix and artifact.is_recursive:
            iterate_artifact = compile_plsql(source, db, iterate=True)
            iterate_artifact.register(db, name=f"{name}_it")
    return compiled


def build_demo_database(seed: int = 0, grid=None, fsm=None, graph=None,
                        compile_functions: bool = True) -> DemoDatabase:
    """One-stop setup: schema + data + PL/pgSQL + compiled variants."""
    db = Database(seed=seed)
    grid = setup_robot(db, grid)
    fsm = setup_parser(db, fsm)
    graph = setup_graph(db, graph)
    setup_fibonacci(db)
    compiled = compile_and_register_all(db) if compile_functions else {}
    return DemoDatabase(db=db, compiled=compiled, grid=grid, fsm=fsm,
                        graph=graph)
