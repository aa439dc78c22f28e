#!/usr/bin/env python
"""Print what the compiler makes of every PL/pgSQL function it knows, to be
diffed.

A no-behaviour-change refactor of the compiler (``src/repro/compiler/``, or
anything it asks, such as the volatility analyzer) must leave every emitted
text as it was.  This tool compiles two corpora with ``compile_plsql``:

* the paper's four workload functions (``repro.workloads.WORKLOADS``),
  against the demo database that holds them;
* every generated function of ``--seeds`` x ``--cases`` fuzz cases,
  against a database holding the case's schema and functions.

Each function prints its ANF listing (``anf.pretty()``, Figure 6), its UDF
form (``.udf_sql()``, Figure 7, PostgreSQL text) and then, for each of the
two dialects of ``repro.compiler.dialects.DIALECTS`` (``postgres`` and
``sqlite``), the query Qf (``.sql(d)``); a text the compiler refuses
prints the error's class and message instead, so a change in *which*
functions compile for a dialect shows up in the diff as well.  Run it at
two commits and compare the files::

    python tools/compile_corpus.py --out /tmp/after.txt
    (cd ../parent && python tools/compile_corpus.py --out /tmp/before.txt)
    diff /tmp/before.txt /tmp/after.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler import DIALECTS, compile_plsql  # noqa: E402
from repro.fuzz.querygen import generate_case  # noqa: E402
from repro.sql import Database  # noqa: E402
from repro.sql.errors import SqlError  # noqa: E402
from repro.workloads import WORKLOADS, build_demo_database  # noqa: E402


def attempt(render) -> str:
    try:
        return render()
    except SqlError as error:
        return f"!! {type(error).__name__}: {error}"


def compile_function(origin: str, source: str, db, out) -> None:
    out.write(f"-- {origin}\n")
    try:
        compiled = compile_plsql(source, db)
    except SqlError as error:
        out.write(f"!! {type(error).__name__}: {error}\n\n")
        return
    out.write(compiled.anf.pretty() + "\n")
    out.write(f"-- {origin} udf_sql\n{attempt(compiled.udf_sql)}\n")
    for name in DIALECTS:
        out.write(f"-- {origin} sql {name}\n"
                  f"{attempt(lambda: compiled.sql(name))}\n")
    out.write("\n")


def fuzz_functions(seed: int, index: int, out) -> None:
    case = generate_case(seed, index)
    db = Database(seed=0, profile=False)
    for statement in case.setup_statements():
        db.execute(statement)
    for fn in case.functions:
        db.execute(fn.source)
    for fn in case.functions:
        compile_function(f"fuzz seed {seed} case {index} function {fn.name}",
                         fn.source, db, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3,
                        help="run seeds 0 .. SEEDS-1 (default 3)")
    parser.add_argument("--cases", type=int, default=120,
                        help="cases per seed (default 120)")
    parser.add_argument("--out", default="-",
                        help="output file (default stdout)")
    args = parser.parse_args(argv)
    out = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        db = build_demo_database(compile_functions=False).db
        for name, source in WORKLOADS.items():
            compile_function(f"workload {name}", source, db, out)
        for seed in range(args.seeds):
            for index in range(args.cases):
                fuzz_functions(seed, index, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
