#!/usr/bin/env python
"""Print the parse of every SQL text the repository knows, to be diffed.

A no-behaviour-change refactor of the lexer or the parsers must leave every
AST, and every ``ParseError`` message, as it was.  This tool feeds two
corpora through ``parse_script``:

* every string literal of the Python files under ``tests/``,
  ``src/repro/workloads/``, ``benchmarks/`` and ``examples/`` - SQL or not:
  the texts the parser rejects are part of the golden too;
* every string of ``--seeds`` x ``--cases`` generated fuzz cases: schema
  statements, function sources, the checked queries in both renderings,
  and the compiled Qf of every function that compiles.

Each text prints ``repr(parse_script(text))`` or the error's class and
message; a ``CREATE FUNCTION ... LANGUAGE plpgsql`` additionally prints the
parse of its body (the PL/pgSQL parser shares the token stream).  Run it at
two commits and compare the files::

    python tools/parse_corpus.py --out /tmp/after.txt
    (cd ../parent && python tools/parse_corpus.py --out /tmp/before.txt)
    diff /tmp/before.txt /tmp/after.txt
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.compiler import compile_plsql  # noqa: E402
from repro.fuzz.querygen import generate_case  # noqa: E402
from repro.plsql.parser import parse_plpgsql_body  # noqa: E402
from repro.sql import Database  # noqa: E402
from repro.sql import ast as A  # noqa: E402
from repro.sql.errors import SqlError  # noqa: E402
from repro.sql.parser import parse_script  # noqa: E402

LITERAL_ROOTS = ("tests", "src/repro/workloads", "benchmarks", "examples")


def attempt(parse, text: str) -> tuple[object, str]:
    """``(value, rendering)`` of ``parse(text)``; the value is None and the
    rendering names the exception when it raises."""
    try:
        value = parse(text)
    except Exception as error:  # a crash is a finding, not a reason to stop
        return None, f"!! {type(error).__name__}: {error}"
    return value, repr(value)


def parse_text(origin: str, text: str, out) -> None:
    statements, rendering = attempt(parse_script, text)
    out.write(f"-- {origin}\n{text!r}\n{rendering}\n")
    for stmt in statements or ():
        if isinstance(stmt, A.CreateFunction) and stmt.language == "plpgsql":
            out.write(f"body: {attempt(parse_plpgsql_body, stmt.body)[1]}\n")
    out.write("\n")


def repository_literals():
    """``(file:line, text)`` for each distinct string literal of each
    Python file under LITERAL_ROOTS, in file and source order."""
    for root in LITERAL_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            seen = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and node.value not in seen:
                    seen.add(node.value)
                    yield (f"{path.relative_to(REPO)}:{node.lineno}",
                           node.value)


def fuzz_texts(seed: int, index: int):
    case = generate_case(seed, index)
    origin = f"fuzz seed {seed} case {index}"
    db = Database(seed=0, profile=False)
    for statement in case.setup_statements():
        yield f"{origin} setup", statement
        db.execute(statement)
    for fn in case.functions:
        yield f"{origin} function {fn.name}", fn.source
        try:
            yield (f"{origin} compiled {fn.name}",
                   compile_plsql(fn.source, db).sql())
        except SqlError as error:
            yield f"{origin} compiled {fn.name}", f"-- {error}"
    for query in case.queries:
        for label, sql in (("query", query.sql), ("sqlite", query.sqlite_sql)):
            if sql is None:
                continue
            if query.function is not None:
                sql = sql.format(f=query.function)
            yield f"{origin} {label}", sql


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
        for origin, text in repository_literals():
            parse_text(origin, text, out)
        for seed in range(args.seeds):
            for index in range(args.cases):
                for origin, text in fuzz_texts(seed, index):
                    parse_text(origin, text, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
