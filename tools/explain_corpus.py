#!/usr/bin/env python
"""Print ``EXPLAIN`` for every statement of the fuzz corpus, to be diffed.

A no-behaviour-change refactor of the planner (or of anything the planner
calls) must leave every plan as it was.  This tool renders the plan of each
checked query of ``--seeds`` x ``--cases`` generated fuzz cases - function
queries once per twin (interpreted and compiled) - under the default
settings and under ``batch_compiled = off``, into one text file, followed
by the plans of the cases' UPDATE / DELETE statements (default settings
and ``enable_rangescan = off``, the one axis a target scan has; after all
the SELECTs, so that part of the file compares with a commit that had no
modify plans).  Run it at two commits and compare the files::

    python tools/explain_corpus.py --out /tmp/after.txt
    (cd ../parent && python tools/explain_corpus.py --out /tmp/before.txt)
    diff /tmp/before.txt /tmp/after.txt

A statement that fails to plan prints its error class and message instead,
so a change in *which* statements plan shows up in the diff as well.

The corpus is whatever ``generate_case`` draws for the seeds, so compare
only two commits that draw the same cases: a corpus from before the
generator drew each ``querygen.SHAPES`` row from its own random stream is
not comparable with one from after.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz.oracle import DifferentialChecker  # noqa: E402
from repro.fuzz.querygen import generate_case  # noqa: E402
from repro.sql.errors import SqlError  # noqa: E402


def explain(db, header: str, sql: str, out) -> None:
    out.write(f"{header}\n{sql}\n")
    try:
        out.write(db.explain(sql).rstrip() + "\n\n")
    except SqlError as error:
        out.write(f"!! {type(error).__name__}: {error}\n\n")


def explain_case(seed: int, index: int, out, later: io.StringIO) -> None:
    """The case's SELECT plans to *out*, its modify plans to *later*."""
    case = generate_case(seed, index)
    db, compiled = DifferentialChecker(use_sqlite=False).build_database(case)
    for batch_compiled in ("on", "off"):
        db.execute(f"SET batch_compiled = {batch_compiled}")
        for query in case.queries:
            for _, _, sql in query.variants(compiled):
                explain(db, f"-- seed {seed} case {index} "
                            f"batch_compiled={batch_compiled}", sql, out)
    db.execute("RESET ALL")
    for rangescan in ("on", "off"):
        db.execute(f"SET enable_rangescan = {rangescan}")
        for modification in case.modifications:
            explain(db, f"-- seed {seed} case {index} "
                        f"enable_rangescan={rangescan}",
                    modification.sql, later)


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
    modifications = io.StringIO()
    try:
        for seed in range(args.seeds):
            for index in range(args.cases):
                explain_case(seed, index, out, modifications)
        out.write(modifications.getvalue())
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
