#!/usr/bin/env python
"""Line coverage of ``src/repro`` with nothing but the standard library.

Run a module under a line tracer, merging the lines it reached into a JSON
data file, as often as needed; then list the executable lines no run
reached::

    python tools/linecov.py --data F -m pytest -q -p no:cacheprovider
    python tools/linecov.py --data F -m repro.fuzz --seed 0 --cases 200
    python tools/linecov.py --data F --report src/repro/sql/engine.py

The tracer is ``sys.settrace`` (and ``threading.settrace``, for the wire
server's threads) and looks only at files under ``src/repro``.  A file's
executable lines are what ``trace._find_executable_linenos`` counts: the
line starts of every code object in it, docstrings excluded (and the
pseudo-line 0 a module's code starts at).
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import sys
import threading
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED = os.path.join(ROOT, "src", "repro") + os.sep


def _load(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return {name: set(lines) for name, lines in json.load(handle).items()}


def run(data: str, module: str, argv: list) -> None:
    hits: dict = {}  # co_filename -> the line numbers reached

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(TRACED):
            return None
        lines = hits.get(name)
        if lines is None:
            lines = hits[name] = set()

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    # As ``python -m`` would: the working directory first, not tools/.
    sys.path[0:1] = [os.getcwd(), os.path.join(ROOT, "src")]
    sys.argv = [module] + argv
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        print(f"linecov: {module} exited with {stop.code}", file=sys.stderr)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        merged = _load(data)
        for name, lines in hits.items():
            merged.setdefault(os.path.relpath(name, ROOT), set()).update(lines)
        with open(data, "w") as handle:
            json.dump({name: sorted(lines) for name, lines
                       in sorted(merged.items())}, handle)


def _ranges(lines: list) -> str:
    spans: list = []
    for number in lines:
        if spans and spans[-1][1] == number - 1:
            spans[-1][1] = number
        else:
            spans.append([number, number])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(data: str, paths: list) -> None:
    hits = _load(data)
    for path in paths:
        name = os.path.relpath(os.path.abspath(path), ROOT)
        executable = set(trace._find_executable_linenos(path)) - {0}
        unreached = sorted(executable - hits.get(name, set()))
        print(f"{name}: {len(unreached)} of {len(executable)} executable "
              f"lines unreached")
        if unreached:
            print(f"  {_ranges(unreached)}")


def main() -> None:
    argv = sys.argv[1:]
    module, rest = None, []
    if "-m" in argv:  # everything after ``-m MODULE`` is the module's
        at = argv.index("-m")
        argv, module, rest = argv[:at], argv[at + 1], argv[at + 2:]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s --data F [--report FILE ...] [-m MODULE ARGS ...]")
    parser.add_argument("--data", required=True,
                        help="JSON file the reached lines are merged into")
    parser.add_argument("--report", nargs="+", metavar="FILE",
                        help="list the unreached lines of these files")
    args = parser.parse_args(argv)
    if module:
        run(args.data, module, rest)
    if args.report:
        report(args.data, args.report)


if __name__ == "__main__":
    main()
