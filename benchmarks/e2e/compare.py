"""Compare two full reports written by ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric).  ``A`` is the parent, ``B`` the
change.  The bound and the direction of each metric come from
``BENCHMARK.json``; ``failed_share`` and ``lost_writes`` must not rise.
The verdict is on the values at the reference speed; the last column is
the change in the values as measured, to check it against.

Verdicts: **improved** / **regressed** when B is better / worse than A by
more than the bound, **unchanged** when within it, and **unresolved** when
A's own round-to-round spread is wider than the bound, so that a
difference of that size could not be told from noise.  Exits 1 on any
regression or any rise in ``failed_share`` or ``lost_writes``.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONTRACT = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")

MUST_NOT_RISE = ("failed_share", "lost_writes")


def load_contract() -> dict:
    with open(CONTRACT, encoding="utf-8") as fh:
        return json.load(fh)


def verdict(a: float, b: float, better: str, bound: float,
            a_spread: float) -> str:
    if a_spread > bound:
        return "unresolved"
    if a == 0:
        # Nothing completed in A (every operation failed): any value in B
        # is a change beyond every bound, in the direction of its sign.
        gain = math.copysign(math.inf, b) if b else 0.0
    else:
        gain = (b - a) / a
    if better == "lower":
        gain = -gain
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "regressed"
    return "unchanged"


def _change(x, y) -> str:
    return f"{100 * (y - x) / x:>+7.1f}%" if x and y is not None \
        else f"{'':>8}"


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], bool]:
    """Table rows and whether anything regressed."""
    rows = []
    bad = False
    for name, before in a["workloads"].items():
        after = b["workloads"].get(name)
        if after is None:
            rows.append(f"{name:<14} missing from the second report")
            bad = True
            continue
        for metric in contract["end_to_end"]:
            key = metric["name"]
            x, y = before["end_to_end"][key], after["end_to_end"][key]
            outcome = verdict(x, y, metric["better"], metric["bound"],
                              before["round_spread"].get(key, 0.0))
            bad |= outcome == "regressed"
            rows.append(f"{name:<14} {key:<12} {x:>12.4f} {y:>12.4f} "
                        f"{_change(x, y)}  {outcome:<10} "
                        f"{_change(before['raw'].get(key), after['raw'].get(key))}")
        for key in MUST_NOT_RISE:
            x, y = before[key], after[key]
            outcome = "regressed" if y > x else "unchanged"
            bad |= y > x
            rows.append(f"{name:<14} {key:<12} {x:>12.4f} {y:>12.4f} "
                        f"{'':>8}  {outcome}")
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    contract = load_contract()
    print(f"A = {argv[0]} ({reports[0]['commit']})   "
          f"B = {argv[1]} ({reports[1]['commit']})")
    print(f"{'workload':<14} {'metric':<12} {'A':>12} {'B':>12} "
          f"{'change':>8}  {'verdict':<10} {'as meas.':>8}")
    rows, bad = compare(reports[0], reports[1], contract)
    for row in rows:
        print(row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
