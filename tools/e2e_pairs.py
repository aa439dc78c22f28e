#!/usr/bin/env python
"""Alternating end-to-end pairs: one workload, two checkouts, N pairs.

Runs ``benchmarks/e2e/run.py --workload W --trace 0`` from the parent
checkout and from the change checkout in turn (the side that goes first
alternates from pair to pair, so a drifting host favours neither), then
prints, for every end-to-end metric of the change's ``BENCHMARK.json``,
each side's median and quartiles and how many pairs the change won::

    python tools/e2e_pairs.py PARENT CHANGE --workload udf_compiled \\
        --pairs 10 --seed 11

A pair is a win when the change's value is better in the metric's
direction (a tie is not).  ``clear`` marks a metric whose change won at
least nine pairs in ten and whose medians differ by more than the
parent's interquartile range.

Each metric's summary is appended as one JSON line to
``benchmarks/results/TRAJECTORY.jsonl`` of this checkout (``--trajectory``
elsewhere): ``{commit, parent, date, workload, metric, parent_median,
change_median, pairs, wins}``, where ``commit`` names the change (its git
HEAD unless ``--commit`` says otherwise) and ``parent`` is the parent
checkout's full ``git rev-parse HEAD``.  Each run lasts the
``run_seconds`` of its checkout's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "benchmarks", "results", "TRAJECTORY.jsonl")


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One untraced run from *checkout*: ``{metric: value}`` read from the
    run's last stdout line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    last = done.stdout.strip().splitlines()[-1]
    return {name: entry["value"]
            for name, entry in json.loads(last)["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]],
              metrics: list[dict]) -> list[dict]:
    """One summary per contract metric from ``(parent, change)`` runs."""
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(parent, change))
        p1, pmed, p3 = quartiles(parent)
        c1, cmed, c3 = quartiles(change)
        gain = cmed - pmed if higher else pmed - cmed
        rows.append({
            "metric": name, "pairs": len(pairs), "wins": wins,
            "parent": (p1, pmed, p3), "change": (c1, cmed, c3),
            "clear": 10 * wins >= 9 * len(pairs) and gain > p3 - p1})
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':<12} {'parent q1/median/q3':>28} "
             f"{'change q1/median/q3':>28} {'wins':>7}"]
    for row in rows:
        sides = ["/".join(f"{v:.3f}" for v in row[side])
                 for side in ("parent", "change")]
        lines.append(f"{row['metric']:<12} {sides[0]:>28} {sides[1]:>28} "
                     f"{row['wins']:>3}/{row['pairs']:<3}"
                     f"{'  clear' if row['clear'] else ''}")
    return lines


def trajectory_lines(rows: list[dict], commit: str, parent: str, date: str,
                     workload: str) -> list[str]:
    return [json.dumps({
        "commit": commit, "parent": parent, "date": date,
        "workload": workload,
        "metric": row["metric"], "parent_median": row["parent"][1],
        "change_median": row["change"][1], "pairs": row["pairs"],
        "wins": row["wins"]}) for row in rows]


def append_lines(path: str, lines: list[str]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def git_head(checkout: str, short: bool = True) -> str:
    command = ["git", "-C", checkout, "rev-parse"]
    command += ["--short", "HEAD"] if short else ["HEAD"]
    try:
        return subprocess.run(command, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--commit", help="name of the change in the "
                                         "trajectory (default: its git HEAD)")
    parser.add_argument("--trajectory", default=TRAJECTORY)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    pairs = []
    for index in range(args.pairs):
        sides = [args.parent, args.change]
        if index % 2:
            sides.reverse()
        runs = {side: run_once(side, args.workload, args.seed)
                for side in sides}
        pairs.append((runs[args.parent], runs[args.change]))
        print(f"# pair {index + 1}: " + "  ".join(
            f"{m['name']} {runs[args.parent][m['name']]:.3f} -> "
            f"{runs[args.change][m['name']]:.3f}" for m in metrics),
            flush=True)
    rows = summarize(pairs, metrics)
    print(f"# {args.workload}  seed={args.seed}")
    for line in format_rows(rows):
        print(line)
    date = datetime.datetime.now(datetime.timezone.utc) \
        .isoformat(timespec="seconds")
    append_lines(args.trajectory, trajectory_lines(
        rows, args.commit or git_head(args.change),
        git_head(args.parent, short=False), date, args.workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
