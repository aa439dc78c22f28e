"""``tools/e2e_pairs.py``: the statistics and the trajectory append, on
canned run reports - no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pairs():
    path = os.path.join(ROOT, "tools", "e2e_pairs.py")
    spec = importlib.util.spec_from_file_location("e2e_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [{"name": "ops_per_s", "better": "higher"},
           {"name": "p50_ms", "better": "lower"}]


def run(ops: float, p50: float) -> dict:
    return {"ops_per_s": ops, "p50_ms": p50}


def test_quartiles_inclusive(pairs):
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_each_metric_direction(pairs):
    canned = [(run(100, 2.0), run(110, 1.9)),
              (run(101, 2.0), run(100, 2.1)),
              (run(99, 2.0), run(99, 1.0))]  # a tie is no win
    ops, p50 = pairs.summarize(canned, METRICS)
    assert (ops["metric"], ops["wins"], ops["pairs"]) == ("ops_per_s", 1, 3)
    assert ops["parent"] == (99.5, 100.0, 100.5)
    assert ops["change"] == (99.5, 100.0, 105.0)
    assert (p50["metric"], p50["wins"]) == ("p50_ms", 2)
    assert not ops["clear"] and not p50["clear"]


def test_clear_needs_nine_wins_in_ten_and_a_gap_over_the_parent_iqr(pairs):
    canned = [(run(100 + i, 2.0), run(120 + i, 2.0 - i / 100))
              for i in range(10)]
    ops, p50 = pairs.summarize(canned, METRICS)
    assert ops["wins"] == 10 and ops["clear"]
    # p50 ties the first pair and wins the other nine; the parent's spread
    # is zero (every run read 2.0), so a gap of 0.045 clears it.
    assert p50["wins"] == 9 and p50["clear"]
    lost_one = canned[:8] + [(run(100, 2.0), run(99, 2.0))] * 2
    assert not pairs.summarize(lost_one, METRICS)[0]["clear"]


def test_main_alternates_sides_and_appends_one_line_per_metric(
        pairs, tmp_path, monkeypatch):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": METRICS}))
    order = []

    def run_once(checkout, workload, seed):
        order.append(os.path.basename(checkout))
        fast = checkout == str(change)
        return run(200 if fast else 100, 1.0 if fast else 2.0)

    monkeypatch.setattr(pairs, "run_once", run_once)
    parent = tmp_path / "parent"
    parent.mkdir()
    git = ["git", "-C", str(parent)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["-c", "user.name=t", "-c", "user.email=t@t",
                          "commit", "-q", "--allow-empty", "-m", "p"],
                   check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    assert len(head) == 40
    trajectory = tmp_path / "results" / "TRAJECTORY.jsonl"
    trajectory.parent.mkdir()
    trajectory.write_text('{"earlier": true}\n')
    assert pairs.main([str(tmp_path / "parent"), str(change),
                       "--workload", "udf_compiled", "--pairs", "3",
                       "--commit", "abc1234",
                       "--trajectory", str(trajectory)]) == 0
    assert order == ["parent", "change", "change", "parent",
                     "parent", "change"]
    lines = trajectory.read_text().splitlines()
    assert lines[0] == '{"earlier": true}'
    rows = [json.loads(line) for line in lines[1:]]
    assert [row["metric"] for row in rows] == ["ops_per_s", "p50_ms"]
    for row in rows:
        assert set(row) == {"commit", "parent", "date", "workload",
                            "metric", "parent_median", "change_median",
                            "pairs", "wins"}
        assert (row["commit"], row["parent"], row["workload"], row["pairs"],
                row["wins"]) == ("abc1234", head, "udf_compiled", 3, 3)
    assert (rows[0]["parent_median"], rows[0]["change_median"]) == (100, 200)
