"""Self-check of the benchmark: ``run.py --smoke`` end to end.

The smoke run happens in a child process: while tracing, ``run.py``
replaces ``os.fsync`` and engine entry points, which must not leak into
the process running the rest of the test suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)
try:
    import serve  # noqa: F401,E402  (puts src/ on sys.path)
    import oracle  # noqa: E402
    import run  # noqa: E402
    from streams import SPECS  # noqa: E402
finally:
    sys.path.remove(HERE)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(last line of stdout, the --out report) of one smoke run."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(out)],
        cwd=ROOT, text=True, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        return json.loads(done.stdout.splitlines()[-1]), json.load(fh)


def test_every_contract_metric_is_printed_with_its_unit(smoke, contract):
    line, report = smoke
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload in contract["workloads"]:
        for metric in contract["end_to_end"] + contract["per_layer"]:
            printed = line["metrics"][f"{workload['name']}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
    for metric in contract["end_to_end"]:
        for workload in contract["workloads"]:
            name = f"{workload['name']}.{metric['name']}"
            assert line["metrics"][name]["value"] > 0, name
    for workload in report["workloads"].values():
        assert workload["failed_share"] == 0 and workload["lost_writes"] == 0


def test_stream_hashes_follow_the_seed(smoke):
    _, report = smoke
    for name, spec in SPECS.items():
        same_seed = spec().fingerprint(report["seed"])
        assert same_seed == report["workloads"][name]["stream_sha256"]
        assert same_seed != spec().fingerprint(report["seed"] + 1)


def test_spans_nest_and_layers_account_for_the_wall(smoke):
    """The layers' shares come from span self times (the tracer's clock
    reads); ``trace.unattributed_share`` from the load generator's own
    latencies.  They add up to 1 only if every second of an operation was
    credited to exactly one layer."""
    _, report = smoke
    for name, workload in report["workloads"].items():
        assert workload["nesting_problems"] == [], name
        layers = workload["per_layer"]
        shares = sum(value for key, value in layers.items()
                     if key.endswith(".self_share"))
        unattributed = layers["trace.unattributed_share"]
        assert abs(shares + unattributed - 1) <= 0.05, name
        assert 0 <= unattributed <= 0.05, name
        # server.server's self time is the uncovered round trip plus the
        # two server-side pieces no deeper span covers.
        server = layers["server.server.self_us_per_op"]
        pieces = (layers["server.server.residual_us_per_op"]
                  + layers["server.server.loop_us_per_op"]
                  + layers["server.server.execute_self_us_per_op"])
        assert abs(server - pieces) <= 1e-6 * max(server, 1.0), name


def test_walk_oracle_is_the_reference_walk():
    from repro.workloads.robot import default_grid, walk_reference
    grid = default_grid()
    walker = oracle.WalkOracle(grid)
    for seed in range(6):
        assert walker.walks(seed, 1, (0, 0), 12, -12, 32) == [
            walk_reference(None, grid, (0, 0), 12, -12, 32, seed)]


def test_a_wrong_oracle_answer_raises_failed_share(monkeypatch):
    monkeypatch.setattr(oracle.Rows, "__call__", lambda self, result: False)
    monkeypatch.setattr(run, "CPUS", [])  # leave this process's CPUs alone
    result = run.run_untraced("point_read", 11, 1.0, rounds=1,
                              scale=run.SMOKE_SCALE, setups=1)
    assert result["failed_share"] == 1.0
    assert result["failed"] == result["attempted"]


def test_compare_calls_a_dead_baseline_a_regression_not_a_crash():
    import compare
    assert compare.verdict(0.0, 0.0, "higher", 0.1, 0.0) == "unchanged"
    assert compare.verdict(0.0, 5.0, "higher", 0.1, 0.0) == "improved"
    assert compare.verdict(5.0, 0.0, "higher", 0.1, 0.0) == "regressed"
    assert compare.verdict(0.0, 5.0, "lower", 0.1, 0.0) == "regressed"
    assert compare.verdict(5.0, 5.4, "lower", 0.1, 0.0) == "unchanged"
    assert compare.verdict(5.0, 7.0, "lower", 0.1, 0.3) == "unresolved"
