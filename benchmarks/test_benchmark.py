"""Self-tests of the benchmark, on tiny pools (about half a minute in all).

    python3 -m pytest benchmarks/test_benchmark.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    _assert_metrics(result, SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_fails_the_check(workload):
    result = _result(_run(workload, 1, "--corrupt-expected"))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["error_rate"]["value"] == result["failed"] / result["attempted"]
    assert result["metrics"]["error_rate"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("identify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
