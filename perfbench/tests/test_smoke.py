"""One pass of each workload on the smallest grids, untraced and traced."""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
import workloads

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _check_metrics(last, names):
    assert set(last["metrics"]) == set(names)
    for name, m in last["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"], name
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(workload):
    _, last = run.run(workload, seed=1, seconds=0.0, trace=False, scale="smoke")
    _check_metrics(last, [m["name"] for m in SPEC["end_to_end"]])
    assert last["attempted"] >= 1

    result, last = run.run(workload, seed=1, seconds=0.0, trace=True, scale="smoke")
    _check_metrics(last, [m["name"] for m in SPEC["per_layer"]])
    assert result["mismatched"] == [], "traced and untraced answers differ"
    assert result["absent"] == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-quadrature", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
