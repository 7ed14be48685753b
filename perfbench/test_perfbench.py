"""Tests of the benchmark itself, at a tiny input size.

    python3 -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import Recorder

WORKLOADS = sorted(run.WORKLOADS)


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload(workload, reference):
    result = run.run(workload, seed=7, seconds=0, trace=False, tiny=True, reference=reference)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["success_rate"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert run.make_inputs(workload, 3) == run.make_inputs(workload, 3)
    assert run.make_inputs("cert-roundtrip", 1)[1]["items"] == run.CERT_ELLS
    assert run.SCAN_PAIRS, "no large-prime pair meets the shape-scan budget"


def test_corrupted_reference_counts_as_failure(reference):
    inputs, _ = run.make_inputs("shape-scan", 7, tiny=True)
    bad = copy.deepcopy(reference)
    bad["lpoly"][str(inputs["primes"][0])][0] = "1/1"
    result = run.run("shape-scan", seed=7, seconds=0, trace=False, tiny=True, reference=bad)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_traced_run_matches_untraced(reference):
    # run() fails the result when a traced job's outputs differ from the
    # untraced job's, or when counters differ between traced jobs.
    inputs, facts = run.make_inputs("cert-roundtrip", 7, tiny=True)
    plain = run.run_job("cert-roundtrip", inputs, trace=False, timeout=60)
    traced = run.run_job("cert-roundtrip", inputs, trace=True, timeout=60)
    assert traced["outputs"] == plain["outputs"]
    assert run.check_certs(inputs, facts, traced["outputs"], reference)[1] == 0

    result = run.run("cert-roundtrip", seed=7, seconds=0, trace=True, tiny=True, reference=reference)
    assert result["correct"], result
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["certify.witness_calls"] == 2 + 2 * facts["items"]
    assert metrics["certify.second_witness_ells"] == 1  # the tiny window covers 19, not 1601
    assert metrics["certify.witness_s"] >= metrics["qpoly.nth_power_poly_s"] + metrics["qpoly.discriminant_s"]


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "shape-scan", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_child_spans():
    rec = Recorder()
    rec.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0], ["a", 11.0, 12.0, -1]]
    summary = rec.summary()
    assert summary["self"] == {"a": 7.0, "b": 3.0, "c": 1.0}
    assert summary["total"] == {"a": 11.0, "b": 4.0, "c": 1.0}
    assert summary["longest"]["a"] == 10.0
    assert summary["covered"] == 11.0
