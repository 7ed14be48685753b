"""The benchmark's traced jobs wrap package functions by name: the
ortho-factor job `ortho.cartan_dieudonne`, `ortho.spinor_norm_by_reflections`
and `tensor.group_order_bfs`; the L-polynomial jobs `lpoly.fq_ctx`,
`lpoly.trace_sum` and `FieldCtx.chi_table`.  A rename or a signature change
of any of them breaks it.  The L-polynomial jobs also check the Full-mode
L-polynomials of 7 and 11 against the benchmark's reference values."""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import run_python

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def benchmark_inputs(workload: str, seed: int) -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.make_inputs(workload, seed)[0]


def traced_run(workload: str) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1"]
    child = run_python(str(RUN_PY), *argv)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["correct"], result
    return result["metrics"]


def test_traced_ortho_factor_counts_every_wrapped_call():
    metrics = traced_run("ortho-factor")
    for name in ("ortho.cd_calls", "ortho.reflections", "tensor.bfs_elements"):
        assert metrics[name]["value"] > 0, name
    # each matrix is factored once: the spinor norm reads the cached vectors
    # and calls no cartan_dieudonne of its own
    assert metrics["ortho.cd_calls"]["value"] == len(benchmark_inputs("ortho-factor", 7)["matrices"])


@pytest.mark.parametrize("workload", ["full-recount", "shape-scan"])
def test_traced_lpoly_jobs_are_correct_and_count_the_kernel(workload):
    metrics = traced_run(workload)
    for name in ("lpoly.trace_sum_calls", "gf.chi_entries"):
        assert metrics[name]["value"] > 0, name
    assert metrics["gf.fq_ctx_s"]["value"] > 0
