"""The benchmark's traced ortho-factor job wraps `ortho.cartan_dieudonne`,
`ortho.spinor_norm_by_reflections` and `tensor.group_order_bfs` by name; a
rename or a signature change of any of them breaks it."""

import json
from pathlib import Path

from conftest import run_python

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_traced_ortho_factor_counts_every_wrapped_call():
    argv = ["--workload", "ortho-factor", "--seed", "7", "--seconds", "0", "--trace", "1"]
    child = run_python(str(RUN_PY), *argv)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["correct"], result
    for name in ("ortho.cd_calls", "ortho.reflections", "tensor.bfs_elements"):
        assert result["metrics"][name]["value"] > 0, name
