"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--seeds 10] [--workloads a,b] [--out FILE]

For every workload it makes one untraced run per seed (seeds 1..N) and one
traced run on seed 1, then reports per metric the median of the per-seed
values and their spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to
the bound from BENCHMARK.json.  With --out it also writes the summary with
the machine it ran on, as perfbench/baseline.json records it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run


def machine() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in range(1, args.seeds + 1)]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: incorrect run", file=sys.stderr)
            return 1
        row = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            row[name] = {"median": statistics.median(values), "spread": spread(values), "values": values}
            print(f"{workload:15s} {name:13s} median {row[name]['median']:12.5g}  "
                  f"spread {row[name]['spread']:.4f}  bound {bounds[name]}", flush=True)
        traced = bench(workload, 1, spec["run_seconds"], 1)
        row["traced_seed_1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = row
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
