"""Measure a baseline: every workload over several seeds, plus one traced run.

Usage (from the repository root)::

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1]
        [--workloads NAME ...] [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per workload and seed with tracing off, one
run after another, then one traced run per workload.  For each end-to-end
metric it records the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the quartile spread as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  The output also records each
workload's op, input sizes and seeds, the traced per-layer table with its
tracing overhead, and the Python and numpy versions and CPU count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - started
    return result


def _summary(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    from workloads import WORKLOADS

    report = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for name in names:
        workload = WORKLOADS[name]
        runs = []
        for seed in seeds:
            runs.append(_run(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed}: {runs[-1]['attempted']} ops in "
                  f"{runs[-1]['run_s']:.1f}s", flush=True)
        traced = _run(name, seeds[0], spec["run_seconds"], 1)
        metrics = {
            metric: _summary([r["metrics"][metric]["value"] for r in runs], bounds.get(metric))
            for metric in runs[0]["metrics"]
        }
        for metric, row in metrics.items():
            print(f"  {metric:12} median {row['median']:12.4f}  spread {row['spread']:.3f}"
                  f"  bound {row['bound']}", flush=True)
        report["workloads"][name] = {
            "why": workload.why,
            "op": workload.op,
            "sizes": workload(seeds[0]).sizes(),
            "seeds": seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": metrics,
            "traced": {
                "seed": seeds[0],
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
