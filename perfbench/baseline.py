#!/usr/bin/env python3
"""Measure a baseline: every workload on several seeds, plus one traced run.

Usage (from the repository root): ``python3 perfbench/baseline.py``.

For each workload, runs ``run.py --trace 0`` once per seed 1 to SEEDS and
``run.py --trace 1`` once on seed 1, each for the ``run_seconds`` of
``BENCHMARK.json``.  It writes to ``baseline.json``, per workload and
end-to-end metric, the median, the quartiles, their distance as a share of
the median (the spread) and every value, and the traced run's per-layer
metrics.  A change that claims a gain runs this on the parent commit and on
the change.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from run import git_sha

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "baseline.json")
SEEDS = 10


def run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} invocations failed")
    return result["metrics"]


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {
        "stamp": {"git_sha": git_sha(), "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)), "backend": "pure",
                  "seconds": seconds, "seeds": SEEDS,
                  "date": time.strftime("%Y-%m-%d")},
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        traced = run(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": {
                name: dict(unit=runs[0][name]["unit"],
                           **summarize([r[name]["value"] for r in runs]))
                for name in runs[0]},
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload:10s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f}", flush=True)
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
