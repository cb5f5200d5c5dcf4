#!/usr/bin/env python3
"""quandlekit benchmark: two seeded CLI workloads, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 55 --trace 0

Each pass runs every invocation of the workload through ``quandlekit.cli.main``
in a fresh single-threaded interpreter with the pure kernel backend
(``QUANDLEKIT_PURE=1``).  Passes repeat until ``--seconds`` is used up (at
least three), and every output is checked.  With ``--trace 0`` the run
reports the end-to-end metrics as medians over passes; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer self times and
counts from the tracer in ``tracer.py``.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Inputs and pass records live in ``.perfbench/`` under the repository root and
are removed at the end, except the run record and the spans of the last
traced pass, which stay in ``.perfbench/results/``.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import COUNTS, LAYERS, RATIOS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
STATE = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 3
# No pass starts after this many seconds of measuring, whatever --seconds says,
# so a run ends well inside three minutes.
MEASURE_CEILING_S = 120
PASS_TIMEOUT_S = 150
# Set-up samples: SETUP_BATCH before each untraced pass, SETUP_SAMPLES in all.
SETUP_SAMPLES = 40
SETUP_BATCH = 5
# Prints the seconds a fresh interpreter spends importing the package and its
# CLI and loading the embedded golden fixture.
SETUP_CODE = ("import time; t = time.perf_counter(); import quandlekit.cli; "
              "quandlekit.smallquandle_12_4(); print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(QUANDLEKIT_PURE="1", PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    return env


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_samples(env, count) -> list:
    """Seconds each of ``count`` fresh interpreters spends importing
    quandlekit and loading the golden fixture.  Interpreter start-up itself
    is not quandlekit's and is left out."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, env=env, check=True, timeout=PASS_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
        samples.append(float(proc.stdout))
    return samples


def run_pass(work, inputs, env, traced, index, spans_path=None):
    """Run one pass in a fresh process; returns its record or None."""
    out = os.path.join(work, f"pass-{index}.json")
    cmd = [sys.executable, CHILD, os.path.join(work, "plan.json"), out,
           "1" if traced else "0"]
    if spans_path:
        cmd.append(spans_path)
    try:
        proc = subprocess.run(cmd, cwd=inputs, env=env, timeout=PASS_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: pass {index} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(out):
        print(f"perfbench: pass {index} failed with exit code "
              f"{proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    with open(out) as fh:
        record = json.load(fh)
    os.remove(out)
    return record


def check_pass(record, invocations) -> list:
    """Error messages for the pass, one per failed invocation."""
    if record is None:
        return [f"{inv['name']}: pass did not complete" for inv in invocations]
    if record["backend"] != "pure":
        return [f"{inv['name']}: backend {record['backend']}, expected pure"
                for inv in invocations]
    errors = []
    for inv, call in zip(invocations, record["calls"]):
        err = inv["check"](call["rc"], call["stdout"])
        if err:
            errors.append(f"{inv['name']}: {err}")
    return errors


def run_passes(work, inputs, env, seconds, trace, workload, seed):
    """Passes until the time is used up: (untraced records, traced records,
    set-up samples).

    Without tracing, a pass starts while the median pass still fits in the
    time left, and at least MIN_PASSES run.  Set-up samples run in batches
    before the passes, so that they sample the machine across the run; their
    time does not count against ``seconds``.  With tracing, untraced and
    traced passes alternate in pairs, at least one pair.
    """
    plain, traced, setup = [], [], []
    spans_path = os.path.join(STATE, "results",
                              f"spans-{workload}-seed{seed}.jsonl")
    durations = []
    index = 0
    while True:
        if not trace and len(setup) < SETUP_SAMPLES:
            setup += setup_samples(env, SETUP_BATCH)
        t = time.perf_counter()
        plain.append(run_pass(work, inputs, env, False, index))
        index += 1
        if trace:
            traced.append(run_pass(work, inputs, env, True, index, spans_path))
            index += 1
        durations.append(time.perf_counter() - t)
        elapsed = sum(durations)
        enough = len(durations) >= (1 if trace else MIN_PASSES)
        fits = elapsed + statistics.median(durations) <= seconds
        if elapsed > MEASURE_CEILING_S or (enough and not fits):
            return plain, traced, setup


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end_metrics(records, setup, attempted, failed) -> dict:
    return {
        "wall_s": (median_of(records, "wall_s"), "s"),
        "cpu_s": (median_of(records, "cpu_s"), "s"),
        "max_call_s": (max(
            statistics.median(r["calls"][i]["wall_s"] for r in records)
            for i in range(len(records[0]["calls"]))), "s"),
        "peak_rss_mb": (median_of(records, "max_rss_kb") / 1024, "MB"),
        # The fastest sample: the machine's slow stretches last seconds, long
        # enough to move the median of a run's samples by half.
        "setup_s": (min(setup), "s"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer_metrics(plain, traced) -> dict:
    """Self times as medians over traced passes; counts and ratios from the
    first traced pass, since every pass repeats the same work."""
    summaries = [r["trace"] for r in traced]
    metrics = {}
    for metric, spans in LAYERS.items():
        metrics[metric] = (statistics.median(
            sum(s["self_s"].get(name, 0.0) for name in spans)
            for s in summaries), "s")
    counts = summaries[0]["counts"]
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    for name, (num, den) in RATIOS.items():
        den = counts.get(den, 0)
        metrics[name] = (counts.get(num, 0) / den if den else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        median_of(traced, "wall_s") / median_of(plain, "wall_s"), "ratio")
    metrics["trace.top_level_coverage"] = (statistics.median(
        r["trace"]["top_level_s"] / r["wall_s"] for r in traced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "quandlekit", "__init__.py")):
        print(f"perfbench: no quandlekit sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    env = child_env()
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    work = os.path.join(STATE, f"work-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    try:
        invocations = workloads.build(args.workload, args.seed, ROOT, inputs,
                                      workloads.load_expected())
        with open(os.path.join(work, "plan.json"), "w") as fh:
            json.dump([{"name": i["name"], "argv": i["argv"]}
                       for i in invocations], fh)
        if not args.trace:
            # Fills the bytecode cache, as it is filled for any user after
            # the first run.
            setup_samples(env, 1)
        plain, traced, setup = run_passes(work, inputs, env, args.seconds,
                                          args.trace, args.workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = plain + traced
    errors = [e for r in records for e in check_pass(r, invocations)]
    attempted = len(records) * len(invocations)
    failed = len(errors)
    for err in errors[:20]:
        print(f"perfbench: FAIL {err}", file=sys.stderr)
    done = [r for r in records if r is not None]
    if not done or (args.trace and not any(r and r["traced"] for r in traced)):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer_metrics([r for r in plain if r], [r for r in traced if r])
    else:
        metrics = end_to_end_metrics(done, setup, attempted, failed)

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": done[0]["backend"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "passes": len(records), "error_rate": failed / attempted,
    }
    with open(os.path.join(STATE, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"stamp": stamp, "errors": errors,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "passes": [{k: v for k, v in r.items() if k != "calls"}
                              | {"calls": [{"name": c["name"], "rc": c["rc"],
                                            "wall_s": c["wall_s"]}
                                           for c in r["calls"]]}
                              for r in done]}, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
