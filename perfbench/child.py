"""One pass of a workload, in a fresh interpreter.

Usage: ``child.py PLAN OUT TRACED [SPANS]``.  PLAN is a JSON list of
``{"name", "argv"}``; each entry runs through ``quandlekit.cli.main`` in this
process with stdout and stderr captured.  OUT receives the pass record: the
exit code, stdout and wall time of every invocation, the pass's wall and CPU
time, peak RSS, and with TRACED=1 the tracer's per-span summary.  SPANS, when
given with TRACED=1, receives the spans as JSON lines.
"""
import contextlib
import io
import json
import platform
import resource
import sys
import time


def run_one(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # recorded as a failed invocation
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start


def main():
    plan_path, out_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    with open(plan_path) as fh:
        plan = json.load(fh)

    import quandlekit
    from quandlekit import cli

    tracer = None
    if traced:
        from tracer import Tracer, span_cost

        tracer = Tracer(span_cost())
        tracer.install()

    calls = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for inv in plan:
        rc, stdout, wall = run_one(cli, inv["argv"])
        calls.append({"name": inv["name"], "rc": rc, "stdout": stdout,
                      "wall_s": wall})
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    record = {
        "backend": quandlekit.KERNEL_BACKEND,
        "python": platform.python_version(),
        "traced": traced,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
        "trace": tracer.summary() if tracer else None,
    }
    if tracer and spans_path:
        tracer.write_spans(spans_path)
    with open(out_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
