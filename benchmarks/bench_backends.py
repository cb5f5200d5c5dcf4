#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python twins.

Runs the three hot kernels on representative desk-scale workloads and
prints a timing table.  Each (kernel, backend) pair is timed as the median
of at least ``MIN_REPEATS`` calls taking at least ``MIN_TOTAL_S`` seconds
in all, with the fastest and slowest call beside it; the speedup is the
ratio of the medians.  The two backends' calls alternate, so a slow stretch
of the machine, which can last seconds, slows both sides of the ratio; the
garbage collector is off while timing, as in ``timeit``.
Usage: ``python benchmarks/bench_backends.py``.
"""
import gc
import statistics
import time

from quandlekit import Permutation, conjugacy_class_quandle, symmetric_group
from quandlekit._kernels import _pure

try:
    from quandlekit._kernels import _speedups
except ImportError:
    _speedups = None

MIN_REPEATS = 15
MIN_TOTAL_S = 0.5


def bench(fns, args):
    """Call the functions in turn until each has run at least MIN_REPEATS
    times and MIN_TOTAL_S seconds; per function, (median, min, max) seconds
    per call and the result of its last call."""
    times = [[] for _ in fns]
    results = [None] * len(fns)
    gc.collect()
    gc.disable()
    try:
        while any(len(t) < MIN_REPEATS or sum(t) < MIN_TOTAL_S for t in times):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                results[i] = fn(*args)
                times[i].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    stats = [(statistics.median(t), min(t), max(t)) for t in times]
    return stats, results


def workloads():
    s7 = [g.images for g in symmetric_group(7).generators]
    yield ("closure: symmetric group, degree 7 (5040 elements)",
           "closure_elements", (7, s7, 10 ** 6))

    cls6 = conjugacy_class_quandle(
        symmetric_group(6), Permutation.from_cycles(6, [[0, 1, 2, 3, 4]]))
    rows6 = [p.images for p in cls6.rack.translations()]
    yield (f"closure: inner group on {cls6.rack.n} points "
           f"({cls6.rack.n} generators)",
           "closure_elements", (cls6.rack.n, rows6, 10 ** 6))

    yield (f"distributivity scan: {cls6.rack.n}^3 triples",
           "a1_violations", (rows6,))

    # above 256 points the pure scan composes rows with itemgetter, not bytes
    cls7 = conjugacy_class_quandle(
        symmetric_group(7), Permutation.from_cycles(7, [[0, 1, 2], [3, 4, 5]]))
    rows7 = [p.images for p in cls7.rack.translations()]
    yield (f"distributivity scan: {cls7.rack.n}^3 triples",
           "a1_violations", (rows7,))

    labels = [p.images for p in cls6.labels]
    yield (f"conjugation table: {len(labels)} x {len(labels)} class products",
           "conjugation_table", (labels, 6))


def _cell(t):
    median, lo, hi = t
    return f"{median * 1e3:9.2f} ({lo * 1e3:.2f}-{hi * 1e3:.2f})"


def main():
    if _speedups is None:
        print("compiled backend unavailable; build the extension first")
        return
    print(f"{'workload':55s} {'pure ms (min-max)':>28s} "
          f"{'cython ms (min-max)':>24s} {'speedup':>8s}")
    for title, fname, args in workloads():
        (t_pure, t_fast), (r_pure, r_fast) = bench(
            [getattr(_pure, fname), getattr(_speedups, fname)], args)
        assert r_pure == r_fast, f"backend mismatch in {fname}"
        print(f"{title:55s} {_cell(t_pure):>28s} {_cell(t_fast):>24s} "
              f"{t_pure[0] / t_fast[0]:7.1f}x")


if __name__ == "__main__":
    main()
