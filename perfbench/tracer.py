"""Span tracer for quandlekit that works from outside the package.

``Tracer.install()`` wraps the public entry points of each module by
rebinding attributes: module functions in their defining module and in every
quandlekit module that imported them by name (a ``from m import f`` is a
separate binding that a patch of ``m.f`` alone would miss), and methods on
their class.  Calls made through a module object (``_kernels.a1_violations``
from ``perm``, ``racktable`` and ``constructors``) or through an import inside
a function body (``cli`` imports ``inner_action_primitivity`` and ``profile``
when a scan runs) pick up the module attribute at call time.

Each wrapped call is a span.  Spans are kept in memory with their parent and
written out by ``write_spans``; the self time of a span is its duration minus
the durations of its child spans.  ``Permutation`` construction and arithmetic
run hundreds of thousands of times per pass, so those spans are counted and
timed but not kept.

Timing a span costs time of its own, part inside the span's timed window and
part outside it, in its parent.  ``span_cost`` measures both parts on a no-op
function, and the tracer subtracts them: the inner part from each span's self
time, the outer part from its parent's.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

# (module, attribute or Class.method, keep the span records)
TARGETS = [
    ("quandlekit._kernels", "a1_violations", True),
    ("quandlekit._kernels", "conjugation_table", True),
    ("quandlekit._kernels", "closure_elements", True),
    ("quandlekit.perm", "Permutation.__init__", False),
    ("quandlekit.perm", "Permutation.__mul__", False),
    ("quandlekit.perm", "Permutation.conj", False),
    ("quandlekit.perm", "Permutation.inverse", False),
    ("quandlekit.perm", "Permutation.cycles", False),
    ("quandlekit.perm", "PermutationGroup.elements", True),
    ("quandlekit.perm", "PermutationGroup.centralizer", True),
    ("quandlekit.perm", "PermutationGroup.orbit", True),
    ("quandlekit.perm", "PermutationGroup.orbits", True),
    ("quandlekit.perm", "PermutationGroup.is_transitive", True),
    ("quandlekit.perm", "PermutationGroup.is_block", True),
    ("quandlekit.perm", "PermutationGroup._minimal_block_partition", True),
    ("quandlekit.perm", "PermutationGroup.minimal_block", True),
    ("quandlekit.perm", "PermutationGroup.is_primitive", True),
    ("quandlekit.perm", "PermutationGroup.block_system_witness", True),
    ("quandlekit.racktable", "validate", True),
    ("quandlekit.racktable", "RackTable.inner_orbit_partition", True),
    ("quandlekit.racktable", "fingerprint", True),
    ("quandlekit.racktable", "_isomorphism_search", True),
    ("quandlekit.racktable", "parse_rack_file", True),
    ("quandlekit.racktable", "parse_rtbl", True),
    ("quandlekit.racktable", "parse_perm_file", True),
    ("quandlekit.analysis", "inner_action_primitivity", True),
    ("quandlekit.analysis", "profile", True),
    ("quandlekit.analysis", "k_tilde_block_diagnostic", True),
    ("quandlekit.analysis", "lambda_part", True),
    ("quandlekit.analysis", "expected_lambda_part_count", True),
    ("quandlekit.constructors", "_search_connected_tables", True),
    ("quandlekit.constructors", "_connected_table", True),
    ("quandlekit.constructors", "_dedup_tables", True),
    ("quandlekit.constructors", "conjugacy_class_quandle", True),
    ("quandlekit.constructors", "rack_from_conjugation_closed", True),
    ("quandlekit.constructors", "make_homogeneous_spec", True),
    ("quandlekit.constructors", "homogeneous_quandle", True),
    ("quandlekit.constructors", "make_affine_spec", True),
    ("quandlekit.constructors", "affine_quandle", True),
    ("quandlekit.conjecture", "intersection_evidence", True),
    ("quandlekit.conjecture", "full_report", True),
    ("quandlekit.conjecture", "AnalysisReport.to_text", True),
    ("quandlekit.conjecture", "AnalysisReport.to_json_dict", True),
    ("quandlekit.cli", "_emit", True),
    ("quandlekit.cli", "_scan_rows_sym_alt", True),
    ("quandlekit.racktable", "emit_rtbl", True),
    ("quandlekit.cli", "main", True),
]

# Per-layer self-time metric -> spans whose self time it sums.  A span name is
# the short module name and the attribute, as in "perm.Permutation.conj".
LAYERS = {
    "kernels.a1_violations.self_s": ["_kernels.a1_violations"],
    "kernels.conjugation_table.self_s": ["_kernels.conjugation_table"],
    "kernels.closure_elements.self_s": ["_kernels.closure_elements"],
    "perm.group_elements.self_s": ["perm.PermutationGroup.elements"],
    "perm.centralizer.self_s": ["perm.PermutationGroup.centralizer"],
    "conjecture.intersection_evidence.self_s": ["conjecture.intersection_evidence"],
    "perm.construct.self_s": ["perm.Permutation.__init__"],
    "perm.arith.self_s": ["perm.Permutation.__mul__", "perm.Permutation.conj",
                          "perm.Permutation.inverse", "perm.Permutation.cycles"],
    "constructors.search.self_s": ["constructors._search_connected_tables",
                                   "constructors._connected_table"],
    "racktable.isomorphism.self_s": ["racktable._isomorphism_search"],
    "racktable.fingerprint.self_s": ["racktable.fingerprint"],
    "constructors.dedup.self_s": ["constructors._dedup_tables"],
    "perm.blocks.self_s": ["perm.PermutationGroup.is_block",
                           "perm.PermutationGroup._minimal_block_partition",
                           "perm.PermutationGroup.minimal_block",
                           "perm.PermutationGroup.is_primitive",
                           "perm.PermutationGroup.block_system_witness"],
    "perm.orbits.self_s": ["perm.PermutationGroup.orbit",
                           "perm.PermutationGroup.orbits",
                           "perm.PermutationGroup.is_transitive"],
    "racktable.inner_orbit_partition.self_s": ["racktable.RackTable.inner_orbit_partition"],
    "analysis.primitivity.self_s": ["analysis.inner_action_primitivity"],
    "analysis.profile.self_s": ["analysis.profile"],
    "analysis.k_tilde.self_s": ["analysis.k_tilde_block_diagnostic"],
    "analysis.lambda_part.self_s": ["analysis.lambda_part",
                                    "analysis.expected_lambda_part_count"],
    "racktable.parse.self_s": ["racktable.parse_rack_file", "racktable.parse_rtbl",
                               "racktable.parse_perm_file"],
    "racktable.validate.self_s": ["racktable.validate"],
    "constructors.class_quandle.self_s": ["constructors.conjugacy_class_quandle",
                                          "constructors.rack_from_conjugation_closed"],
    "constructors.homogeneous.self_s": ["constructors.make_homogeneous_spec",
                                        "constructors.homogeneous_quandle"],
    "constructors.affine.self_s": ["constructors.make_affine_spec",
                                   "constructors.affine_quandle"],
    "conjecture.full_report.self_s": ["conjecture.full_report"],
    "cli.emit.self_s": ["conjecture.AnalysisReport.to_text",
                        "conjecture.AnalysisReport.to_json_dict",
                        "cli._emit", "cli._scan_rows_sym_alt",
                        "racktable.emit_rtbl", "cli.json.dumps"],
    "cli.main.self_s": ["cli.main"],
}


# Count metrics read from the summary: span call counts and the counters the
# AFTER hooks below keep.
CALL_COUNTS = {
    "kernels.a1_violations.calls": "_kernels.a1_violations",
    "perm.permutations_built": "perm.Permutation.__init__",
    "perm.conj.calls": "perm.Permutation.conj",
    "racktable.isomorphism.calls": "racktable._isomorphism_search",
    "racktable.validate.calls": "racktable.validate",
}
COUNTS = [
    "kernels.a1_violations.calls",
    "kernels.a1_violations.triples",
    "kernels.a1_violations.violations",
    "kernels.conjugation_table.entries",
    "kernels.closure_elements.elements",
    "perm.permutations_built",
    "perm.conj.calls",
    "constructors.search.candidates",
    "racktable.isomorphism.calls",
    "racktable.validate.calls",
]
# Ratio metric -> (numerator count, denominator count); 0 when nothing ran.
RATIOS = {
    "constructors.search.connected_ratio": ("constructors.search.connected",
                                            "constructors.search.candidates"),
    "constructors.dedup.kept_ratio": ("constructors.dedup.kept",
                                      "constructors.dedup.in"),
    "racktable.isomorphism.found_ratio": ("racktable.isomorphism.found",
                                          "racktable.isomorphism.calls"),
}


def _count_a1(counts, args, result):
    n = len(args[0])
    counts["kernels.a1_violations.triples"] += n ** 3
    counts["kernels.a1_violations.violations"] += len(result)


def _count_conjugation(counts, args, result):
    if result is not None:
        counts["kernels.conjugation_table.entries"] += len(result) ** 2


def _count_closure(counts, args, result):
    if result is not None:
        counts["kernels.closure_elements.elements"] += len(result)


def _count_search(counts, args, result):
    counts["constructors.search.candidates"] += len(result)


def _count_connected(counts, args, result):
    counts["constructors.search.connected"] += bool(result)


def _count_dedup(counts, args, result):
    counts["constructors.dedup.in"] += len(args[0])
    counts["constructors.dedup.kept"] += len(result)


def _count_isomorphism(counts, args, result):
    counts["racktable.isomorphism.found"] += bool(result)


AFTER = {
    "_kernels.a1_violations": _count_a1,
    "_kernels.conjugation_table": _count_conjugation,
    "_kernels.closure_elements": _count_closure,
    "constructors._search_connected_tables": _count_search,
    "constructors._connected_table": _count_connected,
    "constructors._dedup_tables": _count_dedup,
    "racktable._isomorphism_search": _count_isomorphism,
}


class Tracer:
    """Wraps quandlekit entry points and accumulates spans and counts.

    ``cost`` is the tracer's own time per span, inside and outside the timed
    window, as ``span_cost`` measures it; it is taken out of the self times.
    """

    def __init__(self, cost=(0.0, 0.0)):
        # A frame is [time covered by child spans, id of the nearest kept
        # span]; the bottom frame collects the top-level spans.
        self.stack = [[0.0, None]]
        self.spans = []  # [name, parent id, start, end]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.inner, self.outer = cost

    def _wrap(self, name, fn, keep):
        stack, spans = self.stack, self.spans
        self_s, calls, counts = self.self_s, self.calls, self.counts
        inner, outer = self.inner, self.outer
        after = AFTER.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep:
                span = [name, parent[1], 0.0, 0.0]
                frame = [0.0, len(spans)]
                spans.append(span)
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[0] - inner
                calls[name] += 1
                parent[0] += dur + outer
                if keep:
                    span[2], span[3] = start, end
            if after is not None:
                after(counts, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        from quandlekit import cli

        modules = [m for key, m in sys.modules.items()
                   if key == "quandlekit" or key.startswith("quandlekit.")]
        for modname, attr, keep in TARGETS:
            module = sys.modules[modname]
            name = f"{modname.rsplit('.', 1)[1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], keep))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, keep)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        cli.json = types.SimpleNamespace(
            dumps=self._wrap("cli.json.dumps", json.dumps, True))

    def summary(self) -> dict:
        counts = dict(self.counts)
        for metric, span in CALL_COUNTS.items():
            counts[metric] = self.calls[span]
        return {"self_s": dict(self.self_s), "counts": counts,
                "top_level_s": self.stack[0][0], "spans": len(self.spans),
                "span_cost_s": [self.inner, self.outer]}

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def span_cost() -> tuple:
    """The tracer's time per span: (inside the timed window, outside it).

    The probe is a no-op with two arguments, as most hot spans have.  Per
    call, an empty loop step takes L, a bare call of the no-op C, and a
    traced call C plus the two tracer parts, of which the span timed C plus
    the inner part.  Medians over rounds, at least 0.
    """
    def noop(a, b):
        pass

    n, rounds = 20000, 5
    probe = Tracer()
    traced = probe._wrap("noop", noop, False)
    perf = time.perf_counter
    inner, outer = [], []
    for _ in range(rounds):
        t = perf()
        for _ in range(n):
            pass
        empty = perf() - t
        t = perf()
        for _ in range(n):
            noop(n, rounds)
        bare = perf() - t
        probe.stack[0][0] = 0.0
        t = perf()
        for _ in range(n):
            traced(n, rounds)
        total = perf() - t
        timed = probe.stack[0][0]
        inner.append((timed - bare + empty) / n)
        outer.append((total - timed - empty) / n)
    return (max(0.0, statistics.median(inner)),
            max(0.0, statistics.median(outer)))
