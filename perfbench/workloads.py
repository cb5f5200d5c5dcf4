"""Seeded inputs, invocations and output checks for the benchmark workloads.

The generator here is independent of quandlekit: it builds the input tables
with its own code, so the program receives only the files written into the
work directory and the argv of each invocation.

Checks come in two kinds.  An invocation with fixed input is compared with a
pinned exit code and the sha256 of its stdout.  An invocation on seeded input
(a relabeled table, a seeded primitive root, a seeded transposition) is
compared on fields that do not depend on the labeling, pinned from the
unrelabeled input, or against an exact witness list computed here.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("scan", "analyze")

AFFINE_P = 61

# S5 with the subgroup <(1,2)>; conjugation by (3,4,5) fixes that subgroup
# pointwise, so the coset space is a 60-point homogeneous quandle.
S5_PERM = "# S5 and a subgroup generator\nperm 5\n(1,2,3,4,5)\n(1,2)\n(3,4,5)\n"
HOMOG_SPEC = "homog group=s5.perm sub=2 alpha=conj:(3,4,5)"

# Fixed-input invocations of the scan workload: the class scans and
# constructs, which take most of the pass, then two small enumerations.  The
# affine construct with the seeded root runs between the two groups.
# ``scan --enumerate 8`` is left out: it would take two thirds of the pass.
CLASS_SCAN = [
    ("scan-sym-6", ["scan", "--sym", "6"]),
    ("scan-alt-6", ["scan", "--alt", "6"]),
    ("construct-conj-7-331", ["construct", "conj d=7 type=3,3,1"]),
    ("construct-homog-s5", ["construct", HOMOG_SPEC]),
]
ENUMERATE = [
    ("scan-enumerate-7", ["scan", "--enumerate", "7"]),
    ("scan-enumerate-6-racks", ["scan", "--enumerate", "6", "--racks"]),
]
FIXED = CLASS_SCAN + ENUMERATE

# The connected quandles analyzed by the analyze workload, in run order.
ANALYZED = ("golden-12", "conj-6-6", "conj-6-42", "affine-61")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- tables -----------------------------------------------------------------


def primitive_roots(p: int) -> list:
    """Generators of the multiplicative group mod the prime ``p``."""
    qs = [q for q in range(2, p) if (p - 1) % q == 0
          and all(q % r for r in range(2, q))]
    return [g for g in range(2, p)
            if all(pow(g, (p - 1) // q, p) != 1 for q in qs)]


def affine_table(p: int, g: int) -> list:
    """x |> y = g*y + (1-g)*x mod p, 0-based."""
    return [[(g * y + (1 - g) * x) % p for y in range(p)] for x in range(p)]


def _cycle_lengths(images) -> list:
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if not seen[i]:
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = images[j]
                length += 1
            out.append(length)
    return sorted(out)


def class_table(degree: int, parts) -> list:
    """Conjugation table of the permutations of one cycle type."""
    target = sorted(parts)
    elems = [p for p in itertools.permutations(range(degree))
             if _cycle_lengths(p) == target]
    index = {p: i for i, p in enumerate(elems)}
    table = []
    for a in elems:
        inv = [0] * degree
        for i, j in enumerate(a):
            inv[j] = i
        table.append([index[tuple(a[b[inv[i]]] for i in range(degree))]
                      for b in elems])
    return table


def perm_rows(text: str) -> list:
    """Rows of a PERM rack file (one cycle-notation permutation per row)."""
    n, rows = None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = int(line.split()[1])
            continue
        images = list(range(n))
        for body in re.findall(r"\(([^()]*)\)", line):
            pts = [int(t) - 1 for t in body.split(",") if t.strip()]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        rows.append(images)
    return rows


def golden_table(root: str) -> list:
    path = os.path.join(root, "src", "quandlekit", "data",
                        "smallquandle-12-4.perm")
    with open(path) as fh:
        return perm_rows(fh.read())


def relabel(table: list, sigma: list) -> list:
    """The isomorphic table with point x renamed sigma[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return out


def rtbl_text(table: list) -> str:
    lines = [f"rtbl {len(table)}"]
    lines.extend(" ".join(str(e + 1) for e in row) for row in table)
    return "\n".join(lines) + "\n"


def perm_text(table: list) -> str:
    """PERM rack file whose rows are the rows of ``table``."""
    lines = [f"perm {len(table)}"]
    for row in table:
        seen, cycles = set(), []
        for i in range(len(row)):
            if i in seen or row[i] == i:
                continue
            cyc, j = [], i
            while j not in seen:
                seen.add(j)
                cyc.append(j + 1)
                j = row[j]
            cycles.append("(" + ",".join(map(str, cyc)) + ")")
        lines.append("".join(cycles) or "()")
    return "\n".join(lines) + "\n"


def base_tables(root: str, g: int) -> dict:
    """The four connected quandles of the analyze workload, unrelabeled."""
    return {
        "golden-12": golden_table(root),
        "conj-6-6": class_table(6, (6,)),
        "conj-6-42": class_table(6, (4, 2)),
        "affine-61": affine_table(AFFINE_P, g),
    }


# -- output checks ------------------------------------------------------------


def analyze_json_invariants(report: dict) -> dict:
    """The fields of an ``analyze --json`` report that survive relabeling."""
    ev = report["evidence"]
    blocks = report["block_witness"]
    k_tilde = report["k_tilde"]
    return {
        "n": report["n"],
        "kind": report["kind"],
        "connected": report["connected"],
        "faithful": report["faithful"],
        "fiber_size": report["fiber_size"],
        "profile": report["profile"],
        "least_length_above_one": report["least_length_above_one"],
        "primitive": report["primitive"],
        "block_witness_cell_sizes": (
            None if blocks is None else sorted(len(c) for c in blocks)),
        "hayashi": report["hayashi"],
        "evidence": None if ev is None else {
            "cyclic_order": ev["cyclic_order"],
            "intersection_orders": sorted(o for _, o in ev["intersection_orders"]),
            "trivial_witness_exists": ev["trivial_witness"] is not None,
        },
        "lambda_parts": report["lambda_parts"],
        "k_tilde": None if k_tilde is None else [
            {"k": d["k"], "cell_sizes": sorted(len(c) for c in d["cells"]),
             "partition": d["partition"], "block_system": d["block_system"]}
            for d in k_tilde
        ],
        "skipped": report["skipped"],
    }


_BLOCK_LINE = re.compile(r"^block witness: (.*)$")
_WITNESS_ELEMENT = re.compile(r"^(trivial-intersection witness: element) \d+")


def analyze_text_invariants(text: str) -> list:
    """Report lines with the labeling-dependent parts replaced: block cells
    by their sizes, the trivial witness by whether it exists."""
    out = []
    for line in text.splitlines():
        m = _BLOCK_LINE.match(line)
        if m:
            sizes = sorted(c.count(",") + 1 for c in m.group(1).split())
            line = f"block witness cell sizes: {sizes}"
        line = _WITNESS_ELEMENT.sub(r"\1 *", line)
        out.append(line)
    return out


def axiom_witnesses(table: list) -> tuple:
    """Verdict and every A2, A1, A3 witness (1-based) in report order."""
    n = len(table)
    witnesses = [("A2", [x + 1]) for x, row in enumerate(table)
                 if len(set(row)) != n]
    for x in range(n):
        rx = table[x]
        for y in range(n):
            ry = table[y]
            rt = table[rx[y]]
            for z in range(n):
                if rx[ry[z]] != rt[rx[z]]:
                    witnesses.append(("A1", [x + 1, y + 1, z + 1]))
    a3 = [("A3", [x + 1]) for x in range(n) if table[x][x] != x]
    if witnesses:
        verdict = "not-a-rack"
    else:
        verdict = "rack" if a3 else "quandle"
    return verdict, witnesses + a3


def _check_sha(rc_expected, digest):
    def check(rc, stdout):
        if rc != rc_expected:
            return f"exit code {rc}, expected {rc_expected}"
        if sha256(stdout) != digest:
            return "stdout sha256 differs from the pinned value"
        return None
    return check


def _check_analyze(pinned: dict, as_json: bool):
    def check(rc, stdout):
        if rc != pinned["rc"]:
            return f"exit code {rc}, expected {pinned['rc']}"
        if as_json:
            try:
                got = analyze_json_invariants(json.loads(stdout))
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable JSON report: {exc!r}"
            if got != pinned["json"]:
                return "JSON report invariants differ from the pinned ones"
        elif analyze_text_invariants(stdout) != pinned["text"]:
            return "text report invariants differ from the pinned ones"
        return None
    return check


def _check_validate(n, verdict, witnesses, as_json: bool):
    def check(rc, stdout):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if as_json:
            try:
                got = json.loads(stdout)
            except ValueError as exc:
                return f"unreadable JSON: {exc!r}"
            want = {"n": n, "verdict": verdict,
                    "witnesses": [{"axiom": a, "at": at} for a, at in witnesses]}
            if got != want:
                return "validate JSON differs from the computed witnesses"
            return None
        want = [f"{verdict}, n={n}"] + [
            f"{a} fails at ({','.join(map(str, at))})" for a, at in witnesses]
        if stdout.splitlines() != want:
            return "validate text differs from the computed witnesses"
        return None
    return check


def _check_rejected(rc, stdout):
    if rc != 64:
        return f"exit code {rc}, expected 64"
    if stdout:
        return "a rejected input produced stdout"
    return None


# -- workloads ------------------------------------------------------------------


def build(workload: str, seed: int, root: str, inputs_dir: str,
          expected: dict) -> list:
    """Write the workload's input files for ``seed`` into ``inputs_dir`` and
    return its invocations as dicts with ``name``, ``argv`` and ``check``
    (a function of exit code and stdout returning an error or None)."""
    rng = random.Random(f"{workload}:{seed}")
    invocations = []
    if workload == "scan":
        with open(os.path.join(inputs_dir, "s5.perm"), "w") as fh:
            fh.write(S5_PERM)
        g = rng.choice(primitive_roots(AFFINE_P))
        affine = ("construct-affine-61",
                  ["construct", f"affine orders={AFFINE_P} alpha={g}"])
        for name, argv in CLASS_SCAN + [affine] + ENUMERATE:
            pin = (expected["affine_construct"][str(g)] if name == affine[0]
                   else expected["fixed"][name])
            invocations.append({"name": name, "argv": argv,
                                "check": _check_sha(pin["rc"], pin["sha256"])})
    elif workload == "analyze":
        g = rng.choice(primitive_roots(AFFINE_P))
        tables = base_tables(root, g)
        for name in ANALYZED:
            table = tables[name]
            sigma = list(range(len(table)))
            rng.shuffle(sigma)
            table = relabel(table, sigma)
            if name == "golden-12":
                fname, text = f"{name}.perm", perm_text(table)
            else:
                fname, text = f"{name}.rtbl", rtbl_text(table)
            with open(os.path.join(inputs_dir, fname), "w") as fh:
                fh.write(text)
            pin = expected["analyze"][name]
            invocations.append({"name": f"analyze-{name}",
                                "argv": ["analyze", fname],
                                "check": _check_analyze(pin, as_json=False)})
            invocations.append({"name": f"analyze-json-{name}",
                                "argv": ["analyze", fname, "--json"],
                                "check": _check_analyze(pin, as_json=True)})
        # A class table with two entries of one row swapped: the row stays a
        # bijection, so every witness is an A1 failure (or A3 on the diagonal).
        table = tables["conj-6-6"]
        sigma = list(range(len(table)))
        rng.shuffle(sigma)
        table = relabel(table, sigma)
        row = rng.randrange(len(table))
        a, b = rng.sample(range(len(table)), 2)
        table[row][a], table[row][b] = table[row][b], table[row][a]
        with open(os.path.join(inputs_dir, "swapped.rtbl"), "w") as fh:
            fh.write(rtbl_text(table))
        verdict, witnesses = axiom_witnesses(table)
        for as_json in (False, True):
            argv = ["validate", "swapped.rtbl"] + (["--json"] if as_json else [])
            invocations.append({
                "name": "validate-json-swapped" if as_json else "validate-swapped",
                "argv": argv,
                "check": _check_validate(len(table), verdict, witnesses, as_json),
            })
        invocations.append({"name": "analyze-swapped",
                            "argv": ["analyze", "swapped.rtbl"],
                            "check": _check_rejected})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return invocations
