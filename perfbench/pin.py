#!/usr/bin/env python3
"""Regenerate ``expected.json``, the pinned outputs the benchmark checks.

Usage (from the repository root): ``python3 perfbench/pin.py``.

Runs the program once on the fixed inputs and on the unrelabeled seeded
inputs, with the pure backend, and records exit codes, stdout hashes and the
relabeling-invariant report fields.  The affine analyze input depends on the
seeded primitive root, so its invariants are computed for every primitive
root mod 61 and must agree.  Pins are taken from a commit whose outputs are
trusted; a change that alters them alters the program's results.
"""
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ["QUANDLEKIT_PURE"] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from child import run_one  # noqa: E402


def main() -> int:
    from quandlekit import cli

    work = os.path.join(ROOT, ".perfbench", f"pin-{os.getpid()}")
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with open("s5.perm", "w") as fh:
            fh.write(workloads.S5_PERM)
        expected = {"fixed": {}, "affine_construct": {}, "analyze": {}}
        for name, argv in workloads.FIXED:
            rc, out, _ = run_one(cli, argv)
            expected["fixed"][name] = {"rc": rc, "sha256": workloads.sha256(out)}
        roots = workloads.primitive_roots(workloads.AFFINE_P)
        for g in roots:
            rc, out, _ = run_one(
                cli, ["construct", f"affine orders={workloads.AFFINE_P} alpha={g}"])
            expected["affine_construct"][str(g)] = {
                "rc": rc, "sha256": workloads.sha256(out)}
        for g in roots:
            tables = workloads.base_tables(ROOT, g)
            names = workloads.ANALYZED if g == roots[0] else ("affine-61",)
            for name in names:
                with open("input.rtbl", "w") as fh:
                    fh.write(workloads.rtbl_text(tables[name]))
                rc, text, _ = run_one(cli, ["analyze", "input.rtbl"])
                rc_json, js, _ = run_one(cli, ["analyze", "input.rtbl", "--json"])
                pin = {"rc": rc,
                       "text": workloads.analyze_text_invariants(text),
                       "json": workloads.analyze_json_invariants(json.loads(js))}
                if rc_json != rc:
                    raise SystemExit(f"{name}: text and JSON exit codes differ")
                if name in expected["analyze"] and expected["analyze"][name] != pin:
                    raise SystemExit(f"{name}: invariants depend on the root {g}")
                expected["analyze"][name] = pin
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
