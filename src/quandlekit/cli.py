"""Batch command-line front end.

Subcommands: ``validate``, ``analyze``, ``construct``, ``scan``.  Output is
1-based and byte-deterministic for identical invocations.  Exit codes:

  0   all checks pass
  1   counterexample candidate found (a connected rack whose profile fails
      the divisibility rule outside any proved case)
  2   theorem falsification (an implementation bug; full stop)
  3   resource cap exceeded
  64  usage or input errors (bad flags, malformed files or specs)
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import constructors
from .analysis import profile
from .conjecture import (
    alternating_class_divisibility_check,
    full_report,
    hayashi_check,
    primitive_divisibility_check,
    symmetric_class_divisibility_check,
)
from .errors import (
    BoundExceeded,
    CapExceeded,
    ParseError,
    QuandlekitError,
    TheoremViolation,
)
from .perm import DEFAULT_CAP, Permutation, canonical_of_cycle_type
from .racktable import RackTable, emit_rtbl, parse_rack_file

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_THEOREM = 2
EXIT_CAP = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quandlekit",
        description="Finite racks and quandles: validation, analysis, "
                    "construction, and divisibility scans.",
    )
    parser.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                        help="group materialization cap (default %(default)s)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[], help="check a table file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="full structural report")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build a rack from a spec string")
    p.add_argument("spec", help='e.g. "conj d=4 type=2,2", '
                                '"affine orders=5 alpha=2", '
                                '"homog group=g.perm sub=1,2 alpha=conj:(1,2)"')

    p = sub.add_parser("scan", help="class scans and enumeration sweeps")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sym", type=_positive_int, metavar="D",
                      help="symmetric-group classes of degree D")
    mode.add_argument("--alt", type=_positive_int, metavar="D",
                      help="alternating-group classes of degree D")
    mode.add_argument("--enumerate", type=_positive_int, metavar="N", dest="enumerate_n",
                      help="connected quandles with N elements")
    p.add_argument("--racks", action="store_true",
                   help="with --enumerate: include non-quandle racks")
    p.add_argument("--bound", type=_positive_int, default=None,
                   help="override the search/scan bound")
    p.add_argument("--json", action="store_true")
    return parser


def _emit(text: str, out_path: Optional[str]):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    """The text of an input file; an unreadable or undecodable file is
    malformed input."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not {exc.encoding} text "
                         f"({exc.reason} at byte {exc.start})") from None


def _read_rack(path: str) -> RackTable:
    return parse_rack_file(_read_text(path))


def _cmd_validate(args) -> int:
    rack = _read_rack(args.path)
    diag = rack.diagnosis
    if args.json:
        payload = {
            "n": rack.n,
            "verdict": diag.verdict,
            "witnesses": [
                {"axiom": w.axiom, "at": [p + 1 for p in w.at]}
                for w in diag.witnesses
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"{diag.verdict}, n={rack.n}"]
        lines.extend(w.describe() for w in diag.witnesses)
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    rack = _read_rack(args.path)
    if not rack.is_rack:
        bad = "; ".join(w.describe() for w in rack.diagnosis.witnesses[:4])
        print(f"quandlekit: input is not a rack: {bad}", file=sys.stderr)
        return EXIT_USAGE
    report = full_report(rack, cap=args.cap)
    if args.json:
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    else:
        _emit(report.to_text(), args.out)
    if report.hayashi is not None and not report.hayashi.holds:
        print("quandlekit: counterexample candidate (see report)",
              file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _parse_kv(spec: str):
    toks = spec.split()
    if not toks:
        raise ParseError("empty constructor spec")
    kind, pairs = toks[0], {}
    for tok in toks[1:]:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k in pairs:
            raise ParseError(f"{kind} spec repeats the key {k}")
        pairs[k] = v
    return kind, pairs


def _require_keys(kind, pairs, keys):
    missing = [k for k in keys if k not in pairs]
    extra = [k for k in pairs if k not in keys]
    if missing:
        raise ParseError(f"{kind} spec is missing {', '.join(missing)}")
    if extra:
        raise ParseError(f"{kind} spec has unknown keys {', '.join(extra)}")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


def _ints(text: str):
    """The integers of a comma-separated list; the empty text is the empty
    list, and an empty item is malformed."""
    if text == "":
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


def construct_from_spec(spec: str, cap: int = DEFAULT_CAP):
    """Build a rack from the constructor grammar; returns (rack, comment)."""
    kind, pairs = _parse_kv(spec)
    if kind == "conj":
        _require_keys(kind, pairs, ["d", "type"])
        d = _int(pairs["d"])
        if d < 1:
            raise ParseError(f"degree must be positive, got {d}")
        parts = tuple(sorted(_ints(pairs["type"]), reverse=True))
        if sum(parts) != d or any(p < 1 for p in parts):
            raise ParseError(f"type {pairs['type']!r} is not a partition of {d}")
        quandle = constructors.symmetric_class_quandle(d, parts, cap)
        rep = canonical_of_cycle_type(d, parts)
        comment = (f"conjugacy class quandle: degree {d}, "
                   f"type {','.join(map(str, parts))}, rep {rep.cycle_string()}")
        return quandle.rack, comment
    if kind == "affine":
        _require_keys(kind, pairs, ["orders", "alpha"])
        orders = _ints(pairs["orders"])
        alpha_txt = pairs["alpha"]
        alpha = (_int(alpha_txt) if "," not in alpha_txt
                 else _ints(alpha_txt))
        try:
            aspec = constructors.make_affine_spec(orders, alpha)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        result = constructors.affine_quandle(aspec)
        comment = (f"affine quandle: orders {','.join(map(str, orders))}, "
                   f"alpha {alpha_txt}; displacement bijective: "
                   f"{'yes' if result.beta_bijective else 'no'} "
                   f"(connected: {'yes' if result.beta_bijective else 'no'})")
        return result.rack, comment
    if kind == "homog":
        _require_keys(kind, pairs, ["group", "sub", "alpha"])
        from .perm import PermutationGroup
        from .racktable import parse_perm_file

        degree, gens = parse_perm_file(_read_text(pairs["group"]))
        group = PermutationGroup(degree, gens, cap=cap)
        sub_idx = _ints(pairs["sub"])
        for i in sub_idx:
            if not 1 <= i <= len(gens):
                raise ParseError(
                    f"sub index {i} out of range 1..{len(gens)}")
        subgens = [gens[i - 1] for i in sub_idx]
        alpha_txt = pairs["alpha"]
        if not alpha_txt.startswith("conj:"):
            raise ParseError("alpha must have the form conj:<cycles>")
        conjugator = Permutation.parse(alpha_txt[len("conj:"):], degree)
        if conjugator not in group:
            raise ParseError("alpha conjugator does not lie in the group")
        try:
            hspec = constructors.make_homogeneous_spec(
                group, subgens,
                {g: conjugator.conj(g) for g in group.elements()})
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        rack = constructors.homogeneous_quandle(hspec)
        comment = (f"homogeneous quandle: |G|={group.order()}, "
                   f"sub={pairs['sub']}, alpha={alpha_txt}")
        return rack, comment
    raise ParseError(f"unknown constructor {kind!r} "
                     "(expected conj, affine, or homog)")


def _cmd_construct(args) -> int:
    rack, comment = construct_from_spec(args.spec, cap=args.cap)
    _emit(emit_rtbl(rack, comment=comment), args.out)
    return EXIT_OK


def _scan_rows_sym_alt(records, alt: bool):
    rows = []
    for r in records:
        parts = ",".join(map(str, r.parts))
        if alt and r.split is not None:
            parts += f" (split {r.split})"
        row = {
            "type": parts,
            "size": r.class_size,
            "element_order": r.element_order,
            "connected": r.connected,
            "profile": None if r.profile is None else str(r.profile),
            "hayashi": None if r.hayashi is None else str(r.hayashi),
        }
        if alt:
            row["split_witness"] = r.split_witness_ok
        rows.append(row)
    return rows


def _cmd_scan(args) -> int:
    if args.racks and args.enumerate_n is None:
        raise ParseError("--racks needs --enumerate")
    bound = {} if args.bound is None else {"bound": args.bound}
    candidate = False
    if args.sym is not None:
        records = symmetric_class_divisibility_check(
            args.sym, cap=args.cap, **bound)
        rows = _scan_rows_sym_alt(records, alt=False)
        title = f"symmetric-group classes, degree {args.sym}"
    elif args.alt is not None:
        records = alternating_class_divisibility_check(
            args.alt, cap=args.cap, **bound)
        rows = _scan_rows_sym_alt(records, alt=True)
        title = f"alternating-group classes, degree {args.alt}"
        for r in records:
            if r.split_witness_ok is False:
                print(f"quandlekit: SPLIT-WITNESS-FAIL for type {r.parts}",
                      file=sys.stderr)
    else:
        n = args.enumerate_n
        if args.racks:
            racks = constructors.enumerate_connected_racks(
                n, cap=args.cap, **bound)
            title = f"connected racks with {n} elements"
        else:
            racks = constructors.enumerate_connected_quandles(
                n, cap=args.cap, **bound)
            title = f"connected quandles with {n} elements"
        rows = []
        for i, rack in enumerate(racks, start=1):
            prof = profile(rack)
            verdict = hayashi_check(prof)
            candidate = candidate or not verdict.holds
            rows.append({
                "index": i,
                "kind": rack.kind,
                "connected": True,
                "primitive": primitive_divisibility_check(rack).primitive,
                "profile": str(prof),
                "hayashi": str(verdict),
            })

    if args.json:
        payload = {"scan": title, "rows": rows,
                   "summary": {"count": len(rows)}}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [title]
        for row in rows:
            lines.append("  " + "  ".join(
                f"{k}={v}" for k, v in row.items()))
        lines.append(f"total: {len(rows)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_COUNTEREXAMPLE if candidate else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "scan":
            return _cmd_scan(args)
        raise AssertionError("unreachable")
    except ParseError as exc:
        print(f"quandlekit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BoundExceeded, CapExceeded) as exc:
        print(f"quandlekit: resource limit: {exc}", file=sys.stderr)
        return EXIT_CAP
    except TheoremViolation as exc:
        print(f"quandlekit: THEOREM FALSIFIED (implementation bug): {exc}",
              file=sys.stderr)
        return EXIT_THEOREM
    except QuandlekitError as exc:
        print(f"quandlekit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
