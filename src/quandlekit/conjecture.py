"""Profile-divisibility verdicts and their group-theoretic evidence.

The central question: in the profile of a finite connected rack, does every
cycle length divide the largest one (Hayashi's conjecture)?  Three proved
special cases act as harnesses here -- a primitive inner action forces the
divisibility, and so does being a connected conjugacy class of a symmetric
or of an alternating group.  Each case is enforced in one function of this
module (:func:`primitive_divisibility_check` and :func:`_class_case`): a
computed violation aborts with :class:`TheoremViolation` (it can only be an
implementation bug), while a violation outside them would be a genuine
counterexample candidate and is reported as data.

CLI exit codes derive from these outcomes:

  0  all checks pass
  1  counterexample candidate (connected rack failing the divisibility)
  2  theorem falsification (bug; never a discovery)
  3  resource cap exceeded
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import NotConnected, TheoremViolation
from .perm import DEFAULT_CAP
from .racktable import RackTable
from . import analysis
from . import constructors
from .analysis import Profile


class HayashiVerdict(NamedTuple):
    """Divisibility outcome for one profile: ``violations`` lists the
    (length, largest) pairs where the length does not divide the largest."""
    holds: bool
    violations: tuple

    def __str__(self):
        if self.holds:
            return "holds"
        pairs = ", ".join(f"{a} does not divide {b}" for a, b in self.violations)
        return f"fails ({pairs})"


def hayashi_check(p) -> HayashiVerdict:
    """Check every profile length against the largest.  Accepts a Profile
    or a CycleType; racks (least length > 1) use the same rule."""
    cycle_type = p.cycle_type if isinstance(p, Profile) else p
    largest = cycle_type.largest
    violations = tuple(
        (l, largest) for l in cycle_type.lengths if largest % l
    )
    return HayashiVerdict(not violations, violations)


class IntersectionEvidence(NamedTuple):
    """For a fixed base point x: the order of F = ⟨φ_x⟩ and, for every
    point y, the order of F ∩ φ_y H φ_y⁻¹, H the centralizer of F in the
    inner group.  As φ_y⁻¹ φ_x^k φ_y lies in H iff φ_x^k commutes with
    φ_y φ_x φ_y⁻¹ = φ_z, z = y ▷ x, iff row φ_x^k(z) equals row z, that
    order is |F| / m for the least such m > 0.  A ``trivial_witness`` is a
    y whose intersection is just the identity; its existence forces the
    divisibility verdict (and is forced by it on faithful racks)."""
    base_x: int
    F_order: int
    witnesses: tuple  # (y, intersection_order) for every y
    trivial_witness: Optional[int]


def intersection_evidence(X: RackTable, x: int,
                          cap: int = DEFAULT_CAP) -> IntersectionEvidence:
    """The evidence at base point ``x``, from table lookups.  ``cap``
    bounds the order of the inner group, found once per table by
    :func:`analysis.inner_order`."""
    if not analysis.is_connected(X):
        raise NotConnected("intersection evidence concerns connected racks")
    X._check_points(x)
    analysis.inner_order(X, cap)
    F_order = X.phi(x).order()
    witnesses = []
    for y, row in enumerate(X.table):
        m = analysis._fiber_orbit_length(X, x, row[x])
        if F_order % m:
            raise TheoremViolation(
                f"fiber orbit length {m} does not divide |F| = {F_order}")
        witnesses.append((y, F_order // m))
    trivial = next((y for y, order in witnesses if order == 1), None)
    return IntersectionEvidence(x, F_order, tuple(witnesses), trivial)


class CrosscheckResult(NamedTuple):
    """The two implications, evaluated literally over every base point:
    ``forward_ok`` -- a trivial witness forces the divisibility verdict;
    ``converse_ok`` -- on faithful racks the verdict forces a witness
    (None when the rack is not faithful, as the hypothesis is absent)."""
    forward_ok: bool
    converse_ok: Optional[bool]


def divisibility_crosscheck(X: RackTable,
                            cap: int = DEFAULT_CAP) -> CrosscheckResult:
    verdict = hayashi_check(analysis.profile(X))
    faithful = analysis.is_faithful(X)
    witnessed = [intersection_evidence(X, x, cap).trivial_witness is not None
                 for x in range(X.n)]
    forward_ok = verdict.holds or not any(witnessed)
    converse_ok = (not verdict.holds or all(witnessed)) if faithful else None
    return CrosscheckResult(forward_ok, converse_ok)


class PrimitiveCheckResult(NamedTuple):
    primitive: bool
    hayashi: Optional[HayashiVerdict]  # None when the hypothesis is not met
    witness_blocks: Optional[tuple] = None  # cells, when imprimitive

    @property
    def vacuous(self) -> bool:
        return not self.primitive


def primitive_divisibility_check(X: RackTable) -> PrimitiveCheckResult:
    """If the inner action is primitive, the divisibility verdict must hold;
    a computed failure falsifies a proved statement and raises.  Reports,
    enumerations and direct calls all reach the primitive case here."""
    report = analysis.inner_action_primitivity(X)
    if not report.primitive:
        return PrimitiveCheckResult(False, None, report.witness_blocks)
    verdict = hayashi_check(analysis.profile(X))
    if not verdict.holds:
        raise TheoremViolation(
            "primitive connected rack failing profile divisibility: "
            f"{analysis.profile(X)}")
    return PrimitiveCheckResult(True, verdict)


def symmetric_class_divisibility_check(d: int,
                                       bound: int = constructors.CLASS_SCAN_BOUND,
                                       cap: int = DEFAULT_CAP) -> list:
    """Scan the symmetric-group classes of degree d and assert the
    divisibility verdict on every connected one."""
    records = constructors.symmetric_class_scan(d, bound=bound, cap=cap)
    return _class_case(records, "symmetric", d)


def alternating_class_divisibility_check(d: int,
                                         bound: int = constructors.CLASS_SCAN_BOUND,
                                         cap: int = DEFAULT_CAP) -> list:
    """Scan the alternating-group classes of degree d (split halves
    separately) and assert the divisibility verdict on every connected one."""
    records = constructors.alternating_class_scan(d, bound=bound, cap=cap)
    return _class_case(records, "alternating", d)


def _class_case(records: list, group: str, d: int) -> list:
    for rec in records:
        if rec.connected and not rec.hayashi.holds:
            raise TheoremViolation(
                f"connected {group}-group class {rec.parts} of degree {d} "
                f"fails divisibility: {rec.hayashi}")
    return records


# -- aggregated report -----------------------------------------------------------


class LambdaPartCheck(NamedTuple):
    """Occurrence counts in the length-k translation-part multiset: uniform
    iff every point occurs ``expected`` times."""
    k: int
    expected: int
    uniform: bool


class AnalysisReport(NamedTuple):
    """Aggregated verdicts for one rack, with stable field order; analyses
    whose prerequisites fail are recorded in ``skipped``."""
    n: int
    kind: str
    connected: bool
    faithful: bool
    fiber_size: Optional[int]
    profile: Optional[Profile]
    least_length_above_one: Optional[bool]
    primitive: Optional[bool]
    block_witness: Optional[tuple]
    hayashi: Optional[HayashiVerdict]
    evidence: Optional[IntersectionEvidence]
    lambda_parts: Optional[tuple]
    k_tilde: Optional[tuple]
    skipped: tuple  # (analysis name, reason) pairs

    def to_json_dict(self) -> dict:
        blocks = None
        if self.block_witness is not None:
            blocks = [sorted(p + 1 for p in cell) for cell in self.block_witness]
        evidence = None
        if self.evidence is not None:
            evidence = {
                "base": self.evidence.base_x + 1,
                "cyclic_order": self.evidence.F_order,
                "intersection_orders": [
                    [y + 1, o] for y, o in self.evidence.witnesses
                ],
                "trivial_witness": (
                    None if self.evidence.trivial_witness is None
                    else self.evidence.trivial_witness + 1
                ),
            }
        lam = None
        if self.lambda_parts is not None:
            lam = [
                {"length": c.k, "count": c.expected, "uniform": c.uniform}
                for c in self.lambda_parts
            ]
        ktilde = None
        if self.k_tilde is not None:
            ktilde = [
                {
                    "k": d.k,
                    "cells": [sorted(p + 1 for p in cell) for cell in d.cells],
                    "partition": d.is_partition,
                    "block_system": d.is_block_system,
                }
                for d in self.k_tilde
            ]
        return {
            "n": self.n,
            "kind": self.kind,
            "connected": self.connected,
            "faithful": self.faithful,
            "fiber_size": self.fiber_size,
            "profile": None if self.profile is None else str(self.profile),
            "least_length_above_one": self.least_length_above_one,
            "primitive": self.primitive,
            "block_witness": blocks,
            "hayashi": None if self.hayashi is None else str(self.hayashi),
            "evidence": evidence,
            "lambda_parts": lam,
            "k_tilde": ktilde,
            "skipped": {name: reason for name, reason in self.skipped},
        }

    def to_text(self) -> str:
        """The text report, rendered from :meth:`to_json_dict`."""
        d = self.to_json_dict()
        skipped = d["skipped"]

        def line(label, key):
            if key in skipped:
                return f"{label}: n/a ({skipped[key]})"
            return f"{label}: {d[key]}"

        fiber = d["fiber_size"]
        out = [
            f"n: {d['n']}",
            f"kind: {d['kind']}",
            f"connected: {'yes' if d['connected'] else 'no'}",
            f"faithful: {'yes' if d['faithful'] else 'no'}",
            f"fiber size: {fiber if fiber is not None else 'non-uniform'}",
            line("profile", "profile"),
        ]
        if d["least_length_above_one"]:
            out.append("note: rack profile with least length above 1")
        if "primitive" in skipped:
            out.append(line("primitive", "primitive"))
        else:
            out.append(f"primitive: {'yes' if d['primitive'] else 'no'}")
            if d["block_witness"] is not None:
                cells = " ".join("{" + ",".join(map(str, cell)) + "}"
                                 for cell in d["block_witness"])
                out.append(f"block witness: {cells}")
        out.append(line("hayashi", "hayashi"))
        label = "trivial-intersection witness"
        evidence = d["evidence"]
        if evidence is not None:
            w = evidence["trivial_witness"]
            out.append(f"{label}: "
                       + (f"element {w}" if w is not None else "none")
                       + f" (cyclic order {evidence['cyclic_order']})")
        elif "evidence" in skipped:
            out.append(line(label, "evidence"))
        for c in d["lambda_parts"] or ():
            out.append(f"length-{c['length']} part: each point {c['count']}x, "
                       f"uniform: {'yes' if c['uniform'] else 'NO'}")
        for c in d["k_tilde"] or ():
            if not c["partition"]:
                out.append(f"k~={c['k']}: parts do not partition the points")
            else:
                out.append(f"k~={c['k']}: partition into {len(c['cells'])} "
                           "cells, block system: "
                           + ("yes" if c["block_system"] else "no"))
        return "\n".join(out) + "\n"


def full_report(X: RackTable, cap: int = DEFAULT_CAP) -> AnalysisReport:
    """Aggregate every analysis that applies to the rack; prerequisites that
    fail are recorded as skips, harness violations raise."""
    X._require_rack()
    connected = analysis.is_connected(X)
    faithful = analysis.is_faithful(X)
    fib = analysis.fibers(X)
    skipped = []
    prof = None
    least_above_one = None
    verdict = None
    primitive = None
    witness_blocks = None
    evidence = None
    lambda_parts = None
    k_tilde = None
    if connected:
        prof = analysis.profile(X)
        least_above_one = prof.lengths[0] > 1
        verdict = hayashi_check(prof)
        prim = primitive_divisibility_check(X)
        primitive = prim.primitive
        witness_blocks = prim.witness_blocks
        evidence = intersection_evidence(X, 0, cap=cap)
        lambda_parts = []
        for k in prof.lengths:
            expected = analysis.expected_lambda_part_count(X, k)
            counts = analysis.lambda_part(X, k)
            uniform = all(counts[p] == expected for p in range(X.n))
            lambda_parts.append(LambdaPartCheck(k, expected, uniform))
        lambda_parts = tuple(lambda_parts)
        k_tilde = tuple(analysis.k_tilde_block_diagnostic(X))
    else:
        reason = "rack is not connected"
        skipped = [
            ("profile", reason),
            ("hayashi", reason),
            ("primitive", reason),
            ("evidence", reason),
            ("lambda_parts", reason),
            ("k_tilde", reason),
        ]
    return AnalysisReport(
        n=X.n,
        kind=X.kind,
        connected=connected,
        faithful=faithful,
        fiber_size=fib.f,
        profile=prof,
        least_length_above_one=least_above_one,
        primitive=primitive,
        block_witness=witness_blocks,
        hayashi=verdict,
        evidence=evidence,
        lambda_parts=lambda_parts,
        k_tilde=k_tilde,
        skipped=tuple(skipped),
    )

