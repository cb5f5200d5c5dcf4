"""The result records: field order, defaults, immutability and repr, and an
import of the package that builds no record code through ``dataclasses``."""
import os
import subprocess
import sys

import pytest

import quandlekit
from quandlekit import analysis, conjecture, constructors, racktable

FIELDS = {
    racktable.AxiomWitness: ("axiom", "at"),
    racktable.AxiomDiagnosis: ("verdict", "witnesses"),
    racktable.IsoWitness: ("found", "bijection"),
    analysis.Profile: ("cycle_type",),
    analysis.FiberPartition: ("fibers", "f"),
    analysis.OrbitSizes: ("lam", "lam_bar"),
    analysis.PrimitivityReport: ("primitive", "witness_blocks"),
    analysis.KTildeDiagnostic: ("k", "cells", "is_partition",
                                "is_block_system"),
    constructors.ClassQuandle: ("rack", "labels", "ambient_degree"),
    constructors.HomogeneousSpec: ("group", "subgroup_generators", "alpha"),
    constructors.AffineSpec: ("orders", "alpha"),
    constructors.AffineResult: ("rack", "beta_bijective"),
    conjecture.HayashiVerdict: ("holds", "violations"),
    conjecture.IntersectionEvidence: ("base_x", "F_order", "witnesses",
                                      "trivial_witness"),
    conjecture.CrosscheckResult: ("forward_ok", "converse_ok"),
    conjecture.PrimitiveCheckResult: ("primitive", "hayashi",
                                      "witness_blocks"),
    conjecture.ClassScanRecord: ("parts", "class_size", "element_order",
                                 "connected", "profile", "hayashi", "split",
                                 "split_witness_ok"),
    conjecture.LambdaPartCheck: ("k", "expected", "uniform"),
    conjecture.AnalysisReport: ("n", "kind", "connected", "faithful",
                                "fiber_size", "profile",
                                "least_length_above_one", "primitive",
                                "block_witness", "hayashi", "evidence",
                                "lambda_parts", "k_tilde", "skipped"),
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda r: r.__name__)
def test_field_order(record):
    assert record._fields == FIELDS[record]


def test_defaults():
    assert racktable.IsoWitness(False).bijection is None
    rec = conjecture.ClassScanRecord((2, 1), 3, 2, True, None, None)
    assert rec.split is None and rec.split_witness_ok is None
    assert conjecture.PrimitiveCheckResult(False, None).witness_blocks is None


def test_fields_cannot_be_assigned():
    verdict = conjecture.HayashiVerdict(True, ())
    with pytest.raises(AttributeError):
        verdict.holds = False


def test_repr(golden):
    verdict = conjecture.hayashi_check(analysis.profile(golden))
    assert repr(verdict) == "HayashiVerdict(holds=True, violations=())"
    assert (repr(racktable.AxiomWitness("A1", (0, 1, 2)))
            == "AxiomWitness(axiom='A1', at=(0, 1, 2))")
    assert repr(conjecture.intersection_evidence(golden, 0)) == (
        "IntersectionEvidence(base_x=0, F_order=6, witnesses=((0, 6), (1, 2), "
        "(2, 2), (3, 2), (4, 3), (5, 1), (6, 1), (7, 1), (8, 3), (9, 1), "
        "(10, 1), (11, 1)), trivial_witness=5)")
    assert repr(conjecture.alternating_class_scan(4)[0]) == (
        "ClassScanRecord(parts=(3, 1), class_size=4, element_order=3, "
        "connected=True, profile=Profile(cycle_type=CycleType(1^1 3^1)), "
        "hayashi=HayashiVerdict(holds=True, violations=()), split='a', "
        "split_witness_ok=True)")


def test_methods_and_properties(golden):
    prof = analysis.profile(golden)
    assert str(prof) == "1^1 2^1 3^1 6^1"
    assert prof.lengths == (1, 2, 3, 6) and prof.largest == 6
    a1 = racktable.AxiomWitness("A1", (0, 1, 2))
    a3 = racktable.AxiomWitness("A3", (1,))
    diag = racktable.AxiomDiagnosis("not-a-rack", (a1, a3))
    assert diag.witnesses_for("A3") == [a3]
    assert not diag.is_rack and not diag.is_quandle
    assert constructors.make_affine_spec([3, 5], 2).size == 15


def test_records_are_tuples():
    verdict = conjecture.HayashiVerdict(False, ((2, 3),))
    holds, violations = verdict
    assert (holds, violations) == (False, ((2, 3),))
    assert verdict == (False, ((2, 3),)) and verdict[1] == ((2, 3),)
    assert str(verdict) == "fails (2 does not divide 3)"


def test_import_leaves_out_dataclasses_and_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(quandlekit.__file__)))
    code = ("import sys, quandlekit, quandlekit.cli; "
            "quandlekit.smallquandle_12_4(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    # -S: no site hooks, so only the package's own imports are seen
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=60)
    assert proc.stdout == "[]\n"
