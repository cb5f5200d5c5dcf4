"""Divisibility verdicts, intersection evidence, harness checks, reports."""
import importlib.util
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from quandlekit import (
    CycleType,
    NotConnected,
    Permutation,
    TheoremViolation,
    affine_quandle,
    alternating_class_divisibility_check,
    conjugacy_class_quandle,
    dihedral_quandle,
    divisibility_crosscheck,
    enumerate_connected_quandles,
    full_report,
    hayashi_check,
    inner_group,
    intersection_evidence,
    is_faithful,
    make_affine_spec,
    primitive_divisibility_check,
    profile,
    symmetric_class_divisibility_check,
    symmetric_group,
    trivial_quandle,
)
from quandlekit.analysis import inner_action_primitivity


# -- the divisibility rule ----------------------------------------------------


def test_golden_profile_passes(golden):
    verdict = hayashi_check(profile(golden))
    assert verdict.holds
    assert verdict.violations == ()


def test_single_part_profile_passes():
    assert hayashi_check(CycleType([(1, 1)])).holds


def test_three_does_not_divide_four():
    verdict = hayashi_check(CycleType([(1, 1), (2, 1), (3, 1), (4, 1)]))
    assert not verdict.holds
    assert verdict.violations == ((3, 4),)


def test_rack_profiles_use_the_same_rule():
    assert hayashi_check(CycleType([(2, 1), (4, 1)])).holds
    assert not hayashi_check(CycleType([(2, 1), (3, 1)])).holds


# -- intersection evidence ------------------------------------------------------


def test_one_element_quandle_evidence():
    ev = intersection_evidence(trivial_quandle(1), 0)
    assert ev.F_order == 1
    assert ev.trivial_witness == 0


def test_golden_evidence(golden):
    ev = intersection_evidence(golden, 0)
    assert ev.F_order == 6
    assert ev.trivial_witness is not None
    # recorded from the independent fixture run: witnesses at 6,7,8,10,11,12
    trivial_points = {y for y, order in ev.witnesses if order == 1}
    assert trivial_points == {5, 6, 7, 9, 10, 11}
    assert ev.witnesses[0] == (0, 6)  # the base centralizes itself


def test_dihedral_3_evidence():
    ev = intersection_evidence(dihedral_quandle(3), 0)
    assert ev.F_order == 2
    assert ev.trivial_witness is not None


def test_intersection_orders_divide_the_cyclic_order(catalog):
    for name, X in catalog:
        if X.n > 16:
            continue
        ev = intersection_evidence(X, 0)
        for _, order in ev.witnesses:
            assert ev.F_order % order == 0, name


def test_evidence_requires_connectedness():
    with pytest.raises(NotConnected):
        intersection_evidence(trivial_quandle(2), 0)


# -- the two implications ----------------------------------------------------------


def test_golden_crosscheck(golden):
    result = divisibility_crosscheck(golden)
    assert result.forward_ok
    assert result.converse_ok


def test_crosscheck_over_catalog(catalog):
    for name, X in catalog:
        if X.n > 16:
            continue
        result = divisibility_crosscheck(X)
        assert result.forward_ok, name
        if is_faithful(X):
            assert result.converse_ok, name
        else:
            assert result.converse_ok is None, name


def test_crosscheck_closes_the_inner_group_once(monkeypatch):
    from quandlekit import analysis, smallquandle_12_4

    # a fresh table: the inner order is kept on the table once found
    golden = smallquandle_12_4()
    groups = []

    def counting_inner_group(X, cap):
        groups.append(inner_group(X, cap=cap))
        return groups[-1]

    monkeypatch.setattr(analysis, "inner_group", counting_inner_group)
    result = divisibility_crosscheck(golden)
    assert (result.forward_ok, result.converse_ok) == (True, True)
    assert len(groups) == 1
    monkeypatch.undo()
    for x in range(golden.n):
        assert (intersection_evidence(golden, x)
                == intersection_evidence(smallquandle_12_4(), x))


def test_largest_length_is_translation_order_when_divisibility_holds(catalog):
    for name, X in catalog:
        p = profile(X)
        if hayashi_check(p).holds:
            assert p.largest == X.phi(0).order(), name


# -- harness checks -------------------------------------------------------------------


def test_primitive_check_vacuous_on_golden(golden):
    result = primitive_divisibility_check(golden)
    assert not result.primitive
    assert result.vacuous
    assert result.hayashi is None


def test_primitive_check_on_dihedral_3():
    result = primitive_divisibility_check(dihedral_quandle(3))
    assert result.primitive
    assert result.hayashi.holds


def test_primitive_check_over_enumerated_quandles():
    for n in range(1, 7):
        for X in enumerate_connected_quandles(n):
            result = primitive_divisibility_check(X)
            if result.primitive:
                assert result.hayashi.holds


def test_symmetric_check_small_degrees():
    for d, expected_connected in ((3, 1), (4, 2), (5, 5)):
        records = symmetric_class_divisibility_check(d)
        assert sum(1 for r in records if r.connected) == expected_connected


# -- full reports ----------------------------------------------------------------------


def test_golden_report_contents(golden):
    rep = full_report(golden)
    assert rep.n == 12
    assert rep.kind == "quandle"
    assert rep.connected and rep.faithful
    assert rep.fiber_size == 1
    assert str(rep.profile) == "1^1 2^1 3^1 6^1"
    assert rep.primitive is False
    assert rep.hayashi.holds
    assert rep.evidence.trivial_witness is not None
    assert rep.least_length_above_one is False
    assert {tuple(sorted(c)) for c in rep.block_witness} == {
        (0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)}
    assert all(c.uniform for c in rep.lambda_parts)
    assert all(d.is_block_system for d in rep.k_tilde)
    assert rep.skipped == ()


def test_disconnected_report_skips_profile():
    rep = full_report(trivial_quandle(2))
    assert not rep.connected
    assert rep.profile is None
    skipped = dict(rep.skipped)
    assert "profile" in skipped and "hayashi" in skipped
    text = rep.to_text()
    assert "connected: no" in text
    assert "profile: n/a" in text


def test_rack_report_flags_least_length(golden):
    from quandlekit import cyclic_permutation_rack

    rep = full_report(cyclic_permutation_rack(3))
    assert rep.least_length_above_one is True
    assert "least length above 1" in rep.to_text()


def test_report_json_shape(golden):
    payload = full_report(golden).to_json_dict()
    assert list(payload) == [
        "n", "kind", "connected", "faithful", "fiber_size", "profile",
        "least_length_above_one", "primitive", "block_witness", "hayashi",
        "evidence", "lambda_parts", "k_tilde", "skipped",
    ]
    assert payload["profile"] == "1^1 2^1 3^1 6^1"
    assert payload["evidence"]["cyclic_order"] == 6
    assert payload["block_witness"] == [
        [1, 5, 9], [2, 6, 10], [3, 7, 11], [4, 8, 12]]


def test_affine_report(golden):
    from quandlekit import affine_quandle, make_affine_spec

    rep = full_report(affine_quandle(make_affine_spec([5], 2)).rack)
    assert rep.connected
    assert str(rep.profile) == "1^1 4^1"
    assert rep.hayashi.holds


def test_full_report_derives_each_cycle_type_once(monkeypatch):
    from quandlekit import smallquandle_12_4

    built = []
    from_lengths = CycleType.from_lengths.__func__

    def counting(cls, lengths):
        built.append(1)
        return from_lengths(cls, lengths)

    monkeypatch.setattr(CycleType, "from_lengths", classmethod(counting))
    X = smallquandle_12_4()
    full_report(X)
    assert len(built) == X.n


def _analyze_json_invariants():
    """The benchmark's list of the report fields that survive relabeling,
    loaded from ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.analyze_json_invariants


@pytest.mark.parametrize("name", ["golden-12", "conj-6-6", "affine-61"])
def test_full_report_invariants_survive_relabeling(golden, name):
    X = {
        "golden-12": lambda: golden,
        "conj-6-6": lambda: conjugacy_class_quandle(
            symmetric_group(6), Permutation.from_cycles(6, [list(range(6))])).rack,
        "affine-61": lambda: affine_quandle(make_affine_spec([61], 2)).rack,
    }[name]()
    invariants = _analyze_json_invariants()
    expected = invariants(full_report(X).to_json_dict())
    checked = set()

    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(st.permutations(range(X.n)))
    def relabeling_keeps_the_invariants(images):
        Y = X.relabel(Permutation(images))
        assume(Y.table != X.table)
        assert invariants(full_report(Y).to_json_dict()) == expected
        checked.add(tuple(images))

    relabeling_keeps_the_invariants()
    assert len(checked) >= 3


def test_alternating_check_small_degrees():
    for d, expected_connected in ((3, 2), (4, 2), (5, 4)):
        records = alternating_class_divisibility_check(d)
        assert sum(1 for r in records if r.connected) == expected_connected


def test_theorem_violation_is_a_distinct_error():
    assert issubclass(TheoremViolation, Exception)
    with pytest.raises(NotConnected):
        inner_action_primitivity(trivial_quandle(2))
