"""Inner group, connectedness, fibers, profiles, parts, orbit divisibility,
primitivity, and the center/quotient checks."""
from collections import Counter

import pytest

from quandlekit import (
    NotConnected,
    Permutation,
    PermutationGroup,
    TheoremViolation,
    center_check,
    conjugacy_class_quandle,
    conjugation_rack_quotient_check,
    cyclic_permutation_rack,
    dihedral_quandle,
    fibers,
    fingerprint,
    inner_action_primitivity,
    inner_group,
    is_connected,
    is_faithful,
    is_isomorphic,
    k_tilde_block_diagnostic,
    lambda_part,
    orbit_divisibility,
    profile,
    symmetric_group,
    trivial_quandle,
)
from quandlekit.analysis import expected_lambda_part_count
from quandlekit.constructors import rack_from_conjugation_closed

from oracle_utils import brute_block_partitions


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, [[p - 1 for p in c] for c in cycles])


# -- inner group -------------------------------------------------------------


def test_inner_group_of_trivial_quandle_is_trivial():
    assert inner_group(trivial_quandle(4)).order() == 1


def test_inner_group_of_dihedral_3():
    # the three reflections generate all six symmetries of the triangle
    G = inner_group(dihedral_quandle(3))
    assert G.order() == 6


def test_golden_inner_group(golden):
    G = inner_group(golden)
    assert G.degree == 12
    assert G.is_transitive()
    assert G.order() == 72


# -- connectedness ------------------------------------------------------------------


def test_rack_orbits_match_inner_group_orbits(catalog):
    extra = [("trivial-4", trivial_quandle(4)),
             ("s4-double-transpositions", conjugacy_class_quandle(
                 symmetric_group(4), cyc(4, (1, 2), (3, 4))).rack),
             ("s4-three-cycles", conjugacy_class_quandle(
                 symmetric_group(4), cyc(4, (1, 2, 3))).rack)]
    for name, X in catalog + extra:
        assert X.inner_orbit_partition() == inner_group(X).orbits(), name


def test_trivial_quandle_is_not_connected():
    assert not is_connected(trivial_quandle(2))


def test_golden_is_connected(golden):
    assert is_connected(golden)


def test_three_cycle_class_of_s3_is_not_connected():
    q = conjugacy_class_quandle(symmetric_group(3), cyc(3, (1, 2, 3)))
    assert not is_connected(q.rack)


# -- fibers and faithfulness ----------------------------------------------------------


def test_golden_is_faithful_with_singleton_fibers(golden):
    fp = fibers(golden)
    assert is_faithful(golden)
    assert fp.f == 1
    assert len(fp.fibers) == 12


def test_trivial_quandle_has_one_big_fiber():
    fp = fibers(trivial_quandle(4))
    assert fp.f == 4
    assert len(fp.fibers) == 1
    assert not is_faithful(trivial_quandle(4))


def test_connected_catalog_has_uniform_fibers(catalog):
    for name, X in catalog:
        fp = fibers(X)
        assert fp.uniform, name
        # the image of the translation map has n/f distinct permutations
        assert len(X.distinct_translations()) == X.n // fp.f, name


def test_fiber_partition_is_a_block_system_when_connected(catalog):
    for name, X in catalog:
        G = inner_group(X)
        assert G.is_block(fibers(X).fibers), name


# -- profile ------------------------------------------------------------------------


def test_golden_profile(golden):
    assert str(profile(golden)) == "1^1 2^1 3^1 6^1"


def test_one_element_quandle_profile():
    assert str(profile(trivial_quandle(1))) == "1^1"


def test_dihedral_3_profile():
    assert str(profile(dihedral_quandle(3))) == "1^1 2^1"


def test_profile_requires_connectedness():
    with pytest.raises(NotConnected):
        profile(trivial_quandle(2))
    # non-connected racks still expose their per-element types
    types = trivial_quandle(2).cycle_types()
    assert [str(t) for t in types] == ["1^2", "1^2"]


def test_quandle_profiles_start_at_one(connected_quandle_catalog):
    for name, X in connected_quandle_catalog:
        assert profile(X).lengths[0] == 1, name


def test_rack_profile_can_start_above_one():
    assert profile(cyclic_permutation_rack(4)).lengths == (4,)


# -- translation parts -------------------------------------------------------------


def test_golden_two_part_multiset(golden):
    # the multiset of points on 2-cycles across the twelve translations
    listed = [5, 9, 6, 10, 7, 11, 8, 12, 1, 9, 2, 10, 3, 11, 4, 12, 1, 5, 2,
              6, 3, 7, 4, 8]
    expected = Counter(p - 1 for p in listed)
    assert lambda_part(golden, 2) == expected
    assert expected_lambda_part_count(golden, 2) == 2


def test_one_element_quandle_part():
    counts = lambda_part(trivial_quandle(1), 1)
    assert counts == Counter({0: 1})


def test_part_length_must_occur_in_profile(golden):
    with pytest.raises(ValueError):
        lambda_part(golden, 4)


def test_part_counts_are_uniform_over_catalog(catalog):
    for name, X in catalog:
        p = profile(X)
        f = fibers(X).f
        for (k, mult) in p.cycle_type.parts:
            counts = lambda_part(X, k)
            expected = mult * k // f
            assert expected_lambda_part_count(X, k) == expected, name
            assert all(counts[pt] == expected for pt in range(X.n)), name


# -- orbit divisibility -----------------------------------------------------------


def test_orbit_sizes_at_own_point(golden):
    sizes = orbit_divisibility(golden, 3, 3)
    assert sizes.lam == 1
    assert sizes.lam_bar == 1


def test_golden_orbit_sizes(golden):
    assert orbit_divisibility(golden, 0, 5).lam == 6     # point 6 on the 6-cycle
    sizes = orbit_divisibility(golden, 0, 4)             # point 5 on the 2-cycle
    assert sizes.lam == 2
    assert sizes.lam_bar in (1, 2)


def test_divisibility_over_catalog(catalog):
    for name, X in catalog:
        for x in range(X.n):
            for y in range(X.n):
                sizes = orbit_divisibility(X, x, y)
                assert sizes.lam % sizes.lam_bar == 0, name


# -- primitivity -------------------------------------------------------------------


def test_golden_imprimitivity_witness(golden):
    report = inner_action_primitivity(golden)
    assert not report.primitive
    assert set(report.witness_blocks) == {
        frozenset({0, 4, 8}),
        frozenset({1, 5, 9}),
        frozenset({2, 6, 10}),
        frozenset({3, 7, 11}),
    }


def test_dihedral_3_is_primitive():
    assert inner_action_primitivity(dihedral_quandle(3)).primitive


def test_primitivity_requires_connectedness():
    with pytest.raises(NotConnected):
        inner_action_primitivity(trivial_quandle(3))


def test_transposition_class_of_s4_matches_brute_force():
    q = conjugacy_class_quandle(symmetric_group(4), cyc(4, (1, 2)))
    G = inner_group(q.rack)
    systems = brute_block_partitions(G)
    nontrivial = [s for s in systems if 1 < len(s) < q.rack.n]
    report = inner_action_primitivity(q.rack)
    assert report.primitive == (not nontrivial)
    if report.witness_blocks is not None:
        assert G.is_block(report.witness_blocks)


def test_primitivity_matches_brute_force_on_small_catalog(catalog):
    for name, X in catalog:
        if X.n > 8:
            continue
        G = inner_group(X)
        nontrivial = [
            s for s in brute_block_partitions(G) if 1 < len(s) < X.n
        ]
        assert inner_action_primitivity(X).primitive == (not nontrivial), name


# -- conjugation covariance ---------------------------------------------------------


def test_conjugation_covariance_on_generators(catalog):
    # sigma . phi(x) . sigma^-1 == phi(sigma(x)) for every translation
    for name, X in catalog:
        for sigma in X.distinct_translations():
            for x in range(X.n):
                assert sigma.conj(X.phi(x)) == X.phi(sigma(x)), name


# -- center and quotient checks -----------------------------------------------------


def test_golden_center_is_trivial(golden):
    assert center_check(golden)


def test_center_check_requires_faithfulness():
    with pytest.raises(ValueError):
        center_check(trivial_quandle(3))


def test_dihedral_3_center_is_trivial():
    assert center_check(dihedral_quandle(3))


def test_faithful_catalog_has_trivial_inner_center(catalog):
    for name, X in catalog:
        if is_faithful(X):
            assert center_check(X), name


def test_faithful_rack_is_isomorphic_to_its_translation_rack(catalog):
    for name, X in catalog:
        if not is_faithful(X) or X.n > 12:
            continue
        image, _ = rack_from_conjugation_closed(list(X.translations()))
        assert is_isomorphic(X, image).found, name


def test_quotient_check_transposition_class_of_s3():
    perms = [cyc(3, (1, 2)), cyc(3, (1, 3)), cyc(3, (2, 3))]
    assert conjugation_rack_quotient_check(perms)


def test_quotient_check_identity_singleton():
    assert conjugation_rack_quotient_check([Permutation.identity(3)])


def test_quotient_check_double_transposition_class():
    perms = [
        cyc(4, (1, 2), (3, 4)),
        cyc(4, (1, 3), (2, 4)),
        cyc(4, (1, 4), (2, 3)),
    ]
    # abelian generated group of order 4 with full center: inner group is trivial
    assert conjugation_rack_quotient_check(perms)
    rack, _ = rack_from_conjugation_closed(perms)
    assert inner_group(rack).order() == 1
    assert not is_connected(rack)


# -- k-tilde diagnostics ------------------------------------------------------------


def test_golden_k_tilde_diagnostics(golden):
    diags = {d.k: d for d in k_tilde_block_diagnostic(golden)}
    assert set(diags) == {1, 2, 3, 6}
    for k, d in diags.items():
        assert d.is_partition
        assert d.is_block_system
    assert set(diags[2].cells) == {
        frozenset({0, 4, 8}),
        frozenset({1, 5, 9}),
        frozenset({2, 6, 10}),
        frozenset({3, 7, 11}),
    }


def test_k_tilde_partition_failing_the_block_test_raises(golden, monkeypatch):
    # the inner group permutes the k-tilde parts, so a partition that fails
    # the block test can only be a bug
    monkeypatch.setattr(PermutationGroup, "is_block", lambda self, cells: False)
    with pytest.raises(TheoremViolation, match="not a block system"):
        k_tilde_block_diagnostic(golden)


def test_fingerprint_stability_under_analysis(golden):
    before = fingerprint(golden)
    profile(golden)
    fibers(golden)
    assert fingerprint(golden) == before
