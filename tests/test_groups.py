"""Group closure, orbits, centralizers, blocks, and primitivity.

The block machinery is checked against a brute-force oracle that tests
every set partition of the points.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    CapExceeded,
    Permutation,
    PermutationGroup,
    affine_quandle,
    alternating_group,
    conjugacy_class_quandle,
    inner_group,
    make_affine_spec,
    symmetric_group,
)
from quandlekit import _kernels
from quandlekit._kernels import _pure
from quandlekit.errors import NotTransitive
from quandlekit.perm import all_partitions, canonical_of_cycle_type

from oracle_utils import brute_block_partitions


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, [[p - 1 for p in c] for c in cycles])


def group(degree, *perms, cap=10**6):
    return PermutationGroup(degree, perms, cap=cap)


# -- closure ------------------------------------------------------------------


def test_closure_of_nothing_is_trivial():
    G = group(3)
    assert G.order() == 1
    assert Permutation.identity(3) in G


def test_closure_generates_symmetric_group_of_degree_3():
    G = group(3, cyc(3, (1, 2)), cyc(3, (1, 2, 3)))
    assert G.order() == 6


def test_closure_of_golden_translations(golden):
    # size recorded from an independent closure run over the fixture rows
    G = group(12, *golden.translations())
    assert G.order() == 72


def test_elements_closed_under_product_and_inverse():
    G = group(4, cyc(4, (1, 2, 3)), cyc(4, (3, 4)))
    elems = G.element_set()
    assert math.factorial(4) % len(elems) == 0
    for a in list(elems)[:8]:
        assert a.inverse() in elems
        for b in list(elems)[:8]:
            assert a * b in elems


def test_cap_is_an_error_not_a_truncation():
    with pytest.raises(CapExceeded):
        group(5, cyc(5, (1, 2)), cyc(5, (1, 2, 3, 4, 5)), cap=10).elements()


def test_symmetric_and_alternating_orders():
    assert symmetric_group(5).order() == 120
    assert alternating_group(5).order() == 60
    assert alternating_group(2).order() == 1


@pytest.mark.parametrize("degree", range(3, 9))
def test_alternating_group_has_two_even_generators(degree):
    A = alternating_group(degree)
    assert len(A.generators) <= 2
    assert all(g.sign() == 1 for g in A.generators)
    assert A.order() == math.factorial(degree) // 2


# -- inverse pairs left out of the closure -----------------------------------


@st.composite
def generators_with_inverses(draw):
    """Up to three permutations of degree <= 7, with inverses and repeats
    of them put in at drawn places."""
    n = draw(st.integers(min_value=1, max_value=7))
    base = draw(st.lists(st.permutations(range(n)).map(Permutation),
                         max_size=3))
    gens = list(base)
    for g in base:
        for extra in draw(st.lists(st.sampled_from([g, g.inverse()]),
                                   max_size=2)):
            gens.insert(draw(st.integers(0, len(gens))), extra)
    return n, gens


def _commute(a, b):
    return tuple(a[i] for i in b) == tuple(b[i] for i in a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generators_with_inverses())
def test_listing_matches_the_closure_over_every_generator(case):
    # the closure over the unreduced list is the oracle
    n, gens = case
    raw = _pure.closure_elements(n, [g.images for g in gens], 10**6)
    G = group(n, *gens)
    assert G.elements()[0].is_identity()
    assert {g.images for g in G.elements()} == set(raw)
    assert G.order() == len(raw)
    if len(raw) > 1:
        with pytest.raises(CapExceeded):
            group(n, *gens, cap=len(raw) - 1).elements()
    assert group(n, *gens, cap=len(raw)).order() == len(raw)
    center = sum(1 for z in raw if all(_commute(z, g.images) for g in gens))
    assert G.center_order() == center


def test_a_generator_is_left_out_only_after_its_inverse():
    a, b, t = cyc(5, (1, 2, 3)), cyc(5, (1, 4, 5, 2)), cyc(5, (1, 5))
    G = group(5, a, b.inverse(), t, a.inverse(), b)
    assert G.generators == (a, b.inverse(), t, a.inverse(), b)
    assert G._closure_generators() == [a, b.inverse(), t]


def test_six_cycle_class_lists_over_one_of_each_inverse_pair(monkeypatch):
    X = conjugacy_class_quandle(
        symmetric_group(6), cyc(6, (1, 2, 3, 4, 5, 6))).rack
    counts = []
    closure = _kernels.closure_elements

    def counting(degree, generators, cap):
        counts.append(len(generators))
        return closure(degree, generators, cap)

    monkeypatch.setattr(_kernels, "closure_elements", counting)
    # the group over every translation, as analysis.inner_order lists it
    G = PermutationGroup(X.n, X.distinct_translations())
    assert len(G.generators) == 120
    assert (G.order(), G.center_order()) == (720, 1)
    assert counts == [60]


# -- orbits ------------------------------------------------------------------


def test_orbit_of_trivial_group_is_singleton():
    assert group(3).orbit(0) == frozenset({0})


def test_orbit_respects_fixed_points():
    G = group(4, cyc(4, (1, 2, 3)))
    assert G.orbit(3) == frozenset({3})
    assert G.orbits() == [frozenset({0, 1, 2}), frozenset({3})]


def test_golden_inner_group_is_transitive(golden):
    G = group(12, *golden.translations())
    assert G.orbit(0) == frozenset(range(12))
    assert G.is_transitive()


def test_full_cycle_is_transitive():
    assert group(6, cyc(6, (1, 2, 3, 4, 5, 6))).is_transitive()
    assert not group(2).is_transitive()
    assert group(1).is_transitive()


def test_orbit_rejects_a_point_out_of_range():
    G = group(3, cyc(3, (1, 2)))
    for point in (-1, 3):
        with pytest.raises(ValueError):
            G.orbit(point)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(Permutation), max_size=3)
    .map(lambda gens: (n, gens))))
def test_orbits_match_orbits_read_off_the_elements(case):
    n, gens = case
    G = group(n, *gens)
    elems = G.elements()
    expected = sorted({frozenset(g(x) for g in elems) for x in range(n)}, key=min)
    assert G.orbits() == expected
    assert all(G.orbit(x) == next(o for o in expected if x in o) for x in range(n))
    assert G.is_transitive() == (len(expected) == 1)


# -- centralizers ---------------------------------------------------------------


def test_centralizer_of_identity_is_whole_group():
    G = symmetric_group(4)
    assert G.centralizer(Permutation.identity(4)).order() == 24


def test_centralizer_of_three_cycle_in_s3():
    G = symmetric_group(3)
    C = G.centralizer(cyc(3, (1, 2, 3)))
    assert C.order() == 3
    assert cyc(3, (1, 2, 3)) in C


def test_golden_centralizer_contains_powers(golden):
    G = group(12, *golden.translations())
    p = golden.phi(0)
    C = G.centralizer(p)
    q = p
    while not q.is_identity():
        assert q in C
        q = q * p
    assert C.order() == 6  # recorded from the independent fixture run


def test_center_order_of_abelian_group_is_group_order():
    G = group(4, cyc(4, (1, 2), (3, 4)), cyc(4, (1, 3), (2, 4)))
    assert G.order() == 4
    assert G.center_order() == 4


# -- conjugacy classes -------------------------------------------------------------


def test_conjugacy_class_sizes_in_s4():
    G = symmetric_group(4)
    assert len(G.conjugacy_class(cyc(4, (1, 2)))) == 6
    assert len(G.conjugacy_class(cyc(4, (1, 2), (3, 4)))) == 3
    assert len(G.conjugacy_class(cyc(4, (1, 2, 3)))) == 8


def test_class_splitting_in_a4():
    A = alternating_group(4)
    assert len(A.conjugacy_class(cyc(4, (1, 2, 3)))) == 4


def _conjugation_bfs(G, p):
    """The class of p by breadth-first search over ``Permutation.conj``."""
    queue, seen = [p], {p}
    for e in queue:
        for g in G.generators:
            w = g.conj(e)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return queue


@pytest.mark.parametrize("degree", range(2, 7))
def test_conjugacy_class_order_is_the_conjugation_bfs(degree):
    groups = [symmetric_group(degree), alternating_group(degree),
              PermutationGroup(degree, [cyc(degree, (1, 2)),
                                        cyc(degree, tuple(range(degree, 0, -1)))])]
    for G in groups:
        for parts in all_partitions(degree):
            rep = canonical_of_cycle_type(degree, parts)
            assert G.conjugacy_class(rep) == _conjugation_bfs(G, rep), parts


# -- blocks -----------------------------------------------------------------------


def test_trivial_partitions_are_blocks(golden):
    G = group(12, *golden.translations())
    assert G.is_block([{p} for p in range(12)])
    assert G.is_block([set(range(12))])


def test_golden_block_system(golden):
    G = group(12, *golden.translations())
    cells = [{0, 4, 8}, {1, 5, 9}, {2, 6, 10}, {3, 7, 11}]
    assert G.is_block(cells)


def test_is_block_rejects_non_partition(golden):
    G = group(12, *golden.translations())
    with pytest.raises(ValueError):
        G.is_block([{0, 1}])


def test_minimal_block_prime_cycle_is_primitive():
    G = group(5, cyc(5, (1, 2, 3, 4, 5)))
    assert G.minimal_block(0, 1) == frozenset(range(5))
    assert G.is_primitive()


def test_minimal_block_golden(golden):
    G = group(12, *golden.translations())
    assert G.minimal_block(0, 4) == frozenset({0, 4, 8})


def test_minimal_block_four_cycle():
    G = group(4, cyc(4, (1, 2, 3, 4)))
    assert G.minimal_block(0, 2) == frozenset({0, 2})
    assert not G.is_primitive()


def test_minimal_block_requires_transitivity():
    with pytest.raises(NotTransitive):
        group(4, cyc(4, (1, 2))).minimal_block(0, 1)


def test_symmetric_group_is_primitive():
    assert symmetric_group(5).is_primitive()


def test_golden_not_primitive(golden):
    assert not group(12, *golden.translations()).is_primitive()


def test_non_transitive_reports_not_primitive():
    assert not group(4, cyc(4, (1, 2))).is_primitive()


def test_degree_one_conventions():
    G = group(1)
    assert G.is_transitive()
    assert G.is_primitive()


def test_minimal_block_cells_pass_is_block_and_divide_degree(golden):
    G = group(12, *golden.translations())
    for b in range(1, 12):
        cells = G._minimal_block_partition(0, b)
        assert G.is_block(cells)
        assert 12 % len(next(c for c in cells if 0 in c)) == 0


# -- brute-force oracle comparison ---------------------------------------------------


ORACLE_GROUPS = [
    ("cyclic-4", lambda: group(4, cyc(4, (1, 2, 3, 4)))),
    ("cyclic-5", lambda: group(5, cyc(5, (1, 2, 3, 4, 5)))),
    ("cyclic-6", lambda: group(6, cyc(6, (1, 2, 3, 4, 5, 6)))),
    ("cyclic-8", lambda: group(8, cyc(8, (1, 2, 3, 4, 5, 6, 7, 8)))),
    ("sym-4", lambda: symmetric_group(4)),
    ("alt-4", lambda: alternating_group(4)),
    ("dihedral-4", lambda: group(4, cyc(4, (1, 2, 3, 4)), cyc(4, (1, 3)))),
    ("klein-on-4", lambda: group(4, cyc(4, (1, 2), (3, 4)), cyc(4, (1, 3), (2, 4)))),
    ("wreath-2x2", lambda: group(4, cyc(4, (1, 2)), cyc(4, (3, 4)),
                                 cyc(4, (1, 3), (2, 4)))),
    ("s3-on-transpositions", lambda: group(
        6,
        # conjugation action of the degree-4 symmetric group on its 6 transpositions
        *_transposition_action_generators())),
]


def _transposition_action_generators():
    import itertools

    pairs = sorted(itertools.combinations(range(4), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def act(g):
        return Permutation(
            index[tuple(sorted((g(a), g(b))))] for a, b in pairs
        )

    return [act(cyc(4, (1, 2))), act(cyc(4, (1, 2, 3, 4)))]


@pytest.mark.parametrize("name,make", ORACLE_GROUPS)
def test_primitivity_matches_brute_force(name, make):
    G = make()
    systems = brute_block_partitions(G)
    if not G.is_transitive():
        assert not G.is_primitive()
        return
    nontrivial = [
        s for s in systems if 1 < len(s) < G.degree
    ]
    assert G.is_primitive() == (not nontrivial)


def brute_witness(G):
    """The block system the witness must name, read off every partition:
    the smallest block through 0, ties to the least other point in it."""
    systems = [s for s in brute_block_partitions(G) if 1 < len(s) < G.degree]
    if not G.is_transitive() or not systems:
        return None

    def cell_of_0(system):
        return next(c for c in system if 0 in c)

    best = min(systems, key=lambda s: (len(cell_of_0(s)), min(cell_of_0(s) - {0})))
    return sorted(best, key=min)


def all_b_witness(G):
    """The witness by one refinement for every point b != 0."""
    if not G.is_transitive():
        return None
    best = None
    for b in range(1, G.degree):
        cells = G._minimal_block_partition(0, b)
        if len(cells) > 1 and (best is None or len(cells) > len(best)):
            best = cells
    return best


@pytest.mark.parametrize("name,make", ORACLE_GROUPS)
def test_block_system_witness_matches_brute_force(name, make):
    G = make()
    assert G.block_system_witness() == brute_witness(G)


def test_inner_group_witness_matches_brute_force(catalog):
    # the translation of 0 fixes 0, so these groups have generators fixing 0
    checked = 0
    for name, rack in catalog:
        if not rack.is_quandle or rack.n > 8:
            continue
        G = inner_group(rack)
        assert G.block_system_witness() == brute_witness(G), name
        checked += 1
    assert checked >= 10


def _class_quandles(degree):
    G = symmetric_group(degree)
    for parts in all_partitions(degree)[:-1]:  # all but the identity
        rep = canonical_of_cycle_type(degree, parts)
        yield f"class-s{degree}-{parts}", conjugacy_class_quandle(G, rep).rack


def _large_quandles():
    yield from _class_quandles(5)
    yield from _class_quandles(6)
    for alpha in (2, 3, 60):
        yield (f"affine-z61-a{alpha}",
               affine_quandle(make_affine_spec([61], alpha)).rack)


@pytest.mark.parametrize(
    "rack", [pytest.param(rack, id=name) for name, rack in _large_quandles()])
def test_witness_matches_the_all_b_scan_on_large_quandles(rack):
    # every translation, so that many generators fix 0 and prune b
    G = PermutationGroup(rack.n, rack.distinct_translations())
    assert any(g(0) == 0 for g in G.generators)
    assert G.block_system_witness() == all_b_witness(G)


@pytest.mark.parametrize("name,make", ORACLE_GROUPS)
def test_minimal_block_matches_brute_force(name, make):
    G = make()
    if not G.is_transitive():
        return
    systems = brute_block_partitions(G)
    for b in range(1, G.degree):
        # the smallest block containing {0, b} across all block systems
        candidates = [
            cell for s in systems for cell in s if 0 in cell and b in cell
        ]
        assert G.minimal_block(0, b) == min(candidates, key=len)
