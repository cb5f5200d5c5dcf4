"""Class quandles, homogeneous and affine constructions, enumeration, scans."""
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    BoundExceeded,
    CapExceeded,
    DegreeMismatch,
    QuandlekitError,
    Permutation,
    PermutationGroup,
    affine_quandle,
    alternating_class_scan,
    conjugacy_class_quandle,
    cyclic_permutation_rack,
    dihedral_quandle,
    enumerate_connected_quandles,
    enumerate_connected_racks,
    homogeneous_quandle,
    is_connected,
    is_isomorphic,
    make_affine_spec,
    make_homogeneous_spec,
    profile,
    symmetric_class_scan,
    symmetric_group,
    trivial_quandle,
)
from quandlekit import _kernels, constructors
from quandlekit.constructors import (
    rack_from_conjugation_closed,
    symmetric_class_quandle,
)
from quandlekit.perm import (
    all_partitions,
    canonical_of_cycle_type,
    symmetric_class,
    symmetric_class_size,
)
from quandlekit.racktable import RackTable, validate

from oracle_utils import pairwise_complete_rows


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, [[p - 1 for p in c] for c in cycles])


# -- conjugacy-class quandles ------------------------------------------------


def test_identity_class_is_the_one_element_quandle():
    q = conjugacy_class_quandle(symmetric_group(3), Permutation.identity(3))
    assert q.rack.n == 1
    assert q.rack.is_quandle


def test_transposition_class_of_s3():
    q = conjugacy_class_quandle(symmetric_group(3), cyc(3, (1, 2)))
    assert q.rack.n == 3
    assert is_connected(q.rack)
    assert str(profile(q.rack)) == "1^1 2^1"
    assert is_isomorphic(q.rack, dihedral_quandle(3)).found


def test_double_transposition_class_is_disconnected():
    q = conjugacy_class_quandle(symmetric_group(4), cyc(4, (1, 2), (3, 4)))
    assert q.rack.n == 3
    assert not is_connected(q.rack)


def test_class_labels_respect_conjugation():
    q = conjugacy_class_quandle(symmetric_group(4), cyc(4, (1, 2)))
    for x in range(q.rack.n):
        for y in range(q.rack.n):
            assert q.labels[q.rack.op(x, y)] == q.labels[x].conj(q.labels[y])


def test_class_elements_sorted_deterministically():
    q = conjugacy_class_quandle(symmetric_group(4), cyc(4, (1, 2, 3)))
    assert list(q.labels) == sorted(q.labels)


def test_conjugation_closed_input_is_required():
    with pytest.raises(ValueError):
        rack_from_conjugation_closed([cyc(3, (1, 2)), cyc(3, (1, 2, 3))])


# -- homogeneous quandles ---------------------------------------------------------


def test_whole_group_as_subgroup_gives_one_element():
    G = symmetric_group(3)
    spec = make_homogeneous_spec(
        G, list(G.generators), {g: g for g in G.elements()})
    assert homogeneous_quandle(spec).n == 1


def test_s3_coset_quandle_matches_transposition_class():
    G = symmetric_group(3)
    a = cyc(3, (1, 2))
    spec = make_homogeneous_spec(
        G, [a], {g: a.conj(g) for g in G.elements()})
    rack = homogeneous_quandle(spec)
    assert rack.n == 3
    cls = conjugacy_class_quandle(G, a)
    assert is_isomorphic(rack, cls.rack).found


def test_abelian_group_with_trivial_subgroup_matches_affine():
    # Z_5 acting on itself by translation: the powers of the 5-cycle, with
    # elements[k] the translation by k
    shift = Permutation.from_cycles(5, [list(range(5))])
    elements = [Permutation.identity(5)]
    for _ in range(4):
        elements.append(shift * elements[-1])
    group = PermutationGroup(5, elements)
    # multiplication by 2 on the translation group
    alpha = {elements[k]: elements[(2 * k) % 5] for k in range(5)}
    spec = make_homogeneous_spec(group, [], alpha)
    rack = homogeneous_quandle(spec)
    affine = affine_quandle(make_affine_spec([5], 2)).rack
    assert rack.table == affine.table


def _listed_cosets_table(spec):
    """The coset-space table as first built: each coset listed and sorted,
    its least element the representative, the representatives sorted."""
    G = spec.group
    hset = PermutationGroup(G.degree, spec.subgroup_generators).element_set()
    rep_of = {}
    reps = []
    for g in sorted(G.elements()):
        if g in rep_of:
            continue
        coset = sorted(g * h for h in hset)
        reps.append(coset[0])
        for c in coset:
            rep_of[c] = coset[0]
    reps.sort()
    index = {r: i for i, r in enumerate(reps)}
    return tuple(
        tuple(index[rep_of[x * spec.alpha[x.inverse() * y]]] for y in reps)
        for x in reps)


SYM3 = [((1, 2),), ((1, 2, 3),)]
SYM4 = [((1, 2),), ((1, 2, 3, 4),)]
SYM5 = [((1, 2),), ((1, 2, 3, 4, 5),)]
# A Frobenius group of order 20 in S5.  In a symmetric group, left
# multiplication by the point reversal turns the sorted cosets around and is
# an automorphism of the coset quandle, so taking the greatest element of
# each coset instead of the least would give the same table there; here it
# does not.
FROBENIUS20 = [((1, 5, 3, 4, 2),), ((1, 2, 5, 3),)]


@pytest.mark.parametrize("degree,generators,conjugator", [
    (3, SYM3, ()), (3, SYM3, ((1, 2),)), (3, SYM3, ((1, 2, 3),)),
    (4, SYM4, ((1, 2),)), (4, SYM4, ((1, 2), (3, 4))), (4, SYM4, ((1, 2, 3, 4),)),
    (5, SYM5, ((1, 2, 3),)), (5, SYM5, ((1, 2), (3, 4))),
    (5, SYM5, ((1, 2, 3, 4, 5),)),
    (5, FROBENIUS20, ((1, 2, 5, 3),)), (5, FROBENIUS20, ((1, 3), (2, 4))),
])
def test_homogeneous_table_matches_the_listed_cosets(degree, generators,
                                                     conjugator):
    G = PermutationGroup(degree, [cyc(degree, *g) for g in generators])
    c = cyc(degree, *conjugator)
    alpha = {g: c.conj(g) for g in G.elements()}
    centralizer = [g for g in G.elements() if g * c == c * g]
    rng = random.Random(degree * 100 + len(centralizer))
    subgroups = [[], [c]] + [rng.sample(centralizer, k)
                             for k in (1, 1, 2, 2) if k <= len(centralizer)]
    for subgens in subgroups:
        spec = make_homogeneous_spec(G, subgens, alpha)
        assert homogeneous_quandle(spec).table == _listed_cosets_table(spec), subgens


def test_alpha_must_fix_subgroup_pointwise():
    G = symmetric_group(3)
    r = cyc(3, (1, 2, 3))
    with pytest.raises(ValueError):
        make_homogeneous_spec(G, [cyc(3, (1, 2))],
                              {g: r.conj(g) for g in G.elements()})


def test_alpha_must_be_an_automorphism():
    G = symmetric_group(3)
    elems = list(G.elements())
    swapped = dict(zip(elems, elems))
    a, b = cyc(3, (1, 2)), cyc(3, (1, 3))
    swapped[a], swapped[b] = swapped[b], swapped[a]
    with pytest.raises(ValueError):
        make_homogeneous_spec(G, [], swapped)


def test_subgroup_generator_of_another_degree():
    G = symmetric_group(3)
    with pytest.raises(DegreeMismatch):
        make_homogeneous_spec(G, [cyc(4, (1, 2))], {g: g for g in G.elements()})


def test_subgroup_generators_must_lie_in_the_group():
    G = PermutationGroup(3, [cyc(3, (1, 2, 3))])
    with pytest.raises(ValueError, match="do not lie in the group"):
        make_homogeneous_spec(G, [cyc(3, (1, 2))], {g: g for g in G.elements()})


def test_homogeneous_spec_checks_alpha_on_generators(monkeypatch):
    """On S5 the spec makes at most 2·|G|·|gens| products and builds and
    closes no subgroup; the all-pairs check made 2·|G|² products and
    closed H."""
    G = symmetric_group(5)
    c = cyc(5, (3, 4, 5))
    alpha = {g: c.conj(g) for g in G.elements()}
    counts = {"products": 0, "groups": 0, "closures": 0}
    mul, init = Permutation.__mul__, PermutationGroup.__init__
    closure = _kernels.closure_elements

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Permutation, "__mul__", counting("products", mul))
    monkeypatch.setattr(PermutationGroup, "__init__", counting("groups", init))
    monkeypatch.setattr(_kernels, "closure_elements",
                        counting("closures", closure))
    spec = make_homogeneous_spec(G, [cyc(5, (1, 2))], alpha)
    assert spec.alpha == alpha
    assert counts["products"] <= 2 * G.order() * len(G.generators)
    assert counts["groups"] == counts["closures"] == 0


# -- generator checks against the all-pairs oracles ------------------------------------


def _all_pairs_homogeneous_spec(group, subgroup_generators, alpha):
    """``make_homogeneous_spec`` as first built: alpha tested on every pair
    of group elements and on every element of the closed subgroup."""
    elems = group.elements()
    amap = dict(alpha)
    if set(amap) != set(elems) or set(amap.values()) != set(elems):
        raise ValueError("alpha is not a bijection of the group elements")
    for a in elems:
        for b in elems:
            if amap[a * b] != amap[a] * amap[b]:
                raise ValueError(
                    f"alpha is not a homomorphism at ({a!r}, {b!r})")
    subgens = tuple(subgroup_generators)
    sub = PermutationGroup(group.degree, subgens, cap=group.cap)
    for h in sub.elements():
        if h not in group:
            raise ValueError("subgroup generators do not lie in the group")
        if amap[h] != h:
            raise ValueError(f"alpha moves the subgroup element {h!r}")
    return constructors.HomogeneousSpec(group, subgens, amap)


def _all_pairs_affine_spec(orders, images):
    """``make_affine_spec`` as first built, on an image list: additivity
    tested on every pair of elements."""
    tuples = list(itertools.product(*(range(o) for o in orders)))
    index = {t: i for i, t in enumerate(tuples)}
    if sorted(images) != list(range(len(tuples))):
        raise ValueError("alpha is not a bijection")
    for a in tuples:
        for b in tuples:
            s = tuple((x + y) % o for x, y, o in zip(a, b, orders))
            ia, ib = tuples[images[index[a]]], tuples[images[index[b]]]
            expect = tuple((x + y) % o for x, y, o in zip(ia, ib, orders))
            if tuples[images[index[s]]] != expect:
                raise ValueError("alpha is not additive (not an automorphism)")
    return constructors.AffineSpec(tuple(orders), tuple(images))


def _verdict(build, *args):
    """The spec, or the exception type and message.  The homomorphism
    message names the failing pair, which the two checks find in different
    places, so only its text before the pair is kept."""
    try:
        return build(*args)
    except (ValueError, QuandlekitError) as exc:
        return type(exc), str(exc).split(" at (")[0]


DIFFERENTIAL_GROUPS = [
    symmetric_group(3),
    symmetric_group(4),
    PermutationGroup(4, [cyc(4, (1, 2, 3, 4)), cyc(4, (1, 3))]),          # D4
    PermutationGroup(4, [cyc(4, (1, 2), (3, 4)), cyc(4, (1, 3), (2, 4))]),  # Z2^2
]


AMBIENT = [symmetric_group(G.degree).elements() for G in DIFFERENTIAL_GROUPS]
# conjugation by an element of the normalizer is an automorphism of the group
NORMALIZERS = [[c for c in ambient
                if all(c.conj(g) in G for g in G.generators)]
               for G, ambient in zip(DIFFERENTIAL_GROUPS, AMBIENT)]


def _left_cosets(elems, powers):
    """Least element of each left coset r<g>, in increasing order (the
    identity first), with ``powers`` the elements of <g>."""
    reps, seen = [], set()
    for x in sorted(elems):
        if x not in seen:
            reps.append(x)
            seen.update(x * p for p in powers)
    return reps


@st.composite
def homogeneous_inputs(draw):
    """A group, subgroup generators and a bijection of the group: an
    automorphism, a coset shuffle of one, an automorphism with two images
    swapped, or any bijection.  The coset shuffle maps r·g^k to
    beta(pi(r)·g^k), with g the first group generator and pi a permutation
    of the left cosets of <g> fixing <g> itself; it passes the check at g
    for every element and fails at another generator unless it is an
    automorphism.  Subgroup generators come from the fixed points of the
    automorphism, from the group, from the symmetric group, or include a
    permutation of another degree."""
    i = draw(st.integers(0, len(DIFFERENTIAL_GROUPS) - 1))
    group, elems = DIFFERENTIAL_GROUPS[i], DIFFERENTIAL_GROUPS[i].elements()
    c = draw(st.sampled_from(NORMALIZERS[i]))
    beta = {g: c.conj(g) for g in elems}
    kind = draw(st.sampled_from(["automorphism", "automorphism",
                                 "coset shuffle", "swap", "bijection"]))
    if kind == "automorphism":
        alpha = beta
    elif kind == "coset shuffle":
        g = group.generators[0]
        powers = [Permutation.identity(group.degree)]
        while powers[-1] * g != powers[0]:
            powers.append(powers[-1] * g)
        reps = _left_cosets(elems, powers)
        pi = [reps[0]] + draw(st.permutations(reps[1:]))
        alpha = {r * p: beta[q * p] for r, q in zip(reps, pi) for p in powers}
    elif kind == "swap":
        a, b = draw(st.lists(st.sampled_from(elems), min_size=2, max_size=2,
                             unique=True))
        alpha = dict(beta)
        alpha[a], alpha[b] = beta[b], beta[a]
    else:
        alpha = dict(zip(elems, draw(st.permutations(elems))))
    fixed = [g for g in elems if beta[g] == g]
    pool = draw(st.sampled_from([fixed, elems, AMBIENT[i]]))
    subgens = draw(st.lists(st.sampled_from(pool), max_size=3))
    if draw(st.sampled_from([False] * 9 + [True])):
        subgens.append(Permutation.from_cycles(group.degree + 1, [[0, 1]]))
    return group, subgens, alpha


@settings(max_examples=300, deadline=None)
@given(homogeneous_inputs())
def test_homogeneous_generator_check_matches_all_pairs(inputs):
    assert (_verdict(make_homogeneous_spec, *inputs)
            == _verdict(_all_pairs_homogeneous_spec, *inputs))


@st.composite
def affine_inputs(draw):
    """Orders and an image list: the linear map sending the unit vectors
    to drawn elements (an automorphism when it is bijective and each image
    has an order dividing its unit's), a coset shuffle of it along the
    first unit vector, the linear map with two images swapped, or any
    bijection."""
    orders = draw(st.sampled_from([(2, 2), (3, 3), (4, 2), (5,)]))
    tuples = list(itertools.product(*(range(o) for o in orders)))
    index = {t: i for i, t in enumerate(tuples)}

    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    unit_images = [draw(st.sampled_from(tuples)) for _ in orders]

    def linear(t):
        out = tuples[0]
        for a, u in zip(t, unit_images):
            for _ in range(a):
                out = add(out, u)
        return out

    beta = [index[linear(t)] for t in tuples]
    kind = draw(st.sampled_from(["linear", "coset shuffle", "swap",
                                 "bijection"]))
    if kind == "linear":
        images = beta
    elif kind == "coset shuffle":
        e1 = (1,) + (0,) * (len(orders) - 1)
        reps = [t for t in tuples if t[0] == 0]
        pi = [reps[0]] + draw(st.permutations(reps[1:]))
        images = [None] * len(tuples)
        for r, q in zip(reps, pi):
            for _ in range(orders[0]):
                images[index[r]] = beta[index[q]]
                r, q = add(r, e1), add(q, e1)
    elif kind == "swap":
        i, j = draw(st.lists(st.integers(0, len(tuples) - 1), min_size=2,
                             max_size=2, unique=True))
        images = list(beta)
        images[i], images[j] = beta[j], beta[i]
    else:
        images = draw(st.permutations(range(len(tuples))))
    return orders, images


@settings(max_examples=300, deadline=None)
@given(affine_inputs())
def test_affine_generator_check_matches_all_pairs(inputs):
    assert (_verdict(make_affine_spec, *inputs)
            == _verdict(_all_pairs_affine_spec, *inputs))


# -- affine quandles -----------------------------------------------------------------


def test_affine_z5_doubling():
    result = affine_quandle(make_affine_spec([5], 2))
    assert result.beta_bijective
    assert is_connected(result.rack)
    assert str(profile(result.rack)) == "1^1 4^1"


def test_affine_identity_map_gives_trivial_quandle():
    result = affine_quandle(make_affine_spec([4], 1))
    assert result.rack == trivial_quandle(4)
    assert not result.beta_bijective
    assert not is_connected(result.rack)


def test_affine_coordinate_swap_is_disconnected():
    result = affine_quandle(make_affine_spec([2, 2], lambda t: (t[1], t[0])))
    assert not result.beta_bijective
    assert not is_connected(result.rack)


def test_affine_rejects_non_automorphism():
    with pytest.raises(ValueError):
        make_affine_spec([4], 2)           # doubling is not injective mod 4
    with pytest.raises(ValueError):
        make_affine_spec([3], [0, 0, 1])   # not a bijection


def test_affine_needs_an_order():
    with pytest.raises(ValueError):
        make_affine_spec([], 1)


def test_dihedral_is_affine_negation():
    result = affine_quandle(make_affine_spec([5], 4))  # alpha = -1 mod 5
    assert result.rack == dihedral_quandle(5)


def test_displacement_verdict_matches_orbits_on_random_specs():
    rng = random.Random(20260810)
    orders_pool = [[2], [3], [4], [5], [6], [7], [2, 2], [2, 3], [2, 4],
                   [3, 3], [2, 2, 2]]
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 500:
        attempts += 1
        orders = rng.choice(orders_pool)
        size = 1
        for o in orders:
            size *= o
        k = rng.randrange(1, size + 1)
        try:
            spec = make_affine_spec(orders, k)
        except ValueError:
            continue
        result = affine_quandle(spec)
        # affine_quandle re-checks the equivalence internally; assert again
        assert result.beta_bijective == is_connected(result.rack)
        checked += 1
    assert checked == 20


# -- every constructed table is a valid quandle -----------------------------------------


def test_constructed_tables_validate(catalog):
    for name, X in catalog:
        verdict = validate(X.table).verdict
        if name.startswith("cycle-rack"):
            assert verdict == "rack", name
        else:
            assert verdict == "quandle", name


# -- enumeration ------------------------------------------------------------------------


def test_connected_quandle_counts_match_brute_force_oracle():
    # frozen from an independent throwaway backtracking + canonical-form run
    assert [len(enumerate_connected_quandles(n)) for n in range(1, 7)] == [
        1, 0, 1, 1, 3, 2]


def test_enumeration_contains_the_expected_members():
    [q3] = enumerate_connected_quandles(3)
    assert is_isomorphic(q3, dihedral_quandle(3)).found
    q5 = enumerate_connected_quandles(5)
    assert any(is_isomorphic(q, dihedral_quandle(5)).found for q in q5)


def test_enumeration_has_no_isomorphic_pair():
    q5 = enumerate_connected_quandles(5)
    for i, a in enumerate(q5):
        for b in q5[i + 1:]:
            assert not is_isomorphic(a, b).found


def test_enumeration_is_deterministic():
    first = [q.table for q in enumerate_connected_quandles(5)]
    second = [q.table for q in enumerate_connected_quandles(5)]
    assert first == second


def test_dedup_fingerprints_each_table_once(monkeypatch):
    racks = [RackTable(t) for t in
             constructors._search_connected_tables(6, False, 10**6)]
    expected = [r.table for r in constructors._dedup_tables(racks)]
    calls = []
    fingerprint = constructors.fingerprint
    monkeypatch.setattr(constructors, "fingerprint",
                        lambda r: calls.append(r.table) or fingerprint(r))
    assert [r.table for r in constructors._dedup_tables(racks)] == expected
    assert sorted(calls) == sorted(r.table for r in racks)


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        enumerate_connected_quandles(9)


def _listed_search_tables(n, quandle_only):
    """The row search as first built: every permutation of degree n listed
    and grouped by cycle type, each group a pool of candidate rows."""
    if n == 1:
        return [((0,),)]
    by_type = {}
    for images in itertools.permutations(range(n)):
        p = Permutation(images)
        by_type.setdefault(p.cycle_type(), []).append(p)

    def cycle_len_at(p, point):
        return next(len(c) for c in p.cycles() if point in c)

    tables = []
    for ctype in sorted(by_type):
        if quandle_only and ctype.multiplicity(1) == 0:
            continue
        pool = by_type[ctype]
        for own_len in ((1,) if quandle_only else ctype.lengths):
            cands = [[p.images for p in pool if cycle_len_at(p, i) == own_len]
                     for i in range(n)]
            if not cands[0]:
                continue
            rows = [None] * n
            rows[0] = min(cands[0])
            tables.extend(constructors._complete_rows(n, rows, cands))
    return tables


@pytest.mark.parametrize("n,quandle_only",
                         [(n, True) for n in range(1, 8)]
                         + [(n, False) for n in range(1, 7)])
def test_search_matches_the_listed_permutations(n, quandle_only):
    found = constructors._search_connected_tables(n, quandle_only)
    assert sorted(found) == sorted(_listed_search_tables(n, quandle_only))


@pytest.mark.parametrize(
    "n,quandle_only",
    [(n, True) for n in range(1, 8)]
    + [pytest.param(8, True, marks=pytest.mark.slow)]
    + [(n, False) for n in range(1, 8)])
def test_search_matches_the_pairwise_oracle(n, quandle_only, monkeypatch):
    """Closing only the chosen rows yields the tables of the check of every
    pair of assigned rows, in the same order."""
    found = constructors._search_connected_tables(n, quandle_only)
    monkeypatch.setattr(constructors, "_complete_rows", pairwise_complete_rows)
    assert found == constructors._search_connected_tables(n, quandle_only)


def test_rack_enumeration_includes_non_quandles():
    racks3 = enumerate_connected_racks(3)
    assert any(is_isomorphic(r, cyclic_permutation_rack(3)).found
               for r in racks3)
    assert any(r.is_quandle for r in racks3)
    for r in racks3:
        assert is_connected(r)
        assert validate(r.table).is_rack


@pytest.mark.slow
def test_connected_quandle_counts_orders_7_and_8():
    # recorded from the build-time run; agrees with the published catalog
    assert len(enumerate_connected_quandles(7)) == 5
    assert len(enumerate_connected_quandles(8)) == 3


# -- symmetric class scans ----------------------------------------------------------------


def test_scan_d3_case_analysis():
    records = {r.parts: r for r in symmetric_class_scan(3)}
    assert set(records) == {(3,), (2, 1)}
    assert records[(2, 1)].connected
    assert str(records[(2, 1)].profile) == "1^1 2^1"
    assert not records[(3,)].connected


def test_scan_d4_case_analysis():
    """Honest computation: the double-transposition class generates an
    abelian group (disconnected), and the 3-cycle class splits in the
    alternating group, so it is disconnected too; the transpositions and the
    4-cycles give the two connected classes."""
    records = {r.parts: r for r in symmetric_class_scan(4)}
    assert len(records) == 4
    assert not records[(2, 2)].connected
    assert not records[(3, 1)].connected
    assert records[(2, 1, 1)].connected
    assert records[(4,)].connected
    connected = [r for r in records.values() if r.connected]
    assert len(connected) == 2
    assert all(r.hayashi.holds for r in connected)


def test_scan_d5_every_connected_class_passes():
    records = symmetric_class_scan(5)
    assert len(records) == 6
    connected = [r for r in records if r.connected]
    assert len(connected) == 5
    assert not next(r for r in records if r.parts == (5,)).connected
    assert all(r.hayashi.holds for r in connected)


def test_scan_d6_includes_an_order_six_class():
    records = symmetric_class_scan(6)
    connected = [r for r in records if r.connected]
    assert all(r.hayashi.holds for r in connected)
    mixed = next(r for r in records if r.parts == (3, 2, 1))
    assert mixed.connected
    assert mixed.element_order == 6


def _class_size_oracle(parts):
    """d! over the centralizer order, the product of l^m·m! over the
    cycle lengths l with multiplicities m."""
    counts = {}
    for part in parts:
        counts[part] = counts.get(part, 0) + 1
    centralizer = 1
    for length, mult in counts.items():
        centralizer *= length ** mult * math.factorial(mult)
    return math.factorial(sum(parts)) // centralizer


def test_scan_class_sizes_match_the_counting_formula():
    for d in (3, 4, 5):
        for rec in symmetric_class_scan(d):
            assert rec.class_size == _class_size_oracle(rec.parts)


def test_class_size_equals_the_listed_class():
    for d in range(1, 8):
        G = symmetric_group(d)
        for parts in all_partitions(d):
            rep = canonical_of_cycle_type(d, parts)
            size = len(G.conjugacy_class(rep))
            assert symmetric_class_size(parts) == size, parts
            assert size == _class_size_oracle(parts), parts
            assert symmetric_class_size(parts, cap=size) == size, parts
            if size == 1:
                continue
            below = PermutationGroup(d, G.generators, cap=size - 1)
            with pytest.raises(CapExceeded) as listed:
                below.conjugacy_class(rep)
            with pytest.raises(CapExceeded) as counted:
                symmetric_class_size(parts, cap=size - 1)
            assert str(counted.value) == str(listed.value), parts


def test_class_size_stops_at_the_cap():
    # 999! and 1000!/2 would take long to form in full; the running product
    # stops within a few factors
    for parts in [(1000,), (2,) * 500, (10 ** 6,)]:
        with pytest.raises(CapExceeded, match="^conjugacy class exceeds cap 1000000$"):
            symmetric_class_size(parts)
    assert symmetric_class_size((1,) * 10 ** 5) == 1
    assert symmetric_class_size((2,) + (1,) * 998) == 1000 * 999 // 2


def _forbidden_listing(*args, **kwargs):
    raise AssertionError("a conjugacy class was listed")


def test_symmetric_class_is_the_listing_from_the_canonical_element():
    for d in range(1, 8):
        G = symmetric_group(d)
        for parts in all_partitions(d):
            listed = G.conjugacy_class(canonical_of_cycle_type(d, parts))
            assert symmetric_class(d, parts) == listed, parts


def test_symmetric_class_is_sized_before_listing(monkeypatch):
    monkeypatch.setattr(PermutationGroup, "conjugacy_class", _forbidden_listing)
    # the 4-cycles of S5 number 30
    with pytest.raises(CapExceeded, match="^conjugacy class exceeds cap 29$"):
        symmetric_class(5, (4, 1), cap=29)


def test_table_bound_admits_every_class_of_s8():
    largest = max(symmetric_class_size(p) for p in all_partitions(8))
    assert largest == 5760
    assert largest ** 2 <= constructors.TABLE_BOUND
    assert symmetric_class_size((9,)) ** 2 > constructors.TABLE_BOUND


def test_class_quandle_checks_the_table_bound_before_listing(monkeypatch):
    built = symmetric_class_quandle(4, (2, 1, 1))
    assert built == conjugacy_class_quandle(symmetric_group(4), cyc(4, (1, 2)))
    monkeypatch.setattr(constructors, "TABLE_BOUND", 36)
    assert symmetric_class_quandle(4, (2, 1, 1)) == built
    monkeypatch.setattr(constructors, "TABLE_BOUND", 35)
    monkeypatch.setattr(PermutationGroup, "conjugacy_class", _forbidden_listing)
    with pytest.raises(CapExceeded) as exc:
        symmetric_class_quandle(4, (2, 1, 1))
    assert str(exc.value) == (
        "class quandle of cycle type 1^2 2^1 in degree 4: "
        "table of 6^2 = 36 entries exceeds the table bound 35")
    # the count check comes first
    with pytest.raises(CapExceeded, match="^conjugacy class exceeds cap 5$"):
        symmetric_class_quandle(4, (2, 1, 1), cap=5)


def test_conjugation_rack_checks_the_table_bound_before_the_table(monkeypatch):
    transpositions = symmetric_group(4).conjugacy_class(cyc(4, (1, 2)))
    monkeypatch.setattr(constructors, "TABLE_BOUND", 36)
    assert rack_from_conjugation_closed(transpositions)[0].n == 6

    def forbidden(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(constructors, "TABLE_BOUND", 35)
    monkeypatch.setattr(_kernels, "conjugation_table", forbidden)
    with pytest.raises(CapExceeded) as exc:
        rack_from_conjugation_closed(transpositions)
    assert str(exc.value) == (
        "conjugation rack in degree 4: "
        "table of 6^2 = 36 entries exceeds the table bound 35")


def test_alt_scan_takes_the_symmetric_class_size_from_the_formula(monkeypatch):
    listing = PermutationGroup.conjugacy_class
    listed = []

    def recording(group, p):
        listed.append(group)
        return listing(group, p)

    monkeypatch.setattr(PermutationGroup, "conjugacy_class", recording)
    records = alternating_class_scan(5)
    assert [r.class_size for r in records] == [12, 12, 20, 15]
    # only classes of A5, generated by 3-cycles, are listed
    assert listed and all(g.sign() == 1 for G in listed for g in G.generators)
    # the 24 five-cycles pass a cap of 23: raised before any listing
    monkeypatch.setattr(PermutationGroup, "conjugacy_class", _forbidden_listing)
    with pytest.raises(CapExceeded, match="^conjugacy class exceeds cap 23$"):
        alternating_class_scan(5, cap=23)


def test_scan_bound():
    with pytest.raises(BoundExceeded):
        symmetric_class_scan(8)


# -- alternating class scans -----------------------------------------------------------------


def test_alt_d5_five_cycles_split():
    records = alternating_class_scan(5)
    fives = [r for r in records if r.parts == (5,)]
    assert [r.split for r in fives] == ["a", "b"]
    assert all(r.class_size == 12 for r in fives)
    assert all(r.connected for r in fives)
    assert all(str(r.profile) == "1^2 5^2" for r in fives)
    assert all(r.split_witness_ok for r in fives)


def test_alt_d5_even_cycle_types_do_not_split():
    records = alternating_class_scan(5)
    rec = next(r for r in records if r.parts == (2, 2, 1))
    assert rec.split is None
    assert rec.class_size == 15


def test_alt_d4_three_cycles_split():
    records = alternating_class_scan(4)
    threes = [r for r in records if r.parts == (3, 1)]
    assert [r.split for r in threes] == ["a", "b"]
    assert all(r.class_size == 4 for r in threes)
    assert all(r.connected for r in threes)
    assert all(str(r.profile) == "1^1 3^1" for r in threes)


def test_alt_scan_halves_are_disjoint_classes():
    records = alternating_class_scan(5)
    fives = [r for r in records if r.parts == (5,)]
    assert fives[0].class_size + fives[1].class_size == 24


@pytest.mark.slow
def test_alt_d6_passes_and_checks_witnesses():
    records = alternating_class_scan(6)
    for r in records:
        if r.connected:
            assert r.hayashi.holds
        if r.split is not None:
            assert r.split_witness_ok


def test_class_faithfulness_tracks_the_generated_center():
    """Both directions on scan outputs: a class quandle is faithful exactly
    when the group generated by the class has trivial center (two class
    elements collide iff they differ by a central element)."""
    from quandlekit import is_faithful

    for d in (3, 4, 5):
        G = symmetric_group(d)
        for rec in symmetric_class_scan(d):
            rep = Permutation.from_cycles(
                d, [list(range(sum(rec.parts[:i]), sum(rec.parts[:i + 1])))
                    for i in range(len(rec.parts))])
            q = conjugacy_class_quandle(G, rep)
            generated = PermutationGroup(d, q.labels)
            assert is_faithful(q.rack) == (generated.center_order() == 1), rec.parts
