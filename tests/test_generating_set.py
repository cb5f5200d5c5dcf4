"""The ▷-generating set of a rack and the block routines that act through
its translations.  The group generated by all translations stays the
oracle: the generating set's translations must give the same group, the
same primitivity verdict and the same block flags."""
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    Permutation,
    PermutationGroup,
    PrimitivityReport,
    RackTable,
    affine_quandle,
    conjugacy_class_quandle,
    enumerate_connected_racks,
    inner_action_primitivity,
    inner_group,
    is_connected,
    k_tilde_block_diagnostic,
    lambda_part,
    make_affine_spec,
    profile,
    symmetric_group,
)
from quandlekit.analysis import KTildeDiagnostic, inner_order
from quandlekit.constructors import rack_from_conjugation_closed
from quandlekit.perm import (all_partitions, canonical_of_cycle_type,
                             generating_points)

from oracle_utils import base_image_order
from test_class_scans import _alternating_halves
from test_table_evidence import _differential_racks

PRIMES = (2, 3, 5, 7, 11, 13)


def closure(X, points):
    """The ▷-closure of ``points``, by naive fixed-point iteration."""
    inside = set(points)
    while True:
        new = {X.table[a][b] for a in inside for b in inside} - inside
        if not new:
            return inside
        inside |= new


def greedy_oracle(X):
    """Least point outside the closure of the points chosen so far, until
    the closure is everything."""
    chosen = []
    while True:
        outside = set(range(X.n)) - closure(X, chosen)
        if not outside:
            return tuple(chosen)
        chosen.append(min(outside))


def assert_generating_set(X, name=""):
    S = X.generating_set()
    assert closure(X, S) == set(range(X.n)), name
    for i, s in enumerate(S):
        assert s not in closure(X, S[:i]), name
    assert S == greedy_oracle(X), name


def all_translations_group(X):
    """Inn(X) over every distinct translation: independent of S."""
    return PermutationGroup(X.n, X.distinct_translations())


def primitivity_oracle(X):
    witness = all_translations_group(X).block_system_witness()
    if witness is None:
        return PrimitivityReport(True, None)
    return PrimitivityReport(False, tuple(witness))


def k_tilde_oracle(X):
    G = all_translations_group(X)
    out = []
    for k in profile(X).lengths:
        cells = sorted({t.k_tilde_part(k) for t in X.distinct_translations()},
                       key=min)
        flat = sorted(q for c in cells for q in c)
        is_partition = flat == list(range(X.n))
        blocks = G.is_block(cells) if is_partition else None
        out.append(KTildeDiagnostic(k, tuple(cells), is_partition, blocks))
    return out


def lambda_part_oracle(X, k):
    counts = Counter()
    for t in X.distinct_translations():
        counts.update(t.k_part(k))
    return counts


def assert_block_routines_agree(X, name=""):
    assert inner_action_primitivity(X) == primitivity_oracle(X), name
    assert k_tilde_block_diagnostic(X) == k_tilde_oracle(X), name
    for k in profile(X).lengths:
        assert lambda_part(X, k) == lambda_part_oracle(X, k), name


def assert_same_group(X, name=""):
    G, H = all_translations_group(X), inner_group(X)
    assert G.orbits() == H.orbits(), name
    if X.n <= 12:
        assert G.element_set() == H.element_set(), name


def class_quandles(degrees):
    for d in degrees:
        S = symmetric_group(d)
        for parts in all_partitions(d):
            if any(p > 1 for p in parts):
                rep = canonical_of_cycle_type(d, parts)
                yield f"class-{d}-{parts}", conjugacy_class_quandle(S, rep).rack


def affine_quandles(primes):
    for p in primes:
        for a in sorted({2, 3, p - 1}):
            if 1 < a < p:
                yield (f"affine-{p}-{a}",
                       affine_quandle(make_affine_spec([p], a)).rack)


def class_unions(d):
    """Racks of the unions of two classes of S_d: conjugation-closed, and
    never connected."""
    S = symmetric_group(d)
    classes = [S.conjugacy_class(canonical_of_cycle_type(d, parts))
               for parts in all_partitions(d)]
    for i, j in itertools.combinations(range(len(classes)), 2):
        yield (f"union-{d}-{i}-{j}",
               rack_from_conjugation_closed(classes[i] + classes[j])[0])


def permutation_rack(images):
    """x ▷ y = σ(y) for every x: a rack, connected only when σ is one cycle."""
    return RackTable([images] * len(images))


# -- the generating set -----------------------------------------------------------


def test_generating_set_of_the_catalog(catalog):
    for name, X in catalog:
        assert_generating_set(X, name)
        assert_same_group(X, name)


class CountedRow:
    """A table row that records each lookup in ``lookups``."""

    def __init__(self, row, lookups):
        self.row, self.lookups = row, lookups

    def __getitem__(self, y):
        self.lookups.append(y)
        return self.row[y]


def test_generating_points_read_each_row_once_per_point(catalog):
    # each kept point's row is formed once, and applied once to each point
    for name, X in [*catalog, *class_unions(4)]:
        formed, lookups = [], []

        def row_of(x):
            formed.append(x)
            return CountedRow(X.table[x], lookups)

        kept, rows = generating_points(X.n, row_of)
        assert kept == X.generating_set() == greedy_oracle(X), name
        assert formed == list(kept), name
        assert [r.row for r in rows] == [X.table[x] for x in kept], name
        assert len(lookups) == X.n * len(kept), name


def test_generating_set_sizes_of_known_racks(golden):
    assert golden.generating_set() == (0, 1, 4)
    # every point is its own closure in a trivial quandle
    assert permutation_rack(list(range(4))).generating_set() == (0, 1, 2, 3)
    # the closure of a point of a permutation rack is its cycle
    assert permutation_rack([1, 0, 3, 4, 2]).generating_set() == (0, 2)


def test_generating_set_is_memoized(golden):
    assert golden.generating_set() is golden.generating_set()


def test_generating_set_and_group_of_class_and_affine_quandles():
    for name, X in [*class_quandles((3, 4, 5)), *affine_quandles(PRIMES)]:
        assert_generating_set(X, name)
        assert_same_group(X, name)


def test_generating_set_and_group_of_class_unions():
    # a closure that forms only the products of later points on earlier
    # ones, never x ▷ y with x before y, keeps too many points here
    for name, X in [*class_unions(4), *class_unions(5)]:
        assert not is_connected(X)
        assert_generating_set(X, name)
        assert_same_group(X, name)


@st.composite
def small_racks(draw):
    kind = draw(st.sampled_from(["classes", "affine", "permutation"]))
    if kind == "classes":
        # a union of one to three classes of S_d, relabeled
        d = draw(st.integers(2, 5))
        S = symmetric_group(d)
        chosen = draw(st.lists(st.sampled_from(all_partitions(d)),
                               min_size=1, max_size=3, unique=True))
        perms = [p for parts in chosen
                 for p in S.conjugacy_class(canonical_of_cycle_type(d, parts))]
        X = rack_from_conjugation_closed(perms)[0]
        return X.relabel(Permutation(draw(st.permutations(range(X.n)))))
    if kind == "affine":
        p = draw(st.sampled_from(PRIMES))
        a = draw(st.integers(1, p - 1))
        return affine_quandle(make_affine_spec([p], a)).rack
    n = draw(st.integers(1, 9))
    return permutation_rack(draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(small_racks())
def test_generating_set_of_drawn_racks(X):
    assert_generating_set(X)
    assert_same_group(X)
    if is_connected(X):
        assert_block_routines_agree(X)


def alternating_classes(degrees):
    """Racks of the noncentral classes of A_d, split halves separately."""
    for d in degrees:
        for parts, split, half in _alternating_halves(d):
            yield (f"alt-{d}-{parts}-{split}",
                   rack_from_conjugation_closed(half)[0])


def relabeled(X, seed):
    images = list(range(X.n))
    random.Random(seed).shuffle(images)
    return X.relabel(Permutation(images))


def test_inner_order_is_the_orbit_size_of_the_generating_set():
    affine_61 = affine_quandle(make_affine_spec([61], 2)).rack
    racks = [
        *_differential_racks(),
        *class_quandles((4, 5, 6)),
        *alternating_classes(range(3, 7)),
        *affine_quandles((17, 19, 23, 29, 31)),
        ("affine-61-2", affine_61),
        ("affine-25-2", affine_quandle(make_affine_spec([25], 2)).rack),
        ("affine-3x3-fib", affine_quandle(make_affine_spec(
            [3, 3], lambda t: (t[1], (t[0] + t[1]) % 3))).rack),
    ]
    racks += [(f"{name}-relabeled", relabeled(X, name)) for name, X in racks]
    for name, X in racks:
        assert base_image_order(X) == inner_order(X), name
    # the orbit of the first point of S alone has 61 images
    assert affine_61.generating_set() == (0, 1)
    assert inner_order(affine_61) == 61 * 60


def test_inner_group_is_generated_by_the_translations_of_s():
    for name, X in _differential_racks():
        G = inner_group(X)
        S_translations = dict.fromkeys(X.phi(s) for s in X.generating_set())
        assert G.generators == tuple(
            t for t in S_translations if not t.is_identity()), name
        H = all_translations_group(X)
        assert G.element_set() == H.element_set(), name
    # the translations of S = (0, 1) generate all 61 * 60 affine maps
    affine_61 = affine_quandle(make_affine_spec([61], 2)).rack
    assert inner_group(affine_61).order() == 61 * 60


# -- block routines through the generating set ------------------------------------------


def test_block_routines_agree_on_the_catalog(catalog):
    for name, X in catalog:
        assert_block_routines_agree(X, name)


def test_block_routines_agree_on_class_quandles_of_s4_to_s6():
    checked = 0
    for name, X in class_quandles((4, 5, 6)):
        if is_connected(X):
            assert_block_routines_agree(X, name)
            checked += 1
    assert checked == 2 + 5 + 9


def test_block_routines_agree_on_affine_quandles():
    for name, X in affine_quandles((5, 7, 11, 13, 17, 19, 23, 29, 31)):
        assert_block_routines_agree(X, name)


@pytest.mark.parametrize("n", range(1, 7))
def test_block_routines_agree_on_enumerated_racks(n):
    for i, X in enumerate(enumerate_connected_racks(n), start=1):
        assert_generating_set(X, f"rack-{n}-{i}")
        assert_same_group(X, f"rack-{n}-{i}")
        assert_block_routines_agree(X, f"rack-{n}-{i}")


def test_imprimitive_witness_comes_from_a_proper_block_system():
    # conjugation by a 6-cycle: the 120-point class of S6 is imprimitive
    X = conjugacy_class_quandle(
        symmetric_group(6), Permutation.from_cycles(6, [list(range(6))])).rack
    report = inner_action_primitivity(X)
    assert report == primitivity_oracle(X)
    assert not report.primitive
    assert 1 < len(report.witness_blocks) < X.n
    assert len(X.generating_set()) < X.n // 10
