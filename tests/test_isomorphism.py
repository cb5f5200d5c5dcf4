"""The isomorphism search over the images of a ▷-generating set, against
two oracles: the search that assigned every point (``oracle_utils``) and,
for n <= 5, every one of the n! bijections."""
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    Permutation,
    RackTable,
    affine_quandle,
    cyclic_permutation_rack,
    dihedral_quandle,
    enumerate_connected_quandles,
    enumerate_connected_racks,
    fingerprint,
    is_isomorphic,
    make_affine_spec,
    trivial_quandle,
)
from quandlekit.constructors import symmetric_class_quandle
from quandlekit.perm import all_partitions

from oracle_utils import (brute_isomorphism, is_homomorphic_image,
                          point_by_point_isomorphism)


def disjoint_union(X, Y):
    """X and Y side by side, each point of one fixed by the other's rows."""
    n, m = X.n, Y.n
    return RackTable(
        [list(row) + list(range(n, n + m)) for row in X.table]
        + [list(range(n)) + [n + e for e in row] for row in Y.table])


def _build_corpus():
    """Racks by size: enumerated quandles n <= 7 and racks n <= 5, trivial,
    dihedral and cyclic racks, the class quandles of S4 and S5, and the
    disjoint unions of two racks of at most 4 points, 8 points in all."""
    by_size = {}

    def add(X):
        by_size.setdefault(X.n, {}).setdefault(X.table, X)

    for n in range(1, 8):
        for X in enumerate_connected_quandles(n):
            add(X)
        add(trivial_quandle(n))
        add(cyclic_permutation_rack(n))
    for n in range(1, 6):
        for X in enumerate_connected_racks(n):
            add(X)
    for n in range(3, 9):
        add(dihedral_quandle(n))
    for d in (4, 5):
        for parts in all_partitions(d):
            if parts[0] > 1:  # not the identity's class
                add(symmetric_class_quandle(d, parts).rack)
    small = [X for n in range(1, 5) for X in by_size[n].values()]
    for X, Y in itertools.combinations_with_replacement(small, 2):
        if X.n + Y.n <= 8:
            add(disjoint_union(X, Y))
    return {n: list(racks.values()) for n, racks in by_size.items()}


CORPUS = _build_corpus()
PAIRS = [(X, Y) for racks in CORPUS.values() for X in racks for Y in racks]


def relabeled(X, rng):
    return X.relabel(Permutation(rng.sample(range(X.n), X.n)))


def found_images(X, Y):
    """The images of the isomorphism found, or None.  Read outside any
    assert, so that a failing assertion never prints the bijection: the
    repr of a non-bijection from a broken search does not terminate."""
    w = is_isomorphic(X, Y)
    return w.bijection.images if w.found else None


def assert_isomorphism(X, Y, images):
    assert sorted(images) == list(range(X.n))
    assert is_homomorphic_image(X, Y, images.__getitem__)


def test_agrees_with_the_point_by_point_search_on_the_corpus():
    rng = random.Random(0)
    for X, Y in PAIRS:
        for Z in (Y, relabeled(Y, rng)):
            images = found_images(X, Z)
            assert (images is not None) == bool(
                point_by_point_isomorphism(X, Z))
            if images is not None:
                assert_isomorphism(X, Z, images)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(PAIRS), st.randoms(use_true_random=False))
def test_agrees_with_the_point_by_point_search_on_drawn_relabelings(pair, rng):
    X, Y = (relabeled(R, rng) for R in pair)
    images = found_images(X, Y)
    assert (images is not None) == bool(point_by_point_isomorphism(X, Y))
    if images is not None:
        assert_isomorphism(X, Y, images)


def test_agrees_with_all_bijections_up_to_5_points():
    rng = random.Random(1)
    for X, Y in PAIRS:
        if X.n > 5:
            continue
        for Z in (Y, relabeled(Y, rng)):
            assert (found_images(X, Z) is None) == (
                brute_isomorphism(X, Z) is None)


def test_equal_tables_give_the_identity():
    for racks in CORPUS.values():
        for X in racks:
            assert found_images(X, X) == tuple(range(X.n))


@pytest.mark.parametrize("parts", [(4, 2), (6,)], ids=["4-2", "6"])
def test_relabeled_s6_classes_resolve(parts):
    # every point has the same invariant; the point-by-point search took
    # over 300 s on the 90-point class (4,2) and 1.9 s on the 120 6-cycles
    X = symmetric_class_quandle(6, parts).rack
    Y = relabeled(X, random.Random(2))
    start = time.perf_counter()
    images = found_images(X, Y)
    assert time.perf_counter() - start < 1.0
    assert images is not None
    assert_isomorphism(X, Y, images)


def test_affine_z31_multipliers_3_and_11_are_not_isomorphic():
    X = affine_quandle(make_affine_spec([31], 3)).rack
    Y = affine_quandle(make_affine_spec([31], 11)).rack
    assert fingerprint(X) == fingerprint(Y)
    assert found_images(X, Y) is None
    assert found_images(Y, X) is None
