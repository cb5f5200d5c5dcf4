"""Class sizes and group invariants against sympy's permutation groups, an
oracle that shares no code with quandlekit.

sympy composes permutations left to right, quandlekit right to left, so only
orders and invariants are compared, never elements.
"""
import pytest

from quandlekit import analysis
from quandlekit.analysis import inner_action_primitivity, inner_group
from quandlekit.constructors import (
    _class_inner_order,
    _conjugation_action,
    _splits_in_alternating,
    rack_from_conjugation_closed,
)
from quandlekit.perm import (
    all_partitions,
    canonical_of_cycle_type,
    symmetric_class_size,
)

from test_class_scans import _alternating_halves
from test_table_evidence import _differential_racks

pytest.importorskip("sympy")
from sympy.combinatorics import Permutation as SympyPermutation  # noqa: E402
from sympy.combinatorics import PermutationGroup as SympyGroup  # noqa: E402
from sympy.combinatorics.named_groups import (  # noqa: E402
    AlternatingGroup,
    SymmetricGroup,
)


def _sympy_perm(images):
    return SympyPermutation(list(images))


@pytest.mark.parametrize("d", range(1, 8))
def test_class_sizes_and_alternating_splits_match_sympy(d):
    S = SymmetricGroup(d)
    A = AlternatingGroup(d) if d > 1 else S
    for parts in all_partitions(d):
        rep = _sympy_perm(canonical_of_cycle_type(d, parts).images)
        size = len(S.conjugacy_class(rep))
        assert symmetric_class_size(parts) == size, parts
        # the scans skip the identity class, the one exception (in S_1)
        if rep.is_even and not rep.is_Identity:
            halved = 2 * len(A.conjugacy_class(rep)) == size
            assert _splits_in_alternating(parts) == halved, parts


@pytest.fixture(scope="module")
def racks_with_sympy_groups():
    return [(name, X, SympyGroup([_sympy_perm(p.images)
                                  for p in X.distinct_translations()]))
            for name, X in _differential_racks()]


def test_the_differential_catalog_has_62_racks(racks_with_sympy_groups):
    assert len(racks_with_sympy_groups) == 62


def test_inner_group_orders_match_sympy(racks_with_sympy_groups):
    for name, X, G in racks_with_sympy_groups:
        assert analysis.inner_order(X) == G.order(), name


def test_inner_group_center_orders_match_sympy(racks_with_sympy_groups):
    for name, X, G in racks_with_sympy_groups:
        assert inner_group(X).center_order() == G.center().order(), name


def test_connectedness_matches_sympy_transitivity(racks_with_sympy_groups):
    for name, X, G in racks_with_sympy_groups:
        assert analysis.is_connected(X) == G.is_transitive(), name


def test_primitivity_matches_sympy(racks_with_sympy_groups):
    for name, X, G in racks_with_sympy_groups:
        assert (inner_action_primitivity(X).primitive
                == G.is_primitive(randomized=False)), name


@pytest.mark.parametrize("d", range(3, 7))
def test_split_half_inner_orders_match_sympy(d):
    for parts, split, half in _alternating_halves(d):
        if split is None:
            continue
        X, _ = rack_from_conjugation_closed(half)
        G = SympyGroup([_sympy_perm(p.images) for p in X.distinct_translations()])
        generators = _conjugation_action(half)[2]
        assert _class_inner_order(generators) == G.order(), (parts, split)
