"""Class sizes and group invariants against sympy's permutation groups, an
oracle that shares no code with quandlekit.

sympy composes permutations left to right, quandlekit right to left, so only
orders and invariants are compared, never elements.
"""
import pytest

from quandlekit import analysis, conjugacy_class_quandle, symmetric_group
from quandlekit.analysis import inner_action_primitivity, inner_group
from quandlekit.cli import construct_from_spec
from quandlekit.conjecture import (
    _class_inner_order,
    _conjugation_action,
    _splits_in_alternating,
    alternating_class_scan,
    symmetric_class_scan,
)
from quandlekit.constructors import rack_from_conjugation_closed
from quandlekit.perm import (
    all_partitions,
    canonical_of_cycle_type,
    symmetric_class,
    symmetric_class_size,
)

from test_class_scans import _alternating_halves
from test_output_pins import GROUP_FILES, SPECS
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


@pytest.mark.parametrize("parts", [(6,), (4, 2), (5, 1), (2, 2, 2)],
                         ids=["6", "4-2", "5-1", "2-2-2"])
def test_s6_class_inner_and_center_orders_match_sympy(parts):
    # the analyzed S6 classes of the output pins; in the first three the
    # listing leaves out one translation of each inverse pair
    X = conjugacy_class_quandle(
        symmetric_group(6), canonical_of_cycle_type(6, parts)).rack
    G = SympyGroup([_sympy_perm(p.images) for p in X.distinct_translations()])
    assert analysis.inner_order(X) == G.order()
    assert inner_group(X).center_order() == G.center().order()


@pytest.mark.parametrize("d", range(3, 7))
def test_split_half_inner_orders_match_sympy(d):
    for parts, split, half in _alternating_halves(d):
        if split is None:
            continue
        X, _ = rack_from_conjugation_closed(half)
        G = SympyGroup([_sympy_perm(p.images) for p in X.distinct_translations()])
        generators = _conjugation_action(half)[2]
        assert _class_inner_order(generators) == G.order(), (parts, split)


def _orbit_size(G, rep):
    return G.order() // G.centralizer(rep).order()


@pytest.mark.parametrize("alt,d", [
    pytest.param(False, 8, id="sym"),
    pytest.param(True, 8, id="alt"),
    pytest.param(False, 9, id="sym-9", marks=pytest.mark.slow),
    pytest.param(True, 9, id="alt-9", marks=pytest.mark.slow),
])
def test_degree_8_scans_match_sympy(alt, d):
    # The class of rep generates the normal closure N of rep, and its
    # quandle is connected when N is transitive on the class: in S_d, when
    # the class is odd (N = S_d) or even and not split in A_d (N = A_d).
    S, A = SymmetricGroup(d), AlternatingGroup(d)
    G = A if alt else S
    expected = []
    for parts in all_partitions(d)[:-1]:
        rep = _sympy_perm(canonical_of_cycle_type(d, parts).images)
        if alt and rep.is_odd:
            continue
        size = _orbit_size(G, rep)
        split = rep.is_even and 2 * _orbit_size(A, rep) == _orbit_size(S, rep)
        connected = _orbit_size(G.normal_closure(rep), rep) == size
        if not alt:
            assert connected == (rep.is_odd or not split), parts
        expected += [(parts, size, connected)] * (2 if alt and split else 1)
    scan = alternating_class_scan if alt else symmetric_class_scan
    assert [(r.parts, r.class_size, r.connected)
            for r in scan(d, bound=d)] == expected


def _assert_generators_generate_the_normal_closure(d):
    S = SymmetricGroup(d)
    for parts in all_partitions(d)[:-1]:
        cls = symmetric_class(d, parts)
        generators = _conjugation_action(cls)[2]
        spanned = SympyGroup([_sympy_perm(g.images) for g in generators])
        closure = S.normal_closure(_sympy_perm(cls[0].images))
        assert spanned.order() == closure.order(), parts


def test_degree_8_generators_generate_the_normal_closure():
    _assert_generators_generate_the_normal_closure(8)


@pytest.mark.slow
def test_degree_9_generators_generate_the_normal_closure():
    _assert_generators_generate_the_normal_closure(9)


def test_block_witness_cell_sizes_match_sympy(racks_with_sympy_groups):
    # The witness is a system of the smallest nontrivial blocks, and such a
    # system is among sympy's minimal block systems.
    imprimitive = 0
    for name, X, G in racks_with_sympy_groups:
        if not G.is_transitive():
            continue
        witness = inner_action_primitivity(X).witness_blocks
        sizes = {X.n // len(set(system))
                 for system in G.minimal_blocks()} - {X.n}
        if witness is None:
            assert not sizes, name
            continue
        imprimitive += 1
        assert {len(cell) for cell in witness} == {min(sizes)}, name
        assert len(witness) * min(sizes) == X.n, name
    assert imprimitive > 0


@pytest.fixture(scope="module")
def pinned_constructs(tmp_path_factory):
    """The racks of the pinned ``homog`` and ``affine`` specs, built as
    ``construct`` builds them."""
    root = tmp_path_factory.mktemp("groups")
    for name, text in GROUP_FILES.items():
        (root / name).write_text(text)
    return [(name, construct_from_spec(spec.format(dir=root))[0])
            for name, spec in SPECS.items()
            if spec.split()[0] in ("homog", "affine")]


def test_pinned_constructs_match_sympy(pinned_constructs):
    assert len(pinned_constructs) == 8
    for name, X in pinned_constructs:
        G = SympyGroup([_sympy_perm(p.images) for p in X.distinct_translations()])
        assert analysis.inner_order(X) == G.order(), name
        assert inner_group(X).center_order() == G.center().order(), name
        assert analysis.is_connected(X) == G.is_transitive(), name
        if G.is_transitive():
            assert (inner_action_primitivity(X).primitive
                    == G.is_primitive(randomized=False)), name
