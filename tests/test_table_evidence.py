"""The intersection evidence and the conjugation-orbit sizes, read off the
operation table, against the group-theoretic forms they replace."""
import functools
from operator import itemgetter

import pytest

import quandlekit as qk
from quandlekit import (
    CapExceeded,
    Permutation,
    PermutationGroup,
    TheoremViolation,
    _kernels,
    analysis,
    conjecture,
)
from quandlekit.perm import all_partitions, canonical_of_cycle_type


def _differential_racks():
    """The golden quandle, every connected class quandle of S2-S6, every
    connected affine quandle over Z_p for p <= 13, and every connected rack
    of order 1-6 (non-faithful racks included)."""
    racks = [("golden-12", qk.smallquandle_12_4())]
    for d in range(2, 7):
        G = qk.symmetric_group(d)
        for parts in all_partitions(d):
            if all(p == 1 for p in parts):
                continue
            X = qk.conjugacy_class_quandle(
                G, canonical_of_cycle_type(d, parts)).rack
            if qk.is_connected(X):
                racks.append((f"class-s{d}-{parts}", X))
    for p in (2, 3, 5, 7, 11, 13):
        for alpha in range(2, p):
            spec = qk.make_affine_spec([p], alpha)
            racks.append((f"affine-z{p}-a{alpha}", qk.affine_quandle(spec).rack))
    for n in range(1, 7):
        for i, X in enumerate(qk.enumerate_connected_racks(n), start=1):
            racks.append((f"rack-{n}-{i}", X))
    return racks


@pytest.fixture(scope="module")
def differential_racks():
    return _differential_racks()


@pytest.fixture(scope="module")
def six_cycle_class():
    """The 120-point class quandle of the 6-cycles of S6."""
    return qk.conjugacy_class_quandle(
        qk.symmetric_group(6),
        Permutation.from_cycles(6, [list(range(6))])).rack


# -- the group-theoretic forms, kept as oracles ----------------------------------


# Image tuples recur across base points, so their maps and inverses are
# formed once.
@functools.cache
def _after(a):
    """The map u -> u∘a on image tuples: u read at the images of a."""
    return itemgetter(*a) if len(a) > 1 else lambda u: (u[a[0]],)


@functools.cache
def _inverse(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def centralizer_evidence(X, G, x):
    """Intersect F = <phi_x> with every translation-conjugate of the
    centralizer H of phi_x in the inner group G, by membership tests on
    image tuples; H is the elements of G that commute with phi_x."""
    px = X.table[x]
    # g·px = px·g, compared point by point, stopping at the first miss
    H = {g for g in (e.images for e in G.elements())
         if all(g[p] == px[q] for p, q in zip(px, g))}
    identity = tuple(range(X.n))
    F = [identity]
    q = px
    while q != identity:
        F.append(q)
        q = _after(px)(q)
    after_f = [_after(f) for f in F]
    witnesses = []
    trivial = None
    for y, py in enumerate(X.table):
        pyinv, after_py = _inverse(py), _after(py)
        # py⁻¹·f·py, formed as (py⁻¹ read at f) read at py
        order = sum(1 for a in after_f if after_py(a(pyinv)) in H)
        witnesses.append((y, order))
        if order == 1 and trivial is None:
            trivial = y
    return conjecture.IntersectionEvidence(x, len(F), tuple(witnesses), trivial)


def conj_orbit_sizes(X, x, y):
    """The orbit of y under powers of phi_x, and the orbit of phi_y under
    conjugation by those powers, by iterated conjugation of image tuples."""
    px, py = X.table[x], X.table[y]
    after_pxinv = _after(_inverse(px))
    lam, w = 1, px[y]
    while w != y:
        lam, w = lam + 1, px[w]

    def conj(q):  # px·q·px⁻¹
        return _after(after_pxinv(q))(px)

    q = conj(py)
    lam_bar = 1
    while q != py:
        q = conj(q)
        lam_bar += 1
    return analysis.OrbitSizes(lam, lam_bar)


# -- differential tests ---------------------------------------------------------------


def test_the_differential_set(differential_racks):
    assert len(differential_racks) == 62
    assert sum(X.n for _, X in differential_racks) == 1054
    assert any(not qk.is_faithful(X) for _, X in differential_racks)


def test_evidence_equals_the_centralizer_form(differential_racks):
    for name, X in differential_racks:
        G = qk.inner_group(X)
        assert (qk.intersection_evidence(X, 0)
                == centralizer_evidence(X, G, 0)), name
        # the inner order, for the cap, is found once per table
        for x in range(X.n):
            assert (qk.intersection_evidence(X, x)
                    == centralizer_evidence(X, G, x)), (name, x)


def test_orbit_sizes_equal_the_conjugation_form(differential_racks):
    for name, X in differential_racks:
        for x in range(X.n):
            for y in range(X.n):
                assert (qk.orbit_divisibility(X, x, y)
                        == conj_orbit_sizes(X, x, y)), (name, x, y)


# -- points out of range ----------------------------------------------------------------


@pytest.mark.parametrize("point", [-1, 12])
def test_evidence_rejects_a_point_out_of_range(golden, point):
    with pytest.raises(ValueError, match=f"point {point} out of range 0..11"):
        qk.intersection_evidence(golden, point)


@pytest.mark.parametrize("x, y", [(-1, 0), (12, 0), (0, -1), (0, 12)])
def test_orbit_sizes_reject_a_point_out_of_range(golden, x, y):
    bad = x if not 0 <= x < 12 else y
    with pytest.raises(ValueError, match=f"point {bad} out of range 0..11"):
        qk.orbit_divisibility(golden, x, y)


# -- harnesses and the cap ----------------------------------------------------------------


def test_a_non_divisor_orbit_length_is_a_theorem_violation(golden, monkeypatch):
    # the translations of the golden quandle have order 6
    monkeypatch.setattr(analysis, "_fiber_orbit_length", lambda X, x, z: 4)
    with pytest.raises(TheoremViolation, match="does not divide"):
        qk.intersection_evidence(golden, 0)
    with pytest.raises(TheoremViolation, match="does not divide"):
        qk.orbit_divisibility(golden, 0, 5)


def test_crosscheck_keeps_the_cap(golden):
    with pytest.raises(CapExceeded):
        qk.divisibility_crosscheck(golden, cap=5)
    with pytest.raises(CapExceeded):
        qk.intersection_evidence(golden, 0, cap=5)


# -- regression guard: no centralizer subgroup, no permutation products ---------------


def _forbidden(*args, **kwargs):
    raise AssertionError("group elements were multiplied")


@pytest.mark.parametrize("which", ["golden", "six_cycle_class"])
def test_evidence_multiplies_no_permutations(which, request, monkeypatch):
    X = request.getfixturevalue(which)
    expected_evidence = [qk.intersection_evidence(X, x) for x in (0, X.n - 1)]
    for name in ("__mul__", "conj", "inverse"):
        monkeypatch.setattr(Permutation, name, _forbidden)
    monkeypatch.setattr(PermutationGroup, "centralizer", _forbidden)
    assert conjecture.full_report(X).evidence == expected_evidence[0]
    result = qk.divisibility_crosscheck(X)
    assert (result.forward_ok, result.converse_ok) == (True, True)
    assert [qk.intersection_evidence(X, x)
            for x in (0, X.n - 1)] == expected_evidence
    sizes = qk.orbit_divisibility(X, 0, X.n - 1)
    assert sizes.lam % sizes.lam_bar == 0


# -- |Inn(X)| once per table ------------------------------------------------------------
# The inner order is kept on the table, and the session's golden quandle may
# already hold it, so these tests build their own tables.


def _six_cycle_class_rack():
    return qk.conjugacy_class_quandle(
        qk.symmetric_group(6),
        Permutation.from_cycles(6, [list(range(6))])).rack


def _counting_closures(monkeypatch):
    """Record the degree of every group closure from now on."""
    calls = []
    closure = _kernels.closure_elements

    def counting(degree, generators, cap):
        calls.append(degree)
        return closure(degree, generators, cap)

    monkeypatch.setattr(_kernels, "closure_elements", counting)
    return calls


@pytest.mark.parametrize("build, order", [
    (qk.smallquandle_12_4, 72),
    (_six_cycle_class_rack, 720),
])
def test_evidence_lists_the_inner_group_once_per_table(build, order,
                                                       monkeypatch):
    X = build()
    calls = _counting_closures(monkeypatch)
    for x in range(X.n):
        qk.intersection_evidence(X, x)
    assert calls == [X.n]
    assert analysis.inner_order(X) == order
    assert calls == [X.n]


def test_inner_order_keeps_the_cap_without_listing_again(monkeypatch):
    with pytest.raises(CapExceeded) as listed:
        qk.inner_group(qk.smallquandle_12_4(), cap=71).order()
    X = qk.smallquandle_12_4()
    calls = _counting_closures(monkeypatch)
    assert analysis.inner_order(X, 72) == 72
    with pytest.raises(CapExceeded) as stored:
        analysis.inner_order(X, 71)
    assert str(stored.value) == str(listed.value)
    assert str(stored.value) == "group closure on 12 points exceeds cap 71"
    assert calls == [12]


def test_a_failed_inner_order_stores_nothing(monkeypatch):
    X = qk.smallquandle_12_4()
    calls = _counting_closures(monkeypatch)
    with pytest.raises(CapExceeded, match="exceeds cap 71"):
        analysis.inner_order(X, 71)
    assert analysis.inner_order(X, 72) == 72
    assert calls == [12, 12]


def test_crosscheck_keeps_the_cap_on_a_fresh_table():
    X = qk.smallquandle_12_4()
    with pytest.raises(CapExceeded):
        qk.divisibility_crosscheck(X, cap=5)
    result = qk.divisibility_crosscheck(X)
    assert (result.forward_ok, result.converse_ok) == (True, True)
    with pytest.raises(CapExceeded):
        qk.divisibility_crosscheck(X, cap=5)
