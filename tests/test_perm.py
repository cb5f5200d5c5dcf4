"""Permutation arithmetic, cycle structure, and text forms."""
import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import quandlekit
from quandlekit import CycleType, Permutation
from quandlekit.errors import DegreeMismatch, ParseError


def P(text, degree):
    return Permutation.parse(text, degree)


def perms(degree):
    return st.permutations(range(degree)).map(Permutation)


any_perm = st.integers(min_value=1, max_value=10).flatmap(perms)


# -- composition and conjugation -------------------------------------------


def test_compose_identity_is_neutral():
    p = P("(1,4,2)(3,5)", 5)
    e = Permutation.identity(5)
    assert e * p == p
    assert p * e == p


def test_compose_applies_right_factor_first():
    p = P("(1,2)", 3)
    q = P("(2,3)", 3)
    # (p*q)(2) = p(q(2)) = p(3) = 3  (1-based reading)
    assert (p * q)(1) == 2


def test_compose_with_inverse_is_identity():
    p = P("(1,3,2,5)", 6)
    assert (p * p.inverse()).is_identity()


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Permutation.identity(3) * Permutation.identity(4)


def test_conjugate_by_identity():
    b = P("(2,3)", 3)
    assert Permutation.identity(3).conj(b) == b


def test_conjugate_self_is_self():
    a = P("(1,2,3)", 4)
    assert a.conj(a) == a


def test_conjugate_transposition():
    # conjugating (2,3) by (1,2) relabels the moved points: gives (1,3)
    assert P("(1,2)", 3).conj(P("(2,3)", 3)) == P("(1,3)", 3)


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(perms(n), perms(n), perms(n))))
def test_compose_associative(triple):
    p, q, r = triple
    assert (p * q) * r == p * (q * r)


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(perms(n), perms(n))))
def test_conjugation_preserves_cycle_type(pair):
    a, b = pair
    assert a.conj(b).cycle_type() == b.cycle_type()


@given(st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(perms(n), perms(n))))
def test_single_pass_conj_matches_two_products(pair):
    p, q = pair
    assert p.conj(q) == p * q * p.inverse()


def test_conj_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Permutation.identity(3).conj(Permutation.identity(4))
    with pytest.raises(DegreeMismatch):
        Permutation.identity(4).conj(Permutation.identity(3))


def test_constructor_still_checks_its_input():
    with pytest.raises(ValueError):
        Permutation([0, 0])
    with pytest.raises(ValueError):
        Permutation([1, 2])


def test_cycles_refuse_unchecked_images_that_are_not_a_permutation():
    # A cycle walk on such images would never end; the child's address
    # space limit and the timeout turn that into a failure of this test.
    src = os.path.dirname(os.path.dirname(os.path.abspath(quandlekit.__file__)))
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
        from quandlekit.perm import _unchecked
        for call in (lambda: _unchecked((0, 0)).cycles(),
                     lambda: repr(_unchecked((1, 1, 0)))):
            try:
                call()
            except ValueError:
                print("ValueError")
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.stdout == "ValueError\nValueError\n"


# -- cycle structure -----------------------------------------------------------


def test_cycle_type_of_golden_row(golden):
    assert golden.phi(0).cycle_type() == CycleType([(1, 1), (2, 1), (3, 1), (6, 1)])


def test_cycle_type_identity():
    assert Permutation.identity(5).cycle_type() == CycleType([(1, 5)])


def test_cycle_type_five_cycle_in_degree_seven():
    assert P("(1,2,3,4,5)", 7).cycle_type() == CycleType([(1, 2), (5, 1)])


def test_squaring_golden_row_splits_the_six_cycle(golden):
    sq = golden.phi(0) * golden.phi(0)
    assert sq.cycle_type() == CycleType([(1, 3), (3, 3)])


def test_order_identity():
    assert Permutation.identity(4).order() == 1


def test_order_golden_row(golden):
    assert golden.phi(0).order() == 6


def test_order_mixed_cycles():
    assert P("(1,2)(3,4,5)", 5).order() == 6


@given(any_perm)
def test_order_is_lcm_of_cycle_lengths(p):
    assert p.order() == math.lcm(*(len(c) for c in p.cycles()))
    power = Permutation.identity(p.degree)
    for _ in range(p.order()):
        power = power * p
    assert power.is_identity()


def test_k_part_golden(golden):
    assert golden.phi(0).k_part(2) == frozenset({4, 8})   # points 5, 9
    assert golden.phi(4).k_part(2) == frozenset({0, 8})   # points 1, 9


def test_k_part_identity_has_no_two_cycles():
    assert Permutation.identity(6).k_part(2) == frozenset()


def test_k_tilde_part_golden(golden):
    assert golden.phi(0).k_tilde_part(2) == frozenset({0, 4, 8})
    assert golden.phi(0).k_tilde_part(3) == frozenset({0, 1, 2, 3})


@given(any_perm)
def test_k_tilde_at_order_covers_everything(p):
    assert p.k_tilde_part(p.order()) == frozenset(range(p.degree))


@given(any_perm, st.integers(min_value=1, max_value=12))
def test_k_tilde_is_union_of_divisor_parts(p, k):
    union = frozenset().union(
        *(p.k_part(d) for d in range(1, k + 1) if k % d == 0))
    assert p.k_tilde_part(k) == union


# -- cycle type object -----------------------------------------------------------


def test_cycle_type_str_form():
    assert str(CycleType([(1, 1), (2, 1), (3, 1), (6, 1)])) == "1^1 2^1 3^1 6^1"


def test_cycle_type_degree_and_largest():
    ct = CycleType([(1, 2), (4, 1)])
    assert ct.degree == 6
    assert ct.largest == 4
    assert ct.multiplicity(4) == 1
    assert ct.multiplicity(3) == 0


def test_cycle_type_rejects_unsorted_parts():
    with pytest.raises(ValueError):
        CycleType([(3, 1), (2, 1)])


# -- text forms ------------------------------------------------------------------


def test_parse_fixed_points_optional():
    assert P("(5,9)(2,4,3)(6,12,7,10,8,11)", 12) == P(
        "(1)(5,9)(2,4,3)(6,12,7,10,8,11)", 12)


def test_cycle_string_sorted_by_least_moved_point(golden):
    assert golden.phi(0).cycle_string() == "(2,4,3)(5,9)(6,12,7,10,8,11)"


def test_identity_prints_as_empty_cycle():
    assert Permutation.identity(3).cycle_string() == "()"
    assert P("()", 3).is_identity()


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        P("(1,2) junk", 3)
    with pytest.raises(ParseError):
        P("(1,5)", 3)


@pytest.mark.parametrize("text", ["(1,2)(2,1)", "(1,2,1)", "(1,2)(3,1)"])
def test_parse_rejects_a_repeated_point(text):
    with pytest.raises(ParseError, match="more than once"):
        P(text, 3)


@given(any_perm)
def test_cycle_string_round_trip(p):
    assert Permutation.parse(p.cycle_string(), p.degree) == p


def _cycle_text(cycles):
    return "".join(
        "(" + ",".join(str(x + 1) for x in c) + ")" for c in cycles) or "()"


ROUND_TRIP = settings(max_examples=300, deadline=None, derandomize=True)


@ROUND_TRIP
@given(st.integers(min_value=1, max_value=12).flatmap(perms),
       st.randoms(use_true_random=False))
def test_cycle_forms_build_the_checked_permutation(p, rnd):
    # parse and from_cycles wrap their images without the constructor's
    # sort; the constructor is the oracle
    expected = Permutation(p.images)
    cycles = p.cycles(nontrivial_only=rnd.random() < 0.5)
    rnd.shuffle(cycles)
    cycles = [c[k:] + c[:k] for c in cycles for k in [rnd.randrange(len(c))]]
    assert Permutation.parse(p.cycle_string(), p.degree) == expected
    assert Permutation.parse(_cycle_text(cycles), p.degree) == expected
    assert Permutation.from_cycles(p.degree, p.cycles()) == expected
    assert Permutation.from_cycles(p.degree, cycles) == expected


@ROUND_TRIP
@given(st.integers(min_value=1, max_value=12).flatmap(perms), st.data())
def test_cycle_forms_reject_a_repeated_or_out_of_range_point(p, data):
    n = p.degree
    cycles = p.cycles()
    repeated = data.draw(st.sampled_from(range(n)))
    with pytest.raises(ParseError,
                       match=f"^point {repeated + 1} appears more than once$"):
        Permutation.parse(_cycle_text(cycles + [[repeated]]), n)
    with pytest.raises(ValueError,
                       match=f"^point {repeated} appears in two cycles$"):
        Permutation.from_cycles(n, cycles + [[repeated]])
    outside = data.draw(st.sampled_from([-1, n, n + 1]))
    with pytest.raises(ParseError,
                       match=f"^point {outside + 1} out of range 1..{n}$"):
        Permutation.parse(_cycle_text(cycles + [[outside]]), n)
    with pytest.raises(ValueError,
                       match=f"^point {outside} out of range for degree {n}$"):
        Permutation.from_cycles(n, cycles + [[outside]])
