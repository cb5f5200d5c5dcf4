"""Classification theorems as an oracle for the quandle enumerator.

A connected quandle of prime order p is affine over Z_p
(Etingof–Soloviev–Guralnick, J. Algebra 242 (2001) 709–719), and one of
order p² is affine over Z_{p²} or Z_p² (Graña, "Indecomposable racks of
order p²", Beiträge Algebra Geom. 45 (2004)).  The affine quandles are
built by ``make_affine_spec`` and ``affine_quandle``, which share no code
with the enumerator's row search.
"""
import itertools
import math

import pytest

from quandlekit import (
    affine_quandle,
    enumerate_connected_quandles,
    is_isomorphic,
    make_affine_spec,
)


def _connected_affine(orders, alpha):
    result = affine_quandle(make_affine_spec(orders, alpha))
    return result.rack if result.beta_bijective else None


def _matrix_map(a, b, c, d):
    """t -> M t over Z_3², M = [[a, b], [c, d]]."""
    return lambda t: ((a * t[0] + b * t[1]) % 3, (c * t[0] + d * t[1]) % 3)


def _order_9_affine():
    """Every connected affine quandle over Z_9 and over Z_3², the latter
    from every invertible 2×2 matrix over Z_3."""
    out = [_connected_affine([9], alpha)
           for alpha in range(2, 9) if math.gcd(alpha, 9) == 1]
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3:
            out.append(_connected_affine([3, 3], _matrix_map(a, b, c, d)))
    return [X for X in out if X is not None]


def _isomorphic_to(X, candidates):
    return [i for i, Y in enumerate(candidates) if is_isomorphic(X, Y).found]


@pytest.mark.parametrize("p", [5, 7])
def test_prime_order_quandles_are_affine_over_z_p(p):
    affine = [_connected_affine([p], alpha) for alpha in range(2, p)]
    found = enumerate_connected_quandles(p)
    assert len(found) == p - 2
    matches = [_isomorphic_to(X, affine) for X in found]
    assert all(len(m) == 1 for m in matches), matches
    assert sorted(m[0] for m in matches) == list(range(p - 2))


@pytest.mark.slow
def test_order_9_quandles_are_affine_over_z_9_or_z_3_squared():
    classes = []  # one affine quandle of each isomorphism class
    for Y in _order_9_affine():
        if not _isomorphic_to(Y, classes):
            classes.append(Y)
    found = enumerate_connected_quandles(9, bound=9)
    assert len(found) == len(classes) == 8
    matches = [_isomorphic_to(X, classes) for X in found]
    assert all(len(m) == 1 for m in matches), matches
    assert sorted(m[0] for m in matches) == list(range(8))
