"""The pure closure kernel against a naive breadth-first closure.

``test_kernels.py`` compares the two backends and is skipped when the
extension is not built; this module pins the pure kernel on its own.
"""
import random

import pytest

from quandlekit._kernels import _pure


def naive_closure(degree, generators, cap):
    """One product per element and generator, built point by point."""
    ident = tuple(range(degree))
    gens = [tuple(g) for g in generators]
    seen = {ident}
    queue = [ident]
    qi = 0
    while qi < len(queue):
        e = queue[qi]
        qi += 1
        for g in gens:
            w = tuple(e[g[i]] for i in range(degree))
            if w not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(w)
                queue.append(w)
    return queue


def random_generators(rng, degree):
    """One to three random permutations that keep the closure small: each
    permutes the points within every chunk of one random partition of the
    points into chunks of at most four."""
    points = list(range(degree))
    rng.shuffle(points)
    chunks = []
    while points:
        size = rng.randint(2, 4)
        chunks.append(points[:size])
        points = points[size:]
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(degree))
        for chunk in chunks:
            moved = chunk[:]
            rng.shuffle(moved)
            for a, b in zip(chunk, moved):
                images[a] = b
        gens.append(tuple(images))
    return gens


EDGE_CASES = [
    (0, []),
    (0, [()]),
    (1, []),
    (1, [(0,)]),
    (2, [(1, 0)]),
    (3, [(0, 1, 2)]),
]
RANDOM_CASES = [
    (degree, random_generators(random.Random(1000 * degree + seed), degree))
    for degree in range(10)
    for seed in range(6)
]


@pytest.mark.parametrize("degree,gens", EDGE_CASES + RANDOM_CASES)
def test_closure_matches_naive_bfs_in_order_and_at_the_cap(degree, gens):
    expected = naive_closure(degree, gens, 10**6)
    assert _pure.closure_elements(degree, gens, 10**6) == expected
    order = len(expected)
    assert _pure.closure_elements(degree, gens, order) == expected
    below = _pure.closure_elements(degree, gens, order - 1)
    assert below == naive_closure(degree, gens, order - 1)
    if order > 1:
        assert below is None


def test_random_cases_reach_large_closures():
    orders = [len(naive_closure(d, g, 10**6)) for d, g in RANDOM_CASES]
    assert max(orders) >= 100
