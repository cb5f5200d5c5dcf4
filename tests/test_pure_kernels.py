"""The pure kernels against naive point-by-point versions of themselves.

``test_kernels.py`` compares the two backends and is skipped when the
extension is not built; this module pins each pure kernel on its own.
"""
import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

import quandlekit as qk
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


# -- the distributivity scan (A1) ---------------------------------------------------


def naive_a1(rows, limit=-1):
    """Every triple checked on its own, in lexicographic order."""
    n = len(rows)
    out = []
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            ry = rows[y]
            rt = rows[rx[y]]
            for z in range(n):
                if rx[ry[z]] != rt[rx[z]]:
                    out.append((x, y, z))
                    if 0 <= limit <= len(out):
                        return out
    return out


LIMITS = [-1, 0, 1, 2, 5]


@st.composite
def square_tables(draw):
    """A table of size 0..8 with arbitrary or bijective rows, as tuples or
    lists."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        row = st.permutations(range(n))
    else:
        row = st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [tuple(r) for r in rows]
    return rows


@given(square_tables(), st.sampled_from(LIMITS))
# rows z -> x▷(y▷z) and z -> (x▷y)▷(x▷z) differ at (x, y) = (2, 1), while the
# rows built with the two row getters exchanged agree there
@example([(0, 0, 0), (0, 0, 2), (0, 0, 1)], -1)
@example([], -1)
@example([(0,)], -1)
@example([[0]], 0)
def test_a1_matches_naive_scan_on_random_tables(rows, limit):
    assert _pure.a1_violations(rows, limit) == naive_a1(rows, limit)


def _racks_to_perturb():
    s4 = qk.symmetric_group(4)
    s5 = qk.symmetric_group(5)
    return [
        qk.conjugacy_class_quandle(
            s4, qk.Permutation.from_cycles(4, [[0, 1]])).rack,
        qk.conjugacy_class_quandle(
            s4, qk.Permutation.from_cycles(4, [[0, 1, 2, 3]])).rack,
        qk.conjugacy_class_quandle(
            s5, qk.Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])).rack,
        qk.affine_quandle(qk.make_affine_spec([7], 3)).rack,
        qk.affine_quandle(qk.make_affine_spec([3, 3], 2)).rack,
        qk.cyclic_permutation_rack(5),
    ]


def _swapped(table, rng):
    """``table`` with two entries of one row swapped: rows stay bijective."""
    rows = [list(r) for r in table]
    x = rng.randrange(len(rows))
    i, j = rng.sample(range(len(rows)), 2)
    rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
    return [tuple(r) for r in rows]


@pytest.mark.parametrize("limit", LIMITS)
def test_a1_matches_naive_scan_on_racks_with_two_entries_swapped(limit):
    rng = random.Random(limit)
    for rack in _racks_to_perturb():
        rows = [tuple(r) for r in rack.table]
        assert _pure.a1_violations(rows, limit) == []
        for _ in range(4):
            bad = _swapped(rows, rng)
            expected = naive_a1(bad, limit)
            assert expected
            assert _pure.a1_violations(bad, limit) == expected


@given(square_tables())
@example([(0, 0, 0), (0, 0, 2), (0, 0, 1)])
@example([])
def test_byte_rows_match_the_getter_scan_on_random_tables(rows):
    assert _pure.a1_violations(rows) == _pure._a1_violations_getters(rows)


def affine_rows(n):
    """The affine quandle x▷y = 3y - 2x over Z_n."""
    return [tuple((3 * y - 2 * x) % n for y in range(n)) for x in range(n)]


# rows of up to 256 points are composed as bytes, larger ones by itemgetter
@pytest.mark.parametrize("n", [256, 257])
def test_a1_on_both_sides_of_the_byte_row_cut(n):
    rows = affine_rows(n)
    assert _pure.a1_violations(rows) == []
    rng = random.Random(n)
    for _ in range(3):
        bad = _swapped(rows, rng)
        for limit in (1, 2, 5):
            expected = naive_a1(bad, limit)
            assert len(expected) == limit
            assert _pure.a1_violations(bad, limit) == expected


def test_byte_rows_match_the_getter_scan_at_256_points():
    rows = affine_rows(256)
    bad = _swapped(rows, random.Random(0))
    witnesses = _pure.a1_violations(bad)
    assert witnesses
    assert witnesses == _pure._a1_violations_getters(bad)
    # a row that is not a bijection: row 9 sends 0 where it sends 1
    rows[9] = (rows[9][1],) + rows[9][1:]
    witnesses = _pure.a1_violations(rows)
    assert witnesses
    assert witnesses == _pure._a1_violations_getters(rows)


# -- the conjugation table ----------------------------------------------------------


def naive_conjugation_table(elements, degree):
    """Each conjugate built point by point, ``None`` at the first miss."""
    elems = [tuple(e) for e in elements]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for ex in elems:
        inv = [0] * degree
        for i, j in enumerate(ex):
            inv[j] = i
        row = []
        for ey in elems:
            idx = index.get(tuple(ex[ey[inv[i]]] for i in range(degree)))
            if idx is None:
                return None
            row.append(idx)
        table.append(row)
    return table


def cycle_type(p):
    seen, lengths = set(), []
    for start in range(len(p)):
        length = 0
        while start not in seen:
            seen.add(start)
            start = p[start]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def random_closed_set(rng, degree):
    """A shuffled union of whole conjugacy classes of S_degree, or the
    powers of one permutation; either set is closed under conjugation."""
    perms = list(itertools.permutations(range(degree)))
    if rng.random() < 0.25:
        g = rng.choice(perms)
        power, elems = g, []
        while power not in elems:
            elems.append(power)
            power = tuple(g[i] for i in power)
    else:
        types = rng.sample(sorted({cycle_type(p) for p in perms}),
                           rng.randint(1, 2))
        elems = [p for p in perms if cycle_type(p) in types]
    rng.shuffle(elems)
    return elems


CLOSED_CASES = [
    (degree, random_closed_set(random.Random(100 * degree + seed), degree))
    for degree in range(2, 7)
    for seed in range(5)
]


@pytest.mark.parametrize("degree,elements", CLOSED_CASES)
def test_conjugation_table_matches_naive_on_closed_sets(degree, elements):
    expected = naive_conjugation_table(elements, degree)
    assert expected is not None
    assert _pure.conjugation_table(elements, degree) == expected


@pytest.mark.parametrize("degree,elements", [
    (3, [(1, 0, 2), (0, 2, 1)]),
    (4, [p for p in itertools.permutations(range(4))
         if cycle_type(p) == (1, 1, 2)][1:]),
    (4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
])
def test_conjugation_table_of_a_set_that_is_not_closed(degree, elements):
    assert naive_conjugation_table(elements, degree) is None
    assert _pure.conjugation_table(elements, degree) is None


@pytest.mark.parametrize("degree,elements", [
    (0, []), (0, [()]), (0, [(), ()]), (1, []), (1, [(0,)]), (1, [[0], (0,)]),
])
def test_conjugation_table_in_degree_zero_and_one(degree, elements):
    assert (_pure.conjugation_table(elements, degree)
            == naive_conjugation_table(elements, degree))
