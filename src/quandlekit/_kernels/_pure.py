"""Pure-Python implementations of the hot kernels.

The compiled backend in ``_speedups.pyx`` mirrors these functions exactly
(same signatures, same results, same output order); tests compare the two.
Permutations are image tuples over 0-based points.
"""

from itertools import repeat
from operator import itemgetter

BACKEND = "pure"


def closure_elements(degree, generators, cap):
    """Breadth-first closure of ``generators`` under composition.

    Elements are produced in BFS discovery order starting from the identity,
    extending each known element ``e`` by ``e * g`` (apply ``g`` first) with
    the generators in their given order.  Returns the full element list, or
    ``None`` as soon as the closure would exceed ``cap`` elements.
    """
    ident = tuple(range(degree))
    if degree <= 1:
        # the identity is the only permutation; itemgetter needs two indices
        # to return a tuple
        return [ident]
    # itemgetter(*g)(e) == (e[g[0]], ..., e[g[n-1]]), the images of e * g
    getters = [itemgetter(*g) for g in generators]
    seen = {ident}
    queue = [ident]
    qi = 0
    while qi < len(queue):
        e = queue[qi]
        qi += 1
        for get in getters:
            w = get(e)
            if w not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(w)
                queue.append(w)
    return queue


def a1_violations(rows, limit=-1):
    """Triples (x, y, z) violating left self-distributivity.

    ``rows`` is a square table of image rows (row x = the translation map of
    x).  A triple fails when ``rows[x][rows[y][z]] != rows[rows[x][y]][rows[x][z]]``.
    Scans in lexicographic (x, y, z) order; a negative ``limit`` collects all
    violations.
    """
    n = len(rows)
    if n > 256:
        # bytes.translate maps single bytes only
        return _a1_violations_getters(rows, limit)
    # tabs[x] is row x padded to a 256-byte translation table, so
    # b[y].translate(tabs[x]) is the row z -> x▷(y▷z) and
    # b[x].translate(tabs[x▷y]) the row z -> (x▷y)▷(x▷z), each built in one
    # C call.  One list comparison settles x; y and z are walked only where
    # the rows differ, so witnesses keep their order and ``limit`` its
    # meaning.
    b = [bytes(r) for r in rows]
    pad = bytes(256 - n)
    tabs = [r + pad for r in b]
    rng = range(n)
    out = []
    for x in rng:
        left = list(map(bytes.translate, b, repeat(tabs[x])))
        right = list(map(b[x].translate, map(tabs.__getitem__, rows[x])))
        if left != right:
            for y in rng:
                ly, ry = left[y], right[y]
                if ly != ry:
                    for z in rng:
                        if ly[z] != ry[z]:
                            out.append((x, y, z))
                            if 0 <= limit <= len(out):
                                return out
    return out


def _a1_violations_getters(rows, limit=-1):
    """:func:`a1_violations` for tables of any size, with rows composed by
    ``itemgetter``."""
    # getters[y](r) == (r[rows[y][0]], ..., r[rows[y][n-1]]): for each pair
    # (x, y) both sides of the identity are built as whole rows in one C
    # call each, and z is walked only where the rows differ.  With n == 1
    # itemgetter returns an int, and comparing two ints is just as exact.
    getters = [itemgetter(*r) for r in rows]
    rng = range(len(rows))
    out = []
    for x in rng:
        rx = rows[x]
        gx = getters[x]
        for y in rng:
            rt = rows[rx[y]]
            if getters[y](rx) != gx(rt):
                ry = rows[y]
                for z in rng:
                    if rx[ry[z]] != rt[rx[z]]:
                        out.append((x, y, z))
                        if 0 <= limit <= len(out):
                            return out
    return out


def conjugation_table(elements, degree):
    """Operation table of a conjugation-closed set of permutations.

    ``table[x][y]`` is the index in ``elements`` of ``e_x * e_y * e_x^-1``.
    Returns ``None`` if some conjugate falls outside the set.
    """
    elems = [tuple(e) for e in elements]
    index = {e: i for i, e in enumerate(elems)}
    if degree <= 1:
        # every element is the identity, its own conjugate; itemgetter needs
        # two indices to return a tuple
        return [[index[e] for e in elems] for _ in elems]
    # itemgetter(*ey)(ex) is ex * ey; itemgetter(*inv)(u) is u * ex^-1
    getters = [itemgetter(*e) for e in elems]
    table = []
    for ex in elems:
        inv = [0] * degree
        for i, j in enumerate(ex):
            inv[j] = i
        get_inv = itemgetter(*inv)
        row = [index.get(get_inv(gy(ex))) for gy in getters]
        if None in row:
            return None
        table.append(row)
    return table
