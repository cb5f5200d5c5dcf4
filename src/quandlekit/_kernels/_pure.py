"""Pure-Python implementations of the hot kernels.

The compiled backend in ``_speedups.pyx`` mirrors these functions exactly
(same signatures, same results, same output order); tests compare the two.
Permutations are image tuples over 0-based points.
"""

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


def conjugation_table(elements, degree):
    """Operation table of a conjugation-closed set of permutations.

    ``table[x][y]`` is the index in ``elements`` of ``e_x * e_y * e_x^-1``.
    Returns ``None`` if some conjugate falls outside the set.
    """
    elems = [tuple(e) for e in elements]
    index = {e: i for i, e in enumerate(elems)}
    rng = range(degree)
    table = []
    for ex in elems:
        inv = [0] * degree
        for i, j in enumerate(ex):
            inv[j] = i
        row = []
        for ey in elems:
            w = tuple(ex[ey[inv[i]]] for i in rng)
            idx = index.get(w)
            if idx is None:
                return None
            row.append(idx)
        table.append(row)
    return table
