"""Brute-force oracles shared by the test modules.

Deliberately simple: exhaustive enumeration over all set partitions, and a
full scan of every product for homomorphisms.
"""


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield [{first}] + part


def brute_block_partitions(G):
    """Every partition of the points that the group permutes cell-wise."""
    out = []
    for part in set_partitions(list(range(G.degree))):
        cells = [frozenset(c) for c in part]
        if G.is_block(cells):
            out.append(cells)
    return out


def is_homomorphic_image(X, Y, f):
    """Full scan: f(x ▷ y) == f(x) ▷' f(y) for all x, y."""
    return all(
        f(X.table[x][y]) == Y.table[f(x)][f(y)]
        for x in range(X.n)
        for y in range(X.n)
    )
