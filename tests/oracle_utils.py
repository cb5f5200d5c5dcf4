"""Brute-force oracles shared by the test modules.

Deliberately simple: exhaustive enumeration over all set partitions, a
full scan of every product for homomorphisms, and isomorphism searches that
assign every point (all n! bijections, or point by point with pruning).
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


def brute_isomorphism(X, Y):
    """The first bijection, in lexicographic order of its images, that maps
    every product of X to the product of the images in Y; None if there is
    none.  Tries all n! bijections, so it is meant for n <= 5."""
    from itertools import permutations

    if X.n != Y.n:
        return None
    n = X.n
    for f in permutations(range(n)):
        if all(f[X.table[x][y]] == Y.table[f[x]][f[y]]
               for x in range(n) for y in range(n)):
            return f
    return None


def point_by_point_isomorphism(X, Y):
    """The isomorphism search that assigned every point in turn, kept as an
    oracle for the search over the images of a ▷-generating set.

    Candidate images must share the source element's invariant (translation
    cycle type, idempotence flag, inner orbit size); source elements are
    processed smallest invariant class first.  Returns a list holding the
    first isomorphism found, or an empty list when there is none.
    """
    from quandlekit.perm import _unchecked
    from quandlekit.racktable import _element_invariant, _orbit_size_map

    X._require_rack()
    Y._require_rack()
    if X.n != Y.n:
        return []
    n = X.n
    sx, sy = _orbit_size_map(X), _orbit_size_map(Y)
    inv_x = [_element_invariant(X, x, sx) for x in range(n)]
    inv_y = [_element_invariant(Y, y, sy) for y in range(n)]
    classes_y = {}
    for y in range(n):
        classes_y.setdefault(inv_y[y], []).append(y)
    classes_x = {}
    for x in range(n):
        classes_x.setdefault(inv_x[x], []).append(x)
    if {k: len(v) for k, v in classes_x.items()} != {
        k: len(v) for k, v in classes_y.items()
    }:
        return []

    # assignment order: smallest invariant class first, then by point
    order = sorted(range(n), key=lambda x: (len(classes_x[inv_x[x]]), x))
    pos_of = {x: i for i, x in enumerate(order)}
    # triples (a, b) with X.table[a][b] == w, for deferred checks
    preimage = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            preimage[X.table[a][b]].append((a, b))

    f = [-1] * n
    used = [False] * n
    solutions = []

    def consistent(x: int) -> bool:
        assigned = order[: pos_of[x] + 1]
        for a in assigned:
            w = X.table[x][a]
            if f[w] >= 0 and Y.table[f[x]][f[a]] != f[w]:
                return False
            w = X.table[a][x]
            if f[w] >= 0 and Y.table[f[a]][f[x]] != f[w]:
                return False
        for a, b in preimage[x]:
            if f[a] >= 0 and f[b] >= 0 and Y.table[f[a]][f[b]] != f[x]:
                return False
        return True

    def rec(i: int) -> bool:
        if i == n:
            solutions.append(_unchecked(tuple(f)))
            return True
        x = order[i]
        for y in classes_y[inv_x[x]]:
            if used[y]:
                continue
            f[x] = y
            used[y] = True
            if consistent(x) and rec(i + 1):
                return True
            f[x] = -1
            used[y] = False
        return False

    rec(0)
    return solutions


def pairwise_complete_rows(n: int, rows: list, cands: list) -> list:
    """The row search that checked every ordered pair of assigned rows,
    kept as an oracle for ``constructors._complete_rows``, which closes
    only the rows it chooses.

    DFS with trail-based undo over rows given as image tuples.  Assigning
    rows x and y forces row ``rows[x][y]`` to be the conjugate of row y by
    row x; contradictions prune the branch.  Completed assignments satisfy
    left self-distributivity by construction; each is returned as a table
    of row images."""
    from operator import itemgetter

    if n == 1:
        # the one row is the identity; itemgetter needs two indices to
        # return a tuple
        return [tuple(rows)]
    out = []
    trail = [0]
    getters: dict = {}  # row p -> (u -> u·p, u -> u·p⁻¹)

    def getters_of(p: tuple) -> tuple:
        pair = getters.get(p)
        if pair is None:
            inv = [0] * n
            for i, j in enumerate(p):
                inv[j] = i
            pair = getters[p] = (itemgetter(*p), itemgetter(*inv))
        return pair

    def set_row(i: int, p: tuple, pending: list) -> None:
        rows[i] = p
        trail.append(i)
        for j in range(n):
            if rows[j] is not None and j != i:
                pending.append((i, j))
                pending.append((j, i))
        pending.append((i, i))

    def propagate(pending: list) -> bool:
        while pending:
            x, y = pending.pop()
            px, py = rows[x], rows[y]
            t = px[y]
            # px·py·px⁻¹
            forced = getters_of(px)[1](getters_of(py)[0](px))
            current = rows[t]
            if current is not None:
                if current != forced:
                    return False
            else:
                set_row(t, forced, pending)
        return True

    def undo(mark: int):
        while len(trail) > mark:
            rows[trail.pop()] = None

    def rec():
        try:
            i = rows.index(None)
        except ValueError:
            out.append(tuple(rows))
            return
        for cand in cands[i]:
            mark = len(trail)
            pending: list = []
            set_row(i, cand, pending)
            if propagate(pending):
                rec()
            undo(mark)

    # propagate consequences of the seeded row 0 against itself
    pending0 = [(0, 0)]
    if propagate(pending0):
        rec()
    return out


def base_image_order(X):
    """|Inn(X)| as the orbit size of the tuple ``X.generating_set()`` under
    the distinct translations, kept as an oracle for
    ``analysis.inner_order``, which lists the group.

    A ▷-generating set S is a base of Inn(X): an inner automorphism that
    fixes S fixes its ▷-closure, which is X.  So the stabilizer of the
    tuple S is trivial, and its orbit has |Inn(X)| images."""
    base = tuple(X.generating_set())
    rows = [t.images for t in X.distinct_translations()]
    seen = {base}
    queue = [base]
    for image in queue:  # grows as it is read
        for row in rows:
            moved = tuple([row[p] for p in image])
            if moved not in seen:
                seen.add(moved)
                queue.append(moved)
    return len(seen)


def report_text(report):
    """The text of an ``AnalysisReport`` as rendered from its fields, kept
    as an oracle for ``AnalysisReport.to_text``, which renders from
    ``to_json_dict``."""
    skipped = dict(report.skipped)

    def line(label, value, key=None):
        if key is not None and key in skipped:
            return f"{label}: n/a ({skipped[key]})"
        return f"{label}: {value}"

    out = [
        f"n: {report.n}",
        f"kind: {report.kind}",
        f"connected: {'yes' if report.connected else 'no'}",
        f"faithful: {'yes' if report.faithful else 'no'}",
        f"fiber size: {report.fiber_size if report.fiber_size is not None else 'non-uniform'}",
        line("profile", report.profile, "profile"),
    ]
    if report.least_length_above_one:
        out.append("note: rack profile with least length above 1")
    if "primitive" in skipped:
        out.append(f"primitive: n/a ({skipped['primitive']})")
    else:
        out.append(f"primitive: {'yes' if report.primitive else 'no'}")
        if report.block_witness is not None:
            cells = " ".join(
                "{" + ",".join(str(p + 1) for p in sorted(cell)) + "}"
                for cell in report.block_witness
            )
            out.append(f"block witness: {cells}")
    out.append(line("hayashi", report.hayashi, "hayashi"))
    if report.evidence is not None:
        w = report.evidence.trivial_witness
        out.append(
            "trivial-intersection witness: "
            + (f"element {w + 1}" if w is not None else "none")
            + f" (cyclic order {report.evidence.F_order})"
        )
    elif "evidence" in skipped:
        out.append(f"trivial-intersection witness: n/a ({skipped['evidence']})")
    if report.lambda_parts is not None:
        for c in report.lambda_parts:
            out.append(
                f"length-{c.k} part: each point {c.expected}x, "
                f"uniform: {'yes' if c.uniform else 'NO'}"
            )
    if report.k_tilde is not None:
        for d in report.k_tilde:
            if not d.is_partition:
                out.append(f"k~={d.k}: parts do not partition the points")
            else:
                out.append(
                    f"k~={d.k}: partition into {len(d.cells)} cells, "
                    f"block system: {'yes' if d.is_block_system else 'no'}"
                )
    return "\n".join(out) + "\n"
