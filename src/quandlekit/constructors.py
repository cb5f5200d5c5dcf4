"""Builders for racks and quandles from group-theoretic data.

Finite groups are handled as permutation groups given by generators.  The
homogeneous construction lists the group's elements; the class quandles,
the class scans and the enumeration list conjugacy classes, never the
ambient group.  Coset representatives and class-element orderings are fixed
deterministically (image-array lexicographic order) so every constructed
table is reproducible bit-exactly.
"""
from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import (Callable, Dict, Iterable, Mapping, NamedTuple, Optional,
                    Sequence, Union)

from . import _kernels
from .errors import (BoundExceeded, CapExceeded, DegreeMismatch,
                     TheoremViolation)
from .perm import (
    DEFAULT_CAP,
    CycleType,
    Permutation,
    PermutationGroup,
    _inverse_images,
    _unchecked,
    all_partitions,
    alternating_group,
    canonical_of_cycle_type,
    generating_points,
    orbit_partition,
    symmetric_class,
    symmetric_class_size,
)
from .racktable import RackTable, fingerprint, is_isomorphic
from .analysis import Profile, connected_profile, is_connected

ENUMERATION_BOUND = 8
CLASS_SCAN_BOUND = 7
# Entries of the largest operation table built from a conjugacy class: 2^25
# admits every class of S8, the largest having 5760^2 = 33.2 M entries.
TABLE_BOUND = 2 ** 25


# -- simple tables -------------------------------------------------------------


def trivial_quandle(n: int) -> RackTable:
    """x ▷ y = y on n elements."""
    return RackTable([[y for y in range(n)] for _ in range(n)])


def dihedral_quandle(n: int) -> RackTable:
    """x ▷ y = 2x - y mod n (reflections of the n-gon)."""
    return RackTable([[(2 * x - y) % n for y in range(n)] for x in range(n)])


def cyclic_permutation_rack(n: int) -> RackTable:
    """x ▷ y = y + 1 mod n: a connected non-quandle rack for n >= 2."""
    return RackTable([[(y + 1) % n for y in range(n)] for _ in range(n)])


def _as_promised(table, promise: str, construction: str) -> RackTable:
    """The validated table of a construction that always yields a
    ``promise`` ("quandle" or "rack").  The validation verdict is read, not
    recomputed; a broken promise can only be an implementation bug and
    raises :class:`TheoremViolation`."""
    rack = RackTable(table)
    if not (rack.is_quandle if promise == "quandle" else rack.is_rack):
        raise TheoremViolation(f"{construction} produced a non-{promise} table")
    return rack


# -- conjugation racks -----------------------------------------------------------


class ClassQuandle(NamedTuple):
    """A conjugacy-class quandle with its labeling back into the ambient
    symmetric group (labels[x] is the permutation at table point x)."""
    rack: RackTable
    labels: tuple
    ambient_degree: int


def _check_table(stage: str, n: int) -> None:
    """Raise :class:`CapExceeded` when an n-point table passes TABLE_BOUND."""
    if n * n > TABLE_BOUND:
        raise CapExceeded(
            f"{stage}: table of {n}^2 = {n * n} entries exceeds "
            f"the table bound {TABLE_BOUND}")


def rack_from_conjugation_closed(perms: Sequence[Permutation]):
    """Operation table of a conjugation-closed set of permutations.

    Elements are sorted by image array and labeled 0..n-1; entry (x, y) is
    the label of ``p_x p_y p_x^-1``.  Returns ``(rack, labels)``.  A table
    of more than TABLE_BOUND entries raises :class:`CapExceeded` unbuilt.
    """
    labels = tuple(sorted(set(perms)))
    degree = labels[0].degree
    _check_table(f"conjugation rack in degree {degree}", len(labels))
    table = _kernels.conjugation_table([p.images for p in labels], degree)
    if table is None:
        raise ValueError("permutation set is not closed under conjugation")
    return _as_promised(table, "quandle", "conjugation construction"), labels


def conjugacy_class_quandle(G: PermutationGroup, g: Permutation) -> ClassQuandle:
    """The quandle of the conjugacy class of ``g`` in ``G``."""
    cls = G.conjugacy_class(g)
    rack, labels = rack_from_conjugation_closed(cls)
    return ClassQuandle(rack, labels, G.degree)


def symmetric_class_quandle(d: int, parts: Sequence[int],
                            cap: int = DEFAULT_CAP) -> ClassQuandle:
    """The quandle of the class of cycle type ``parts`` in the symmetric
    group of degree d.  The class size is computed first, so a class over
    ``cap``, or one whose table would pass TABLE_BOUND, raises
    :class:`CapExceeded` without being listed; the cap is checked first."""
    _check_table(f"class quandle of cycle type {CycleType.from_lengths(parts)} "
                 f"in degree {d}", symmetric_class_size(parts, cap))
    return ClassQuandle(
        *rack_from_conjugation_closed(symmetric_class(d, parts, cap)), d)


# -- homogeneous quandles ----------------------------------------------------------


class HomogeneousSpec(NamedTuple):
    """Data for a coset-space quandle: a finite permutation group, subgroup
    generators, and an automorphism fixing the subgroup pointwise."""
    group: PermutationGroup
    subgroup_generators: tuple
    alpha: Mapping  # Permutation -> Permutation over all group elements


def make_homogeneous_spec(group: PermutationGroup,
                          subgroup_generators: Iterable[Permutation],
                          alpha: Mapping) -> HomogeneousSpec:
    """Check the invariants of ``alpha``, a map over all group elements:
    it is an automorphism of the group and fixes the subgroup pointwise.

    Both are checked on generators: a bijection with
    alpha(a·g) = alpha(a)·alpha(g) for every element a and group generator
    g is a homomorphism (induct on the word length of the second factor),
    and it fixes the subgroup when it fixes each subgroup generator.
    """
    elems = group.elements()
    amap = dict(alpha)
    if set(amap) != set(elems) or set(amap.values()) != set(elems):
        raise ValueError("alpha is not a bijection of the group elements")
    gens = [(g, amap[g]) for g in group.generators]
    for a in elems:
        alpha_a = amap[a]
        for g, alpha_g in gens:
            if amap[a * g] != alpha_a * alpha_g:
                raise ValueError(
                    f"alpha is not a homomorphism at ({a!r}, {g!r})")
    subgens = tuple(subgroup_generators)
    for h in subgens:
        if h.degree != group.degree:
            raise DegreeMismatch(
                f"generator degree {h.degree} != group degree {group.degree}")
    for h in subgens:
        if h not in group:
            raise ValueError("subgroup generators do not lie in the group")
        if amap[h] != h:
            raise ValueError(f"alpha moves the subgroup element {h!r}")
    return HomogeneousSpec(group, subgens, amap)


def _sized_subgroup(G: PermutationGroup,
                    subgroup_generators: Iterable[Permutation]) -> frozenset:
    """The elements of the subgroup H of G that ``subgroup_generators``
    generate; a coset space G/H whose table would pass TABLE_BOUND raises
    :class:`CapExceeded`."""
    hset = PermutationGroup(G.degree, subgroup_generators,
                            cap=G.cap).element_set()
    _check_table(f"homogeneous quandle of |G|={G.order()}, |H|={len(hset)}",
                 G.order() // len(hset))
    return hset


def homogeneous_quandle(spec: HomogeneousSpec) -> RackTable:
    """Coset-space quandle: xH ▷ yH = x·alpha(x^-1 y)·H.

    Coset representatives are the least elements in the fixed ordering of
    group elements.  The construction always yields a quandle.
    """
    G = spec.group
    hset = _sized_subgroup(G, spec.subgroup_generators)
    rep_of: Dict[Permutation, Permutation] = {}
    reps = []
    # in increasing order, the first element met of each coset is its least
    for g in sorted(G.elements()):
        if g not in rep_of:
            reps.append(g)
            for h in hset:
                rep_of[g * h] = g
    index = {r: i for i, r in enumerate(reps)}
    alpha = spec.alpha
    table = []
    for x in reps:
        xinv = x.inverse()
        row = []
        for y in reps:
            z = x * alpha[xinv * y]
            row.append(index[rep_of[z]])
        table.append(row)
    return _as_promised(table, "quandle", "homogeneous construction")


# -- affine quandles --------------------------------------------------------------


class AffineSpec(NamedTuple):
    """An abelian group (product of cyclic groups, row-major tuple order)
    together with an automorphism given as an explicit element map."""
    orders: tuple
    alpha: tuple  # alpha[i] = index of the image of the i-th tuple

    @property
    def size(self) -> int:
        out = 1
        for o in self.orders:
            out *= o
        return out


class AffineResult(NamedTuple):
    rack: RackTable
    beta_bijective: bool


def _affine_tuples(orders):
    """The group elements in row-major order; a group whose table would
    pass TABLE_BOUND raises :class:`CapExceeded` unlisted."""
    _check_table(f"affine quandle of orders {','.join(map(str, orders))}",
                 math.prod(orders))
    return list(itertools.product(*(range(o) for o in orders)))


def make_affine_spec(orders: Sequence[int],
                     alpha: Union[int, Sequence[int], Callable]) -> AffineSpec:
    """Normalize ``alpha`` (a multiplier, an image-index list, or a callable
    on tuples) and check it is an automorphism.

    Additivity is checked against the unit vectors, which generate the
    group, as alpha is checked on generators in
    :func:`make_homogeneous_spec`."""
    orders = tuple(int(o) for o in orders)
    if not orders:
        raise ValueError("at least one cyclic order is needed")
    if any(o < 1 for o in orders):
        raise ValueError("cyclic orders must be positive")
    tuples = _affine_tuples(orders)
    index = {t: i for i, t in enumerate(tuples)}
    if isinstance(alpha, int):
        images = [
            index[tuple((alpha * a) % o for a, o in zip(t, orders))]
            for t in tuples
        ]
    elif callable(alpha):
        images = [index[tuple(alpha(t))] for t in tuples]
    else:
        images = [int(i) for i in alpha]
        if len(images) != len(tuples):
            raise ValueError(
                f"alpha image list has {len(images)} entries, expected {len(tuples)}")
    if sorted(images) != list(range(len(tuples))):
        raise ValueError("alpha is not a bijection")
    image = {t: tuples[i] for t, i in zip(tuples, images)}

    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    units = [tuple(1 % o if j == i else 0 for j, o in enumerate(orders))
             for i in range(len(orders))]
    for a in tuples:
        for e in units:
            if image[add(a, e)] != add(image[a], image[e]):
                raise ValueError("alpha is not additive (not an automorphism)")
    return AffineSpec(orders, tuple(images))


def affine_quandle(spec: AffineSpec) -> AffineResult:
    """x ▷ y = alpha(y - x) + x over the tuple group, with the displacement
    map x - alpha(x) deciding connectedness (bijective iff connected; the
    equivalence is re-checked against the orbit computation)."""
    orders = spec.orders
    tuples = _affine_tuples(orders)
    index = {t: i for i, t in enumerate(tuples)}
    alpha = [tuples[i] for i in spec.alpha]
    beta = [
        tuple((a - b) % o for a, b, o in zip(t, alpha[i], orders))
        for i, t in enumerate(tuples)
    ]
    beta_bijective = len(set(beta)) == len(tuples)
    table = []
    for x in tuples:
        row = []
        for y in tuples:
            d = tuple((b - a) % o for a, b, o in zip(x, y, orders))
            img = alpha[index[d]]
            row.append(index[tuple((a + b) % o for a, b, o in zip(img, x, orders))])
        table.append(row)
    rack = _as_promised(table, "quandle", "affine construction")
    if is_connected(rack) != beta_bijective:
        raise TheoremViolation(
            "displacement-map verdict disagrees with orbit connectedness")
    return AffineResult(rack, beta_bijective)


# -- enumeration -------------------------------------------------------------------


def _search_connected_tables(n: int, quandle_only: bool,
                             cap: int = DEFAULT_CAP) -> list:
    """Backtracking over row tuples, closing each chosen row.

    Soundness of the restrictions, given that only connected results are
    kept: all rows of a connected rack share one cycle type, so the
    candidate rows are one conjugacy class of the symmetric group; the cycle
    length of x within its own row is constant across x, and a relabeling
    can always move the lexicographically least permutation realizing those
    invariants into row 0.  Each class is sized from its cycle type before
    it is listed, so a class over ``cap`` raises :class:`CapExceeded`
    unlisted.

    A row is a candidate for x only when x is the least point of its own
    cycle: since φ_{x▷x} = φ_x, every point of that cycle has row φ_x, and
    the search branches on points in increasing order, so a lesser point of
    the cycle already holds a row other than φ_x (had it held φ_x, the
    closure would already have set row x) and the branch would die.
    """
    tables = []

    def least_cycle_len_map(p: Permutation) -> list:
        """Cycle length at the least point of each cycle (``cycles()``
        starts each cycle there), 0 elsewhere."""
        lens = [0] * n
        for c in p.cycles():
            lens[c[0]] = len(c)
        return lens

    for parts in all_partitions(n):
        if quandle_only and 1 not in parts:
            continue
        pool = symmetric_class(n, parts, cap)
        pool_lens = [least_cycle_len_map(p) for p in pool]
        for own_len in ((1,) if quandle_only else sorted(set(parts))):
            # candidate rows per point, as image tuples: own point least on
            # a cycle of length own_len
            cands = [
                [p.images for p, lens in zip(pool, pool_lens)
                 if lens[i] == own_len]
                for i in range(n)
            ]
            rows: list = [None] * n
            rows[0] = min(cands[0])
            tables.extend(_complete_rows(n, rows, cands))
    return tables


def _complete_rows(n: int, rows: list, cands: list) -> list:
    """DFS over rows given as image tuples, ``rows[0]`` seeded; returns each
    completed assignment as a table of row images.  The chosen rows (row 0,
    then the least unassigned point at each branch) are closed the way
    ``perm.generating_points`` closes a ▷-generating set: a new chosen row
    acts on every point assigned before it, every chosen row on each point
    assigned after it.  Row x on point m forces row ``rows[x][m]`` to be the
    conjugate of row m by row x; a conflict prunes the branch.  A check of
    every pair of assigned rows assigns the same ▷-closure of the chosen
    points.  Call a point good when each pair it starts is consistent: as
    φ_{x▷y} = φ_x φ_y φ_x⁻¹, x ▷ y is good when x and y are, inside a
    ▷-closed set.  So a node passes the chosen pairs exactly when it passes
    all pairs: the same nodes and tables come out in the same order, at
    |chosen|·|assigned| conjugations per node, not |assigned|²."""
    if n == 1:
        # the one row is the identity; itemgetter needs two indices to
        # return a tuple
        return [tuple(rows)]
    out = []
    getters: dict = {}  # row p -> (u -> u·p, u -> u·p⁻¹)

    def getters_of(p: tuple) -> tuple:
        pair = getters.get(p)
        if pair is None:
            pair = getters[p] = (itemgetter(*p),
                                 itemgetter(*_inverse_images(p)))
        return pair

    chosen, assigned = [], []  # assigned in order, so also the undo trail

    def close(i: int) -> bool:  # choose point i, whose row is set
        earlier = len(assigned)
        chosen.append(i)
        assigned.append(i)
        for k, m in enumerate(assigned):  # grows as it is read
            forward = getters_of(rows[m])[0]
            for x in chosen[-1:] if k < earlier else chosen:
                px, t = rows[x], rows[x][m]
                forced = getters_of(px)[1](forward(px))  # px·pm·px⁻¹
                if rows[t] is None:
                    rows[t] = forced
                    assigned.append(t)
                elif rows[t] != forced:
                    return False
        return True

    def rec():
        try:
            i = rows.index(None)
        except ValueError:
            out.append(tuple(rows))
            return
        mark = len(assigned)
        for cand in cands[i]:
            rows[i] = cand
            if close(i):
                rec()
            chosen.pop()
            while len(assigned) > mark:
                rows[assigned.pop()] = None

    if close(0):
        rec()
    return out


def _connected_table(table) -> bool:
    return len(orbit_partition(len(table), table)) == 1


def _dedup_tables(racks: list) -> list:
    keyed = sorted(((fingerprint(r), r) for r in racks),
                   key=lambda fr: (fr[0], fr[1].table))
    kept: list = []
    by_fp: Dict[str, list] = {}
    for fp, r in keyed:
        bucket = by_fp.setdefault(fp, [])
        if not any(is_isomorphic(r, other).found for other in bucket):
            bucket.append(r)
            kept.append(r)
    return kept


def _check_bound(search: str, noun: str, n: int, bound: int) -> None:
    """The bound rule of the enumerations and the class scans: ``n`` past
    ``bound`` raises :class:`BoundExceeded`, and below 1 a ValueError."""
    if n > bound:
        raise BoundExceeded(f"{search} bound is {bound}, requested {n}")
    if n < 1:
        raise ValueError(f"{noun} must be positive")


def enumerate_connected_quandles(n: int, bound: int = ENUMERATION_BOUND,
                                 cap: int = DEFAULT_CAP) -> list:
    """All connected quandles with n elements, up to isomorphism, in a
    deterministic order (fingerprint, then table).  A conjugacy class of
    the search larger than ``cap`` raises :class:`CapExceeded`."""
    _check_bound("enumeration", "order", n, bound)
    return _enumerate(n, quandle_only=True, cap=cap)


def enumerate_connected_racks(n: int, bound: int = 6,
                              cap: int = DEFAULT_CAP) -> list:
    """All connected racks (quandles included) with n elements, up to
    isomorphism.  The search space is larger than the quandle case, hence
    the smaller default bound; ``cap`` is as for the quandles."""
    _check_bound("rack enumeration", "order", n, bound)
    return _enumerate(n, quandle_only=False, cap=cap)


def _enumerate(n: int, quandle_only: bool, cap: int) -> list:
    promise = "quandle" if quandle_only else "rack"
    racks = [_as_promised(t, promise, f"{promise} enumeration")
             for t in _search_connected_tables(n, quandle_only, cap)
             if _connected_table(t)]
    return _dedup_tables(racks)


# -- class scans -------------------------------------------------------------------


class ClassScanRecord(NamedTuple):
    """Verdicts for one conjugacy class analyzed as a quandle."""
    parts: tuple              # cycle type of the class, decreasing
    class_size: int
    element_order: int
    connected: bool
    profile: Optional[Profile]
    hayashi: Optional[object]       # HayashiVerdict when connected
    split: Optional[str] = None     # alternating halves: "a" | "b"
    split_witness_ok: Optional[bool] = None


def _conjugation_action(cls: Sequence[Permutation]) -> tuple:
    """Connectedness and profile of the quandle of a listed conjugacy class,
    read off conjugation by class elements: x ▷ y = x y x⁻¹, so the
    translation by x is conjugation by x on the class, and no operation
    table is built.

    Generators are chosen by :func:`generating_points`, which forms
    conjugation by a class element, as an index row over the class, only
    when that element joins the generators.  The quandle is connected when
    their rows have one orbit, and its profile is their common cycle type.

    Returns ``(connected, profile or None, generators)``, the generators
    being class elements that generate the same group as the class.
    """
    elems = [p.images for p in cls]
    n = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    # compose[i](c) is c·e_i (itemgetter(*a)(b) lists b[a[0]], b[a[1]], ...)
    compose = [itemgetter(*e) for e in elems]

    def row_of(k: int) -> tuple:
        undo = itemgetter(*cls[k].inverse().images)  # c·e_i -> c·e_i·c⁻¹
        c = elems[k]
        return tuple([index[undo(get(c))] for get in compose])

    taken, rows = generating_points(n, row_of)
    generators = [cls[k] for k in taken]
    if len(orbit_partition(n, rows)) > 1:
        return False, None, generators
    prof = connected_profile((_unchecked(row).cycle_type() for row in rows),
                             quandle=True)
    return True, prof, generators


def _class_inner_order(generators: Sequence[Permutation]) -> int:
    """|Inn(X)| for the quandle X of a conjugacy class that ``generators``
    generate as a group G: conjugation maps G onto Inn(X), and its kernel,
    the centralizer of a generating set, is the center of G."""
    G = PermutationGroup(generators[0].degree, generators)
    return G.order() // G.center_order()


def _class_scan_record(cls: Sequence[Permutation], parts, split=None,
                       check_witness=False,
                       cap=DEFAULT_CAP) -> ClassScanRecord:
    """The record of one listed class.  With ``check_witness`` a connected
    class also gets its table, for the trivial-intersection witness at point
    0; |Inn(X)| comes from the generators found on the way, and a group over
    ``cap`` raises the listing's :class:`CapExceeded`."""
    from .conjecture import hayashi_check, intersection_evidence

    connected, prof, generators = _conjugation_action(cls)
    witness_ok = None
    if check_witness and connected:
        rack, _ = rack_from_conjugation_closed(cls)
        # analysis.inner_order reads the stored order instead of listing
        # Inn(X), and applies the cap to it
        rack._inner_order = _class_inner_order(generators)
        evidence = intersection_evidence(rack, 0, cap=cap)
        witness_ok = evidence.trivial_witness is not None
    return ClassScanRecord(
        parts=parts,
        class_size=len(cls),
        element_order=cls[0].order(),
        connected=connected,
        profile=prof,
        hayashi=None if prof is None else hayashi_check(prof),
        split=split,
        split_witness_ok=witness_ok,
    )


def symmetric_class_scan(d: int, bound: int = CLASS_SCAN_BOUND,
                         cap: int = DEFAULT_CAP) -> list:
    """One record per noncentral conjugacy class of the symmetric group of
    degree d (i.e. every class except the identity's).  Each class is sized
    against ``cap`` before it is listed, and no table is built."""
    _check_bound("class scan", "degree", d, bound)
    return [_class_scan_record(symmetric_class(d, parts, cap), parts)
            for parts in all_partitions(d) if any(p != 1 for p in parts)]


def _splits_in_alternating(parts) -> bool:
    """A class of even permutations splits iff all cycle lengths are odd
    and pairwise distinct."""
    return all(p % 2 == 1 for p in parts) and len(set(parts)) == len(parts)


def alternating_class_scan(d: int, bound: int = CLASS_SCAN_BOUND,
                           cap: int = DEFAULT_CAP) -> list:
    """Records for the noncentral conjugacy classes of the alternating
    group of degree d.  Split classes (one symmetric-group class breaking
    into two) produce two records, and the observed split is cross-checked
    against the odd-and-distinct-lengths criterion.

    For split classes the trivial-intersection witness is verified up to
    degree 6, on tables of at most 72 points.  From degree 7 on
    ``split_witness_ok`` is None, which ``scan --alt`` prints as
    ``split_witness=None``.  Each symmetric-group class is sized against
    ``cap`` before its part in the alternating group is listed.
    """
    _check_bound("class scan", "degree", d, bound)
    A = alternating_group(d, cap=cap)
    out = []
    for parts in all_partitions(d):
        if all(p == 1 for p in parts):
            continue
        rep = canonical_of_cycle_type(d, parts)
        if rep.sign() != 1:
            continue
        sym_class_size = symmetric_class_size(parts, cap)
        split = _splits_in_alternating(parts)
        alt_class = A.conjugacy_class(rep)
        if (len(alt_class) != sym_class_size) != split:
            raise TheoremViolation(
                f"class splitting criterion failed for type {parts} in degree {d}")
        if not split:
            out.append(_class_scan_record(alt_class, parts))
            continue
        if 2 * len(alt_class) != sym_class_size:
            raise TheoremViolation(
                f"split class of type {parts} is not halved in degree {d}")
        swap = Permutation.from_cycles(d, [[0, 1]])
        other_class = A.conjugacy_class(swap.conj(rep))
        if not set(other_class).isdisjoint(alt_class):
            raise TheoremViolation(
                f"split halves of type {parts} are not disjoint in degree {d}")
        for label, half in (("a", alt_class), ("b", other_class)):
            out.append(_class_scan_record(half, parts, split=label,
                                          check_witness=d <= 6, cap=cap))
    return out
