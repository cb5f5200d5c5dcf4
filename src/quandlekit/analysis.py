"""Structural analysis of validated racks.

Covers the inner group, connectedness, faithfulness, fibers of the
translation map, the profile (common translation cycle type of a connected
rack), per-length translation-part multisets, orbit divisibility, and
primitivity of the inner action.

Facts that are theorems for these structures (uniform fiber size on
connected racks, profile well-definedness, conjugation-orbit divisibility)
are still checked at runtime; a failure raises :class:`TheoremViolation`
since it can only mean an implementation bug.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Optional

from .errors import CapExceeded, NotConnected, TheoremViolation
from .perm import DEFAULT_CAP, CycleType, PermutationGroup
from .racktable import RackTable


class Profile(NamedTuple):
    """The common translation cycle type of a connected rack."""
    cycle_type: CycleType

    @property
    def lengths(self) -> tuple:
        return self.cycle_type.lengths

    @property
    def largest(self) -> int:
        return self.cycle_type.largest

    def __str__(self):
        return str(self.cycle_type)


class FiberPartition(NamedTuple):
    """Point classes with identical translation rows; ``f`` is the common
    fiber size when the sizes are uniform, else None."""
    fibers: tuple
    f: Optional[int]

    @property
    def uniform(self) -> bool:
        return self.f is not None


class OrbitSizes(NamedTuple):
    """Orbit of y under powers of the translation by x (``lam``) and orbit
    of the translation by y under conjugation by those powers (``lam_bar``).
    The second always divides the first."""
    lam: int
    lam_bar: int


class PrimitivityReport(NamedTuple):
    primitive: bool
    witness_blocks: Optional[tuple]  # cells of a minimal nontrivial system


class KTildeDiagnostic(NamedTuple):
    """Outcome of the block-system probe for one profile length: do the
    distinct k-tilde parts of the translations partition the points, and if
    so does the partition pass the block test?  A partition always does
    (see :func:`k_tilde_block_diagnostic`)."""
    k: int
    cells: tuple
    is_partition: bool
    is_block_system: Optional[bool]


def inner_group(X: RackTable, cap: int = DEFAULT_CAP) -> PermutationGroup:
    """Inn(X), generated by the translations of the ▷-generating set S:
    φ_{x▷y} = φ_x φ_y φ_x⁻¹, so they generate every translation."""
    return PermutationGroup(X.n, [X.phi(s) for s in X.generating_set()],
                            cap=cap)


def inner_order(X: RackTable, cap: int = DEFAULT_CAP) -> int:
    """|Inn(X)|, found by listing the inner group once per table.  Past
    ``cap`` it raises the listing's :class:`CapExceeded`; a stored order
    (from an earlier call, or set by the class scans) above ``cap`` raises
    the same without listing again.  This is the one cap rule on |Inn(X)|."""
    if X._inner_order is None:
        # Listed over all distinct translations, not through inner_group:
        # counted as the orbit of the tuple S, perfbench's timed analyze run
        # fit 124 passes, not 47, and peak_rss_mb rose 26 % (ROADMAP item 1).
        X._inner_order = PermutationGroup(
            X.n, X.distinct_translations(), cap=cap).order()
    elif X._inner_order > cap:
        raise CapExceeded(
            f"group closure on {X.n} points exceeds cap {cap}")
    return X._inner_order


def is_connected(X: RackTable) -> bool:
    """The inner group acts transitively on the points."""
    X._require_rack()
    return len(X.inner_orbit_partition()) == 1


def fibers(X: RackTable) -> FiberPartition:
    """Group points by identical translation rows.

    For connected racks the fiber sizes are uniform; that guarantee is
    re-checked and its failure raises :class:`TheoremViolation`.
    """
    X._require_rack()
    groups = {}
    for x in range(X.n):
        groups.setdefault(X.table[x], []).append(x)
    cells = tuple(sorted((frozenset(c) for c in groups.values()), key=min))
    sizes = {len(c) for c in cells}
    f = sizes.pop() if len(sizes) == 1 else None
    if is_connected(X) and f is None:
        raise TheoremViolation(
            "connected rack produced non-uniform fiber sizes")
    return FiberPartition(cells, f)


def is_faithful(X: RackTable) -> bool:
    """The map from points to translations is injective."""
    X._require_rack()
    return len(set(X.table)) == X.n


def profile(X: RackTable) -> Profile:
    """The common cycle type of the translations of a connected rack."""
    X._require_rack()
    if not is_connected(X):
        raise NotConnected("profile is defined for connected racks only")
    return connected_profile(X.cycle_types(), X.is_quandle)


def connected_profile(types: Iterable[CycleType], quandle: bool) -> Profile:
    """The profile of a connected rack from the cycle types of some of its
    translations (all of them, or those of a ▷-generating set): they must
    all be equal, and a quandle's must have length 1.  A failure raises
    :class:`TheoremViolation`."""
    types = set(types)
    if len(types) != 1:
        raise TheoremViolation(
            "connected rack has translations of unequal cycle type")
    ct = types.pop()
    if quandle and ct.lengths[0] != 1:
        raise TheoremViolation("quandle profile must start with length 1")
    return Profile(ct)


def lambda_part(X: RackTable, k: int) -> Counter:
    """Multiset union of the k-parts of the distinct translations.

    ``k`` must be a length occurring in the profile.  The returned Counter
    maps 0-based points to occurrence counts.
    """
    p = profile(X)
    if k not in p.lengths:
        raise ValueError(f"length {k} does not occur in profile {p}")
    counts: Counter = Counter()
    for cycles in X.translation_cycles().values():
        counts.update(p for c in cycles if len(c) == k for p in c)
    return counts


def expected_lambda_part_count(X: RackTable, k: int) -> int:
    """The uniform per-point occurrence count ``a_s * k / f`` for length k."""
    p = profile(X)
    f = fibers(X).f
    mult = p.cycle_type.multiplicity(k)
    total = mult * k * (X.n // f)
    if total % X.n:
        raise TheoremViolation(
            f"translation-part multiset of length {k} does not distribute evenly")
    return total // X.n


def _fiber_orbit_length(X: RackTable, x: int, z: int) -> int:
    """The least m > 0 with row φ_x^m(z) equal to row z: the orbit length
    of φ_z = row z under conjugation by powers of φ_x, as
    φ_x^k φ_z φ_x^-k = φ_{φ_x^k(z)}.  It divides the order of φ_x."""
    row, target = X.table[x], X.table[z]
    m, w = 1, row[z]
    while X.table[w] != target:
        w, m = row[w], m + 1
    return m


def orbit_divisibility(X: RackTable, x: int, y: int) -> OrbitSizes:
    """Sizes of the two orbits attached to (x, y); the conjugation orbit
    size always divides the point orbit size."""
    X._require_rack()
    X._check_points(x, y)
    lam = next(len(c) for c in X.translation_cycles()[X.phi(x)] if y in c)
    lam_bar = _fiber_orbit_length(X, x, y)
    if lam % lam_bar:
        raise TheoremViolation(
            f"conjugation orbit size {lam_bar} does not divide point orbit size {lam}")
    return OrbitSizes(lam, lam_bar)


def inner_action_primitivity(X: RackTable) -> PrimitivityReport:
    """Primitivity of the inner action of a connected rack; when imprimitive
    the witness is the block system generated by a minimal nontrivial block.
    The block search acts through the translations of the ▷-generating set
    and never lists group elements, so no cap applies.
    """
    if not is_connected(X):
        raise NotConnected("primitivity concerns connected racks")
    witness = inner_group(X).block_system_witness()
    if witness is None:
        return PrimitivityReport(True, None)
    return PrimitivityReport(False, tuple(witness))


def center_check(X: RackTable, cap: int = DEFAULT_CAP) -> bool:
    """True iff the center of the inner group is trivial (faithful racks
    are guaranteed this; the check is still a computation)."""
    if not is_faithful(X):
        raise ValueError("center check requires a faithful rack")
    return inner_group(X, cap=cap).center_order() == 1


def k_tilde_block_diagnostic(X: RackTable) -> list:
    """Probe, for each profile length k, whether the distinct k-tilde parts
    of the translations form a partition and, if so, a block system of the
    inner action.

    Whether they partition the points is recorded.  A partition is always a
    block system: every σ in the inner group is a table automorphism, so
    σφ_xσ⁻¹ = φ_{σ(x)}, and σ maps the k-tilde part of φ_x onto that of
    φ_{σ(x)}; the inner group permutes the parts.  A failed block test
    raises :class:`TheoremViolation`.
    """
    p = profile(X)
    G = inner_group(X)
    translation_cycles = X.translation_cycles().values()
    out = []
    for k in p.lengths:
        cells = sorted({frozenset(q for c in cycles if k % len(c) == 0 for q in c)
                        for cycles in translation_cycles},
                       key=min)
        flat = sorted(q for c in cells for q in c)
        is_partition = flat == list(range(X.n))
        blocks = G.is_block(cells) if is_partition else None
        if blocks is False:
            raise TheoremViolation(
                f"k-tilde parts of length {k} partition the points but are "
                "not a block system of the inner action")
        out.append(KTildeDiagnostic(k, tuple(cells), is_partition, blocks))
    return out
