"""Permutations on finite point sets and finitely generated permutation groups.

Points are 0-based integers ``0..n-1`` throughout the library; the 1-based
convention of the text formats is applied only when parsing and printing
(see :func:`Permutation.parse` / :meth:`Permutation.cycle_string`).

Composition is right-to-left: ``(p * q)(i) == p(q(i))``, i.e. ``q`` acts
first.  All values are immutable; the one exception is the group's memoized
element set, which is filled at most once.
"""
from __future__ import annotations

import math
import re
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from . import _kernels
from .errors import CapExceeded, DegreeMismatch, NotTransitive, ParseError

DEFAULT_CAP = 1_000_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """An immutable bijection of ``{0..n-1}`` stored as an image tuple."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images)-1}: {images!r}")
        self._images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return _unchecked(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles of 0-based points; fixed points implied.
        The range and repeat checks prove a bijection, so the images are
        not sorted again."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
                if a in seen:
                    raise ValueError(f"point {a} appears in two cycles")
                seen.add(a)
                images[a] = b
        return _unchecked(tuple(images))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse 1-based disjoint-cycle notation, e.g. ``(1)(5,9)(2,4,3)``.

        Fixed points may be omitted; ``()`` denotes the identity.
        """
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty permutation")
        consumed = _CYCLE_RE.sub("", stripped).strip()
        if consumed:
            raise ParseError(f"unexpected text in cycle notation: {consumed!r}")
        cycles = []
        seen = set()
        for body in _CYCLE_RE.findall(stripped):
            body = body.strip()
            if not body:
                continue
            try:
                pts = [int(tok) - 1 for tok in re.split(r"[,\s]+", body)]
            except ValueError:
                raise ParseError(f"bad cycle {body!r}") from None
            for p in pts:
                if not 0 <= p < degree:
                    raise ParseError(f"point {p + 1} out of range 1..{degree}")
                if p in seen:
                    raise ParseError(f"point {p + 1} appears more than once")
                seen.add(p)
            cycles.append(pts)
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple:
        return self._images

    def __call__(self, point: int) -> int:
        return self._images[point]

    def __len__(self) -> int:
        return len(self._images)

    def __hash__(self):
        return hash(self._images)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __lt__(self, other):
        return self._images < other._images

    def __mul__(self, other: "Permutation") -> "Permutation":
        s, o = self._images, other._images
        if len(s) != len(o):
            raise DegreeMismatch(f"degree {len(s)} vs {len(o)}")
        return _unchecked(tuple([s[j] for j in o]))

    def inverse(self) -> "Permutation":
        return _unchecked(_inverse_images(self._images))

    def conj(self, other: "Permutation") -> "Permutation":
        """Conjugate ``other`` by self: ``self * other * self.inverse()``,
        which maps ``self(i)`` to ``self(other(i))``."""
        p, q = self._images, other._images
        if len(p) != len(q):
            raise DegreeMismatch(f"degree {len(p)} vs {len(q)}")
        out = [0] * len(p)
        for i, j in enumerate(q):
            out[p[i]] = p[j]
        return _unchecked(tuple(out))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self._images))

    def cycles(self, nontrivial_only: bool = False) -> list:
        """Disjoint cycles, each rotated to start at its least point and
        listed in increasing order of that point."""
        seen = [False] * len(self._images)
        out = []
        for i in range(len(self._images)):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self._images[i]
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self._images[j]
            if j != i:
                raise ValueError(f"not a permutation: {self._images!r}")
            if len(cyc) > 1 or not nontrivial_only:
                out.append(cyc)
        return out

    def cycle_type(self) -> "CycleType":
        return CycleType.from_lengths(len(c) for c in self.cycles())

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def k_part(self, k: int) -> frozenset:
        """Points lying on cycles of length exactly ``k``."""
        return frozenset(
            p for c in self.cycles() if len(c) == k for p in c
        )

    def k_tilde_part(self, k: int) -> frozenset:
        """Points lying on cycles whose length divides ``k``."""
        return frozenset(
            p for c in self.cycles() if k % len(c) == 0 for p in c
        )

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd."""
        swaps = sum(len(c) - 1 for c in self.cycles())
        return -1 if swaps % 2 else 1

    def cycle_string(self) -> str:
        """1-based disjoint-cycle text: nontrivial cycles in increasing order
        of least moved point; the identity prints as ``()``."""
        cycles = self.cycles(nontrivial_only=True)
        if not cycles:
            return "()"
        return "".join(
            "(" + ",".join(str(p + 1) for p in c) + ")" for c in cycles
        )

    def __repr__(self):
        return f"Permutation[{self.cycle_string()} deg={self.degree}]"


def _inverse_images(images: Sequence[int]) -> tuple:
    """The image tuple of the inverse of the permutation ``images``."""
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[j] = i
    return tuple(out)


def _unchecked(images: tuple) -> Permutation:
    """Wrap an image tuple known to be a permutation, skipping the check in
    ``Permutation.__init__`` (for values derived from checked ones)."""
    p = object.__new__(Permutation)
    p._images = images
    return p


def orbit_partition(degree: int, rows: Sequence[Sequence[int]]) -> list:
    """Orbits of ``0..degree-1`` under the maps given as image rows, as
    frozensets ordered by least point (used for groups, racks and tables)."""
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for p in orbit:
            for row in rows:
                q = row[p]
                if not seen[q]:
                    seen[q] = True
                    orbit.append(q)
        out.append(frozenset(orbit))
    return out


def generating_points(n: int, row_of: Callable[[int], Sequence[int]]) -> tuple:
    """The greedy ▷-closure over translation rows, ``row_of(x)`` being the
    image row of y -> x ▷ y on ``0..n-1``: scanning in increasing order, a
    point is kept when it lies outside the orbit of the kept points under
    their rows.  That orbit is their ▷-closure, as φ_{x▷y} = φ_x φ_y φ_x⁻¹
    and a finite translation's inverse is one of its powers.  n·|S| row
    lookups for |S| kept points; returns ``(kept, rows of the kept)``."""
    inside = [False] * n
    members, kept, rows = [], [], []  # members: the closure so far
    for p in range(n):
        if inside[p]:
            continue
        kept.append(p)
        rows.append(row_of(p))
        inside[p] = True
        earlier = len(members)
        members.append(p)
        # the new row on each earlier member, every row on each new one
        for i, m in enumerate(members):  # grows as it is read
            for row in rows[-1:] if i < earlier else rows:
                q = row[m]
                if not inside[q]:
                    inside[q] = True
                    members.append(q)
    return tuple(kept), rows


class CycleType:
    """A multiset of cycle lengths stored as (length, multiplicity) pairs
    with strictly increasing lengths."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable):
        parts = tuple((int(l), int(m)) for l, m in parts)
        lengths = [l for l, _ in parts]
        if lengths != sorted(set(lengths)) or any(m < 1 for _, m in parts) or any(
            l < 1 for l, _ in parts
        ):
            raise ValueError(f"malformed cycle type parts: {parts!r}")
        self._parts = parts

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "CycleType":
        counts = {}
        for l in lengths:
            counts[l] = counts.get(l, 0) + 1
        return cls(sorted(counts.items()))

    @property
    def parts(self) -> tuple:
        return self._parts

    @property
    def degree(self) -> int:
        return sum(l * m for l, m in self._parts)

    @property
    def lengths(self) -> tuple:
        """Distinct lengths, increasing."""
        return tuple(l for l, _ in self._parts)

    @property
    def largest(self) -> int:
        return self._parts[-1][0]

    def multiplicity(self, length: int) -> int:
        for l, m in self._parts:
            if l == length:
                return m
        return 0

    def __eq__(self, other):
        if not isinstance(other, CycleType):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)

    def __lt__(self, other):
        return self._parts < other._parts

    def __iter__(self):
        return iter(self._parts)

    def __str__(self):
        return " ".join(f"{l}^{m}" for l, m in self._parts)

    def __repr__(self):
        return f"CycleType({self})"


class PermutationGroup:
    """A permutation group given by generators, with lazy materialization.

    The full element set is computed at most once by breadth-first closure
    and is capped: exceeding ``cap`` raises :class:`CapExceeded` instead of
    silently truncating.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation],
                 cap: int = DEFAULT_CAP):
        self.degree = degree
        gens = tuple(dict.fromkeys(generators))
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}")
        self.generators = tuple(g for g in gens if not g.is_identity())
        self.cap = cap
        self._elements: Optional[tuple] = None
        self._element_set: Optional[frozenset] = None
        self._orbits: Optional[list] = None

    # -- materialization ------------------------------------------------

    def _closure_generators(self) -> list:
        """The generators in order, each one left out whose inverse is an
        earlier kept generator.  They generate the same group, as g⁻¹ is a
        power of g; inverses are formed here, not when the group is built."""
        kept, inverses = [], set()
        for g in self.generators:
            if g.images not in inverses:
                kept.append(g)
                inverses.add(_inverse_images(g.images))
        return kept

    def elements(self) -> tuple:
        """All group elements in deterministic BFS order (identity first).

        The closure runs over :meth:`_closure_generators`, so it extends each
        element by half as many maps when the generators come in inverse
        pairs, as the translations of a class closed under inverses do.
        """
        if self._elements is None:
            raw = _kernels.closure_elements(
                self.degree, [g.images for g in self._closure_generators()],
                self.cap)
            if raw is None:
                raise CapExceeded(
                    f"group closure on {self.degree} points exceeds cap {self.cap}")
            elems = tuple(_unchecked(t) for t in raw)
            self._elements = elems
            self._element_set = frozenset(elems)
        return self._elements

    def element_set(self) -> frozenset:
        self.elements()
        return self._element_set

    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, p: Permutation) -> bool:
        return p in self.element_set()

    # -- orbits ----------------------------------------------------------

    def orbit(self, point: int) -> frozenset:
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range 0..{self.degree - 1}")
        return next(orb for orb in self.orbits() if point in orb)

    def orbits(self) -> list:
        """Orbit partition as a list of frozensets, ordered by least point;
        computed once."""
        if self._orbits is None:
            self._orbits = orbit_partition(
                self.degree, [g.images for g in self.generators])
        return self._orbits

    def is_transitive(self) -> bool:
        """Single orbit; degree-1 groups are transitive by convention."""
        return len(self.orbits()) == 1

    # -- centralizers and centers -----------------------------------------

    def centralizer(self, p: Permutation) -> "PermutationGroup":
        """Subgroup of elements commuting with ``p``, computed by filtering
        the materialized element set; returned fully materialized."""
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs {self.degree}")
        elems = tuple(g for g in self.elements() if g * p == p * g)
        sub = PermutationGroup(self.degree, elems, cap=self.cap)
        sub._elements = elems
        sub._element_set = frozenset(elems)
        return sub

    def center_order(self) -> int:
        """Order of the center: the elements commuting with each of
        :meth:`_closure_generators`, as g commutes with h exactly when it
        commutes with h⁻¹."""
        gens = self._closure_generators()
        return sum(
            1 for g in self.elements()
            if all(g * h == h * g for h in gens)
        )

    # -- conjugation orbits ------------------------------------------------

    def conjugacy_class(self, p: Permutation) -> list:
        """Orbit of ``p`` under conjugation by the group, in BFS order."""
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs {self.degree}")
        # the conjugate g·e·g⁻¹ is g's images read at e·g⁻¹, which a fixed
        # getter per generator forms from e's images
        steps = [(g.images, itemgetter(*g.inverse().images))
                 for g in self.generators]
        seen = {p.images}
        queue = [p.images]
        for e in queue:
            for g, after_inverse in steps:
                w = itemgetter(*after_inverse(e))(g)
                if w not in seen:
                    if len(seen) >= self.cap:
                        raise CapExceeded(
                            f"conjugacy class exceeds cap {self.cap}")
                    seen.add(w)
                    queue.append(w)
        return [_unchecked(e) for e in queue]

    # -- blocks and primitivity ---------------------------------------------

    def is_block(self, cells: Sequence[Iterable[int]]) -> bool:
        """True iff the partition ``cells`` is a block system: every
        generator maps each cell onto a cell."""
        cells = [frozenset(c) for c in cells]
        covered = sorted(p for c in cells for p in c)
        if covered != list(range(self.degree)):
            raise ValueError("cells do not partition the point set")
        cell_set = set(cells)
        for g in self.generators:
            for c in cells:
                if frozenset(g(p) for p in c) not in cell_set:
                    return False
        return True

    def _minimal_block_partition(self, a: int, b: int) -> list:
        """Classes of the finest block system merging ``a`` and ``b``.

        Classical refinement: start from {a, b}, repeatedly merge cells
        joined by generator images (union-find over points).
        """
        if not self.is_transitive():
            raise NotTransitive("blocks are defined for transitive actions")
        if a == b:
            raise ValueError("points must differ")
        n = self.degree
        parent = list(range(n))

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        parent[find(b)] = find(a)
        queue = [b]
        gens = [g.images for g in self.generators]
        while queue:
            gamma = queue.pop()
            delta = find(gamma)
            for g in gens:
                r1, r2 = find(g[gamma]), find(g[delta])
                if r1 != r2:
                    parent[r2] = r1
                    queue.append(r2)
        cells = {}
        for p in range(n):
            cells.setdefault(find(p), []).append(p)
        return sorted((frozenset(c) for c in cells.values()), key=min)

    def minimal_block(self, a: int, b: int) -> frozenset:
        """Smallest block containing ``{a, b}`` of some block system."""
        return next(c for c in self._minimal_block_partition(a, b) if a in c)

    def is_primitive(self) -> bool:
        """Only trivial block systems exist.

        Non-transitive groups report False (imprimitivity presumes a
        transitive action); degree-1 groups are primitive by convention.
        """
        return self.is_transitive() and self.block_system_witness() is None

    def block_system_witness(self) -> Optional[list]:
        """A minimal nontrivial block system, or None when primitive.

        Chooses the smallest block over ``minimal_block(0, b)`` (ties to the
        smallest ``b``) and returns its cell partition.  Only the least ``b``
        of each orbit of the generators fixing 0 is tried: such a generator
        maps the finest block system joining {0, b} onto the one joining
        {0, g(b)}, and block systems are invariant, so the two are equal
        (Atkinson, Math. Comp. 29, 1975).
        """
        if not self.is_transitive():
            return None
        stabilizing = [g.images for g in self.generators if g(0) == 0]
        best = None
        # orbits come ordered by least point, so the first one is {0}
        for orbit in orbit_partition(self.degree, stabilizing)[1:]:
            # cells of a block system have equal size: fewest points, most cells
            cells = self._minimal_block_partition(0, min(orbit))
            if len(cells) > 1 and (best is None or len(cells) > len(best)):
                best = cells
        return best

    def __repr__(self):
        return (f"PermutationGroup(degree={self.degree}, "
                f"generators={len(self.generators)})")


def symmetric_group(degree: int, cap: int = DEFAULT_CAP) -> PermutationGroup:
    """The full symmetric group on ``degree`` points."""
    if degree <= 1:
        return PermutationGroup(degree, [], cap=cap)
    gens = [Permutation.from_cycles(degree, [[0, 1]])]
    if degree > 2:
        gens.append(Permutation.from_cycles(degree, [list(range(degree))]))
    return PermutationGroup(degree, gens, cap=cap)


def alternating_group(degree: int, cap: int = DEFAULT_CAP) -> PermutationGroup:
    """The alternating group, generated by (0,1,2) and the cycle through
    0..degree-1 for odd degree, through 1..degree-1 for even degree (one
    generator in degree 3, where the two coincide)."""
    if degree <= 2:
        return PermutationGroup(degree, [], cap=cap)
    gens = [Permutation.from_cycles(degree, [[0, 1, 2]])]
    if degree > 3:
        start = 1 if degree % 2 == 0 else 0
        gens.append(Permutation.from_cycles(degree, [list(range(start, degree))]))
    return PermutationGroup(degree, gens, cap=cap)


def all_partitions(n: int) -> list:
    """All partitions of ``n`` as decreasing tuples, in a fixed order."""

    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest

    return list(rec(n, n))


def canonical_of_cycle_type(degree: int, parts: Sequence[int]) -> Permutation:
    """The permutation with the given cycle lengths on consecutive points,
    longest cycle first; e.g. parts (2, 1) in degree 3 gives (1,2)(3)."""
    if sum(parts) != degree:
        raise ValueError(f"parts {parts!r} do not sum to degree {degree}")
    images = list(range(degree))
    pos = 0
    for l in sorted(parts, reverse=True):
        for k in range(l):
            images[pos + k] = pos + (k + 1) % l
        pos += l
    return _unchecked(tuple(images))


def symmetric_class_size(parts: Sequence[int], cap: int = DEFAULT_CAP) -> int:
    """The size d! / ∏ l^m·m! of the class of cycle type ``parts`` in the
    symmetric group, m being the number of cycles of length l.

    It is built as a running product of counts, each at least the one
    before, and raises the class listing's :class:`CapExceeded` as soon as
    it passes ``cap``, so a class over the cap need never be listed."""
    size, free = 1, sum(parts)
    for l in sorted(set(parts) - {1}, reverse=True):
        k = l * parts.count(l)
        j = min(k, free - k)
        # choose the k points on cycles of length l, C(free, k), as the
        # counts C(free - j + i, i); then split them into cycles, the cycle
        # through the least point left ordering l - 1 of the others
        factors = chain(((free - j + i, i) for i in range(1, j + 1)),
                        ((left - t, 1) for left in range(k, 0, -l)
                         for t in range(1, l)))
        for num, den in factors:
            size = size * num // den
            if size > cap:
                raise CapExceeded(f"conjugacy class exceeds cap {cap}")
        free -= k
    return size


def symmetric_class(degree: int, parts: Sequence[int],
                    cap: int = DEFAULT_CAP) -> list:
    """The class of cycle type ``parts`` in the symmetric group of
    ``degree``, listed in BFS order from
    :func:`canonical_of_cycle_type` under conjugation by the generators of
    :func:`symmetric_group`.  The size is computed first, so a class over
    ``cap`` raises the listing's :class:`CapExceeded` unlisted."""
    symmetric_class_size(parts, cap)
    return symmetric_group(degree, cap=cap).conjugacy_class(
        canonical_of_cycle_type(degree, parts))
