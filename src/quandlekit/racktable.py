"""Finite racks as operation tables: validation, translations, isomorphism.

A rack on ``{0..n-1}`` is stored as an n-by-n table with ``table[x][y]`` the
result of ``x ▷ y`` (row x = the left translation by x, matching the map
``y -> x ▷ y``).  Axioms checked:

  A1  x ▷ (y ▷ z) == (x ▷ y) ▷ (x ▷ z)      (left self-distributivity)
  A2  every row is a bijection               (left translations invertible)
  A3  x ▷ x == x                             (quandle condition)

A table passing A1 and A2 is a rack; passing A3 as well makes it a quandle.
Validation reports every violating witness, not just the first.

Text formats (1-based, '#' starts a comment):

  RTBL:  ``rtbl <n>`` then n lines of n space-separated integers
         (line x lists the images of the translation by x).
  PERM:  ``perm <n>`` then one disjoint-cycle permutation per line;
         fixed points are optional.

RTBL round-trips bit-exactly through its writer; PERM is an input format.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import _kernels
from .errors import DegreeMismatch, NotARack, ParseError
from .perm import (CycleType, Permutation, _unchecked, generating_points,
                   orbit_partition)


class AxiomWitness(NamedTuple):
    """One failed axiom instance: the axiom name and the violating tuple
    (``(x, y, z)`` for A1, ``(x,)`` for A2/A3; 0-based)."""
    axiom: str
    at: tuple

    def describe(self) -> str:
        pts = ",".join(str(p + 1) for p in self.at)
        return f"{self.axiom} fails at ({pts})"


class AxiomDiagnosis(NamedTuple):
    """Validation verdict plus all collected witnesses."""
    verdict: str  # "quandle" | "rack" | "not-a-rack"
    witnesses: tuple

    @property
    def is_rack(self) -> bool:
        return self.verdict in ("rack", "quandle")

    @property
    def is_quandle(self) -> bool:
        return self.verdict == "quandle"

    def witnesses_for(self, axiom: str) -> list:
        return [w for w in self.witnesses if w.axiom == axiom]


def validate(table: Sequence[Sequence[int]]) -> AxiomDiagnosis:
    """Full axiom scan of a square table with entries in ``0..n-1``.

    Out-of-range entries are a usage error and raise ``ValueError``; axiom
    failures are collected into the diagnosis.
    """
    n = len(table)
    rows = [tuple(r) for r in table]
    for x, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {x + 1} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            e = next(e for e in row if not 0 <= e < n)
            raise ValueError(f"entry {e} in row {x + 1} out of range 0..{n - 1}")
    witnesses = []
    for x, row in enumerate(rows):
        if len(set(row)) != n:
            witnesses.append(AxiomWitness("A2", (x,)))
    witnesses.extend(
        AxiomWitness("A1", t) for t in _kernels.a1_violations(rows)
    )
    a3 = [AxiomWitness("A3", (x,)) for x in range(n) if rows[x][x] != x]
    rack_ok = not witnesses
    witnesses.extend(a3)
    if not rack_ok:
        verdict = "not-a-rack"
    elif a3:
        verdict = "rack"
    else:
        verdict = "quandle"
    return AxiomDiagnosis(verdict, tuple(witnesses))


class RackTable:
    """An immutable operation table together with its validation verdict."""

    __slots__ = ("n", "table", "diagnosis", "_rows", "_orbits", "_cycles",
                 "_cycle_types", "_generators", "_inner_order")

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = tuple(tuple(r) for r in table)
        self.n = len(self.table)
        self.diagnosis = validate(self.table)
        self._rows = None
        self._orbits = None
        self._cycles = None
        self._cycle_types = None
        self._generators = None
        self._inner_order = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_permutation_rows(cls, rows: Sequence[Permutation]) -> "RackTable":
        """Table with row x the image array of ``rows[x]``; validated, with
        the diagnosis attached (axiom failure is reported, never silent)."""
        n = len(rows)
        for p in rows:
            if p.degree != n:
                raise DegreeMismatch(
                    f"need {n} rows of degree {n}, got degree {p.degree}")
        return cls([p.images for p in rows])

    # -- basic access -------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.diagnosis.verdict

    @property
    def is_rack(self) -> bool:
        return self.diagnosis.is_rack

    @property
    def is_quandle(self) -> bool:
        return self.diagnosis.is_quandle

    def op(self, x: int, y: int) -> int:
        """The product ``x ▷ y``."""
        self._check_points(x, y)
        return self.table[x][y]

    def _check_points(self, *points: int) -> None:
        for p in points:
            if not 0 <= p < self.n:
                raise ValueError(f"point {p} out of range 0..{self.n - 1}")

    def _require_rack(self):
        if not self.is_rack:
            bad = "; ".join(w.describe() for w in self.diagnosis.witnesses[:4])
            raise NotARack(f"table is not a rack: {bad}")

    def phi(self, x: int) -> Permutation:
        """The left translation by ``x`` as a permutation."""
        self._require_rack()
        self._check_points(x)
        return self._phi_rows()[x]

    def _phi_rows(self):
        # Callers check the rack axioms first, so every row is a bijection.
        if self._rows is None:
            self._rows = tuple(_unchecked(r) for r in self.table)
        return self._rows

    def translations(self) -> tuple:
        """All left translations, indexed by acting element."""
        self._require_rack()
        return self._phi_rows()

    def distinct_translations(self) -> tuple:
        """Distinct translation permutations in first-occurrence order."""
        self._require_rack()
        return tuple(dict.fromkeys(self._phi_rows()))

    def translation_cycles(self) -> dict:
        """Disjoint cycles (tuples, as in ``Permutation.cycles``) of each
        distinct translation, keyed by translation in first-occurrence
        order; decomposed once per table."""
        if self._cycles is None:
            self._cycles = {t: tuple(map(tuple, t.cycles()))
                            for t in self.distinct_translations()}
        return self._cycles

    def cycle_types(self) -> tuple:
        """Cycle type of every left translation, indexed by acting element;
        derived once per table."""
        if self._cycle_types is None:
            types = {t: CycleType.from_lengths(map(len, cycles))
                     for t, cycles in self.translation_cycles().items()}
            self._cycle_types = tuple(types[p] for p in self.translations())
        return self._cycle_types

    def generating_set(self) -> tuple:
        """Points generating the table under ▷, chosen greedily by
        :func:`~quandlekit.perm.generating_points`; the translations of
        the kept points generate the inner group."""
        self._require_rack()
        if self._generators is None:
            self._generators = generating_points(
                self.n, self.table.__getitem__)[0]
        return self._generators

    def inner_orbit_partition(self) -> list:
        """Orbits of the point set under all rows (frozensets, by least point)."""
        if self._orbits is None:
            self._orbits = orbit_partition(self.n, self.table)
        return self._orbits

    def relabel(self, sigma: Permutation) -> "RackTable":
        """The isomorphic table under the point relabeling ``sigma``."""
        if sigma.degree != self.n:
            raise DegreeMismatch(f"degree {sigma.degree} vs {self.n}")
        inv = sigma.inverse()
        return RackTable(
            [
                [sigma(self.table[inv(x)][inv(y)]) for y in range(self.n)]
                for x in range(self.n)
            ]
        )

    def __eq__(self, other):
        if not isinstance(other, RackTable):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"RackTable(n={self.n}, kind={self.kind})"


# -- isomorphism ------------------------------------------------------------


class IsoWitness(NamedTuple):
    """Result of an isomorphism search; ``bijection`` maps X-points to
    Y-points and satisfies f(x ▷ y) = f(x) ▷' f(y) when found."""
    found: bool
    bijection: Optional[Permutation] = None


def _element_invariant(X: RackTable, x: int, orbit_size) -> tuple:
    return (
        X.cycle_types()[x].parts,
        X.table[x][x] == x,
        orbit_size[x],
    )


def _orbit_size_map(X: RackTable) -> list:
    sizes = [0] * X.n
    for orb in X.inner_orbit_partition():
        for p in orb:
            sizes[p] = len(orb)
    return sizes


def fingerprint(X: RackTable) -> str:
    """Relabeling-invariant key: multiset of per-element invariants plus the
    orbit-size multiset.  Equal for isomorphic racks; used to prune searches
    (it is not a canonical form, so equal keys still need a witness search).
    """
    X._require_rack()
    sizes = _orbit_size_map(X)
    types = X.cycle_types()
    items = sorted(
        f"{types[x]}|{'q' if X.table[x][x] == x else 'r'}|{sizes[x]}"
        for x in range(X.n)
    )
    orbit_sizes = sorted(len(o) for o in X.inner_orbit_partition())
    return f"n={X.n};elems=[{';'.join(items)}];orbits={orbit_sizes}"


def _isomorphism_search(X: RackTable, Y: RackTable) -> list:
    """Backtracking search for a table isomorphism X -> Y that assigns only
    the ▷-generating set S = ``X.generating_set()``.

    S[0], S[1], ... go in turn to unused points of Y with the same invariant
    (translation cycle type, idempotence flag, inner orbit size), tried in
    increasing order.  Each choice is carried along the rows as
    :func:`~quandlekit.perm.generating_points` closes S, with
    f(t ▷ m) = f(t) ▷' f(m); a conflict, or a point of Y reached twice,
    prunes it.  A completed f is then a bijection commuting with the
    translations by S, and so with all of them: the x with
    f φ_x f⁻¹ = φ'_{f(x)} include S and, with x and y, x ▷ y, as
    φ_{x▷y} = φ_x φ_y φ_x⁻¹ in both racks.  No full-table check is needed.
    Between equal tables each s in S is the least unused candidate, so the
    identity is found first.  Returns a list holding the first isomorphism
    found, or an empty list.
    """
    X._require_rack()
    Y._require_rack()
    if X.n != Y.n:
        return []
    n = X.n
    sx, sy = _orbit_size_map(X), _orbit_size_map(Y)
    inv_x = [_element_invariant(X, x, sx) for x in range(n)]
    inv_y = [_element_invariant(Y, y, sy) for y in range(n)]
    if sorted(inv_x) != sorted(inv_y):
        return []
    classes_y = {}
    for y in range(n):
        classes_y.setdefault(inv_y[y], []).append(y)
    gens, tx, ty = X.generating_set(), X.table, Y.table
    f = [-1] * n
    used = [False] * n
    mapped = []  # X-points in the order they were mapped

    def carry(k: int, y: int) -> bool:
        # S[k] -> y, then the closure step of generating_points
        earlier = len(mapped)
        f[gens[k]], used[y] = y, True
        mapped.append(gens[k])
        for i, m in enumerate(mapped):  # grows as it is read
            for t in gens[k:k + 1] if i < earlier else gens[:k + 1]:
                q, r = tx[t][m], ty[f[t]][f[m]]
                if f[q] < 0 and not used[r]:
                    f[q], used[r] = r, True
                    mapped.append(q)
                elif f[q] != r:  # a conflict, or r is taken
                    return False
        return True

    def rec(k: int) -> bool:
        if k == len(gens):
            return True
        mark = len(mapped)
        for y in classes_y[inv_x[gens[k]]]:
            if not used[y] and carry(k, y) and rec(k + 1):
                return True
            for q in mapped[mark:]:
                used[f[q]] = False
                f[q] = -1
            del mapped[mark:]
        return False

    return [_unchecked(tuple(f))] if rec(0) else []


def is_isomorphic(X: RackTable, Y: RackTable) -> IsoWitness:
    """Search for an isomorphism; racks of unequal size are simply not
    isomorphic (no error)."""
    sols = _isomorphism_search(X, Y)
    if sols:
        return IsoWitness(True, sols[0])
    return IsoWitness(False)


# -- text formats -------------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header(text: str, kind: str, noun: str) -> tuple:
    """The size n from the ``<kind> <n>`` header of a text table, and the
    content lines after it, unparsed."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(f"empty {kind.upper()} input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != kind:
        raise ParseError(f"expected '{kind} <n>' header, got {header!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad {noun} {parts[1]!r}", lineno) from None
    if n < 1:
        raise ParseError(f"{noun} must be positive, got {n}", lineno)
    return n, lines[1:]


def parse_rtbl(text: str) -> RackTable:
    n, lines = _header(text, "rtbl", "size")
    if len(lines) != n:
        raise ParseError(f"expected {n} table rows, found {len(lines)}")
    table = []
    for lineno, line in lines:
        try:
            row = [int(tok) - 1 for tok in line.split()]
        except ValueError:
            raise ParseError(f"bad table row {line!r}", lineno) from None
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", lineno)
        for e in row:
            if not 0 <= e < n:
                raise ParseError(f"entry {e + 1} out of range 1..{n}", lineno)
        table.append(row)
    return RackTable(table)


def emit_rtbl(X: RackTable, comment: Optional[str] = None) -> str:
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(f"rtbl {X.n}")
    labels = [str(e + 1) for e in range(X.n)]
    out.extend(" ".join([labels[e] for e in row]) for row in X.table)
    return "\n".join(out) + "\n"


def _perm_rows(n: int, lines: list) -> list:
    """The permutations of degree ``n`` on the content lines of a PERM
    file, with the table bound checked before any line is expanded."""
    from .constructors import _check_table

    _check_table(f"PERM input of degree {n}", n)
    perms = []
    for lineno, line in lines:
        try:
            perms.append(Permutation.parse(line, n))
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    return perms


def parse_perm_file(text: str) -> tuple:
    """Parse a PERM file into ``(degree, [Permutation, ...])``.  A degree
    whose n-point table would pass the table bound raises
    :class:`CapExceeded` before any line is expanded to its n images."""
    n, lines = _header(text, "perm", "degree")
    return n, _perm_rows(n, lines)


def parse_rack_file(text: str) -> RackTable:
    """Dispatch on the header: RTBL is read directly, PERM rows become the
    translation maps of the table.  Both formats check the row count against
    the header before reading any row."""
    first = next(_content_lines(text), None)
    if first is None:
        raise ParseError("empty input")
    head = first[1].split()[0]
    if head == "rtbl":
        return parse_rtbl(text)
    if head == "perm":
        n, lines = _header(text, "perm", "degree")
        if len(lines) != n:
            raise ParseError(
                f"PERM rack input needs {n} permutations, found {len(lines)}")
        return RackTable.from_permutation_rows(_perm_rows(n, lines))
    raise ParseError(f"unknown format header {head!r}")
