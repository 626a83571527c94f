"""Sparse exact models of truncated loop algebras of sl_n.

An element is a dict mapping (degree, row, col) to an integer
coefficient, representing sum of c * E(row, col) x t^degree over the
kept degrees.  Each degree carries a shape mask that realizes a quotient
by root spaces: "upper" keeps strictly upper-triangular positions,
"lower_diag" keeps weakly lower-triangular ones, "full" keeps all.
Brackets are honest commutators of matrix units,

    [E(a,b), E(c,d)] = delta(b,c) E(a,d) - delta(d,a) E(c,b),

followed by the mask projection and truncation of degrees past the
model, so membership questions about ideals reduce to exact integer
arithmetic.

Spans are described the only way the callers need: a set of off-diagonal
unit positions plus, per degree, a list of diagonal vectors.  Unit
positions are independent coordinates, so membership splits into a
support check off the diagonal and a small rational solve on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

Element = dict[tuple[int, int, int], int]
DiagVector = tuple[int, ...]

_MASKS = ("upper", "lower_diag", "full")


@dataclass(frozen=True)
class TruncatedLoopAlgebra:
    n: int
    masks: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for m in self.masks:
            if m not in _MASKS:
                raise ValueError(f"unknown mask {m!r}")

    @property
    def degrees(self) -> int:
        return len(self.masks)

    def keeps(self, deg: int, i: int, j: int) -> bool:
        if not (0 <= deg < self.degrees):
            return False
        mask = self.masks[deg]
        if mask == "upper":
            return i < j
        if mask == "lower_diag":
            return i >= j
        return True

    def unit(self, deg: int, i: int, j: int) -> Element:
        if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
            raise ValueError("unit positions are off-diagonal, 1-based")
        if not self.keeps(deg, i, j):
            raise ValueError(f"position ({i},{j}) at degree {deg} is masked out")
        return {(deg, i, j): 1}

    def diagonal(self, deg: int, vec: DiagVector) -> Element:
        if len(vec) != self.n:
            raise ValueError("diagonal vector must have length n")
        if sum(vec) != 0:
            raise ValueError("diagonal vectors must be traceless")
        if self.masks[deg] == "upper":
            raise ValueError(f"degree {deg} keeps no diagonal")
        return {(deg, i, i): c for i, c in enumerate(vec, start=1) if c != 0}

    def project(self, elem: Element) -> Element:
        return {k: v for k, v in elem.items() if v != 0 and self.keeps(*k)}

    def bracket(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for (d1, a, b), c1 in x.items():
            for (d2, c, d), c2 in y.items():
                deg = d1 + d2
                if deg >= self.degrees:
                    continue
                coeff = c1 * c2
                if b == c:
                    out[(deg, a, d)] = out.get((deg, a, d), 0) + coeff
                if d == a:
                    out[(deg, c, b)] = out.get((deg, c, b), 0) - coeff
        return self.project(out)


def coroot_vector(n: int, interval: tuple[int, int]) -> DiagVector:
    """Diagonal coroot of the positive root summing simple roots i..j:
    e_i - e_(j+1) inside gl_n coordinates."""
    i, j = interval
    if not (1 <= i <= j <= n - 1):
        raise ValueError(f"interval {interval} outside rank {n - 1}")
    vec = [0] * n
    vec[i - 1] = 1
    vec[j] = -1
    return tuple(vec)


def cartan_basis(n: int) -> list[DiagVector]:
    return [coroot_vector(n, (k, k)) for k in range(1, n)]


def dual_basis_vector(n: int, m: int) -> DiagVector:
    """Traceless integer representative of the m-th vector of the basis
    dual to the simple roots, scaled by n: the pairing with the j-th
    simple root is n * delta(j, m)."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"index {m} outside 1..{n - 1}")
    return tuple((n - m) if idx <= m else -m for idx in range(1, n + 1))


def _echelon(vectors: list[DiagVector]) -> list[tuple[Fraction, ...]]:
    rows = [tuple(Fraction(c) for c in v) for v in vectors]
    basis: list[tuple[Fraction, ...]] = []
    for row in rows:
        row = _reduce_against(row, basis)
        if any(row):
            basis.append(row)
            basis.sort(key=_pivot)
    return basis


def _pivot(row: tuple[Fraction, ...]) -> int:
    for k, c in enumerate(row):
        if c != 0:
            return k
    return len(row)


def _reduce_against(row, basis):
    row = list(row)
    for b in basis:
        p = _pivot(b)
        if p < len(row) and row[p] != 0:
            factor = row[p] / b[p]
            row = [r - factor * c for r, c in zip(row, b)]
    return tuple(row)


@dataclass
class Span:
    """Span of off-diagonal matrix units and per-degree diagonal vectors."""

    algebra: TruncatedLoopAlgebra
    units: frozenset[tuple[int, int, int]]
    diagonals: dict[int, list[DiagVector]]
    _diag_echelon: dict[int, list[tuple[Fraction, ...]]] = field(init=False)

    def __post_init__(self) -> None:
        for key in self.units:
            deg, i, j = key
            if i == j or not self.algebra.keeps(deg, i, j):
                raise ValueError(f"unit {key} is not a kept off-diagonal position")
        for deg, vecs in self.diagonals.items():
            for v in vecs:
                if sum(v) != 0:
                    raise ValueError("diagonal span vectors must be traceless")
                if self.algebra.masks[deg] == "upper":
                    raise ValueError(f"degree {deg} keeps no diagonal")
        self._diag_echelon = {deg: _echelon(vecs) for deg, vecs in self.diagonals.items()}

    def basis_elements(self) -> list[Element]:
        out: list[Element] = [{key: 1} for key in sorted(self.units)]
        for deg in sorted(self.diagonals):
            for vec in self.diagonals[deg]:
                elem = self.algebra.diagonal(deg, vec)
                if elem:
                    out.append(elem)
        return out

    def contains(self, elem: Element) -> bool:
        diag_parts: dict[int, list[Fraction]] = {}
        for (deg, i, j), c in elem.items():
            if c == 0:
                continue
            if i != j:
                if (deg, i, j) not in self.units:
                    return False
            else:
                part = diag_parts.setdefault(deg, [Fraction(0)] * self.algebra.n)
                part[i - 1] += c
        for deg, part in diag_parts.items():
            if all(c == 0 for c in part):
                continue
            basis = self._diag_echelon.get(deg, [])
            residue = _reduce_against(tuple(part), basis)
            if any(residue):
                return False
        return True


def stable_under(span: Span, generators: list[Element]) -> bool:
    """True when the bracket of every generator with every span basis
    element stays inside the span."""
    basis = span.basis_elements()
    for g in generators:
        for x in basis:
            if not span.contains(span.algebra.bracket(g, x)):
                return False
    return True


def borel_generators(algebra: TruncatedLoopAlgebra) -> list[Element]:
    """Bracket generators of the acting Borel: the Cartan diagonals at
    degree zero, the simple raising units, and the lowest affine raising
    element (the opposite of the highest root at degree one)."""
    n = algebra.n
    gens: list[Element] = []
    for vec in cartan_basis(n):
        gens.append({(0, i, i): c for i, c in enumerate(vec, start=1) if c != 0})
    for i in range(1, n):
        gens.append({(0, i, i + 1): 1})
    if n >= 2:
        gens.append({(1, n, 1): 1})
    return gens
