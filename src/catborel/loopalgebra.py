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
support check off the diagonal and a small exact elimination on it, done
fraction-free in integers.
"""

from __future__ import annotations

from math import gcd

from .frozen import Frozen

Element = dict[tuple[int, int, int], int]
DiagVector = tuple[int, ...]

_MASKS = ("upper", "lower_diag", "full")


class TruncatedLoopAlgebra(Frozen):
    """Equal by ``n`` and ``masks``; ``kept`` holds every (degree, row,
    col) position that the masks keep, built once."""

    __slots__ = ("n", "masks", "kept")

    def __init__(self, n: int, masks: tuple[str, ...]) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        for m in masks:
            if m not in _MASKS:
                raise ValueError(f"unknown mask {m!r}")
        kept = frozenset(
            (deg, i, j)
            for deg, mask in enumerate(masks)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if mask == "full" or (i < j if mask == "upper" else i >= j)
        )
        set_ = object.__setattr__
        set_(self, "n", n)
        set_(self, "masks", masks)
        set_(self, "kept", kept)

    def _fields(self) -> tuple:
        return (self.n, self.masks)

    def diagonal(self, deg: int, vec: DiagVector) -> Element:
        if len(vec) != self.n:
            raise ValueError("diagonal vector must have length n")
        if sum(vec) != 0:
            raise ValueError("diagonal vectors must be traceless")
        if self.masks[deg] == "upper":
            raise ValueError(f"degree {deg} keeps no diagonal")
        return {(deg, i, i): c for i, c in enumerate(vec, start=1) if c != 0}

    def project(self, elem: Element) -> Element:
        kept = self.kept
        return {k: v for k, v in elem.items() if v != 0 and k in kept}

    def bracket(self, x: Element, y: Element) -> Element:
        degrees = len(self.masks)
        out: Element = {}
        for (d1, a, b), c1 in x.items():
            for (d2, c, d), c2 in y.items():
                deg = d1 + d2
                if deg >= degrees:
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


def _echelon(vectors: list[DiagVector]) -> list[DiagVector]:
    basis: list[DiagVector] = []
    for row in vectors:
        row = _reduce_against(row, basis)
        if any(row):
            basis.append(row)
            basis.sort(key=_pivot)
    return basis


def _pivot(row: DiagVector) -> int:
    for k, c in enumerate(row):
        if c != 0:
            return k
    return len(row)


def _reduce_against(row, basis) -> DiagVector:
    """Clear the row at each basis pivot without fractions: the row is
    scaled by the pivot entry and divided by its content, so the result
    is a nonzero multiple of the rational residue and is zero exactly
    when that residue is."""
    row = list(row)
    for b in basis:
        p = _pivot(b)
        if p < len(row) and row[p] != 0:
            c = row[p]
            row = [r * b[p] - c * x for r, x in zip(row, b)]
            g = gcd(*row)
            if g > 1:
                row = [r // g for r in row]
    return tuple(row)


class Span(Frozen):
    """Span of off-diagonal matrix units and per-degree diagonal vectors.

    Equal by its three arguments; unhashable, since ``diagonals`` is a
    dict.
    """

    __slots__ = ("algebra", "units", "diagonals", "_diag_echelon")
    __hash__ = None

    def __init__(
        self,
        algebra: TruncatedLoopAlgebra,
        units: frozenset[tuple[int, int, int]],
        diagonals: dict[int, list[DiagVector]],
    ) -> None:
        for key in units:
            deg, i, j = key
            if i == j or key not in algebra.kept:
                raise ValueError(f"unit {key} is not a kept off-diagonal position")
        for deg, vecs in diagonals.items():
            for v in vecs:
                if sum(v) != 0:
                    raise ValueError("diagonal span vectors must be traceless")
                if algebra.masks[deg] == "upper":
                    raise ValueError(f"degree {deg} keeps no diagonal")
        set_ = object.__setattr__
        set_(self, "algebra", algebra)
        set_(self, "units", units)
        set_(self, "diagonals", diagonals)
        set_(self, "_diag_echelon", {deg: _echelon(vecs) for deg, vecs in diagonals.items()})

    def _fields(self) -> tuple:
        return (self.algebra, self.units, self.diagonals)

    def basis_elements(self) -> list[Element]:
        out: list[Element] = [{key: 1} for key in sorted(self.units)]
        for deg in sorted(self.diagonals):
            for vec in self.diagonals[deg]:
                elem = self.algebra.diagonal(deg, vec)
                if elem:
                    out.append(elem)
        return out

    def contains(self, elem: Element) -> bool:
        diag_parts: dict[int, list[int]] = {}
        for (deg, i, j), c in elem.items():
            if c == 0:
                continue
            if i != j:
                if (deg, i, j) not in self.units:
                    return False
            else:
                part = diag_parts.setdefault(deg, [0] * self.algebra.n)
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
