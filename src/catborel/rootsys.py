"""Finite crystallographic root systems and the window of affine positive
roots at loop degree at most one.

Roots are integer coordinate vectors over the simple-root basis.  A
system is built from its type label by closing the simple roots under
the simple reflections, s_i skipped on alpha_i, so that the closure stays
inside the positive roots.  The Cartan convention is
``cartan[i][j] = <alpha_j, alpha_i-check>``, so the reflection s_i sends
beta to beta - (cartan[i] . beta) alpha_i.

The window D attached to a system consists of the positive roots at
loop degree zero, the imaginary root delta, and the elements -a + delta
for positive roots a.  Two partial orders are built on D:

* the natural order: x <= y when y - x is a non-negative integer
  combination of the affine simple roots (the finite simples together
  with delta - highest root);
* the closure order: the reflexive-transitive closure of single steps
  x -> x + xi where xi is an affine positive root and the sum stays in
  D.  Only xi of loop degree zero or one can keep the sum inside the
  window, so the step set is finite.

Both orders are stored as bit rows (row i is an int whose bit j is set
when element i <= element j): the natural order is the product order on
the affine coordinates (level, finite + level * highest root), and the
closure order is Warshall's closure of the step rows, a step being one
subtraction of linear integer keys and one set lookup.  Each row set is
checked to be a partial order, so that the coincidence of the two orders
is a checkable fact.  The poset answers every query from the rows:
antichain enumeration and the coideal/minimal-element pair used for the
ideal normal form.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .frozen import Frozen

Vector = tuple[int, ...]


def _chain_cartan(rank: int) -> list[list[int]]:
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
        if i + 1 < rank:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


def cartan_matrix(family: str, rank: int) -> tuple[Vector, ...]:
    """Cartan matrix of the named irreducible type, rows indexing coroots."""
    family = family.upper()
    if family == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        c = _chain_cartan(rank)
    elif family == "B":
        if rank < 2:
            raise ValueError("type B needs rank >= 2")
        c = _chain_cartan(rank)
        c[rank - 1][rank - 2] = -2
    elif family == "C":
        if rank < 2:
            raise ValueError("type C needs rank >= 2")
        c = _chain_cartan(rank)
        c[rank - 2][rank - 1] = -2
    elif family == "D":
        if rank < 3:
            raise ValueError("type D needs rank >= 3")
        c = _chain_cartan(rank)
        # detach the last node from the chain and hang it off node rank-3
        c[rank - 1][rank - 2] = 0
        c[rank - 2][rank - 1] = 0
        c[rank - 1][rank - 3] = -1
        c[rank - 3][rank - 1] = -1
    elif family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E exists for ranks 6, 7, 8")
        c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(0, 2), (2, 3), (3, 4), (1, 3)] + [(k, k + 1) for k in range(4, rank - 1)]
        for a, b in edges:
            c[a][b] = -1
            c[b][a] = -1
    elif family == "F":
        if rank != 4:
            raise ValueError("type F exists for rank 4")
        c = _chain_cartan(4)
        c[2][1] = -2
    elif family == "G":
        if rank != 2:
            raise ValueError("type G exists for rank 2")
        c = [[2, -3], [-1, 2]]
    else:
        raise ValueError(f"unknown family {family!r}")
    return tuple(tuple(row) for row in c)


class FiniteRootSystem(Frozen):
    __slots__ = ("label", "positive_roots", "highest_root")

    def __init__(
        self, label: str, positive_roots: tuple[Vector, ...], highest_root: Vector
    ) -> None:
        set_ = object.__setattr__
        set_(self, "label", label)
        set_(self, "positive_roots", positive_roots)
        set_(self, "highest_root", highest_root)

    @property
    def rank(self) -> int:
        return len(self.highest_root)


def _sort_key(v: Vector) -> tuple:
    return (sum(v), v)


def build_root_system(label: str) -> FiniteRootSystem:
    """Build the system of a type label like "A5".  s_i permutes the
    positive roots other than alpha_i (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.2 Lemma B), so the closure
    never forms a negative root."""
    m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", label.strip())
    if not m:
        raise ValueError(f"cannot parse type label {label!r}")
    family, rank = m.group(1).upper(), int(m.group(2))
    cartan = cartan_matrix(family, rank)
    simples = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    seen: set[Vector] = set(simples)
    frontier = simples
    while frontier:
        nxt = []
        for beta in frontier:
            for i, row in enumerate(cartan):
                if beta == simples[i]:
                    continue
                pairing = sum(c * b for c, b in zip(row, beta))
                refl = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
                if refl not in seen:
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
    positive = tuple(sorted(seen, key=_sort_key))
    return FiniteRootSystem(f"{family}{rank}", positive, positive[-1])


class WindowRoot(Frozen):
    """Element of D in (finite part, delta coefficient) form.

    Positive roots carry level 0; delta and the shifted negatives carry
    level 1, the latter with a negated finite part.
    """

    __slots__ = ("finite", "level")

    def __init__(self, finite: Vector, level: int) -> None:
        if level not in (0, 1):
            raise ValueError("window roots live at delta level 0 or 1")
        set_ = object.__setattr__
        set_(self, "finite", finite)
        set_(self, "level", level)

    def _fields(self) -> tuple:
        return (self.finite, self.level)

    @property
    def kind(self) -> str:
        if self.level == 0:
            return "pos"
        return "delta" if all(c == 0 for c in self.finite) else "neg"

    @property
    def label(self) -> str:
        if self.kind == "delta":
            return "delta"
        coords = self.finite if self.kind == "pos" else tuple(-c for c in self.finite)
        return f"{self.kind}:" + ",".join(str(c) for c in coords)


def _wr_sort_key(w: WindowRoot) -> tuple:
    return (w.level, _sort_key(tuple(-c for c in w.finite)) if w.kind == "neg" else _sort_key(w.finite), w.kind)


class WindowPoset(Frozen):
    """The window D with both orders as bit rows: bit j of ``natural[i]``
    (resp. ``closure[i]``) is set when element i <= element j."""

    # _positions maps each element to its index, for the lookups of index
    __slots__ = ("system", "elements", "natural", "closure", "_positions")

    def __init__(
        self,
        system: FiniteRootSystem,
        elements: tuple[WindowRoot, ...],
        natural: tuple[int, ...],
        closure: tuple[int, ...],
    ) -> None:
        set_ = object.__setattr__
        set_(self, "system", system)
        set_(self, "elements", elements)
        set_(self, "natural", natural)
        set_(self, "closure", closure)
        set_(self, "_positions", {w: i for i, w in enumerate(elements)})

    def _fields(self) -> tuple:
        return (self.system, self.elements, self.natural, self.closure)

    def index(self, w: WindowRoot) -> int:
        try:
            return self._positions[w]
        except KeyError:
            raise KeyError(f"{w.label} is not a window element") from None

    def _members(self, mask: int) -> frozenset[WindowRoot]:
        return frozenset(self.elements[j] for j in _bits(mask))

    def antichains(self) -> list[frozenset[WindowRoot]]:
        """All nonempty antichains of the closure order, in a fixed order:
        depth first, each antichain extended by the later elements that
        are incomparable to all of its members."""
        comparable = [row | col for row, col in zip(self.closure, _columns(self.closure))]
        out: list[frozenset[WindowRoot]] = []

        def extend(chosen: int, allowed: int) -> None:
            for i in _bits(allowed):
                now = chosen | 1 << i
                out.append(self._members(now))
                extend(now, allowed & ~comparable[i] & -(1 << i))

        extend(0, (1 << len(self.elements)) - 1)
        return out

    def coideal_of(self, antichain) -> frozenset[WindowRoot]:
        """Upward closure of an antichain; rejects comparable input."""
        chosen = upset = 0
        for i in [self.index(w) for w in antichain]:
            if upset >> i & 1 or self.closure[i] & chosen:
                raise ValueError("input is not an antichain")
            chosen |= 1 << i
            upset |= self.closure[i]
        return self._members(upset)

    def minimal_elements(self, upset) -> frozenset[WindowRoot]:
        """Minimal members of an upward-closed set; rejects other input."""
        inside = sum(1 << i for i in {self.index(w) for w in upset})
        strictly_above = 0
        for i in _bits(inside):
            if self.closure[i] & ~inside:
                raise ValueError("input set is not upward closed")
            strictly_above |= self.closure[i] & ~(1 << i)
        return self._members(inside & ~strictly_above)

    def cover_relations(self) -> dict[str, list[str]]:
        """Adjacency lists of the closure order's cover relations, keyed by
        element label."""
        rows = self.closure
        labels = [w.label for w in self.elements]
        covers: dict[str, list[str]] = {label: [] for label in labels}
        for i, row in enumerate(rows):
            above = row & ~(1 << i)
            reached = 0  # what lies strictly above some element strictly above i
            for k in _bits(above):
                reached |= rows[k] & ~(1 << k)
            covers[labels[i]].extend(labels[j] for j in _bits(above & ~reached))
        for key in covers:
            covers[key].sort()
        return covers


def _bits(row: int):
    """Indices of the set bits of ``row``, in increasing order."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _columns(rows) -> list[int]:
    """The transposed relation: bit i of column j is bit j of row i."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            cols[j] |= 1 << i
    return cols


def _dominated(vectors, bounds) -> list[int]:
    """Per bound w, the bitmask of the indices j with vectors[j] <= w in
    every coordinate: per coordinate, a prefix mask over sorted values."""
    masks = [(1 << len(vectors)) - 1] * len(bounds)
    for c in range(len(vectors[0])):
        by_value: dict[int, int] = {}
        for j, v in enumerate(vectors):
            by_value[v[c]] = by_value.get(v[c], 0) | 1 << j
        values = sorted(by_value)
        prefix = [0]
        for value in values:
            prefix.append(prefix[-1] | by_value[value])
        for k, w in enumerate(bounds):
            masks[k] &= prefix[bisect_right(values, w[c])]
    return masks


def _key(v: Vector, base: int) -> int:
    """Linear integer key of a vector: key(y) - key(x) == key(y - x), and
    two vectors whose coordinates differ by less than ``base`` have equal
    keys only when they are equal."""
    return sum(c * base**k for k, c in enumerate(v))


def window(system: FiniteRootSystem) -> WindowPoset:
    """The window poset of a finite root system, both orders built."""
    rank = system.rank
    zero = tuple(0 for _ in range(rank))
    elements = (
        [WindowRoot(v, 0) for v in system.positive_roots]
        + [WindowRoot(zero, 1)]
        + [WindowRoot(tuple(-c for c in v), 1) for v in system.positive_roots]
    )
    elements.sort(key=_wr_sort_key)
    elements_t = tuple(elements)
    n = len(elements_t)
    highest = system.highest_root

    # natural order: product order on (level, finite + level * highest)
    neg_affine = [
        (-w.level, *(-c - w.level * h for c, h in zip(w.finite, highest))) for w in elements_t
    ]
    natural = _dominated(neg_affine, neg_affine)

    # one step x -> y when y - x is a positive root at level 0, or a root or
    # zero at level 1.  Finite parts of two elements differ by at most
    # 2 * max(highest) per coordinate, so a base above twice that keeps the
    # keys of differences and of steps apart; the level is the top digit.
    base = 4 * max(highest) + 1
    lift = base**rank
    roots = [_key(v, base) for v in system.positive_roots]
    steps = {0, lift, *roots, *(lift + k for k in roots), *(lift - k for k in roots)}
    keys = [w.level * lift + _key(w.finite, base) for w in elements_t]
    closure = [
        sum(1 << j for j, ky in enumerate(keys) if ky - kx in steps) for kx in keys
    ]
    for m in range(n):
        bit, row_m = 1 << m, closure[m]
        for i in range(n):
            if closure[i] & bit:
                closure[i] |= row_m

    _check_partial_order(natural, "natural")
    if closure != natural:  # equal rows pass or fail alike
        _check_partial_order(closure, "closure")
    return WindowPoset(system, elements_t, tuple(natural), tuple(closure))


def _check_partial_order(rows: list[int], name: str) -> None:
    """Reflexivity, antisymmetry and transitivity of a relation in bit rows."""
    for i, (row, col) in enumerate(zip(rows, _columns(rows))):
        if not row >> i & 1:
            raise AssertionError(f"{name} order is not reflexive")
        if row & col != 1 << i:
            raise AssertionError(f"{name} order is not antisymmetric")
    for row in rows:
        for j in _bits(row):
            if rows[j] & ~row:
                raise AssertionError(f"{name} order is not transitive")


def orders_coincide(poset: WindowPoset) -> bool:
    return poset.natural == poset.closure


def highest_root_split_search(system: FiniteRootSystem) -> list[tuple[Vector, Vector, Vector]]:
    """Search for three-part splits of the highest root.

    Returns every ordered pair (xi, zeta) of positive roots such that
    eta := highest - xi - zeta is a nonzero non-negative combination of
    simple roots, xi + zeta is not a positive root, and neither xi nor
    zeta plus any simple root supporting eta is a positive root.  The
    expected result for every finite type is the empty list.
    """
    roots = system.positive_roots
    highest = system.highest_root
    # sums of two roots and root + simple root have coordinates in 0..base-1
    base = 2 * max(highest) + 1
    keys = [_key(v, base) for v in roots]
    pos = set(keys)
    units = [base**i for i in range(system.rank)]
    # bit i set when v + alpha_i is a positive root
    raisable = [sum(1 << i for i, u in enumerate(units) if k + u in pos) for k in keys]
    # zeta with xi + zeta <= highest, so that eta is non-negative
    fits = _dominated(roots, [tuple(h - c for h, c in zip(highest, xi)) for xi in roots])
    hits: list[tuple[Vector, Vector, Vector]] = []
    for x, xi in enumerate(roots):
        for z in _bits(fits[x]):
            if keys[x] + keys[z] in pos:
                continue
            zeta = roots[z]
            eta = tuple(h - a - b for h, a, b in zip(highest, xi, zeta))
            support = sum(1 << i for i, c in enumerate(eta) if c > 0)
            if support and not support & (raisable[x] | raisable[z]):
                hits.append((xi, zeta, eta))
    return hits
