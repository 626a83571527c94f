"""Finite crystallographic root systems and the window of affine positive
roots at loop degree at most one.

Roots are integer coordinate vectors over the simple-root basis.  A
system is built from its Cartan matrix by closing the simple roots under
the simple reflections; non-finite input is detected when the closure
exceeds a size bound.  The Cartan convention is
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

Both orders are materialized as tables so that their coincidence is a
checkable fact.  The poset also carries antichain enumeration and the
coideal/minimal-element pair used for the ideal normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

Vector = tuple[int, ...]

# Closure size bound; the largest supported finite type has 240 roots.
_ROOT_LIMIT = 400


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
        if rank >= 3:
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


@dataclass(frozen=True)
class FiniteRootSystem:
    label: str
    cartan: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    highest_root: Vector

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def root_set(self) -> frozenset[Vector]:
        return frozenset(self.positive_roots)

    def simple_roots(self) -> tuple[Vector, ...]:
        r = self.rank
        return tuple(tuple(1 if k == i else 0 for k in range(r)) for i in range(r))


def _sort_key(v: Vector) -> tuple:
    return (sum(v), v)


def build_root_system(source) -> FiniteRootSystem:
    """Build a system from a type label like "A5" or an explicit Cartan matrix."""
    if isinstance(source, str):
        m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", source.strip())
        if not m:
            raise ValueError(f"cannot parse type label {source!r}")
        family, rank = m.group(1).upper(), int(m.group(2))
        cartan = cartan_matrix(family, rank)
        label = f"{family}{rank}"
    else:
        cartan = tuple(tuple(int(v) for v in row) for row in source)
        rank = len(cartan)
        for i, row in enumerate(cartan):
            if len(row) != rank or row[i] != 2:
                raise ValueError("Cartan matrix must be square with diagonal 2")
        label = f"rank{rank}"

    rank = len(cartan)
    simples = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    seen: set[Vector] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank):
                pairing = sum(cartan[i][j] * beta[j] for j in range(rank))
                refl = tuple(
                    beta[k] - (pairing if k == i else 0) for k in range(rank)
                )
                if refl not in seen:
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
        if len(seen) > 2 * _ROOT_LIMIT:
            raise ValueError("reflection closure did not terminate: not finite type")

    positive = sorted((v for v in seen if all(c >= 0 for c in v)), key=_sort_key)
    mixed = [v for v in seen if any(c > 0 for c in v) and any(c < 0 for c in v)]
    if mixed or 2 * len(positive) != len(seen):
        raise ValueError("input is not the Cartan matrix of a root system")

    highest = positive[-1]
    if not all(all(h - c >= 0 for h, c in zip(highest, v)) for v in positive):
        raise ValueError("no coordinatewise-maximal root: system is reducible")
    return FiniteRootSystem(
        label=label,
        cartan=cartan,
        positive_roots=tuple(positive),
        highest_root=highest,
    )


@dataclass(frozen=True)
class WindowRoot:
    """Element of D in (finite part, delta coefficient) form.

    Positive roots carry level 0; delta and the shifted negatives carry
    level 1, the latter with a negated finite part.
    """

    finite: Vector
    level: int

    def __post_init__(self) -> None:
        if self.level not in (0, 1):
            raise ValueError("window roots live at delta level 0 or 1")

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


@dataclass(frozen=True)
class WindowPoset:
    system: FiniteRootSystem
    elements: tuple[WindowRoot, ...]
    natural_table: tuple[tuple[bool, ...], ...]
    closure_table: tuple[tuple[bool, ...], ...]

    def index(self, w: WindowRoot) -> int:
        try:
            return self.elements.index(w)
        except ValueError:
            raise KeyError(f"{w.label} is not a window element") from None

    @property
    def delta(self) -> WindowRoot:
        return WindowRoot(tuple(0 for _ in range(self.system.rank)), 1)

    def closure_leq(self, a: WindowRoot, b: WindowRoot) -> bool:
        return self.closure_table[self.index(a)][self.index(b)]

    def _comparable(self, i: int, j: int) -> bool:
        return self.closure_table[i][j] or self.closure_table[j][i]

    def antichains(self) -> list[frozenset[WindowRoot]]:
        """All nonempty antichains of the closure order, in a fixed order."""
        n = len(self.elements)
        out: list[frozenset[WindowRoot]] = []
        chosen: list[int] = []

        def extend(start: int) -> None:
            for i in range(start, n):
                if all(not self._comparable(i, c) for c in chosen):
                    chosen.append(i)
                    out.append(frozenset(self.elements[k] for k in chosen))
                    extend(i + 1)
                    chosen.pop()

        extend(0)
        return out

    def coideal_of(self, antichain) -> frozenset[WindowRoot]:
        """Upward closure of an antichain; rejects comparable input."""
        members = list(antichain)
        idx = [self.index(w) for w in members]
        for a, b in combinations(idx, 2):
            if self._comparable(a, b):
                raise ValueError("input is not an antichain")
        return frozenset(
            self.elements[j]
            for j in range(len(self.elements))
            if any(self.closure_table[i][j] for i in idx)
        )

    def minimal_elements(self, upset) -> frozenset[WindowRoot]:
        """Minimal members of an upward-closed set; rejects other input."""
        idx = sorted(self.index(w) for w in upset)
        inside = set(idx)
        for i in idx:
            for j in range(len(self.elements)):
                if self.closure_table[i][j] and j not in inside:
                    raise ValueError("input set is not upward closed")
        return frozenset(
            self.elements[i]
            for i in idx
            if not any(self.closure_table[j][i] for j in inside if j != i)
        )

    def cover_relations(self, order: str = "closure") -> dict[str, list[str]]:
        """Adjacency lists of cover relations, keyed by element label."""
        table = self.closure_table if order == "closure" else self.natural_table
        n = len(self.elements)
        covers: dict[str, list[str]] = {w.label: [] for w in self.elements}
        for i in range(n):
            for j in range(n):
                if i == j or not table[i][j]:
                    continue
                if any(
                    table[i][k] and table[k][j] for k in range(n) if k not in (i, j)
                ):
                    continue
                covers[self.elements[i].label].append(self.elements[j].label)
        for key in covers:
            covers[key].sort()
        return covers


def window(system: FiniteRootSystem) -> WindowPoset:
    """The window poset of a finite root system, both orders materialized."""
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
    pos_set = system.root_set
    all_roots = pos_set | {tuple(-c for c in v) for v in pos_set}

    natural = [[False] * n for _ in range(n)]
    for i, x in enumerate(elements_t):
        for j, y in enumerate(elements_t):
            k = y.level - x.level
            if k < 0:
                continue
            diff = tuple(b - a + k * h for a, b, h in zip(x.finite, y.finite, highest))
            natural[i][j] = all(c >= 0 for c in diff)

    step = [[False] * n for _ in range(n)]
    for i, x in enumerate(elements_t):
        for j, y in enumerate(elements_t):
            if i == j:
                step[i][j] = True
                continue
            k = y.level - x.level
            diff = tuple(b - a for a, b in zip(x.finite, y.finite))
            if k == 0:
                step[i][j] = diff in pos_set
            elif k == 1:
                step[i][j] = diff in all_roots or all(c == 0 for c in diff)

    closure = [row[:] for row in step]
    for m in range(n):
        cm = closure[m]
        for i in range(n):
            if closure[i][m]:
                ci = closure[i]
                for j in range(n):
                    if cm[j]:
                        ci[j] = True

    poset = WindowPoset(
        system=system,
        elements=elements_t,
        natural_table=tuple(tuple(row) for row in natural),
        closure_table=tuple(tuple(row) for row in closure),
    )
    _check_partial_order(poset.natural_table, "natural")
    _check_partial_order(poset.closure_table, "closure")
    return poset


def _check_partial_order(table, name: str) -> None:
    n = len(table)
    for i in range(n):
        if not table[i][i]:
            raise AssertionError(f"{name} order is not reflexive")
        for j in range(n):
            if i != j and table[i][j] and table[j][i]:
                raise AssertionError(f"{name} order is not antisymmetric")
    for i in range(n):
        for j in range(n):
            if not table[i][j]:
                continue
            for k in range(n):
                if table[j][k] and not table[i][k]:
                    raise AssertionError(f"{name} order is not transitive")


def orders_coincide(poset: WindowPoset) -> bool:
    return poset.natural_table == poset.closure_table


def highest_root_split_search(system: FiniteRootSystem) -> list[tuple[Vector, Vector, Vector]]:
    """Search for three-part splits of the highest root.

    Returns every ordered pair (xi, zeta) of positive roots such that
    eta := highest - xi - zeta is a nonzero non-negative combination of
    simple roots, xi + zeta is not a positive root, and neither xi nor
    zeta plus any simple root supporting eta is a positive root.  The
    expected result for every finite type is the empty list.
    """
    pos = system.root_set
    rank = system.rank
    highest = system.highest_root
    hits: list[tuple[Vector, Vector, Vector]] = []
    for xi in system.positive_roots:
        for zeta in system.positive_roots:
            eta = tuple(h - a - b for h, a, b in zip(highest, xi, zeta))
            if any(c < 0 for c in eta) or all(c == 0 for c in eta):
                continue
            if tuple(a + b for a, b in zip(xi, zeta)) in pos:
                continue
            support = [i for i in range(rank) if eta[i] > 0]
            ok = True
            for i in support:
                xi_up = tuple(c + (1 if k == i else 0) for k, c in enumerate(xi))
                zeta_up = tuple(c + (1 if k == i else 0) for k, c in enumerate(zeta))
                if xi_up in pos or zeta_up in pos:
                    ok = False
                    break
            if ok:
                hits.append((xi, zeta, eta))
    return hits
