"""Basic ideals of the loop Borel in type A, as pairs of Dyck paths.

Positive roots of sl_n are consecutive sums of simple roots, written as
1-based intervals (i, j) inside 1..n-1.  The support of a basic ideal
is the upward closure of an antichain in the window poset of A(n-1):
``s_plus`` holds its degree-zero roots, ``s_minus`` the positive roots
a whose opposite appears at loop degree one, and the imaginary root is
always present.  An ideal enters only as its admissible Dyck pair
(p, q), which :class:`BasicIdeal` stores and :func:`phi` returns, or as
a window antichain, which :func:`from_antichain` turns into that pair.
The interval sets are p's ``roots_above`` and q's ``roots_below``: p's
i-th fall follows as many rises as the least right end in ``s_plus``
from i, q's one more than the greatest right end in ``s_minus`` from i.
The admissible pairs are those passing the peak-threshold test of
:func:`is_admissible`, and equivalently those with ``q`` above the
``min_partner`` of ``p``.  Every invariant reads the statistics that
each path caches, and :func:`basic_records` lists every ideal's record
from them without building one.

On top of the encoding sit the counting formulas (the cell sums that
check the closed forms of :mod:`catborel.sequences`, proved in README's
"Proofs" section), the generator count, the quasi-abelian test, the
quasi-nilpotency degree, and a matrix oracle
(:func:`verify_basic_in_truncation`) that replays the ideal property
with honest brackets in a truncated loop algebra, independent of all
the interval bookkeeping above.  The window, bracket and matrix code is
imported inside the few functions that use it, so enumerating and
counting ideals does not load it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import repeat
from operator import le, lt
from typing import TYPE_CHECKING

from .dyck import DyckPath, all_paths, ballot, cell_count_rows, from_depth, path_leq, reflected_cell
from .frozen import Frozen

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    from .loopalgebra import Span
    from .rootsys import WindowPoset, WindowRoot

Interval = tuple[int, int]


def _contains(outer: Interval, inner: Interval) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _sum_root(a: Interval, b: Interval) -> Interval | None:
    """a + b when the concatenation is again an interval, else None."""
    if a[1] + 1 == b[0]:
        return (a[0], b[1])
    if b[1] + 1 == a[0]:
        return (b[0], a[1])
    return None


def _difference_root(mu: Interval, alpha: Interval) -> Interval | None:
    """mu - alpha when alpha sits at an end of mu properly, else None."""
    if mu == alpha or not _contains(mu, alpha):
        return None
    if mu[0] == alpha[0]:
        return (alpha[1] + 1, mu[1])
    if mu[1] == alpha[1]:
        return (mu[0], alpha[0] - 1)
    return None


class BasicIdeal(Frozen):
    """A basic ideal, stored as its admissible Dyck pair (p, q)."""

    __slots__ = ("p", "q")

    def __init__(self, p: DyckPath, q: DyckPath) -> None:
        if not is_admissible(p, q):
            raise ValueError(f"pair ({p}, {q}) is not admissible")
        set_ = object.__setattr__
        set_(self, "p", p)
        set_(self, "q", q)

    @property
    def n(self) -> int:
        return self.p.semilength

    @property
    def s_plus(self) -> frozenset[Interval]:
        return frozenset(self.p.roots_above)

    @property
    def s_minus(self) -> frozenset[Interval]:
        return frozenset(self.q.roots_below)

    def window_support(self) -> frozenset[WindowRoot]:
        """The support inside the window, imaginary root included."""
        from .rootsys import WindowRoot

        out = {WindowRoot(_coords(self.n, iv), 0) for iv in self.s_plus}
        out.add(WindowRoot(tuple(0 for _ in range(self.n - 1)), 1))
        out |= {
            WindowRoot(tuple(-c for c in _coords(self.n, iv)), 1) for iv in self.s_minus
        }
        return frozenset(out)


@lru_cache(maxsize=None)
def _coords(n: int, iv: Interval) -> tuple[int, ...]:
    i, j = iv
    return tuple(1 if i <= k <= j else 0 for k in range(1, n))


def phi(b: BasicIdeal) -> tuple[DyckPath, DyckPath]:
    """The Dyck pair of a basic ideal; ``BasicIdeal(p, q)`` is the inverse."""
    return (b.p, b.q)


def is_admissible(p: DyckPath, q: DyckPath) -> bool:
    """Peak-threshold test: the first and last peaks of q must reach the
    reflected cell of p."""
    if q.semilength != p.semilength:
        raise ValueError("paths must share semilength")
    a, b = reflected_cell(p)
    return q.first_peak >= a and q.last_peak >= b


# ---------------------------------------------------------------------------
# antichain normal form


@lru_cache(maxsize=None)
def _window(n: int) -> WindowPoset:
    """The window poset of type A(n-1), whose closure order is the order of
    the window supports; at n = 1, where no A0 system exists, delta alone."""
    from .rootsys import FiniteRootSystem, WindowPoset, WindowRoot, build_root_system, window

    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return WindowPoset(FiniteRootSystem("A0", (), ()), (WindowRoot((), 1),), (1,), (1,))
    return window(build_root_system(f"A{n - 1}"))


def _interval(finite: tuple[int, ...]) -> Interval:
    """The interval of a real window root, from its finite part of either sign."""
    ones = [k for k, c in enumerate(finite, start=1) if c]
    return (ones[0], ones[-1])


def from_antichain(n: int, antichain) -> BasicIdeal:
    """Materialize the upward closure of a nonempty window antichain.  Per
    start i, p's i-th fall follows as many rises as the least right end of
    the positive roots from i (n: none), and q's one more than the greatest
    right end of the negative roots from i (i: none)."""
    antichain = frozenset(antichain)
    if not antichain:
        raise ValueError("antichain must be nonempty")
    plus, minus = [n] * n, list(range(1, n + 1))
    for w in _window(n).coideal_of(antichain):
        if w.kind != "delta":
            i, j = _interval(w.finite)
            if w.kind == "pos":
                plus[i - 1] = min(plus[i - 1], j)
            else:
                minus[i - 1] = max(minus[i - 1], j + 1)
    return BasicIdeal(from_depth(plus), from_depth(minus))


def antichain_of(b: BasicIdeal) -> frozenset[WindowRoot]:
    """Minimal window-support elements; inverse of :func:`from_antichain`."""
    return _window(b.n).minimal_elements(b.window_support())


# ---------------------------------------------------------------------------
# enumeration and counting


@lru_cache(maxsize=None)
def _partner_index(n: int) -> dict[tuple[int, int], tuple[DyckPath, ...]]:
    """Per reflected cell (a, b), the paths whose first peak reaches a and
    whose last peak reaches b, in word order; filtered from the paths whose
    first peak reaches a, which are filtered from those for the a below."""
    rows = [(q, q.first_peak, q.last_peak) for q in all_paths(n)]
    thresholds = set(map(reflected_cell, all_paths(n)))
    reach = {}
    for a in sorted({a for a, _ in thresholds}):
        rows = reach[a] = [row for row in rows if row[1] >= a]
    return {(a, b): tuple(q for q, _, d in reach[a] if d >= b) for a, b in thresholds}


def partners(p: DyckPath) -> tuple[DyckPath, ...]:
    """Every q that makes (p, q) admissible, in word order: by the row
    bound of :func:`is_quasi_abelian`, the paths above min_partner(p)."""
    return _partner_index(p.semilength)[reflected_cell(p)]


def enumerate_basic(n: int) -> list[BasicIdeal]:
    """All basic ideals, ordered by the word pair of their Dyck encoding."""
    return [BasicIdeal(p, q) for p in all_paths(n) for q in partners(p)]


def b_count_formula(n: int) -> int:
    """Dot product of the cell-count matrix C(n) with its block-sum image
    omega(C(n)), in O(n^2) integer operations.

    The entries of C(n) are the reflection-principle cell counts, except
    that row n and column n hold only the pyramid at (n, n).
    """
    from .matrices import dot, omega

    if n < 1:
        raise ValueError("n must be at least 1")
    c = cell_count_rows(n)
    return dot(c, omega(c))


# ---------------------------------------------------------------------------
# generators


def generators_direct(b: BasicIdeal) -> int:
    """Number of minimal window-support elements; one for the minimum
    ideal, whose only removable root is the imaginary one."""
    return len(antichain_of(b))


def generators_formula(b: BasicIdeal) -> int:
    """Peak and valley count for the generators.

    Counts the valleys of p plus the peaks of q of height at least two,
    then drops the first (resp. last) peak of q when it coincides in
    height with the first (resp. last) peak of the minimal partner of p.
    Each correction applies only when the coinciding peak has height at
    least two, i.e. only when that peak was actually counted.
    """
    return _generators(b.p, b.q, *reflected_cell(b.p))


def _generators(p: DyckPath, q: DyckPath, first: int, last: int) -> int:
    """:func:`generators_formula` from p, q and p's reflected cell (first, last)."""
    if not p.roots_above and not q.roots_below:
        return 1
    count = len(p.valleys) + q.tall_peaks
    if last >= 2 and q.last_peak == last:
        count -= 1
    if first >= 2 and q.first_peak == first:
        count -= 1
    return count


# ---------------------------------------------------------------------------
# quasi-abelian ideals and the quasi-nilpotency degree


def is_quasi_abelian(b: BasicIdeal) -> bool:
    """True when min_partner(p) <= q <= p in the dominance order.

    Only ``q <= p`` needs testing, because admissibility already puts q
    above min_partner(p).  With a = n - (last peak of p) and
    b = n - (first peak of p), the first peak of q reaches a, so every
    entry of q's depth row is a or above; its last peak reaches b, so its
    last b entries are n; and entry k (from 0) is at least k + 1.  The
    least row with these bounds has first peak a and last peak b, so it is
    the minimum of the cell (a, b), which is min_partner(p).  (For the
    pyramid, a = b = 0 and the bound is k + 1, the staircase.)
    """
    return path_leq(b.q, b.p)


def quasi_abelian_count(n: int) -> int:
    """Number of quasi-abelian basic ideals, the admissible pairs with
    q <= p (see :func:`is_quasi_abelian` for why that test suffices),
    summed over the cells of p in O(n^2) big-integer steps.

    The pyramid pairs with all C_n = ballot(2n, 0, 0) paths.  Any other
    p lies in a cell (c, d) with 1 <= c, d <= n - 1, and its partners q
    start with n - d rises and end with n - c falls; such a q fits below
    p's fall at c + 1 only when c + d >= n.  There the pairs are the
    nonintersecting pairs (q, p + 2), counted by :func:`_cell_below_pairs`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return ballot(2 * n, 0, 0) + sum(
        _cell_below_pairs(n, c, d) for c in range(1, n) for d in range(n - c, n)
    )


def _cell_below_pairs(n: int, c: int, d: int) -> int:
    """Pairs q <= p with p in the cell (c, d), c + d >= n, and q a partner
    of p: the Lindstrom-Gessel-Viennot determinant of ballot numbers for
    the middles of q from A1 = (n - d, n - d) to B1 = (n + c, n - c) and
    of p + 2 from A2 = (c + 1, c + 1) to B2 = (2n - d - 1, d + 1) (README,
    "Proofs")."""
    s, m = c + d, 2 * n - 2 - c - d
    a1b1, a2b2 = ballot(s, n - d, n - c), ballot(m, c + 1, d + 1)
    a1b2, a2b1 = ballot(n - 1, n - d, d + 1), ballot(n - 1, c + 1, n - c)
    return a1b1 * a2b2 - a1b2 * a2b1


def nd_plus(b: BasicIdeal) -> int:
    """Nilpotency degree of the degree-zero part at root level."""
    return len(b.p.depth_iterates)


def qnd_direct(b: BasicIdeal) -> int:
    """Quasi-nilpotency degree by running the lower central series in the
    degree-truncated quotient.

    Tracks the degree-zero support, the shifted-negative support, and the
    imaginary-root component, the subspace of the Cartan spanned by the
    coroots of annihilating pairs; brackets with that central component
    leave the window and are dropped.  Coroots are nonzero, so the
    component vanishes exactly when no annihilating pair is left.
    """
    plus0 = p_cur = b.s_plus
    minus0 = n_cur = b.s_minus
    cartan = True  # the full Cartan at the start
    m = 0
    while p_cur or n_cur or cartan:
        p_next = set()
        for alpha in p_cur:
            for beta in plus0:
                s = _sum_root(alpha, beta)
                if s is not None:
                    p_next.add(s)
        n_next = set()
        for mu_set, al_set in ((n_cur, plus0), (minus0, p_cur)):
            for mu in mu_set:
                for alpha in al_set:
                    d = _difference_root(mu, alpha)
                    if d is not None:
                        n_next.add(d)
        cartan = bool(p_cur & minus0 or n_cur & plus0)
        p_cur, n_cur = frozenset(p_next), frozenset(n_next)
        m += 1
    return m


def qnd_from_plus_degree(b: BasicIdeal) -> int:
    """Quasi-nilpotency degree from the degree-zero nilpotency degree m:
    it is 1 when m = 0, and otherwise m unless some member of s_minus
    also lies in the support of the (m-1)-st power of the degree-zero
    part, in which case it is m + 1."""
    return _qnd(b.p, b.q)


def _qnd(p: DyckPath, q: DyckPath) -> int:
    """:func:`qnd_from_plus_degree` from p and q.  Row i of the last power
    holds the right ends from p's last depth iterate on, row i of s_minus
    those below q's depth[i - 1]: they meet where the iterate lies below
    q's depth.  With no power m is 0, and the degree is 1."""
    rows = p.depth_iterates
    m = len(rows)
    return m + 1 if rows and any(map(lt, rows[-1], q.depth)) else max(m, 1)


def qnd_histogram(n: int) -> Counter[int]:
    """How many basic ideals of semilength n have each quasi-nilpotency
    degree, read per pair from the two paths: no ideal is built.
    The oracle of the closed-form row :func:`catborel.sequences.qnd_row`,
    run only by ``verify`` and the tests."""
    hist: Counter[int] = Counter()
    for p in all_paths(n):
        hist.update(map(_qnd, repeat(p), partners(p)))
    return hist


# ---------------------------------------------------------------------------
# matrix oracle


def layer_units(s_plus, s_minus, degree: int) -> frozenset[tuple[int, int, int]]:
    """Matrix units (degree, row, column) of a positive layer at loop
    degree ``degree`` and a negative layer one degree up: the root (i, j)
    is the unit at row i, column j + 1, and its negative the transpose."""
    plus = [(degree, i, j + 1) for i, j in s_plus]
    minus = [(degree + 1, j + 1, i) for i, j in s_minus]
    return frozenset(plus + minus)


def support_span(n: int, s_plus, s_minus, include_delta: bool = True) -> Span:
    """The candidate span of two interval sets in the two-degree quotient:
    unit matrices for the real roots, and the full Cartan at degree one
    for delta."""
    from .loopalgebra import Span, TruncatedLoopAlgebra, cartan_basis

    alg = TruncatedLoopAlgebra(n, ("upper", "lower_diag"))
    diag = {1: cartan_basis(n)} if include_delta else {}
    return Span(alg, layer_units(s_plus, s_minus, 0), diag)


def verify_basic_in_truncation(b: BasicIdeal) -> bool:
    """Check with explicit matrix brackets that the support span is stable
    under the Borel generators in the two-degree quotient."""
    from .loopalgebra import stable_under

    return stable_under(support_span(b.n, b.s_plus, b.s_minus))


def is_quasi_abelian_bracket(b: BasicIdeal) -> bool:
    """Quasi-abelian test by brute force in the quotient: every bracket of
    two candidate basis elements must vanish there."""
    span = support_span(b.n, b.s_plus, b.s_minus)
    basis = span.basis_elements()
    alg = span.algebra
    for x in basis:
        for y in basis:
            if alg.bracket(x, y):
                return False
    return True


@lru_cache(maxsize=None)
def basic_ideals(n: int) -> tuple[BasicIdeal, ...]:
    """Cached deterministic enumeration, shared by the verification suites."""
    return tuple(enumerate_basic(n))


def ideal_record(b: BasicIdeal) -> dict:
    """JSON-ready record of one basic ideal, its interval tuples shared per
    path: the oracle of :func:`basic_records`, run by ``verify`` and tests."""
    return {
        "n": b.n,
        "p": b.p.word,
        "q": b.q.word,
        "s_plus": b.p.roots_above,
        "s_minus": b.q.roots_below,
        "generators": generators_formula(b),
        "quasi_abelian": is_quasi_abelian(b),
        "nd_plus": nd_plus(b),
        "qnd": qnd_from_plus_degree(b),
    }


def basic_records(n: int) -> Iterator[dict]:
    """:func:`ideal_record` over :func:`enumerate_basic`, in its order, read
    per p and per pair from the two paths: no ideal is built."""
    for p in all_paths(n):
        yield from _records(p, partners(p))


def _records(p: DyckPath, qs: Iterable[DyckPath]) -> Iterator[dict]:
    """The records of the pairs (p, q), q in qs, with what p alone fixes read
    once; a q that is no partner of p is refused, as BasicIdeal refuses it."""
    first, last = reflected_cell(p)
    n, word, s_plus, m, depth = p.semilength, p.word, p.roots_above, len(p.depth_iterates), p.depth
    for q in qs:
        if q.first_peak < first or q.last_peak < last:
            raise ValueError(f"pair ({p}, {q}) is not admissible")
        yield {
            "n": n,
            "p": word,
            "q": q.word,
            "s_plus": s_plus,
            "s_minus": q.roots_below,
            "generators": _generators(p, q, first, last),
            "quasi_abelian": all(map(le, q.depth, depth)),  # path_leq(q, p)
            "nd_plus": m,
            "qnd": _qnd(p, q),
        }
