"""Basic ideals of the loop Borel in type A, as pairs of Dyck paths.

Positive roots of sl_n are consecutive sums of simple roots, written as
1-based intervals (i, j) inside 1..n-1.  The support of a basic ideal
is the upward closure of an antichain in the window poset of A(n-1):
``s_plus`` holds its degree-zero roots, ``s_minus`` the positive roots
a whose opposite appears at loop degree one, and the imaginary root is
always present.  An ideal enters only as its admissible Dyck pair
(p, q), which :class:`BasicIdeal` stores and :func:`phi` returns, or as
a window antichain, which :func:`from_antichain` turns into that pair.
The interval sets are read off the paths: p's i-th fall follows as many
rises as the least right end in ``s_plus`` from i, q's one more than
the greatest right end in ``s_minus`` from i.  The admissible pairs are
those passing the peak-threshold test of :func:`is_admissible`, and
equivalently those with ``q`` above the ``min_partner`` of ``p``; what
the invariants need is kept in a table per path, ``s_plus`` side from
``p`` alone, ``s_minus`` side from ``q``.

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
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import comb
from typing import TYPE_CHECKING

from .dyck import DyckPath, all_paths, catalan_number, cell_count_rows, path_leq, peaks_at_least
from .frozen import Frozen

if TYPE_CHECKING:
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
        return plus_intervals(self.p)

    @property
    def s_minus(self) -> frozenset[Interval]:
        return minus_intervals(self.q)

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


class _PathTable:
    """What the basic ideals on a Dyck path read of it, as p or as q, kept
    once per path by ``_table``: per pair an invariant then costs a few
    integer comparisons.  Bit sets hold (i, j) at bit (i - 1) * n + j."""

    __slots__ = ("path", "first_peak", "last_peak", "valleys", "depth", "minus_bits", "__dict__")

    def __init__(self, path: DyckPath) -> None:
        n = path.semilength
        self.path = path
        self.first_peak = path.first_peak
        self.last_peak = path.last_peak
        self.valleys = path.word.count("fr")
        # the number of rises before each fall, and s_minus as a bit set
        self.depth = depth = tuple(accumulate(map(len, path.word.split("f")[:-1])))
        self.minus_bits = sum(((1 << d) - (2 << k)) << (k * n) for k, d in enumerate(depth[:-1]))

    @cached_property
    def s_plus(self) -> tuple[Interval, ...]:
        """Sorted: from each start i, the right ends from depth[i - 1] on."""
        n, depth = self.path.semilength, self.depth
        return tuple((i, j) for i in range(1, n) for j in range(depth[i - 1], n))

    @cached_property
    def s_minus(self) -> tuple[Interval, ...]:
        """Sorted: from each start i, the right ends below depth[i - 1]."""
        n, depth = self.path.semilength, self.depth
        return tuple((i, j) for i in range(1, n) for j in range(i, depth[i - 1]))

    @cached_property
    def thresholds(self) -> tuple[tuple[int, ...], ...]:
        """The nonempty powers of the degree-zero part, s_plus first: power
        k holds (i, r) exactly when r >= thresholds[k][i - 1] (n: none).

        Power k holds the sums of k + 1 consecutive members of s_plus.
        s_plus is closed under superintervals, and its least right end
        depth[s - 1] from start s does not fall as s grows, so a greedy
        cut is exact: if power k - 1 from i ends least at r, power k from
        i ends least where the least member from r + 1 ends, since any
        other split ends its first k members at r or later."""
        n = self.path.semilength
        row = self.depth[: n - 1]
        after = row + (n, n)  # after[r]: the least member from r + 1
        out = []
        while row and row[0] < n:
            out.append(row)
            row = tuple(map(after.__getitem__, row))
        return tuple(out)

    @cached_property
    def top_power_bits(self) -> int:
        """The last nonempty power as a bit set; 0 when there is none."""
        n, rows = self.path.semilength, self.thresholds
        return sum(((1 << n) - (1 << t)) << (k * n) for k, t in enumerate(rows[-1] if rows else ()))

    @cached_property
    def tall_peaks(self) -> int:
        return peaks_at_least(self.path, 2)


_table = lru_cache(maxsize=None)(_PathTable)


def plus_intervals(p: DyckPath) -> frozenset[Interval]:
    return frozenset(_table(p).s_plus)


def minus_intervals(q: DyckPath) -> frozenset[Interval]:
    return frozenset(_table(q).s_minus)


def phi(b: BasicIdeal) -> tuple[DyckPath, DyckPath]:
    """The Dyck pair of a basic ideal; ``BasicIdeal(p, q)`` is the inverse."""
    return (b.p, b.q)


def is_admissible(p: DyckPath, q: DyckPath) -> bool:
    """Peak-threshold test: with k, m the first and last peak heights of p,
    the first peak of q must reach n - m and its last peak n - k."""
    n = p.semilength
    if q.semilength != n:
        raise ValueError("paths must share semilength")
    return q.first_peak >= n - p.last_peak and q.last_peak >= n - p.first_peak


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
    return BasicIdeal(_path(plus), _path(minus))


def _path(depth: list[int]) -> DyckPath:
    """The path whose i-th fall follows depth[i - 1] rises in all, the
    inverse of ``_PathTable.depth``; DyckPath refuses any other row."""
    return DyckPath("".join("r" * (d - c) + "f" for c, d in zip([0, *depth], depth)))


def antichain_of(b: BasicIdeal) -> frozenset[WindowRoot]:
    """Minimal window-support elements; inverse of :func:`from_antichain`."""
    return _window(b.n).minimal_elements(b.window_support())


# ---------------------------------------------------------------------------
# enumeration and counting


@lru_cache(maxsize=None)
def _partner_index(n: int) -> dict[tuple[int, int], tuple[DyckPath, ...]]:
    """Per peak threshold (a, b), the paths whose first peak reaches a and
    whose last peak reaches b, in word order; filtered from the paths whose
    first peak reaches a, which are filtered from those for the a below."""
    rows = [(q, q.first_peak, q.last_peak) for q in all_paths(n)]
    thresholds = {(n - d, n - c) for _, c, d in rows}
    reach = {}
    for a in sorted({a for a, _ in thresholds}):
        rows = reach[a] = [row for row in rows if row[1] >= a]
    return {(a, b): tuple(q for q, _, d in reach[a] if d >= b) for a, b in thresholds}


def partners(p: DyckPath) -> tuple[DyckPath, ...]:
    """Every q that makes (p, q) admissible, in word order: by the tent
    argument of :func:`is_quasi_abelian`, the paths above min_partner(p)."""
    n = p.semilength
    return _partner_index(n)[(n - p.last_peak, n - p.first_peak)]


def enumerate_basic(n: int) -> list[BasicIdeal]:
    """All basic ideals, ordered by the word pair of their Dyck encoding."""
    return [BasicIdeal(p, q) for p in all_paths(n) for q in partners(p)]


def b_count_formula(n: int) -> int:
    """Dot product of the cell-count matrix C(n) with its block-sum image
    omega(C(n)), in O(n^2) integer operations.

    The entries of C(n) are the reflection-principle cell counts, except
    that row n and column n hold only the pyramid at (n, n).
    """
    from .matrices import dot, matrix, omega

    if n < 1:
        raise ValueError("n must be at least 1")
    c = matrix(cell_count_rows(n))
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
    tp, tq = _table(b.p), _table(b.q)
    if not tp.s_plus and not tq.s_minus:
        return 1
    n = b.n
    a, bb = tp.first_peak, tp.last_peak
    c, d = tq.first_peak, tq.last_peak
    count = tp.valleys + tq.tall_peaks
    if d == n - a and n - a >= 2:
        count -= 1
    if c == n - bb and n - bb >= 2:
        count -= 1
    return count


# ---------------------------------------------------------------------------
# quasi-abelian ideals and the quasi-nilpotency degree


def is_quasi_abelian(b: BasicIdeal) -> bool:
    """True when min_partner(p) <= q <= p in the dominance order.

    Only ``q <= p`` needs testing, because admissibility already puts q
    above min_partner(p).  With a = n - (last peak of p) and
    b = n - (first peak of p), the first peak of q reaches a, so q lies on
    or above the tent ``a - |x - a|``; its last peak reaches b, so q lies
    on or above the tent ``b - |2n - b - x|``; and every path lies on or
    above ``x mod 2``.  The pointwise maximum of these three bounds is a
    path with first peak a and last peak b, so it is the minimum of the
    cell (a, b), which is min_partner(p).  (For the pyramid, a = b = 0
    and the bound is ``x mod 2``, the staircase.)
    """
    return path_leq(b.q, b.p)


def quasi_abelian_count(n: int) -> int:
    """Number of quasi-abelian basic ideals, the admissible pairs with
    q <= p (see :func:`is_quasi_abelian` for why that test suffices),
    summed over the cells of p in O(n^2) big-integer steps.

    The pyramid pairs with all C_n paths.  Any other p lies in a cell
    (c, d) with 1 <= c, d <= n - 1, and its partners q start with n - d
    rises and end with n - c falls; such a q fits below p's fall at
    c + 1 only when c + d >= n.  There the pairs are the nonintersecting
    pairs (q, p + 2), counted by :func:`_cell_below_pairs`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return catalan_number(n) + sum(
        _cell_below_pairs(n, c, d) for c in range(1, n) for d in range(n - c, n)
    )


def _cell_below_pairs(n: int, c: int, d: int) -> int:
    """Pairs q <= p with p in the cell (c, d), c + d >= n, and q a partner
    of p: the Lindstrom-Gessel-Viennot determinant of ballot numbers for
    the paths q from (n - d, n - d) to (n + c, n - c) and p + 2 from
    (c + 1, c + 1) to (2n - d - 1, d + 1) (README, "Proofs")."""
    s, m = c + d, 2 * n - 2 - c - d
    return (comb(s, d) - comb(s, n + 1)) * comb(m, n - 1 - c) - comb(n - 1, c) * comb(n - 1, d)


def nd_plus(b: BasicIdeal) -> int:
    """Nilpotency degree of the degree-zero part at root level."""
    return len(_table(b.p).thresholds)


def qnd_direct(b: BasicIdeal) -> int:
    """Quasi-nilpotency degree by running the lower central series in the
    degree-truncated quotient.

    Tracks the degree-zero support, the shifted-negative support, and the
    imaginary-root component, the subspace of the Cartan spanned by the
    coroots of annihilating pairs; brackets with that central component
    leave the window and are dropped.  Coroots are nonzero, so the
    component vanishes exactly when no annihilating pair is left.
    """
    n = b.n
    if n == 1:
        return 1
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
    return _qnd(_table(b.p), _table(b.q))


def _qnd(tp: _PathTable, tq: _PathTable) -> int:
    """:func:`qnd_from_plus_degree` from the tables of p and q.  Row i of
    the last power holds the right ends from its threshold on, row i of
    s_minus those below depth[i - 1]: one AND of bit sets tests them.
    With no power, m and its bit set are 0, and the degree is 1."""
    m = len(tp.thresholds)
    return m + 1 if tp.top_power_bits & tq.minus_bits else max(m, 1)


def qnd_histogram(n: int) -> Counter[int]:
    """How many basic ideals of semilength n have each quasi-nilpotency
    degree, read per pair from the two path tables: no ideal is built."""
    hist: Counter[int] = Counter()
    for p in all_paths(n):
        hist.update(map(_qnd, repeat(_table(p)), map(_table, partners(p))))
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
    """JSON-ready record of one basic ideal; its interval tuples are shared per path."""
    return {
        "n": b.n,
        "p": b.p.word,
        "q": b.q.word,
        "s_plus": _table(b.p).s_plus,
        "s_minus": _table(b.q).s_minus,
        "generators": generators_formula(b),
        "quasi_abelian": is_quasi_abelian(b),
        "nd_plus": nd_plus(b),
        "qnd": qnd_from_plus_degree(b),
    }
