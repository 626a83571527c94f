"""Property tests at semilengths 9..20, beyond exhaustive enumeration,
and of the support classification at 5..7, beyond its full product scan.

Paths are drawn step by step, so only the classification test, which
varies one slot over every path of semilength at most 7, calls
``all_paths``.  Where a test generates a whole cell, examples whose cell
holds more than 2000 paths are skipped, which keeps each example cheap.
``min_partner`` builds no cell, so its test takes every example.
"""

from fractions import Fraction
from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from catborel.dyck import (
    DyckPath,
    all_paths,
    cell_count,
    cell_paths,
    min_partner,
    path_leq,
    staircase,
)
from catborel.loopalgebra import (
    Span,
    TruncatedLoopAlgebra,
    borel_generators,
    cartan_basis,
    one_degree_up,
    stable_under,
)
from catborel.matrices import matrix, omega, tau
from catborel.ideals import (
    BasicIdeal,
    _table,
    antichain_of,
    from_antichain,
    is_admissible,
    nd_plus,
    phi,
    qnd_direct,
    qnd_from_plus_degree,
)
from catborel.supports import classify, enumerate_classes
from test_dyck import reflect
from test_ideals import fresh_nd_plus, fresh_powers


@st.composite
def dyck_words(draw, n):
    word, height, rises = [], 0, n
    while rises or height:
        up = rises > 0 and (height == 0 or draw(st.booleans()))
        word.append("r" if up else "f")
        height += 1 if up else -1
        rises -= up
    return "".join(word)


@st.composite
def dyck_paths(draw, lo=9, hi=20):
    return DyckPath(draw(dyck_words(draw(st.integers(lo, hi)))))


MAX_CELL = 2000


def _pointwise_max(x: DyckPath, y: DyckPath) -> DyckPath:
    heights = [max(a, b) for a, b in zip(x.heights, y.heights)]
    return DyckPath("".join("r" if b > a else "f" for a, b in zip(heights, heights[1:])))


@st.composite
def admissible_pairs(draw, lo=9, hi=20):
    """A random p, and a random q raised until its first peak reaches
    n - last peak of p and its last peak reaches n - first peak of p."""
    p = draw(dyck_paths(lo, hi))
    n = p.semilength
    q = DyckPath(draw(dyck_words(n)))
    a, b = n - p.last_peak, n - p.first_peak
    if a:
        k = min(a, n - b)
        q = _pointwise_max(q, DyckPath("r" * a + "f" * k + "r" * (n - a) + "f" * (n - k)))
    else:
        q = _pointwise_max(q, staircase(n))
    return p, q


@settings(max_examples=60, deadline=None)
@given(admissible_pairs())
def test_pair_antichain_round_trip(pair):
    p, q = pair
    assert is_admissible(p, q)
    b = BasicIdeal(p, q)
    again = from_antichain(b.n, antichain_of(b))
    assert again == b and hash(again) == hash(b)
    assert phi(again) == (p, q)


@settings(max_examples=25, deadline=None)
@given(admissible_pairs())
def test_cached_degrees_match_fresh_computation(pair):
    b = BasicIdeal(*pair)
    for _ in range(2):  # the second round reads the per-path cache
        assert nd_plus(b) == fresh_nd_plus(b.s_plus)
        assert qnd_from_plus_degree(b) == qnd_direct(b)


@settings(max_examples=60, deadline=None)
@given(dyck_paths())
def test_power_thresholds_match_fresh_brackets(p):
    n = p.semilength
    thresholds = _table(p).thresholds
    powers = [{(i, r) for i, t in enumerate(row, 1) for r in range(t, n)} for row in thresholds]
    assert powers == fresh_powers(_table(p).s_plus)


@settings(max_examples=100, deadline=None)
@given(dyck_paths())
def test_reflect_is_an_involution(p):
    r = reflect(p)
    assert reflect(r) == p
    assert (r.first_peak, r.last_peak) == (p.last_peak, p.first_peak)


@settings(max_examples=60, deadline=None)
@given(st.integers(12, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, n))))
def test_generated_cell_has_its_peaks_and_size(cell):
    n, i, j = cell
    size = cell_count(n, i, j)
    assume(size <= MAX_CELL)
    members = cell_paths.__wrapped__(n, i, j)  # uncached: examples do not pile up
    assert len(members) == size
    assert all((p.first_peak, p.last_peak) == (i, j) for p in members)
    words = [p.word for p in members]
    assert all(a < b for a, b in zip(words, words[1:]))


@settings(max_examples=60, deadline=None)
@given(admissible_pairs(10, 16))
def test_admissible_partner_dominates_min_partner(pair):
    p, q = pair
    assert path_leq(min_partner(p), q)


@cache
def listed_classes(n):
    """enumerate_classes(n) as the members of each case, and as a map
    from words to case."""
    by_case = {}
    for t, case in enumerate_classes(n):
        by_case.setdefault(case, []).append(t)
    cases = {tuple(p.word for p in t): case for case, ts in by_case.items() for t in ts}
    return tuple(tuple(ts) for ts in by_case.values()), cases


@st.composite
def base_quadruples(draw, n):
    """A listed member of a uniformly drawn case (case IV alone is most
    members), or four random paths."""
    if draw(st.booleans()):
        return draw(st.sampled_from(draw(st.sampled_from(listed_classes(n)[0]))))
    return tuple(DyckPath(draw(dyck_words(n))) for _ in range(4))


@settings(max_examples=200, deadline=None)
@given(st.integers(5, 7).flatmap(lambda n: st.tuples(base_quadruples(n), st.integers(0, 3))))
def test_classify_accepts_exactly_the_listed_classes(drawn):
    """Every quadruple that differs from the drawn one at most in the
    drawn slot: classify accepts the listed ones with their case and
    rejects the rest."""
    t, slot = drawn
    n = t[0].semilength
    cases = listed_classes(n)[1]
    paths = list(t)
    for path in all_paths(n):
        paths[slot] = path
        words = tuple(p.word for p in paths)
        assert classify(*paths) == cases.get(words), words


def fraction_rank(vectors):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def traceless_vectors(draw, n, count):
    """``count`` traceless integer vectors of length n, small entries so
    that dependent sets are common."""
    out = []
    for _ in range(count):
        head = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        out.append(tuple(head) + (-sum(head),))
    return out


@st.composite
def span_and_probe(draw):
    n = draw(st.integers(2, 6))
    return n, draw(traceless_vectors(n, draw(st.integers(0, n)))), draw(traceless_vectors(n, 1))[0]


@settings(max_examples=200, deadline=None)
@given(span_and_probe())
def test_span_contains_matches_fraction_rank(case):
    n, vectors, probe = case
    algebra = TruncatedLoopAlgebra(n, ("upper", "lower_diag"))
    span = Span(algebra, frozenset(), {1: vectors})
    inside = fraction_rank(vectors + [probe]) == fraction_rank(vectors)
    assert span.contains(algebra.diagonal(1, probe)) == inside


@st.composite
def borel_spans(draw):
    """A span, n <= 4, in the two-degree algebra of ``support_span``, the
    three-degree witness algebra, or the algebra of ``one_degree_up``:
    everything from a drawn degree up (which is stable), with a few units
    toggled and some diagonal vectors drawn at random."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["support_span", "witness", "one_degree_up"]))
    masks = ("upper", "lower_diag") if kind == "support_span" else ("upper", "full", "lower_diag")
    algebra = TruncatedLoopAlgebra(n, masks)
    cut = draw(st.integers(0, len(masks)))
    positions = sorted(key for key in algebra.kept if key[1] != key[2])
    toggled = draw(st.sets(st.sampled_from(positions), max_size=2)) if positions else set()
    units = frozenset(key for key in positions if key[0] >= cut) ^ toggled
    diagonals = {}
    for deg, mask in enumerate(masks):
        if mask != "upper":
            full = deg >= cut and draw(st.booleans())
            count = draw(st.integers(0, n - 1))
            diagonals[deg] = cartan_basis(n) if full else draw(traceless_vectors(n, count))
    span = Span(algebra, units, diagonals)
    return one_degree_up(span) if kind == "one_degree_up" else span


def reference_stable(span):
    """Every Borel generator bracketed with every basis element, each
    bracket tested on its own: its units by inclusion, and its diagonal
    part at each degree by rank over the rationals."""
    algebra = span.algebra
    for g in borel_generators(algebra):
        for x in span.basis_elements():
            y = algebra.bracket(g, x)
            if not {key for key in y if key[1] != key[2]} <= span.units:
                return False
            for deg in {key[0] for key in y if key[1] == key[2]}:
                part = tuple(y.get((deg, i, i), 0) for i in range(1, algebra.n + 1))
                vecs = span.diagonals.get(deg, [])
                if fraction_rank(vecs + [part]) != fraction_rank(vecs):
                    return False
    return True


@settings(max_examples=200, deadline=None)
@given(borel_spans())
def test_stable_under_matches_bracket_by_bracket_reference(span):
    diagonals = span.diagonals
    assert span.basis_elements() == [{key: 1} for key in sorted(span.units)] + [
        span.algebra.diagonal(deg, v) for deg in sorted(diagonals) for v in diagonals[deg] if any(v)
    ]
    assert stable_under(span) == reference_stable(span)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 8))
    cells = st.integers(0, 10**6)
    return [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_tau_matches_its_entrywise_definition(rows):
    n = len(rows)
    expect = [
        [sum(rows[s][j] for s in range(max(0, i - 1), n)) for j in range(n)] for i in range(n)
    ]
    assert tau(matrix(rows)).rows() == expect


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_omega_matches_its_entrywise_definition(rows):
    # entry (i, j), 1-based, sums rows max(1, n-j)..n and columns max(1, n-i)..n
    n = len(rows)
    expect = [
        [
            sum(
                rows[k - 1][m - 1]
                for k in range(max(1, n - j), n + 1)
                for m in range(max(1, n - i), n + 1)
            )
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    assert omega(matrix(rows)).rows() == expect
