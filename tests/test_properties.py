"""Property tests at semilengths 9..20, beyond exhaustive enumeration,
and of the support classification at 5..7, beyond its full product scan.

Paths are drawn step by step, so only the classification test, which
varies one slot over every path of semilength at most 7, calls
``all_paths``.  Where a test generates a whole cell, examples whose cell
holds more than 2000 paths are skipped, which keeps each example cheap.
``min_partner`` builds no cell, so its test takes every example.  The
ballot kernel is checked exhaustively on a box of lengths and heights,
off-lattice corners included, against a step-by-step count and against
the factorial form of the Catalan triangle.  The window's partial-order
check is compared with the pairwise definition on relations of at most
7 elements.
"""

from fractions import Fraction
from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from catborel.dyck import (
    DyckPath,
    all_paths,
    ballot,
    catalan_triangle,
    cell_count,
    cell_paths,
    from_depth,
    min_partner,
    path_leq,
    pyramid,
    staircase,
)
from catborel.loopalgebra import (
    Span,
    TruncatedLoopAlgebra,
    _split,
    borel_generators,
    cartan_basis,
    one_degree_up,
    stable_under,
)
from catborel.matrices import omega, tau
from catborel.ideals import (
    BasicIdeal,
    _records,
    antichain_of,
    from_antichain,
    generators_direct,
    ideal_record,
    is_admissible,
    nd_plus,
    phi,
    qnd_direct,
    qnd_from_plus_degree,
)
from catborel.rootsys import _check_partial_order
from catborel.supports import classify, enumerate_classes
from test_dyck import heights, reflect, valley_scan
from test_ideals import fresh_nd_plus, fresh_powers
from test_rootsys import brute_is_partial_order, rows_of
from test_sequences import split_count


@st.composite
def dyck_words(draw, n, first_peak=0):
    """Drawn step by step; a first_peak of 1..n fixes the first peak's height."""
    word = ["r"] * first_peak + ["f"] * (first_peak > 0)
    height, rises = max(first_peak - 1, 0), n - first_peak
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
    top = [max(a, b) for a, b in zip(heights(x), heights(y))]
    return DyckPath("".join("r" if b > a else "f" for a, b in zip(top, top[1:])))


def _raised(p: DyckPath, q: DyckPath) -> DyckPath:
    """q raised until its first peak reaches n - last peak of p and its
    last peak reaches n - first peak of p."""
    n = p.semilength
    a, b = n - p.last_peak, n - p.first_peak
    if a:
        k = min(a, n - b)
        return _pointwise_max(q, DyckPath("r" * a + "f" * k + "r" * (n - a) + "f" * (n - k)))
    return _pointwise_max(q, staircase(n))


@st.composite
def admissible_pairs(draw, lo=9, hi=20):
    """A random p, and a random q raised to a partner of p."""
    p = draw(dyck_paths(lo, hi))
    return p, _raised(p, DyckPath(draw(dyck_words(p.semilength))))


@st.composite
def partnered_paths(draw, lo=9, hi=14):
    """A random p with some of its partners: min_partner(p), whose peaks
    sit exactly on p's reflected cell, random paths raised to partners,
    and the pyramid.  Listing all of them would need every path of
    semilength n.  The first peak of p has a drawn height, and p is
    mirrored half the time, so that thresholds of 1 and 2 (n minus a peak
    of p), where the generator count's peak corrections switch on, come
    up often."""
    n = draw(st.integers(lo, hi))
    p = DyckPath(draw(dyck_words(n, draw(st.integers(1, n)))))
    if draw(st.booleans()):
        p = reflect(p)
    raised = [_raised(p, DyckPath(w)) for w in draw(st.lists(dyck_words(n), max_size=6))]
    return p, [min_partner(p), *raised, pyramid(n)]


@settings(max_examples=200, deadline=None)
@given(st.integers(9, 20).flatmap(lambda n: st.tuples(dyck_words(n), dyck_words(n))))
def test_depth_rows_answer_what_the_height_profile_does(words):
    # the pointwise maximum of p and q lies above both, so comparisons that
    # hold come up as often as those that fail
    p, q = map(DyckPath, words)
    top = _pointwise_max(p, q)
    for x, y in ((p, q), (q, p), (p, top), (top, q)):
        assert path_leq(x, y) == all(a <= b for a, b in zip(heights(x), heights(y)))
    assert from_depth(p.depth) == p
    assert p.valleys == valley_scan(p)


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
@given(partnered_paths())
def test_records_per_p_match_ideal_record(case):
    # the per-p loop of enumerate-basic against one BasicIdeal per pair;
    # the generator count, which both read from one helper, also against
    # the window antichain
    p, qs = case
    records = list(_records(p, qs))
    built = [BasicIdeal(p, q) for q in qs]
    assert records == [ideal_record(b) for b in built]
    assert [r["generators"] for r in records] == [generators_direct(b) for b in built]


@settings(max_examples=60, deadline=None)
@given(dyck_paths())
def test_power_thresholds_match_fresh_brackets(p):
    n = p.semilength
    rows = p.depth_iterates
    powers = [{(i, r) for i, t in enumerate(row, 1) for r in range(t, n)} for row in rows]
    assert powers == fresh_powers(p.roots_above)


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


def test_ballot_matches_a_step_by_step_count():
    # counts[h]: the paths of `steps` steps from `start` to h that stay at or
    # above 0, for h up to 64, which no start <= 24 passes in 40 steps
    top = 64
    for start in range(-2, 25):
        counts = [int(h == start) for h in range(top + 1)]  # no path from below 0
        for steps in range(41):
            for end in range(-2, 25):
                expected = counts[end] if end >= 0 else 0
                assert ballot(steps, start, end) == expected, (steps, start, end)
                assert ballot(-1 - steps, start, end) == 0, (-1 - steps, start, end)
            counts = [
                (counts[h - 1] if h else 0) + (counts[h + 1] if h < top else 0)
                for h in range(top + 1)
            ]


def test_catalan_triangle_is_a_ballot_number():
    # row i, column j: the paths of i rises and j falls that never go below 0
    for i in range(40):
        for j in range(i + 1):
            assert catalan_triangle(i, j) == ballot(i + j, 0, i - j), (i, j)


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


def contains(span, elem):
    return span._holds(*_split(span.algebra.n, elem))


@settings(max_examples=200, deadline=None)
@given(span_and_probe())
def test_span_contains_matches_fraction_rank(case):
    n, vectors, probe = case
    algebra = TruncatedLoopAlgebra(n, ("upper", "lower_diag"))
    span = Span(algebra, frozenset(), {1: vectors})
    inside = fraction_rank(vectors + [probe]) == fraction_rank(vectors)
    assert contains(span, algebra.diagonal(1, probe)) == inside


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
    return tuple(tuple(draw(st.lists(cells, min_size=n, max_size=n))) for _ in range(n))


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_tau_matches_its_entrywise_definition(rows):
    n = len(rows)
    expect = [
        [sum(rows[s][j] for s in range(max(0, i - 1), n)) for j in range(n)] for i in range(n)
    ]
    assert tau(rows) == tuple(map(tuple, expect))


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
    assert omega(rows) == tuple(map(tuple, expect))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(0, 400))
def test_split_count_matches_the_pairs(k, m):
    # pi_k(m) of Conjectures Q and N: the pairs a, b >= 0 with a k + b (k + 1) = m
    assert split_count(k, m) == sum((m - a * k) % (k + 1) == 0 for a in range(m // k + 1))


@st.composite
def relations(draw):
    """A table of bools on at most 7 elements, as drawn, with its diagonal
    set, or closed reflexively and transitively: a closure is a partial
    order exactly when it is antisymmetric."""
    n = draw(st.integers(1, 7))
    table = [draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["drawn", "reflexive", "closed"]))
    if shape != "drawn":
        for i in range(n):
            table[i][i] = True
    if shape == "closed":
        for m in range(n):
            for i in range(n):
                if table[i][m]:
                    table[i] = [a or b for a, b in zip(table[i], table[m])]
    return table


@settings(max_examples=300, deadline=None)
@given(relations())
def test_check_partial_order_matches_the_pairwise_definition(table):
    try:
        _check_partial_order(list(rows_of(table)), "relation")
    except AssertionError:
        accepted = False
    else:
        accepted = True
    assert accepted == brute_is_partial_order(table)
