import math
from collections import Counter

import pytest

from catborel import rootsys
from catborel.dyck import DyckPath, all_paths, min_partner, path_leq, pyramid, staircase
from catborel.ideals import (
    BasicIdeal,
    _partner_index,
    antichain_of,
    b_count_formula,
    basic_ideals,
    enumerate_basic,
    from_antichain,
    generators_direct,
    generators_formula,
    ideal_record,
    is_admissible,
    is_quasi_abelian,
    is_quasi_abelian_bracket,
    minus_intervals,
    nd_plus,
    partners,
    phi,
    plus_intervals,
    qnd_direct,
    qnd_from_plus_degree,
    qnd_histogram,
    quasi_abelian_count,
    support_span,
    verify_basic_in_truncation,
)
from catborel.loopalgebra import stable_under
from catborel.matrices import catalan_matrix, dot, omega
from catborel.rootsys import WindowRoot
from catborel.sequences import b_sequence, quasi_abelian_sequence
from test_rootsys import closure_leq

B_SEQUENCE = [1, 4, 18, 82, 370, 1648, 7252, 31582, 136338, 584248]

# the two interval fillings drawn in the worked six-strand example
FIG_PLUS = {(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)}
FIG_MINUS = {(1, 1), (3, 3), (4, 4), (4, 5), (5, 5)}


def intervals(n):
    """All positive-root intervals of rank n - 1, sorted."""
    return [(i, j) for i in range(1, n) for j in range(i, n)]


def ideal(n, s_plus=(), s_minus=()):
    """The basic ideal with this support, looked up among all of them."""
    support = (frozenset(s_plus), frozenset(s_minus))
    (b,) = [b for b in basic_ideals(n) if (b.s_plus, b.s_minus) == support]
    return b


def full_ideal(n):
    return BasicIdeal(staircase(n), pyramid(n))


def delta_root(n):
    return WindowRoot(tuple(0 for _ in range(n - 1)), 1)


def test_grid_walk_matches_drawn_example():
    assert plus_intervals(DyckPath("rrfrfrrffrff")) == frozenset(FIG_PLUS)
    assert minus_intervals(DyckPath("rrffrrfrrfff")) == frozenset(FIG_MINUS)


def test_encoding_anchors():
    for n in range(2, 7):
        everything = frozenset(intervals(n))
        assert plus_intervals(pyramid(n)) == frozenset()
        assert plus_intervals(staircase(n)) == everything
        assert minus_intervals(staircase(n)) == frozenset()
        assert minus_intervals(pyramid(n)) == everything


def test_minimum_and_full_ideal_pairs():
    assert phi(ideal(4)) == (pyramid(4), staircase(4))
    assert phi(full_ideal(4)) == (staircase(4), pyramid(4))


def test_encoding_is_monotone():
    # a higher path has a smaller plus-set and a larger minus-set
    paths = all_paths(5)
    for a in paths:
        for b in paths:
            leq = path_leq(a, b)
            assert leq == (plus_intervals(b) <= plus_intervals(a)), (a, b)
            assert leq == (minus_intervals(a) <= minus_intervals(b)), (a, b)


def test_admissibility_examples():
    assert is_admissible(pyramid(3), staircase(3))
    assert not is_admissible(staircase(3), staircase(3))
    for n in range(1, 7):
        assert is_admissible(staircase(n), pyramid(n))
    with pytest.raises(ValueError):
        is_admissible(pyramid(2), pyramid(3))


def test_phi_inverse_round_trip():
    for n in range(1, 7):
        for b in basic_ideals(n):
            assert BasicIdeal(*phi(b)) == b


def test_phi_inv_rejects_inadmissible():
    with pytest.raises(ValueError):
        BasicIdeal(staircase(3), staircase(3))


def test_dyck_pair_validation():
    with pytest.raises(ValueError):
        BasicIdeal(pyramid(2), pyramid(3))


def test_counts_three_ways():
    for n in range(1, 8):
        assert b_count_formula(n) == B_SEQUENCE[n - 1]
        c = catalan_matrix(n)
        assert dot(c, omega(c)) == B_SEQUENCE[n - 1]
        assert len(basic_ideals(n)) == B_SEQUENCE[n - 1]
    assert b_count_formula(10) == 584248


def test_b_count_formula_matches_matrix_product():
    for n in range(1, 41):
        c = catalan_matrix(n)
        assert b_count_formula(n) == dot(c, omega(c)), n


def test_b_closed_form_matches_cell_sums():
    assert [b for _, b in b_sequence(80)] == [b_count_formula(n) for n in range(1, 81)]


def test_sequences_match_closed_forms_recomputed_per_term():
    """The incremental generators against each closed form evaluated
    afresh with ``math.comb``; the divisions must be exact."""
    upto = 300
    b_expect, q_expect = [], []
    for n in range(1, upto + 1):
        central, power = math.comb(2 * n, n), 4**n
        b2, q8 = (n + 2) * central - power, (2 * n + 8) * central - 3 * power
        assert b2 % 2 == 0 and q8 % 8 == 0, n
        b_expect.append((n, b2 // 2))
        q_expect.append((n, q8 // 8))
    assert list(b_sequence(upto)) == b_expect
    assert list(quasi_abelian_sequence(upto)) == q_expect


def test_closed_forms_satisfy_order_two_recurrences():
    b = dict(b_sequence(500))
    q = dict(quasi_abelian_sequence(500))
    for n in range(3, 501):
        assert n * (n - 3) * b[n] == (
            2 * (4 * n * n - 13 * n + 6) * b[n - 1] - 8 * (2 * n - 3) * (n - 2) * b[n - 2]
        ), n
        assert n * (n - 5) * q[n] == (
            2 * (4 * n * n - 21 * n + 12) * q[n - 1] - 8 * (2 * n - 3) * (n - 4) * q[n - 2]
        ), n


def test_count_bounded_by_square_of_catalan():
    from catborel.dyck import catalan_number

    for n in range(1, 11):
        assert b_count_formula(n) <= catalan_number(n) ** 2


def test_partner_index_matches_brute_filter():
    for n in range(1, 8):
        paths = all_paths(n)
        brute = [(p, q) for p in paths for q in paths if is_admissible(p, q)]
        assert [(b.p, b.q) for b in enumerate_basic(n)] == brute


def test_partner_index_equals_direct_filter():
    for n in range(1, 9):
        paths = all_paths(n)
        thresholds = {(n - p.last_peak, n - p.first_peak) for p in paths}
        direct = {
            (a, b): tuple(q for q in paths if q.first_peak >= a and q.last_peak >= b)
            for a, b in thresholds
        }
        assert _partner_index(n) == direct


def test_enumeration_order_is_by_word_pair():
    for n in (3, 4):
        pairs = [tuple(path.word for path in phi(b)) for b in enumerate_basic(n)]
        assert pairs == sorted(pairs)
        assert len(set(pairs)) == len(pairs)


def test_from_antichain_single_simple_root():
    b = from_antichain(3, [WindowRoot((1, 0), 0)])
    assert b.s_plus == frozenset({(1, 1), (1, 2)})
    assert b.s_minus == frozenset({(2, 2)})
    support = {w.label for w in b.window_support()}
    assert support == {"pos:1,0", "pos:1,1", "delta", "neg:0,1"}


def test_from_antichain_delta_is_minimum_ideal():
    for n in (1, 2, 3, 5):
        b = from_antichain(n, [delta_root(n)])
        assert b == ideal(n)


def test_from_antichain_rejects_bad_input():
    with pytest.raises(ValueError):
        from_antichain(3, [])
    with pytest.raises(ValueError):
        from_antichain(3, [WindowRoot((1, 0), 0), WindowRoot((1, 1), 0)])
    with pytest.raises(ValueError, match="at least 1"):
        from_antichain(0, [delta_root(1)])
    # alpha1 + alpha3 is no root of A3: the window's index refuses it
    with pytest.raises(KeyError):
        from_antichain(4, [WindowRoot((1, 0, 1), 0)])


def test_antichain_round_trip_and_principal_join():
    for n in range(1, 6):
        for b in basic_ideals(n):
            chain = antichain_of(b)
            assert from_antichain(n, chain) == b
            s_plus, s_minus = set(), set()
            for w in chain:
                piece = from_antichain(n, [w])
                s_plus |= piece.s_plus
                s_minus |= piece.s_minus
            assert (frozenset(s_plus), frozenset(s_minus)) == (b.s_plus, b.s_minus)


def tagged(w):
    """A window root as (kind, interval): delta, or the consecutive-sum
    root in its finite part, of either sign, as an interval."""
    if w.kind == "delta":
        return ("delta", None)
    ones = [k for k, c in enumerate(w.finite, start=1) if c]
    assert ones == list(range(ones[0], ones[-1] + 1)), w.label
    return (w.kind, (ones[0], ones[-1]))


def tagged_leq(x, y):
    """The window order by the interval rules of a basic ideal's support:
    s_plus is closed under superintervals, s_minus under subintervals and
    under the intervals disjoint from a member of s_plus, delta on top."""
    (kx, ix), (ky, iy) = x, y
    if ky == "delta":
        return True
    if kx == "delta":
        return False
    if kx == ky == "pos":
        return iy[0] <= ix[0] and ix[1] <= iy[1]
    if kx == ky == "neg":
        return ix[0] <= iy[0] and iy[1] <= ix[1]
    if kx == "pos":  # below a negative root exactly when disjoint from it
        return ix[1] < iy[0] or iy[1] < ix[0]
    return False


def test_interval_order_agrees_with_window_poset():
    # the interval rules of the basic-ideal support match the closure
    # order computed from root coordinates, on every pair
    for n in (2, 3, 4, 5, 6):
        poset = rootsys.window(rootsys.build_root_system(f"A{n - 1}"))
        for a in poset.elements:
            for b in poset.elements:
                assert tagged_leq(tagged(a), tagged(b)) == closure_leq(poset, a, b), (
                    n,
                    a.label,
                    b.label,
                )


def test_window_supports_are_poset_coideals():
    # reference minimal elements from the natural order's rows, which
    # coincide with the closure order in type A
    for n in (2, 3, 4, 5):
        poset = rootsys.window(rootsys.build_root_system(f"A{n - 1}"))
        elements = poset.elements
        for b in basic_ideals(n)[:40]:
            support = b.window_support()
            inside = [i for i, w in enumerate(elements) if w in support]
            below = {i: {k for k in inside if poset.natural[k] >> i & 1} for i in inside}
            assert all(
                poset.natural[i] >> j & 1 == 0 or elements[j] in support
                for i in inside
                for j in range(len(elements))
            )
            minimal = frozenset(elements[i] for i in inside if below[i] == {i})
            assert minimal == antichain_of(b)
            assert poset.coideal_of(minimal) == support


def test_generator_counts_agree():
    for n in range(1, 7):
        for b in basic_ideals(n):
            assert generators_direct(b) == generators_formula(b)


def test_generator_examples():
    for n in (2, 3, 5):
        assert generators_direct(ideal(n)) == 1
    assert generators_direct(full_ideal(3)) == 3
    assert generators_formula(full_ideal(3)) == 3


def test_generator_endpoint_correction_guard():
    # with s_plus the longest root only, the unguarded expression gives -1
    b = ideal(3, s_plus={(1, 2)})
    p, q = phi(b)
    assert (p.word, q.word) == ("rrfrff", "rfrfrf")
    n = 3
    a, bb = p.first_peak, p.last_peak
    c, d = q.first_peak, q.last_peak
    unguarded = (
        len(p.valleys)
        + sum(1 for _, h in q.peaks if h >= 2)
        - (1 if d == n - a else 0)
        - (1 if c == n - bb else 0)
    )
    assert unguarded == -1
    assert generators_direct(b) == 1
    assert generators_formula(b) == 1


def test_quasi_abelian_counts():
    expected = [1, 3, 11, 44, 183, 774]
    assert [quasi_abelian_count(n) for n in range(1, 7)] == expected


def test_quasi_abelian_dp_counts_the_enumerated_ideals():
    for n in range(1, 8):
        assert quasi_abelian_count(n) == sum(is_quasi_abelian(b) for b in basic_ideals(n)), n


def test_quasi_abelian_closed_form_matches_dp():
    closed = dict(quasi_abelian_sequence(200))
    for n in [*range(1, 61), 200]:
        assert quasi_abelian_count(n) == closed[n], n


def _qa_count_band_walk(n):
    """Independent count of pairs min_partner(p) <= q <= p: a height-band
    walk DP per p, never iterating candidate partners."""
    from catborel.dyck import all_paths as paths, min_partner as floor_of

    total = 0
    for p in paths(n):
        hi = p.heights
        lo = floor_of(p).heights
        ways = {0: 1}
        for x in range(1, 2 * n + 1):
            nxt = {}
            for h, c in ways.items():
                for h2 in (h - 1, h + 1):
                    if h2 >= 0 and lo[x] <= h2 <= hi[x]:
                        nxt[h2] = nxt.get(h2, 0) + c
            ways = nxt
        total += ways.get(0, 0)
    return total


def test_quasi_abelian_band_walk_oracle():
    closed = dict(quasi_abelian_sequence(10))
    for n in range(1, 11):
        assert _qa_count_band_walk(n) == closed[n], n
    assert closed[9] == 59711
    assert closed[10] == 253430


def test_partners_dominate_min_partner():
    """The partners of p are exactly the paths above min_partner(p).  One
    direction is why the quasi-abelian test only checks q <= p; the other
    lets the support enumeration read q' from the partner index."""
    for n in range(1, 10):
        paths = all_paths(n)
        above = {}  # min_partner(p) depends only on the two end peaks of p
        for p in paths:
            low = min_partner(p)
            if low not in above:
                above[low] = {q for q in paths if path_leq(low, q)}
            assert set(partners(p)) == above[low], p


def test_full_ideal_is_not_quasi_abelian():
    for n in range(2, 6):
        assert not is_quasi_abelian(full_ideal(n))
    assert is_quasi_abelian(ideal(3))


def test_quasi_abelian_matches_bracket_oracle():
    for n in range(1, 5):
        for b in basic_ideals(n):
            assert is_quasi_abelian(b) == is_quasi_abelian_bracket(b)


def test_nilpotency_examples():
    b = ideal(2, s_plus={(1, 1)}, s_minus={(1, 1)})
    assert nd_plus(b) == 1
    assert qnd_direct(b) == 2
    assert nd_plus(ideal(3)) == 0
    assert qnd_direct(ideal(3)) == 1
    assert qnd_direct(ideal(1)) == 1


def test_qnd_two_routes_and_bounds():
    for n in range(1, 6):
        for b in basic_ideals(n):
            m = nd_plus(b)
            value = qnd_direct(b)
            assert value == qnd_from_plus_degree(b)
            assert value in (m, m + 1)
            if m == 0:
                assert value == 1
            assert (value == 1) == is_quasi_abelian(b)


def test_truncation_oracle_accepts_all_basic_ideals():
    for n in range(1, 5):
        for b in basic_ideals(n):
            assert verify_basic_in_truncation(b)


def test_truncation_oracle_negative_controls():
    # a lone simple root misses its bracket with the next raising operator
    assert not stable_under(support_span(3, {(1, 1)}, {(2, 2)}))
    # dropping the imaginary component breaks the annihilating bracket
    assert not stable_under(
        support_span(3, {(1, 1), (1, 2)}, {(1, 1), (2, 2), (1, 2)}, include_delta=False)
    )


def fresh_powers(s_plus):
    """The nonempty powers of the degree-zero part, by bracketing interval
    sets directly: (a, b) + (c, d) is a root exactly when the two abut."""
    power, powers = set(s_plus), []
    while power:
        powers.append(power)
        power = {(a, d) for a, b in power for c, d in s_plus if b + 1 == c} | {
            (c, b) for a, b in power for c, d in s_plus if d + 1 == a
        }
    return powers


def fresh_nd_plus(s_plus):
    """Nilpotency degree of the degree-zero part: its number of nonempty
    powers."""
    return len(fresh_powers(s_plus))


def test_qnd_histogram_matches_the_oracle_and_the_per_pair_degree():
    for n in range(1, 7):
        assert qnd_histogram(n) == Counter(qnd_direct(b) for b in basic_ideals(n)), n
    for n in range(7, 9):
        assert qnd_histogram(n) == Counter(map(qnd_from_plus_degree, basic_ideals(n))), n


def test_qnd_histogram_counts_every_pair_once():
    # n = 11 and 12 agree too, but hold 2.5 M and 10.5 M pairs
    for n, b_n in b_sequence(10):
        assert sum(qnd_histogram(n).values()) == b_n, n


def test_record_fields_match_oracles_at_n7():
    # production records use the path-statistic formulas; the pinned
    # outputs go up to n = 7, past the n <= 6 reach of verify
    for b in basic_ideals(7):
        rec = ideal_record(b)
        assert rec["generators"] == generators_direct(b)
        assert rec["qnd"] == qnd_direct(b)
        assert rec["nd_plus"] == fresh_nd_plus(b.s_plus)


def test_ideal_record_shape():
    rec = ideal_record(full_ideal(3))
    assert rec == {
        "n": 3,
        "p": "rfrfrf",
        "q": "rrrfff",
        "s_plus": ((1, 1), (1, 2), (2, 2)),
        "s_minus": ((1, 1), (1, 2), (2, 2)),
        "generators": 3,
        "quasi_abelian": False,
        "nd_plus": 2,
        "qnd": 3,
    }
