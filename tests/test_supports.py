from collections import Counter
from itertools import chain, product
from math import comb

import pytest

from catborel import ideals
from catborel.dyck import DyckPath, all_paths, catalan_number, pyramid, staircase
from catborel.loopalgebra import one_degree_up, stable_under
from catborel.supports import (
    CASES,
    assemble_naive_span,
    build_witness,
    check_layer_restrictions,
    classify,
    enumerate_classes,
    verify_witness,
)

CLASS_COUNTS = [1, 4, 21, 100, 455]


def quad(*words):
    return tuple(map(DyckPath, words))


def words(t):
    return tuple(p.word for p in t)


def classify_words(*words):
    return classify(*quad(*words))


def test_semilength_mismatch_rejected():
    # an accepted quadruple with one path made longer is refused by every
    # function that takes a quadruple
    for slot in range(4):
        paths = [pyramid(2), staircase(2), staircase(2), pyramid(2)]
        paths[slot] = pyramid(3)
        for fn in (classify, check_layer_restrictions, build_witness, assemble_naive_span):
            with pytest.raises(ValueError):
                fn(*paths)


def test_quadruple_is_passed_as_four_paths():
    t, _ = enumerate_classes(2)[0]
    with pytest.raises(TypeError):
        verify_witness(t)
    assert verify_witness(*t)


def test_classify_spot_examples():
    assert classify_words("rrff", "rfrf", "rfrf", "rrff") == "I"
    assert classify_words("rfrf", "rrff", "rfrf", "rrff") == "IV"
    assert classify_words("rfrf", "rfrf", "rfrf", "rfrf") is None
    assert classify_words("rrff", "rrff", "rfrf", "rrff") == "III"


def test_single_quadruple_at_semilength_one():
    classes = enumerate_classes(1)
    assert len(classes) == 1
    t, case = classes[0]
    assert words(t) == ("rf", "rf", "rf", "rf")
    assert case == "unique"
    assert classify(*t) == "unique"


def test_class_counts_pinned():
    for n, expect in enumerate(CLASS_COUNTS, start=1):
        assert len(enumerate_classes(n)) == expect


def test_case_one_count_is_catalan():
    # quadruples of the first shape are counted by paths with a single
    # floor valley, of which there are Catalan(n-1)
    for n in range(2, 6):
        ones = [t for t, case in enumerate_classes(n) if case == "I"]
        assert len(ones) == catalan_number(n - 1)


# the counts of shapes III and IV for n = 2..9, as listed
CASE_III_IV_COUNTS = {
    2: (1, 2), 3: (4, 13), 4: (16, 69), 5: (63, 336), 6: (247, 1562),
    7: (967, 7054), 8: (3785, 31232), 9: (14820, 136313),
}
# the totals for n = 1..9: the first terms of ROADMAP's conjectural
# generating function G
SERIES_G = CLASS_COUNTS + [2019, 8813, 38020, 162573]


@pytest.mark.parametrize("n", range(2, 10))
def test_case_counts_pinned(n):
    """Shapes I and II meet their closed forms C_(n-1) and
    2·C(2n-3, n-3), III and IV their pins, and the totals the series G."""
    counts = Counter(case for _, case in enumerate_classes(n))
    two = 2 * comb(2 * n - 3, n - 3) if n >= 3 else 0
    assert set(counts) <= set(CASES)
    assert [counts[case] for case in CASES] == [catalan_number(n - 1), two, *CASE_III_IV_COUNTS[n]]
    assert sum(counts.values()) == SERIES_G[n - 1]


def test_enumeration_is_sorted_and_unique():
    for n in range(2, 8):
        listed = [words(t) for t, _ in enumerate_classes(n)]
        assert listed == sorted(listed)
        assert len(set(listed)) == len(listed)


def _classify_candidates(n):
    """The full product of four paths for n <= 4.  Above that, only the
    quadruples with p or q' the pyramid: when p is not the pyramid,
    classify accepts shape IV alone, which requires q' to be the pyramid."""
    paths = all_paths(n)
    if n <= 4:
        return product(paths, repeat=4)
    top = pyramid(n)
    return chain(
        ((top, q, pp, qp) for q, pp, qp in product(paths, repeat=3)),
        ((p, q, pp, top) for p, q, pp in product(paths, repeat=3) if p != top),
    )


def test_enumeration_matches_brute_force_classify():
    for n in (2, 3, 4, 5):
        expected = {}
        for paths in _classify_candidates(n):
            case = classify(*paths)
            if case is not None:
                expected[tuple(p.word for p in paths)] = case
        got = {words(t): case for t, case in enumerate_classes(n)}
        assert got == expected


def test_cases_mutually_exclusive():
    # the four conditions split on disjoint flags of (p, q, p'), so a
    # quadruple can match at most one; checked against the evaluator
    for n in (2, 3, 4):
        paths = all_paths(n)
        top, bottom = pyramid(n), staircase(n)
        for (p, q, _, _), case in enumerate_classes(n):
            flags = (p == top, q == bottom)
            if case == "I" or case == "II":
                assert flags == (True, True)
            elif case == "III":
                assert flags == (True, False)
            else:
                assert flags[0] is False


def test_layer_restrictions_hold_on_accepted():
    for n in range(2, 7):
        for t, _ in enumerate_classes(n):
            assert check_layer_restrictions(*t), words(t)


def test_layer_restrictions_designed_failures():
    # trailing negative layer not full although the leading one is nonzero
    assert not check_layer_restrictions(*quad("rfrf", "rfrf", "rfrf", "rfrf"))
    # primed negative layer trivial
    assert not check_layer_restrictions(*quad("rrff", "rfrf", "rfrf", "rfrf"))


@pytest.mark.parametrize("n", [3, 4])
def test_layer_restrictions_full_layers(n):
    top, bottom = pyramid(n), staircase(n)
    # the negative layer holding everything except the longest root
    corner = DyckPath("r" * (n - 1) + "f" + "r" + "f" * (n - 1))
    assert check_layer_restrictions(bottom, corner, bottom, top)
    for path in all_paths(n):
        # (d): a full leading positive layer leaves q everything or the corner
        if path not in (top, corner):
            assert not check_layer_restrictions(bottom, path, bottom, top), path
        # (c): every negated simple root in q forces a full primed positive layer
        if path not in (bottom, top):
            assert not check_layer_restrictions(top, corner, path, top), path


def test_witnesses_verify():
    for n in range(1, 5):
        for t, _ in enumerate_classes(n):
            assert verify_witness(*t), words(t)


def test_witnesses_verify_at_next_size():
    # one size past the acceptance bound, as extra assurance
    for t, _ in enumerate_classes(5):
        assert verify_witness(*t), words(t)


def test_witness_refused_for_rejected_quadruple():
    with pytest.raises(ValueError):
        build_witness(*quad("rfrf", "rfrf", "rfrf", "rfrf"))


def test_naive_span_negative_control():
    span = assemble_naive_span(*quad("rfrf", "rfrf", "rfrf", "rfrf"))
    assert not stable_under(span)
    assert not stable_under(one_degree_up(span))


def test_witness_span_contents_smallest_case():
    span = build_witness(*quad("rrff", "rfrf", "rfrf", "rrff"))
    # imaginary component at degree one is the single dual-basis line
    assert span.diagonals[1] == [(1, -1)]
    # full trailing negative layer and the degree-two imaginary space
    assert (2, 2, 1) in span.units
    assert span.diagonals[2] == [(1, -1)]


def test_basic_ideal_embedding():
    for n in range(1, 5):
        for b in ideals.basic_ideals(n):
            p, q = ideals.phi(b)
            assert classify(p, q, staircase(n), pyramid(n)) is not None


def test_class_count_is_level_independent():
    # the level only translates a support: every witness moved one loop
    # degree up stays stable in the truncation one degree longer
    for n in range(1, 5):
        for t, _ in enumerate_classes(n):
            assert stable_under(one_degree_up(build_witness(*t))), words(t)


def test_level_shift_round_trip():
    span = build_witness(*quad("rrff", "rfrf", "rfrf", "rrff"))
    up = one_degree_up(span)
    assert up.algebra.masks == ("upper",) + span.algebra.masks
    assert {(d - 1, i, j) for d, i, j in up.units} == span.units
    assert {d - 1: vecs for d, vecs in up.diagonals.items()} == span.diagonals


def test_witness_units_per_degree():
    # p the pyramid: no degree-0 roots; q holds the two negated simple
    # roots at degree 1; p' the staircase and q' the pyramid fill degree 1
    # above the diagonal and degree 2 below it
    span = build_witness(*quad("rrrfff", "rrfrff", "rfrfrf", "rrrfff"))
    by_degree = {d: {(i, j) for e, i, j in span.units if e == d} for d in range(3)}
    upper = {(i, j) for i in range(1, 4) for j in range(1, 4) if i < j}
    assert by_degree == {0: set(), 1: {(2, 1), (3, 2)} | upper, 2: {(j, i) for i, j in upper}}


def test_naive_span_shares_the_basic_ideal_encoding():
    # with p' the staircase and q' the pyramid, the naive span of (p, q)
    # holds the basic ideal's support span at degree 0 and below the
    # diagonal at degree 1
    for n in range(1, 6):
        for b in ideals.basic_ideals(n):
            naive = assemble_naive_span(b.p, b.q, staircase(n), pyramid(n)).units
            lower = {(d, i, j) for d, i, j in naive if d == 0 or (d == 1 and i > j)}
            assert lower == ideals.support_span(n, b.s_plus, b.s_minus).units
