from itertools import chain, product

import pytest

from catborel import ideals
from catborel.dyck import DyckPath, all_paths, pyramid, staircase
from catborel.supports import (
    LevelledSupport,
    SupportQuadruple,
    build_witness,
    check_layer_restrictions,
    class_record,
    classify,
    enumerate_classes,
    layer_intervals,
    naive_span_is_stable,
    shift_level,
    verify_witness,
)

CLASS_COUNTS = [1, 4, 21, 100, 455]


def quad(n, p, q, pp, qp):
    return SupportQuadruple(n, DyckPath(p), DyckPath(q), DyckPath(pp), DyckPath(qp))


def test_semilength_mismatch_rejected():
    with pytest.raises(ValueError):
        SupportQuadruple(2, pyramid(2), pyramid(2), pyramid(2), pyramid(3))


def test_classify_spot_examples():
    assert classify(quad(2, "rrff", "rfrf", "rfrf", "rrff")) == "I"
    assert classify(quad(2, "rfrf", "rrff", "rfrf", "rrff")) == "IV"
    assert classify(quad(2, "rfrf", "rfrf", "rfrf", "rfrf")) is None
    assert classify(quad(2, "rrff", "rrff", "rfrf", "rrff")) == "III"


def test_single_quadruple_at_semilength_one():
    classes = enumerate_classes(1)
    assert len(classes) == 1
    t, case = classes[0]
    assert t.words() == ("rf", "rf", "rf", "rf")
    assert case == "unique"
    assert classify(t) == "unique"


def test_class_counts_pinned():
    for n, expect in enumerate(CLASS_COUNTS, start=1):
        assert len(enumerate_classes(n)) == expect


def test_case_one_count_is_catalan():
    # quadruples of the first shape are counted by paths with a single
    # floor valley, of which there are Catalan(n-1)
    from catborel.dyck import catalan_number

    for n in range(2, 6):
        ones = [t for t, case in enumerate_classes(n) if case == "I"]
        assert len(ones) == catalan_number(n - 1)


def test_enumeration_is_sorted_and_unique():
    for n in (2, 3, 4):
        words = [t.words() for t, _ in enumerate_classes(n)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)


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
        for p, q, pp, qp in _classify_candidates(n):
            t = SupportQuadruple(n, p, q, pp, qp)
            case = classify(t)
            if case is not None:
                expected[t.words()] = case
        got = {t.words(): case for t, case in enumerate_classes(n)}
        assert got == expected


def test_cases_mutually_exclusive():
    # the four conditions split on disjoint flags of (p, q, p'), so a
    # quadruple can match at most one; checked against the evaluator
    for n in (2, 3, 4):
        paths = all_paths(n)
        top, bottom = pyramid(n), staircase(n)
        for t, case in enumerate_classes(n):
            flags = (t.p == top, t.q == bottom)
            if case == "I" or case == "II":
                assert flags == (True, True)
            elif case == "III":
                assert flags == (True, False)
            else:
                assert flags[0] is False


def test_layer_restrictions_hold_on_accepted():
    for n in range(2, 7):
        for t, _ in enumerate_classes(n):
            assert check_layer_restrictions(t), t.words()


def test_layer_restrictions_designed_failures():
    # trailing negative layer not full although the leading one is nonzero
    assert not check_layer_restrictions(quad(2, "rfrf", "rfrf", "rfrf", "rfrf"))
    # primed negative layer trivial
    assert not check_layer_restrictions(quad(2, "rrff", "rfrf", "rfrf", "rfrf"))


def test_witnesses_verify():
    for n in range(1, 5):
        for t, _ in enumerate_classes(n):
            assert verify_witness(t), t.words()


def test_witnesses_verify_at_next_size():
    # one size past the acceptance bound, as extra assurance
    for t, _ in enumerate_classes(5):
        assert verify_witness(t), t.words()


def test_witness_refused_for_rejected_quadruple():
    with pytest.raises(ValueError):
        build_witness(quad(2, "rfrf", "rfrf", "rfrf", "rfrf"))


def test_naive_span_negative_control():
    assert not naive_span_is_stable(quad(2, "rfrf", "rfrf", "rfrf", "rfrf"))


def test_witness_span_contents_smallest_case():
    span = build_witness(quad(2, "rrff", "rfrf", "rfrf", "rrff"))
    # imaginary component at degree one is the single dual-basis line
    assert span.diagonals[1] == [(1, -1)]
    # full trailing negative layer and the degree-two imaginary space
    assert (2, 2, 1) in span.units
    assert span.diagonals[2] == [(1, -1)]


def test_basic_ideal_embedding():
    for n in range(1, 5):
        for b in ideals.basic_ideals(n):
            p, q = ideals.phi(b)
            t = SupportQuadruple(
                n,
                p,
                q,
                staircase(n) if n > 1 else pyramid(1),
                pyramid(n),
            )
            assert classify(t) is not None


def test_class_count_is_level_independent():
    # shifting every level-1 class to levels 2 and 3 is a bijection
    for n in range(1, 5):
        base = [LevelledSupport(1, t) for t, _ in enumerate_classes(n)]
        for k in (1, 2):
            moved = [shift_level(ls, k) for ls in base]
            assert len(set(moved)) == len(base)
            assert all(ls.level == 1 + k for ls in moved)
            assert [shift_level(ls, -k) for ls in moved] == base


def test_level_shift_round_trip():
    t = quad(2, "rrff", "rfrf", "rfrf", "rrff")
    ls = LevelledSupport(1, t)
    up = shift_level(ls, 3)
    assert up.level == 4 and up.quadruple == t
    assert shift_level(up, -3) == ls
    with pytest.raises(ValueError):
        shift_level(ls, -1)
    with pytest.raises(ValueError):
        LevelledSupport(0, t)


def test_layer_intervals_round_trip():
    t = quad(3, "rrrfff", "rrfrff", "rfrfrf", "rrrfff")
    layers = layer_intervals(t)
    assert layers["a_plus"] == frozenset()
    assert layers["a_minus"] == frozenset({(1, 1), (2, 2)})
    assert layers["a_plus_prime"] == frozenset(ideals.intervals(3))
    assert layers["a_minus_prime"] == frozenset(ideals.intervals(3))


def test_class_record_fields():
    t, case = enumerate_classes(2)[0]
    rec = class_record(t, case)
    assert set(rec) == {"n", "level", "p", "q", "p_prime", "q_prime", "case"}
    assert rec["level"] == 1 and rec["n"] == 2
    rec1 = class_record(*enumerate_classes(1)[0])
    assert rec1["case"] is None
