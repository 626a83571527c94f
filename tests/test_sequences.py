"""Conjectures Q and N of README's "Conjectures" section.

Q is the closed form ``sequences.qnd_row`` of the quasi-nilpotency
histogram, checked against the pair scan ``ideals.qnd_histogram``.  N is
its companion for the degree-zero nilpotency degree ``nd_plus``, checked
against the paths and their partners; nothing in the package computes it.
Both are stated with pi_k(m), the number of pairs a, b >= 0 with
a k + b (k + 1) = m, which ``split_count`` gives in O(1).
"""

from collections import Counter
from math import comb

import pytest

from catborel.dyck import all_paths, catalan_number
from catborel.ideals import _table, partners, qnd_histogram
from catborel.sequences import b_sequence, qnd_row, quasi_abelian_sequence


def split_count(k, m):
    """pi_k(m): a + b = s takes m to s k + b with 0 <= b <= s, so s runs
    from ceil(m / (k + 1)) to floor(m / k)."""
    return max(0, m // k - (m + k) // (k + 1) + 1)


def conjecture_q(n, k):
    """H(n, k) for k >= 2 as Conjecture Q states it."""
    return sum(split_count(k, y - k) * comb(2 * n, n - y) for y in range(k, n + 1))


def conjecture_n(n, k):
    """The ideals with nd_plus = k, 2 <= k <= n - 1, as Conjecture N
    states it."""
    return sum(split_count(k, y - k) * 2 * comb(2 * n - 1, n - 1 - y) for y in range(k, n))


def test_qnd_row_matches_the_pair_scan():
    for n in range(1, 11):
        assert dict(qnd_row(n)) == qnd_histogram(n), n


def test_qnd_row_is_conjecture_q_as_stated():
    # the prefix-sum windows of qnd_row against the pi_k sum term by term
    for n in range(2, 61):
        row = dict(qnd_row(n))
        assert list(row) == list(range(1, n + 1)), n
        assert all(row[k] == conjecture_q(n, k) for k in range(2, n + 1)), n


def test_qnd_rows_sum_to_b_n_and_start_at_q_n():
    # an identity between two closed forms, far past any pair scan
    for (n, b_n), (_, q_n) in zip(b_sequence(400), quasi_abelian_sequence(400)):
        row = list(qnd_row(n))
        assert sum(v for _, v in row) == b_n, n
        assert row[0] == (1, q_n), n


def test_qnd_row_pinned_values():
    row = dict(qnd_row(10))
    assert row[6] == 4845
    assert row[9] == 20


@pytest.mark.parametrize("n", [0, -1])
def test_qnd_row_refuses_n_below_one(n):
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        list(qnd_row(n))


def test_qnd_row_upper_half_is_one_binomial():
    # for 2k > n only pi_k(0) = 1 is in range
    for n in range(1, 120):
        row = dict(qnd_row(n))
        for k in range(max(2, n // 2 + 1), n + 1):
            assert row[k] == comb(2 * n, n - k), (n, k)


def test_nd_plus_groups_follow_conjecture_n():
    for n, b_n in b_sequence(10):
        groups = Counter()
        for p in all_paths(n):
            groups[len(_table(p).thresholds)] += len(partners(p))
        assert set(groups) <= set(range(n)), n
        assert groups[0] == catalan_number(n), n
        middle = {k: conjecture_n(n, k) for k in range(2, n)}
        assert all(groups[k] == middle[k] for k in middle), n
        # every other ideal has nd_plus = 1
        assert groups[1] == b_n - catalan_number(n) - sum(middle.values()), n
