"""The identities of README's "Proofs" section, one test each.

Notation as there: C(a, b) is 0 unless 0 <= b <= a, ``ballot`` is the
reflection-principle count of ``catborel.dyck``, cell (c, d) holds the
paths of semilength n with first peak c and last peak d, s = c + d and
m = 2n - 2 - s.  The double sums run over 1 <= c, d <= n - 1.
"""

from math import comb

from catborel.dyck import all_paths, ballot, catalan_number, cell_count, cell_paths, path_leq
from catborel.ideals import _cell_below_pairs, b_count_formula, partners
from catborel.sequences import b_sequence, quasi_abelian_sequence

SIZES = [*range(2, 61), 100, 200]


def C(a, b):
    return comb(a, b) if 0 <= b <= a else 0


def cells(n):
    """(c, d, s, m) for every cell with 1 <= c, d <= n - 1."""
    for c in range(1, n):
        for d in range(1, n):
            yield c, d, c + d, 2 * n - 2 - c - d


def partner_count(n, c, d):
    """S(c, d) = F(n - d, n - c): the paths that start r^(n-d) and end
    f^(n-c), whose middles run from height n - d to n - c in s steps."""
    return ballot(c + d, n - d, n - c)


def t1_closed(n):
    return (2 * n - 3) * C(2 * n - 2, n - 1) - 2 * C(2 * n - 3, n)


def t2_closed(n):
    return 4 ** (n - 1) - C(2 * n - 1, n) - C(2 * n - 1, n + 1)


def t3_closed(n):
    return 4 ** (n - 1) - C(2 * n - 2, n - 1) - 2 * C(2 * n - 3, n - 1) - 2 * C(2 * n - 3, n)


def test_partner_count_is_the_ballot_number():
    for n in range(2, 9):
        for c, d, _, _ in cells(n):
            for p in cell_paths(n, c, d):
                assert len(partners(p)) == partner_count(n, c, d), (n, c, d)


def test_threshold_count_is_the_ballot_number():
    # F(a, b): a path starts r^a and ends f^b exactly when its first peak
    # reaches a and its last peak b; (0, 0) is the pyramid's threshold, C_n
    for n in range(1, 9):
        paths = all_paths(n)
        for a in range(n + 1):
            for b in range(n + 1):
                listed = sum(p.first_peak >= a and p.last_peak >= b for p in paths)
                assert listed == ballot(2 * n - a - b, a, b), (n, a, b)


def test_partner_sum_is_b_n():
    closed = dict(b_sequence(60))
    for n in range(2, 61):
        total = catalan_number(n) + sum(
            cell_count(n, c, d) * partner_count(n, c, d) for c, d, _, _ in cells(n)
        )
        assert total == closed[n] == b_count_formula(n), n


def test_t1_closed_form():
    for n in SIZES:
        assert sum(C(m, n - 1 - c) * C(s, c) for c, _, s, m in cells(n)) == t1_closed(n), n


def test_t2_closed_form():
    for n in SIZES:
        assert sum(C(m, n - 1 - c) * C(s, n + 1) for c, _, s, m in cells(n)) == t2_closed(n), n


def test_t3_closed_form():
    for n in SIZES:
        assert sum(C(m, n - 1) * C(s, c) for c, _, s, m in cells(n)) == t3_closed(n), n


def test_t4_vanishes():
    for n in SIZES:
        assert all(C(m, n - 1) * C(s, n + 1) == 0 for _, _, s, m in cells(n)), n


def test_subset_identity():
    # subsets of {1..M+1} with more than K members, by their (K+1)-st largest
    for M in range(40):
        for K in range(M + 1):
            lhs = sum(2**j * C(M - j, K) for j in range(M - K + 1))
            assert lhs == sum(C(M + 1, i) for i in range(K + 1, M + 2)), (M, K)


def test_b_n_simplification():
    for n, b in b_sequence(300):
        if n >= 2:
            assert catalan_number(n) + t1_closed(n) - t2_closed(n) - t3_closed(n) == b, n


def test_q_n_cell_sums():
    for n in SIZES:
        central = C(2 * n - 2, n - 1)
        big = [(c, d, s, m) for c, d, s, m in cells(n) if s >= n]
        first = sum((C(s, d) - C(s, n + 1)) * C(m, n - 1 - c) for c, d, s, m in big)
        assert first == (n - 1) * central - t2_closed(n), n
        second = sum(C(n - 1, c) * C(n - 1, d) for c, d, _, _ in big)
        assert 2 * second == 4 ** (n - 1) - central, n


def test_q_n_simplification():
    for n, q in quasi_abelian_sequence(300):
        if n >= 2:
            central = C(2 * n - 2, n - 1)
            total = catalan_number(n) + (n - 1) * central - t2_closed(n)
            assert total - (4 ** (n - 1) - central) // 2 == q, n


def test_lgv_determinant_counts_the_pairs_of_each_cell():
    # p in the cell (c, d), q a partner of p below it; none when c + d < n
    for n in range(2, 9):
        for c, d, s, _ in cells(n):
            below = sum(path_leq(q, p) for p in cell_paths(n, c, d) for q in partners(p))
            assert below == (_cell_below_pairs(n, c, d) if s >= n else 0), (n, c, d)
