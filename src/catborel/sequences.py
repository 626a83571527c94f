"""Closed forms of type A: the two counting sequences, term by term, and
the quasi-nilpotency histogram of one semilength, row by row.

``bn`` and ``quasi-abelian`` print the sequences, each term in O(1)
big-integer operations, and ``qnd-histogram`` prints the row.  Nothing
here touches a Dyck path, so this module imports nothing from the rest
of the package: the three commands load it alone.  The two sequences
are proved in README's "Proofs" section, and the row is conjectural
(README, "Conjectures").  Their oracles (the cell sums
:func:`catborel.ideals.b_count_formula` and
:func:`catborel.ideals.quasi_abelian_count`, and the pair scan
:func:`catborel.ideals.qnd_histogram`) live with the ideals.
"""

from __future__ import annotations

from itertools import accumulate


def _central_binomials(upto: int):
    """(n, C(2n, n), 4^n) for n = 1..upto, each term from the one before:
    C(2n, n) = C(2n - 2, n - 1) * (4n - 2) / n, so no term calls
    ``math.comb``."""
    central, power = 1, 1
    for n in range(1, upto + 1):
        central = central * (4 * n - 2) // n
        power <<= 2
        yield n, central, power


def b_sequence(upto: int):
    """(n, b_n) for n = 1..upto by the closed form
    b_n = ((n + 2) C(2n, n) - 4^n) / 2.

    Proved by summing cell size times partner count over the cells
    (README, "Proofs"); the tests check it against
    :func:`catborel.ideals.b_count_formula`, its oracle, and against an
    order-2 recurrence.
    """
    for n, central, power in _central_binomials(upto):
        yield n, ((n + 2) * central - power) // 2


def quasi_abelian_sequence(upto: int):
    """(n, q_n) for n = 1..upto by the closed form
    q_n = ((2n + 8) C(2n, n) - 3 * 4^n) / 8.

    Proved by summing a Lindstrom-Gessel-Viennot determinant over the
    cells (README, "Proofs"); the tests check it against
    :func:`catborel.ideals.quasi_abelian_count`, its oracle, and against
    an order-2 recurrence.
    """
    for n, central, power in _central_binomials(upto):
        yield n, _quasi_abelian(n, central, power)


def _quasi_abelian(n: int, central: int, power: int) -> int:
    """q_n from C(2n, n) and 4^n."""
    return ((2 * n + 8) * central - 3 * power) // 8


def qnd_row(n: int):
    """(k, H(n, k)) for k = 1..n: how many basic ideals of semilength n
    have quasi-nilpotency degree k, by Conjecture Q (README,
    "Conjectures"): H(n, 1) = q_n, and for k >= 2

        H(n, k) = sum over y = k..n of pi_k(y - k) * C(2n, n - y),

    where pi_k(m) counts the pairs a, b >= 0 with a k + b (k + 1) = m.
    Grouped by s = a + b, the pairs of one s reach the m from s k to
    s (k + 1), so the n - y = n - k - m run over one window of
    consecutive indices, and each window is a difference of two prefix
    sums of C(2n, .): a row entry costs O(n / k) big-integer additions,
    the row O(n log n).  The oracle is the pair scan
    :func:`catborel.ideals.qnd_histogram`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    # binom[j] = C(2n, j) for j = 0..n, each from the one before
    binom = [1]
    for j in range(n):
        binom.append(binom[j] * (2 * n - j) // (j + 1))
    below = list(accumulate(binom, initial=0))  # below[j]: sum of binom[:j]
    yield 1, _quasi_abelian(n, binom[n], 1 << 2 * n)
    for k in range(2, n + 1):
        top = n - k
        yield k, sum(
            below[top - s * k + 1] - below[max(0, top - s * k - s)] for s in range(top // k + 1)
        )
