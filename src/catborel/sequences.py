"""The two counting sequences of type A, term by term from closed forms.

``bn`` and ``quasi-abelian`` print these.  Each term costs O(1)
big-integer operations, and no term touches a Dyck path, so this module
imports nothing from the rest of the package: the two commands load it
alone.  Both forms are proved in README's "Proofs" section; their
oracles (the cell sums :func:`catborel.ideals.b_count_formula` and
:func:`catborel.ideals.quasi_abelian_count`) live with the ideals.
"""

from __future__ import annotations


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
        yield n, ((2 * n + 8) * central - 3 * power) // 8
