import random

import pytest

from catborel import dyck
from catborel.cli import _matrix
from catborel.matrices import (
    catalan_matrix,
    direct_sum,
    dot,
    entry_sum,
    is_symmetric,
    omega,
    tau,
)

# The small members of the matrix family, pinned entry for entry.
SMALL = {
    1: ((1,),),
    2: ((1, 0), (0, 1)),
    3: ((1, 1, 0), (1, 1, 0), (0, 0, 1)),
    4: ((2, 2, 1, 0), (2, 2, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1)),
    5: (
        (5, 5, 3, 1, 0),
        (5, 5, 3, 1, 0),
        (3, 3, 2, 1, 0),
        (1, 1, 1, 1, 0),
        (0, 0, 0, 0, 1),
    ),
}


def zero(n):
    return ((0,) * n,) * n


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def brute_tau(rows):
    n = len(rows)
    return [
        [sum(rows[s][j] for s in range(max(0, i - 1), n)) for j in range(n)]
        for i in range(n)
    ]


def brute_omega(rows):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = 0
            for k in range(max(0, n - j - 2), n):
                for m in range(max(0, n - i - 2), n):
                    total += rows[k][m]
            out[i][j] = total
    return out


def rand_matrix(rng, n, top=9):
    return tuple(tuple(rng.randint(0, top) for _ in range(n)) for _ in range(n))


def test_tau_worked_example():
    a = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert tau(a) == ((12, 15, 18), (12, 15, 18), (11, 13, 15))


def test_tau_trivial_fixed_points():
    assert tau(((0,),)) == ((0,),)
    assert tau(((1,),)) == ((1,),)


def test_omega_worked_example():
    a = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert omega(a) == ((28, 33, 33), (39, 45, 45), (39, 45, 45))


def test_omega_identity_and_singleton():
    assert omega(identity(2)) == ((2, 2), (2, 2))
    assert omega(((7,),)) == ((7,),)


def test_tau_omega_match_independent_loops():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        assert list(map(list, tau(a))) == brute_tau(a)
        assert list(map(list, omega(a))) == brute_omega(a)


def test_dot_examples():
    assert dot(identity(2), ((2, 2), (2, 2))) == 4
    assert dot(rand_matrix(random.Random(1), 4), zero(4)) == 0
    c1 = catalan_matrix(1)
    assert dot(c1, omega(c1)) == 1


def test_dot_dimension_error():
    with pytest.raises(ValueError):
        dot(identity(2), identity(3))


def test_dot_symmetric_bilinear():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a, b, c = (rand_matrix(rng, n) for _ in range(3))
        assert dot(a, b) == dot(b, a)
        assert dot(add(a, b), c) == dot(a, c) + dot(b, c)


def test_linearity_of_operators():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 5)
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        assert tau(add(a, b)) == add(tau(a), tau(b))
        assert omega(add(a, b)) == add(omega(a), omega(b))


def test_direct_sum():
    assert direct_sum(((1,),), ((1,),)) == ((1, 0), (0, 1))
    assert direct_sum(zero(1), zero(1)) == zero(2)
    assert direct_sum(tau(catalan_matrix(2)), ((1,),)) == SMALL[3]


def test_catalan_matrix_pinned():
    for n, rows in SMALL.items():
        assert catalan_matrix(n) == rows


def test_catalan_matrix_symmetric_with_catalan_sum():
    for n in range(1, 13):
        c = catalan_matrix(n)
        assert is_symmetric(c)
        assert entry_sum(c) == dyck.catalan_number(n)


def test_last_row_and_column_are_unit():
    for n in range(2, 9):
        c = catalan_matrix(n)
        assert c[-1][-1] == 1
        assert all(c[i][-1] == 0 for i in range(n - 1))
        assert all(c[-1][j] == 0 for j in range(n - 1))


def test_large_values_exact():
    # entries around Catalan(40)^2 stay exact integers: the bilinear-form
    # value must match an independent suffix-block-sum accumulation
    n = 40
    c = catalan_matrix(n)
    assert entry_sum(c) == dyck.catalan_number(n)
    suffix = [[0] * (n + 2) for _ in range(n + 2)]
    for k in range(n, 0, -1):
        for m in range(n, 0, -1):
            suffix[k][m] = (
                c[k - 1][m - 1] + suffix[k + 1][m] + suffix[k][m + 1] - suffix[k + 1][m + 1]
            )
    expected = sum(
        c[i - 1][j - 1] * suffix[max(1, n - j)][max(1, n - i)]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    value = dot(c, omega(c))
    assert value == expected
    assert value < dyck.catalan_number(n) ** 2


def test_family_is_tuples_of_int_tuples():
    # tuples, so no caller can mutate a value catalan_matrix has cached
    for n in range(1, 31):
        c = catalan_matrix(n)
        assert c == dyck.cell_count_rows(n), n
        for m in (c, dyck.cell_count_rows(n)):
            assert type(m) is tuple and len(m) == n
            assert all(type(row) is tuple and len(row) == n for row in m)
            assert all(type(v) is int for row in m for v in row)


def test_format_table_alignment():
    text = _matrix("entries", catalan_matrix(5), 5, "table")
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["5", "5", "3", "1", "0"]
