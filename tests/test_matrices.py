import random

import pytest

from catborel import dyck
from catborel.matrices import (
    ExactMatrix,
    catalan_matrix,
    direct_sum,
    dot,
    entry_sum,
    format_table,
    is_symmetric,
    matrix,
    omega,
    tau,
)

# The small members of the matrix family, pinned entry for entry.
SMALL = {
    1: [[1]],
    2: [[1, 0], [0, 1]],
    3: [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
    4: [[2, 2, 1, 0], [2, 2, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1]],
    5: [
        [5, 5, 3, 1, 0],
        [5, 5, 3, 1, 0],
        [3, 3, 2, 1, 0],
        [1, 1, 1, 1, 0],
        [0, 0, 0, 0, 1],
    ],
}


def zero(n):
    return matrix([[0] * n for _ in range(n)])


def identity(n):
    return matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def add(a, b):
    return matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


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
    return matrix([[rng.randint(0, top) for _ in range(n)] for _ in range(n)])


def test_tau_worked_example():
    a = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert tau(a).rows() == [[12, 15, 18], [12, 15, 18], [11, 13, 15]]


def test_tau_trivial_fixed_points():
    assert tau(matrix([[0]])).rows() == [[0]]
    assert tau(matrix([[1]])).rows() == [[1]]


def test_omega_worked_example():
    a = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert omega(a).rows() == [[28, 33, 33], [39, 45, 45], [39, 45, 45]]


def test_omega_identity_and_singleton():
    assert omega(identity(2)).rows() == [[2, 2], [2, 2]]
    assert omega(matrix([[7]])).rows() == [[7]]


def test_tau_omega_match_independent_loops():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        assert tau(a).rows() == brute_tau(a.rows())
        assert omega(a).rows() == brute_omega(a.rows())


def test_dot_examples():
    assert dot(identity(2), matrix([[2, 2], [2, 2]])) == 4
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
        assert tau(add(a, b)).rows() == add(tau(a), tau(b)).rows()
        assert omega(add(a, b)).rows() == add(omega(a), omega(b)).rows()


def test_direct_sum():
    assert direct_sum(matrix([[1]]), matrix([[1]])).rows() == [[1, 0], [0, 1]]
    assert direct_sum(zero(1), zero(1)).rows() == zero(2).rows()
    assert direct_sum(tau(catalan_matrix(2)), matrix([[1]])).rows() == SMALL[3]


def test_catalan_matrix_pinned():
    for n, rows in SMALL.items():
        assert catalan_matrix(n).rows() == rows


def test_catalan_matrix_symmetric_with_catalan_sum():
    for n in range(1, 13):
        c = catalan_matrix(n)
        assert is_symmetric(c)
        assert entry_sum(c) == dyck.catalan_number(n)


def test_last_row_and_column_are_unit():
    for n in range(2, 9):
        c = catalan_matrix(n)
        assert c.entry(n, n) == 1
        assert all(c.entry(i, n) == 0 for i in range(1, n))
        assert all(c.entry(n, j) == 0 for j in range(1, n))


def test_large_values_exact():
    # entries around Catalan(40)^2 stay exact integers: the bilinear-form
    # value must match an independent suffix-block-sum accumulation
    n = 40
    c = catalan_matrix(n)
    assert entry_sum(c) == dyck.catalan_number(n)
    rows = c.rows()
    suffix = [[0] * (n + 2) for _ in range(n + 2)]
    for k in range(n, 0, -1):
        for m in range(n, 0, -1):
            suffix[k][m] = (
                rows[k - 1][m - 1] + suffix[k + 1][m] + suffix[k][m + 1] - suffix[k + 1][m + 1]
            )
    expected = sum(
        rows[i - 1][j - 1] * suffix[max(1, n - j)][max(1, n - i)]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    value = dot(c, omega(c))
    assert value == expected
    assert value < dyck.catalan_number(n) ** 2


def test_constructor_rejections():
    with pytest.raises(ValueError):
        matrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        matrix([[1, -2], [3, 4]])
    with pytest.raises(ValueError):
        ExactMatrix(())


def test_entry_is_one_based():
    c = catalan_matrix(3)
    assert c.entry(1, 1) == 1 and c.entry(3, 3) == 1
    with pytest.raises(IndexError):
        c.entry(0, 1)


def test_format_table_alignment():
    text = format_table(catalan_matrix(5))
    lines = text.split("\n")
    assert len(lines) == 5
    assert lines[0].split() == ["5", "5", "3", "1", "0"]
