"""Integer matrices and the two summation operators behind the Catalan
cell counts.

A matrix is a square tuple of int row tuples: row i - 1, column j - 1
holds entry (i, j).  Tuples keep the values that :func:`catalan_matrix`
caches immutable.  Everything runs over Python's arbitrary-precision
integers, so the family is exact at any size; there is no overflow to
detect.  The operator ``tau`` replaces an entry by a column sum taken
from one row above downwards, ``omega`` replaces it by a bottom-right
block sum, and ``dot`` is the entrywise bilinear form.  The
block-diagonal ``direct_sum`` closes the loop: iterating
``C -> tau(C) (+) [1]`` from the 1x1 identity produces the symmetric
matrices whose (i, j) entry counts Dyck paths with first peak height i
and last peak height j.
"""

from __future__ import annotations

from functools import lru_cache

Matrix = tuple[tuple[int, ...], ...]


def tau(a: Matrix) -> Matrix:
    """Column sums taken from one row above: result entry (i, j) is the sum
    of column j of ``a`` over rows max(1, i-1) through n.

    Built from the column suffix sums of ``a`` in O(n^2) additions: result
    rows 1 and 2 are the suffix from row 1, and row i > 2 is the suffix
    from row i - 1."""
    suffix = [(0,) * len(a)]
    for row in reversed(a):
        suffix.append(tuple(x + y for x, y in zip(row, suffix[-1])))
    suffix.reverse()  # suffix[k] sums rows k+1..n; the trailing zero row is unused
    return (suffix[0], *suffix[: len(a) - 1])


def omega(a: Matrix) -> Matrix:
    """Bottom-right block sums: result entry (i, j) is the sum of ``a`` over
    rows max(1, n-j) through n and columns max(1, n-i) through n.

    Read off the 2-D suffix sums of ``a`` in O(n^2) additions."""
    n = len(a)
    # s[k][m] sums rows k..n and columns m..n (1-based), zero past the edge
    s = [[0] * (n + 2) for _ in range(n + 2)]
    for k in range(n, 0, -1):
        row = a[k - 1]
        for m in range(n, 0, -1):
            s[k][m] = row[m - 1] + s[k + 1][m] + s[k][m + 1] - s[k + 1][m + 1]
    return tuple(
        tuple(s[max(1, n - j)][max(1, n - i)] for j in range(1, n + 1)) for i in range(1, n + 1)
    )


def dot(a: Matrix, b: Matrix) -> int:
    """Entrywise product sum of two matrices of equal size."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """Block-diagonal matrix with ``a`` in the top-left and ``b`` in the
    bottom-right; off-blocks are zero."""
    left, right = (0,) * len(a), (0,) * len(b)
    return tuple(row + right for row in a) + tuple(left + row for row in b)


@lru_cache(maxsize=None)
def catalan_matrix(n: int) -> Matrix:
    """The n-th matrix of the recursion C(1) = [1], C(k+1) = tau(C(k)) (+) [1].

    Cached per n for the life of the process; the intermediate C(k) are
    not kept."""
    if n < 1:
        raise ValueError("n must be at least 1")
    c = ((1,),)
    for _ in range(n - 1):
        c = direct_sum(tau(c), ((1,),))
    return c


def entry_sum(a: Matrix) -> int:
    return sum(map(sum, a))


def is_symmetric(a: Matrix) -> bool:
    return a == tuple(zip(*a))
