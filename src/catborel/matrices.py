"""Exact integer matrices and the two summation operators behind the
Catalan cell counts.

Everything here runs over Python's arbitrary-precision integers, so the
matrix family produced by :func:`catalan_matrix` is exact at any size;
there is no overflow to detect.  The operator ``tau`` replaces an entry
by a column sum taken from one row above downwards, ``omega`` replaces it
by a bottom-right block sum, and ``dot`` is the entrywise bilinear form.
The block-diagonal ``direct_sum`` closes the loop: iterating
``C -> tau(C) (+) [1]`` from the 1x1 identity produces the symmetric
matrices whose (i, j) entry counts Dyck paths with first peak height i
and last peak height j.
"""

from __future__ import annotations

from functools import lru_cache

from .frozen import Frozen


class ExactMatrix(Frozen):
    """Square matrix of non-negative exact integers.

    Rows and columns are 1-based in documentation and error messages;
    ``entries`` itself is an ordinary 0-based tuple of row tuples.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        n = len(entries)
        if n == 0:
            raise ValueError("matrix must have positive size")
        for row in entries:
            if len(row) != n:
                raise ValueError(f"expected a square {n}x{n} matrix")
            for value in row:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError("entries must be exact integers")
                if value < 0:
                    raise ValueError("entries must be non-negative")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        """Entry in row i, column j, both 1-based."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"indices ({i},{j}) outside 1..{self.n}")
        return self.entries[i - 1][j - 1]

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def matrix(rows) -> ExactMatrix:
    return ExactMatrix(tuple(tuple(int(v) for v in row) for row in rows))


def zero(n: int) -> ExactMatrix:
    return matrix([[0] * n for _ in range(n)])


def identity(n: int) -> ExactMatrix:
    return matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def tau(a: ExactMatrix) -> ExactMatrix:
    """Column sums taken from one row above: result entry (i, j) is the sum
    of column j of ``a`` over rows max(1, i-1) through n.

    Built from the column suffix sums of ``a`` in O(n^2) additions: result
    rows 1 and 2 are the suffix from row 1, and row i > 2 is the suffix
    from row i - 1."""
    suffix = [[0] * a.n]
    for row in reversed(a.entries):
        suffix.append([x + y for x, y in zip(row, suffix[-1])])
    suffix.reverse()  # suffix[k] sums rows k+1..n; the trailing zero row is unused
    return matrix([suffix[0]] + suffix[: a.n - 1])


def omega(a: ExactMatrix) -> ExactMatrix:
    """Bottom-right block sums: result entry (i, j) is the sum of ``a`` over
    rows max(1, n-j) through n and columns max(1, n-i) through n."""
    n = a.n
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            rlo = max(1, n - j)
            clo = max(1, n - i)
            row.append(sum(a.entry(k, m) for k in range(rlo, n + 1) for m in range(clo, n + 1)))
        rows.append(row)
    return matrix(rows)


def dot(a: ExactMatrix, b: ExactMatrix) -> int:
    """Entrywise product sum of two matrices of equal size."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return sum(x * y for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))


def direct_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Block-diagonal matrix with ``a`` in the top-left and ``b`` in the
    bottom-right; off-blocks are zero."""
    na, nb = a.n, b.n
    rows = [list(row) + [0] * nb for row in a.entries]
    rows += [[0] * na + list(row) for row in b.entries]
    return matrix(rows)


@lru_cache(maxsize=None)
def catalan_matrix(n: int) -> ExactMatrix:
    """The n-th matrix of the recursion C(1) = [1], C(k+1) = tau(C(k)) (+) [1].

    Cached per n for the life of the process; the intermediate C(k) are
    not kept."""
    if n < 1:
        raise ValueError("n must be at least 1")
    c = matrix([[1]])
    for _ in range(n - 1):
        c = direct_sum(tau(c), matrix([[1]]))
    return c


def entry_sum(a: ExactMatrix) -> int:
    return sum(sum(row) for row in a.entries)


def is_symmetric(a: ExactMatrix) -> bool:
    return all(
        a.entries[i][j] == a.entries[j][i] for i in range(a.n) for j in range(i + 1, a.n)
    )


def format_table(a: ExactMatrix) -> str:
    """Space-aligned rows, one matrix row per line."""
    width = max(len(str(v)) for row in a.entries for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in a.entries)
