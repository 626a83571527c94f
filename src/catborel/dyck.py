"""Dyck paths with the peak and valley statistics used throughout the
package.

A Dyck path of semilength n is a word of n rises 'r' and n falls 'f'
whose prefixes never contain more falls than rises; equivalently a
lattice path from (0,0) to (2n,0) with steps (1,1) and (1,-1) that stays
weakly above the x-axis.  A peak is a point where a rise is followed by
a fall, a valley a point where a fall is followed by a rise; the height
of either is its y-coordinate.  A path's profile is its depth row, the
number of rises before each fall: q lies below p in the dominance order
exactly when q's row is nowhere above p's.

Paths are grouped into cells by the pair (first peak height, last peak
height).  Each cell is generated directly from its fixed first and last
peak and counted by :func:`ballot`, the package's one
reflection-principle count, and every nonempty cell has a unique
dominance-minimal member, read off its least depth row.
The ``reflected_cell`` of a path p is (n - last, n - first): a second
path is compatible with p in the pairing used by :mod:`catborel.ideals`
when its first and last peaks reach it, and the ``min_partner`` of p,
that cell's minimal member, is the dominance threshold such a path
must clear.

Word order is always lexicographic with 'f' < 'r', which makes every
enumeration in this module deterministic.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import le

from .frozen import Frozen

RISE = "r"
FALL = "f"


class DyckPath(Frozen):
    """A Dyck path, equal to and hashed as its word alone."""

    # __dict__ holds the cached_property statistics
    __slots__ = ("word", "__dict__")

    def __init__(self, word: str) -> None:
        bad = set(word) - {RISE, FALL}
        if bad:
            raise ValueError(f"invalid step characters: {sorted(bad)!r}")
        if len(word) == 0 or len(word) % 2 != 0:
            raise ValueError("word length must be a positive even number")
        height = 0
        for pos, step in enumerate(word, start=1):
            height += 1 if step == RISE else -1
            if height < 0:
                raise ValueError(f"prefix of length {pos} has more falls than rises")
        if height != 0:
            raise ValueError("word must contain equally many rises and falls")
        object.__setattr__(self, "word", word)

    def _fields(self) -> tuple:
        return (self.word,)

    # the base methods, without building a tuple: paths are hashed and
    # compared in every cache lookup and classification
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __str__(self) -> str:
        return self.word

    @property
    def semilength(self) -> int:
        return len(self.word) // 2

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """The number of rises before each fall, the path's profile."""
        return tuple(accumulate(map(len, self.word.split(FALL)[:-1])))

    @cached_property
    def valleys(self) -> tuple[tuple[int, int], ...]:
        """(x, height) of every valley, left to right: fall k + 1 ends at
        x = d[k] + k + 1, at height d[k] - k - 1, and a rise follows it
        when d[k + 1] > d[k]."""
        d = self.depth
        return tuple((c + k + 1, c - k - 1) for k, (c, e) in enumerate(zip(d, d[1:])) if e > c)

    # the first peak ends the leading rises, the last starts the final falls
    @property
    def first_peak(self) -> int:
        return len(self.word) - len(self.word.lstrip(RISE))

    @property
    def last_peak(self) -> int:
        return len(self.word) - len(self.word.rstrip(FALL))


@lru_cache(maxsize=None)
def floor_valleys(p: DyckPath) -> frozenset[int]:
    """x-coordinates of the valleys at height 0."""
    return frozenset(x for x, h in p.valleys if h == 0)


@lru_cache(maxsize=None)
def pyramid(n: int) -> DyckPath:
    """The maximum path r^n f^n (single peak, no valleys)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return DyckPath(RISE * n + FALL * n)


@lru_cache(maxsize=None)
def staircase(n: int) -> DyckPath:
    """The minimum path (rf)^n (n peaks of height 1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return DyckPath((RISE + FALL) * n)


def from_depth(row) -> DyckPath:
    """The path whose k-th fall follows row[k - 1] rises in all, the
    inverse of ``DyckPath.depth`` on a nondecreasing row; DyckPath refuses
    the row unless row[k - 1] >= k and its last entry is its length."""
    return DyckPath("".join(RISE * (d - c) + FALL for c, d in zip([0, *row], row)))


def path_leq(p: DyckPath, q: DyckPath) -> bool:
    """True when q never goes below p: q's depth row is nowhere below p's."""
    if p.semilength != q.semilength:
        raise ValueError("paths must have equal semilength")
    return all(map(le, p.depth, q.depth))


def _walk(head: str, height: int, steps: int, target: int, tail: str) -> tuple[DyckPath, ...]:
    """Every path ``head + Y + tail``, Y running over the words of
    ``steps`` steps from ``height`` to ``target`` that never drop below 0,
    in word order (falls before rises)."""
    out: list[DyckPath] = []
    word: list[str] = []

    # the distance to target stays within the steps left and of their parity
    def go(h: int, left: int) -> None:
        if left == 0:
            out.append(DyckPath(head + "".join(word) + tail))
            return
        if h > 0 and target - h < left:
            word.append(FALL)
            go(h - 1, left - 1)
            word.pop()
        if h - target < left:
            word.append(RISE)
            go(h + 1, left - 1)
            word.pop()

    go(height, steps)
    return tuple(out)


@lru_cache(maxsize=None)
def all_paths(n: int) -> tuple[DyckPath, ...]:
    """Every Dyck path of semilength n, in word order with 'f' < 'r'."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _walk("", 0, 2 * n, 0, "")


def _check_cell(n: int, i: int, j: int) -> None:
    """Refuse a cell index outside 1..n, the peak heights a path can have."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"cell indices must lie in 1..{n}, got {i} and {j}")


@lru_cache(maxsize=None)
def cell_paths(n: int, i: int, j: int) -> tuple[DyckPath, ...]:
    """Paths of semilength n with first peak height i and last peak height j,
    in word order, for 1 <= i, j <= n.

    Only the pyramid has a peak of height n.  For i, j <= n - 1 every member
    is ``r^i f Y r f^j``, where the middle word Y of 2n - i - j - 2 steps
    runs from height i - 1 to height j - 1 without dropping below 0.
    """
    _check_cell(n, i, j)
    if i == n or j == n:
        return (pyramid(n),) if i == j else ()
    return _walk(RISE * i + FALL, i - 1, 2 * n - i - j - 2, j - 1, RISE + FALL * j)


def ballot(steps: int, start: int, end: int) -> int:
    """Number of paths of ``steps`` steps from height ``start`` to height
    ``end`` that never go below 0: all of them less those from the mirror
    image -start - 2 (reflection principle); 0 off the lattice (a negative
    length or height, an end out of reach, or the wrong parity)."""
    if steps < 0 or start < 0 or end < 0 or abs(end - start) > steps or (steps + end - start) % 2:
        return 0
    rises = (steps + end - start) // 2
    return math.comb(steps, rises) - math.comb(steps, rises + start + 1)


def catalan_number(n: int) -> int:
    return ballot(2 * n, 0, 0)


@lru_cache(maxsize=None)
def cell_min(n: int, a: int, b: int) -> DyckPath:
    """The dominance-minimal member of the cell (a, b).

    A first peak of height a puts every entry of a member's depth row at
    a or above, a last peak of height b puts its last b entries at n, and
    entry k (from 0) is at least k + 1.  The least such row, max(a, k + 1)
    for k < n - b and n after that, is itself a member's whenever the cell
    is nonempty, so it is the minimum, built in O(n).
    """
    _check_cell(n, a, b)
    if n in (a, b) and a != b:
        raise ValueError(f"cell ({a},{b}) of semilength {n} is empty")
    low = from_depth([max(a, k + 1) for k in range(n - b)] + [n] * b)
    if low.first_peak != a or low.last_peak != b:
        raise RuntimeError(f"least depth row of cell ({a},{b}) at n={n} has the wrong peaks")
    return low


def reflected_cell(p: DyckPath) -> tuple[int, int]:
    """The threshold (n - last peak, n - first peak) that the first and
    last peaks of every partner of p must reach; (0, 0) for the pyramid."""
    n = p.semilength
    return n - p.last_peak, n - p.first_peak


def min_partner(p: DyckPath) -> DyckPath:
    """Minimal member of the reflected cell.  The pyramid's (0, 0), the
    only threshold with a 0, is remapped to the cell (1, 1), whose
    minimum is the staircase."""
    a, b = reflected_cell(p)
    return cell_min(p.semilength, a or 1, b or 1)


@lru_cache(maxsize=None)
def floor_gap_points(p: DyckPath) -> frozenset[int]:
    """Even x-coordinates 2m, 0 < 2m < 2n, whose triple {2m-2, 2m, 2m+2}
    is not fully covered by height-0 valleys and the two endpoints."""
    n = p.semilength
    pinned = floor_valleys(p) | {0, 2 * n}
    return frozenset(
        2 * m
        for m in range(1, n)
        if any(x not in pinned for x in (2 * m - 2, 2 * m, 2 * m + 2))
    )


def catalan_triangle(i: int, j: int) -> int:
    """Ballot-style triangle entry: each entry is the sum of the entry
    above and the entry to the left; row i, column j, 0-based."""
    if not 0 <= j <= i:
        raise ValueError("need 0 <= j <= i")
    num = math.factorial(i + j) * (i - j + 1)
    den = math.factorial(j) * math.factorial(i + 1)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("triangle entry is not an integer")
    return q


def cell_count(n: int, i: int, j: int) -> int:
    """Size of cell (i, j) for 1 <= i, j <= n: the middle words of
    :func:`cell_paths` are ballot paths, except that row n and column n
    hold only the pyramid, at (n, n)."""
    _check_cell(n, i, j)
    if n in (i, j):
        return int(i == j)
    return ballot(2 * n - 2 - i - j, i - 1, j - 1)


def cell_count_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The cell-count matrix C(n) as rows: row i - 1, column j - 1 holds
    the size of cell (i, j)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(tuple(cell_count(n, i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
