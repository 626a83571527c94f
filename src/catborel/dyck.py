"""Dyck paths with the peak and valley statistics used throughout the
package.

A Dyck path of semilength n is a word of n rises 'r' and n falls 'f'
whose prefixes never contain more falls than rises; equivalently a
lattice path from (0,0) to (2n,0) with steps (1,1) and (1,-1) that stays
weakly above the x-axis.  A peak is a point where a rise is followed by
a fall, a valley a point where a fall is followed by a rise; the height
of either is its y-coordinate.

Paths are grouped into cells by the pair (first peak height, last peak
height).  Each cell is generated directly from its fixed first and last
peak, counted by two closed formulas (a ballot-style triangle and a
reflection-principle binomial difference), and every nonempty cell has
a unique dominance-minimal member, the envelope of two tents and the
staircase.  The ``min_partner`` of a path p is the minimal member of the
reflected cell (n - last, n - first); it is the dominance threshold that
a second path must clear to be compatible with p in the pairing used by
:mod:`catborel.ideals`.

Word order is always lexicographic with 'f' < 'r', which makes every
enumeration in this module deterministic.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
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
    def heights(self) -> tuple[int, ...]:
        """Heights h(0..2n) of the path profile."""
        out = [0]
        for step in self.word:
            out.append(out[-1] + (1 if step == RISE else -1))
        return tuple(out)

    @cached_property
    def peaks(self) -> tuple[tuple[int, int], ...]:
        """(x, height) of every peak, left to right."""
        w = self.word
        return tuple(
            (x, self.heights[x]) for x in range(1, len(w)) if w[x - 1] == RISE and w[x] == FALL
        )

    @cached_property
    def valleys(self) -> tuple[tuple[int, int], ...]:
        """(x, height) of every valley, left to right."""
        w = self.word
        return tuple(
            (x, self.heights[x]) for x in range(1, len(w)) if w[x - 1] == FALL and w[x] == RISE
        )

    # the first peak ends the leading rises, the last starts the final falls
    @property
    def first_peak(self) -> int:
        return len(self.word) - len(self.word.lstrip(RISE))

    @property
    def last_peak(self) -> int:
        return len(self.word) - len(self.word.rstrip(FALL))


def peaks_at_least(p: DyckPath, height: int) -> int:
    return sum(1 for _, h in p.peaks if h >= height)


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


def path_leq(p: DyckPath, q: DyckPath) -> bool:
    """True when q never goes below p (pointwise height comparison)."""
    if p.semilength != q.semilength:
        raise ValueError("paths must have equal semilength")
    return all(map(le, p.heights, q.heights))


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


@lru_cache(maxsize=None)
def cell_paths(n: int, i: int, j: int) -> tuple[DyckPath, ...]:
    """Paths of semilength n with first peak height i and last peak height j,
    in word order.

    Index 0 in either slot names an empty cell by convention.  Only the
    pyramid has a peak of height n.  For 1 <= i, j <= n - 1 every member
    is ``r^i f Y r f^j``, where the middle word Y of 2n - i - j - 2 steps
    runs from height i - 1 to height j - 1 without dropping below 0.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"cell indices must lie in 0..{n}")
    if i == 0 or j == 0:
        return ()
    if i == n or j == n:
        return (pyramid(n),) if i == j else ()
    return _walk(RISE * i + FALL, i - 1, 2 * n - i - j - 2, j - 1, RISE + FALL * j)


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _path_from_heights(heights: tuple[int, ...]) -> DyckPath:
    word = []
    for a, b in zip(heights, heights[1:]):
        word.append(RISE if b > a else FALL)
    return DyckPath("".join(word))


@lru_cache(maxsize=None)
def cell_min(n: int, a: int, b: int) -> DyckPath:
    """The dominance-minimal member of the cell (a, b).

    A first peak of height a keeps a member on or above the tent
    a - |x - a|, a last peak of height b on or above b - |2n - b - x|,
    and parity keeps it on or above x mod 2.  The maximum of the three
    is a path with first peak a and last peak b whenever the cell is
    nonempty, so it is the minimum, built in O(n).
    """
    if not (0 <= a <= n and 0 <= b <= n):
        raise ValueError(f"cell indices must lie in 0..{n}")
    if a == 0 or b == 0 or (n in (a, b) and a != b):
        raise ValueError(f"cell ({a},{b}) of semilength {n} is empty")
    low = _path_from_heights(
        tuple(max(a - abs(x - a), b - abs(2 * n - b - x), x % 2) for x in range(2 * n + 1))
    )
    if low.first_peak != a or low.last_peak != b:
        raise RuntimeError(f"tent envelope of cell ({a},{b}) at n={n} has the wrong peaks")
    return low


def min_partner(p: DyckPath) -> DyckPath:
    """Minimal member of the reflected cell (n - last peak, n - first peak).

    The degenerate target (0, 0), reached only by the pyramid, is
    remapped to the cell (1, 1), whose minimum is the staircase.
    """
    n = p.semilength
    a = n - p.last_peak
    b = n - p.first_peak
    if a == 0 and b == 0:
        a = b = 1
    return cell_min(n, a, b)


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


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def cell_count_formula(n: int, i: int, j: int) -> int:
    """Closed form for the size of cell (i, j), 1 <= i, j <= n - 1: a
    difference of two binomials from the reflection principle."""
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise ValueError("need 1 <= i, j <= n - 1")
    top = (n - 1 - i) + (n - 1 - j)
    return _binom(top, n - 1 - i) - _binom(top, n - i - j - 1)


def cell_count(n: int, i: int, j: int) -> int:
    """Size of cell (i, j) for 1 <= i, j <= n: the closed form, except
    that row n and column n hold only the pyramid, at (n, n)."""
    if n in (i, j):
        return int(i == j)
    return cell_count_formula(n, i, j)


def cell_count_rows(n: int) -> list[list[int]]:
    """The cell-count matrix C(n) as rows: row i - 1, column j - 1 holds
    the size of cell (i, j)."""
    return [[cell_count(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
