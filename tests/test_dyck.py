import random
from itertools import accumulate, combinations

import pytest

from catborel.dyck import (
    FALL,
    RISE,
    DyckPath,
    all_paths,
    catalan_number,
    catalan_triangle,
    cell_count,
    cell_count_rows,
    cell_min,
    cell_paths,
    floor_gap_points,
    floor_valleys,
    min_partner,
    path_leq,
    pyramid,
    staircase,
)
from catborel.matrices import catalan_matrix


def heights(p):
    """Heights h(0..2n) of the profile of p, step by step from its word."""
    return tuple(accumulate((1 if step == RISE else -1 for step in p.word), initial=0))


def valley_scan(p):
    """(x, height) of every valley of p, left to right: the points where a
    fall is followed by a rise, found by scanning the word."""
    h = heights(p)
    return tuple((x, h[x]) for x in range(1, len(p.word)) if p.word[x - 1 : x + 1] == FALL + RISE)


def reflect(p):
    """Reverse the word and swap rises with falls (mirror at x = n)."""
    swapped = {RISE: FALL, FALL: RISE}
    return DyckPath("".join(swapped[s] for s in reversed(p.word)))


def peaks(p):
    """(x, height) of every peak of p, left to right: the points of its
    profile above both neighbours."""
    h = heights(p)
    return tuple((x, h[x]) for x in range(1, 2 * p.semilength) if h[x - 1] < h[x] > h[x + 1])


def peaks_at_least(p, height):
    """The oracle of the per-path count ``ideals._PathTable.tall_peaks``."""
    return sum(1 for _, h in peaks(p) if h >= height)


def test_parse_valid_words():
    assert DyckPath("rrrffrfrff").semilength == 5
    assert DyckPath("rf").semilength == 1


@pytest.mark.parametrize("word", ["fr", "rrf", "rfx", "", "rffr"])
def test_parse_rejects_bad_words(word):
    with pytest.raises(ValueError):
        DyckPath(word)


def test_stats_worked_example():
    p = DyckPath("rrrffrfrff")
    assert p.first_peak == 3
    assert p.last_peak == 2
    assert [h for _, h in p.valleys] == [1, 1]


def test_stats_staircase_valleys():
    p = staircase(3)
    assert [x for x, _ in p.valleys] == [2, 4]
    assert all(h == 0 for _, h in p.valleys)


def test_stats_small_path():
    p = DyckPath("rrfrff")
    assert (p.first_peak, p.last_peak) == (2, 2)
    assert p.valleys == ((3, 1),)
    assert peaks(p) == ((2, 2), (4, 2))
    assert peaks_at_least(p, 2) == 2  # both peaks have height >= 2
    assert peaks_at_least(p, 3) == 0


def test_stats_match_independent_profile_scan():
    for n in range(1, 7):
        for p in all_paths(n):
            heights = [0]
            for step in p.word:
                heights.append(heights[-1] + (1 if step == "r" else -1))
            tops = [
                (x, heights[x])
                for x in range(1, 2 * n)
                if heights[x - 1] < heights[x] > heights[x + 1]
            ]
            valleys = [
                (x, heights[x])
                for x in range(1, 2 * n)
                if heights[x - 1] > heights[x] < heights[x + 1]
            ]
            assert list(peaks(p)) == tops
            assert list(p.valleys) == valleys
            assert tops, "every path has a peak"


def test_star_worked_example():
    assert reflect(DyckPath("rrrfrrffff")).word == "rrrrffrfff"


def test_star_is_involution():
    for p in all_paths(4):
        assert reflect(reflect(p)) == p
    assert reflect(pyramid(5)) == pyramid(5)


def test_star_swaps_cells():
    for n in range(1, 9):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                image = {reflect(p) for p in cell_paths(n, i, j)}
                assert image == set(cell_paths(n, j, i))


def test_dominance_order():
    for n in range(2, 6):
        assert path_leq(staircase(n), pyramid(n))
        assert not path_leq(pyramid(n), staircase(n))
    p = DyckPath("rfrrff")
    assert path_leq(p, p)
    # each pair below is strictly comparable: false in exactly one direction
    for low, high in [("rfrrff", "rrfrff"), ("rfrrff", "rrrfff")]:
        assert path_leq(DyckPath(low), DyckPath(high))
        assert not path_leq(DyckPath(high), DyckPath(low))
    with pytest.raises(ValueError):
        path_leq(pyramid(2), pyramid(3))


def test_enumeration_counts_and_order():
    assert len(all_paths(5)) == 42
    words = [p.word for p in all_paths(4)]
    assert words == sorted(words)  # lexicographic with 'f' < 'r'
    assert len(set(words)) == len(words)


def _words_by_rise_positions(n):
    """Every placement of n rises among 2n steps whose prefixes never
    fall below zero, sorted in word order."""
    words = []
    for rises in combinations(range(2 * n), n):
        heights = accumulate(1 if k in rises else -1 for k in range(2 * n))
        if min(heights) >= 0:
            words.append("".join("r" if k in rises else "f" for k in range(2 * n)))
    return sorted(words)


def test_all_paths_match_combinations_reference():
    for n in range(1, 9):
        assert [p.word for p in all_paths(n)] == _words_by_rise_positions(n), n


def test_cell_examples():
    assert len(cell_paths(4, 1, 1)) == 2
    assert cell_paths(3, 2, 3) == ()
    with pytest.raises(ValueError, match=r"cell indices must lie in 1\.\.3"):
        cell_paths(3, 0, 2)
    assert cell_paths(2, 2, 2) == (pyramid(2),)


def test_cell_counts_match_matrix():
    for n in range(1, 11):
        c = catalan_matrix(n)
        seen = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                k = len(cell_paths(n, i, j))
                assert k == c[i - 1][j - 1], (n, i, j)
                seen += k
        assert seen == catalan_number(n)


def _brute_cell(n, i, j):
    return tuple(p for p in all_paths(n) if (p.first_peak, p.last_peak) == (i, j))


def test_cell_paths_match_brute_filter():
    for n in range(1, 10):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert cell_paths(n, i, j) == _brute_cell(n, i, j), (n, i, j)
    with pytest.raises(ValueError):
        cell_paths(4, 0, 1)
    with pytest.raises(ValueError):
        cell_paths(4, 5, 1)
    with pytest.raises(ValueError):
        cell_paths(4, 1, -1)


@pytest.mark.parametrize("fn", [cell_paths, cell_min, cell_count])
@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (0, 0), (4, 1), (1, 4)])
def test_cell_functions_refuse_indices_outside_one_to_n(fn, i, j):
    # one range check, and one message, for every function of a cell
    with pytest.raises(ValueError, match=rf"^cell indices must lie in 1\.\.3, got {i} and {j}$"):
        fn(3, i, j)


def test_cell_min_is_least_member():
    for n in range(1, 9):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                members = cell_paths(n, i, j)
                if not members:
                    with pytest.raises(ValueError):
                        cell_min(n, i, j)
                    continue
                low = cell_min(n, i, j)
                assert low in members
                assert all(path_leq(low, p) for p in members)


def test_cell_min_is_the_brute_pointwise_minimum():
    # every nonempty cell with n <= 11, generated without the cache
    nonempty = 0
    for n in range(1, 12):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                members = cell_paths.__wrapped__(n, i, j)
                if not members:
                    continue
                nonempty += 1
                profile = tuple(min(col) for col in zip(*map(heights, members)))
                assert heights(cell_min(n, i, j)) == profile, (n, i, j)
    assert nonempty == 396


def test_cell_min_is_the_envelope_of_two_tents_and_the_staircase():
    # a first peak a keeps a member on or above the tent a - |x - a|, a last
    # peak b on or above b - |2n - b - x|, and parity on or above x mod 2
    nonempty = 0
    for n in range(1, 41):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if n in (a, b) and a != b:
                    continue
                nonempty += 1
                tents = tuple(
                    max(a - abs(x - a), b - abs(2 * n - b - x), x % 2) for x in range(2 * n + 1)
                )
                assert heights(cell_min(n, a, b)) == tents, (n, a, b)
    assert nonempty == 20580


@pytest.mark.parametrize("cell", [(3, 0, 1), (3, 1, 0), (3, 3, 1), (3, 1, 3), (3, 4, 4), (3, -1, 2), (0, 0, 0)])
def test_cell_min_refuses_empty_cells(cell):
    with pytest.raises(ValueError):
        cell_min(*cell)


def test_cell_count_matches_generated_cells():
    for n in range(1, 10):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert cell_count(n, i, j) == len(cell_paths(n, i, j)), (n, i, j)


def test_cells_are_meet_closed():
    rng = random.Random(31)
    for n in range(2, 9):
        for i in range(1, n):
            for j in range(1, n):
                members = cell_paths(n, i, j)
                if len(members) < 2:
                    continue
                for _ in range(6):
                    a, b = rng.choice(members), rng.choice(members)
                    meet = tuple(min(x, y) for x, y in zip(heights(a), heights(b)))
                    word = "".join(
                        "r" if y > x else "f" for x, y in zip(meet, meet[1:])
                    )
                    assert DyckPath(word) in members


def test_min_partner_examples():
    for n in range(2, 7):
        assert min_partner(pyramid(n)) == staircase(n)
    assert min_partner(DyckPath("rfrrff")) == DyckPath("rfrrff")
    assert cell_min(2, 2, 2) == pyramid(2)


def test_floor_gap_points():
    assert floor_gap_points(pyramid(3)) == frozenset({2, 4})
    for n in range(1, 8):
        assert floor_gap_points(staircase(n)) == frozenset()
        for p in all_paths(min(n, 6)):
            assert floor_gap_points(p) <= set(range(2, 2 * p.semilength - 1, 2))


def test_floor_gap_points_against_direct_set_computation():
    for n in range(1, 7):
        for p in all_paths(n):
            floor = {x for x, h in p.valleys if h == 0}
            assert floor_valleys(p) == floor
            pinned = floor | {0, 2 * n}
            expect = set()
            for m in range(1, n):
                triple = {2 * m - 2, 2 * m, 2 * m + 2}
                if triple - pinned:
                    expect.add(2 * m)
            assert floor_gap_points(p) == expect


def test_catalan_triangle_values():
    assert catalan_triangle(4, 3) == 14
    rows = [[catalan_triangle(i, j) for j in range(i + 1)] for i in range(5)]
    assert rows[4] == [1, 4, 9, 14, 14]
    # defining recursion: entry = entry above + entry to the left
    for i in range(1, 10):
        for j in range(1, i):
            assert catalan_triangle(i, j) == catalan_triangle(i - 1, j) + catalan_triangle(i, j - 1)


def test_cell_count_formula():
    assert cell_count(5, 1, 2) == 5
    for n in range(2, 13):
        c = catalan_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert cell_count(n, i, j) == c[i - 1][j - 1]
        assert cell_count(n, 1, 1) == catalan_triangle(n - 2, n - 2)
    for cell in ((3, 0, 1), (3, 1, 0), (3, 3, 4), (3, 4, 4), (0, 0, 0)):
        with pytest.raises(ValueError):
            cell_count(*cell)


@pytest.mark.parametrize("n", [0, -3])
def test_cell_count_rows_refuses_n_below_one(n):
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        cell_count_rows(n)


def test_first_row_matches_triangle():
    for n in range(2, 13):
        c = catalan_matrix(n)
        for j in range(1, n):
            assert c[0][j - 1] == catalan_triangle(n - 2, n - 1 - j)


def _entry(c, n, i, j):
    return c[i - 1][j - 1] if 1 <= i <= n and 1 <= j <= n else 0


def test_pascal_type_identity_with_column_sums():
    # holds for every (i, j) except (n, n-1) and (n, n), out-of-range
    # entries read as zero
    for n in range(1, 13):
        c = catalan_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = _entry(c, n, i, j) + sum(
                    _entry(c, n, s, i + j + 1) for s in range(1, n + 1)
                )
                rhs = sum(_entry(c, n, s, j + 1) for s in range(i, n + 1))
                if (i, j) in ((n, n - 1), (n, n)):
                    if n > 1:
                        assert lhs != rhs, "excluded corner is genuinely special"
                else:
                    assert lhs == rhs, (n, i, j)


def test_pascal_type_identity_neighbor_form():
    # holds for every (i, j) outside the top corner {n-1, n} x {n-1, n}
    for n in range(1, 13):
        c = catalan_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = _entry(c, n, i, j) + _entry(c, n, 1, i + j)
                rhs = _entry(c, n, i + 1, j) + _entry(c, n, i, j + 1)
                if i >= n - 1 and j >= n - 1:
                    if n > 1:
                        assert lhs != rhs, "excluded corner is genuinely special"
                else:
                    assert lhs == rhs, (n, i, j)
