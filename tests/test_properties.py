"""Property tests at semilengths 9..20, beyond exhaustive enumeration.

Paths are drawn step by step, so no test here calls ``all_paths``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from catborel.dyck import DyckPath, staircase
from catborel.ideals import (
    BasicIdeal,
    is_admissible,
    nd_plus,
    phi,
    phi_inv,
    qnd_direct,
    qnd_from_plus_degree,
)
from test_ideals import fresh_nd_plus


@st.composite
def dyck_words(draw, n):
    word, height, rises = [], 0, n
    while rises or height:
        up = rises > 0 and (height == 0 or draw(st.booleans()))
        word.append("r" if up else "f")
        height += 1 if up else -1
        rises -= up
    return "".join(word)


@st.composite
def dyck_paths(draw):
    return DyckPath(draw(dyck_words(draw(st.integers(9, 20)))))


def _pointwise_max(x: DyckPath, y: DyckPath) -> DyckPath:
    heights = [max(a, b) for a, b in zip(x.heights, y.heights)]
    return DyckPath("".join("r" if b > a else "f" for a, b in zip(heights, heights[1:])))


@st.composite
def admissible_pairs(draw):
    """A random p, and a random q raised until its first peak reaches
    n - last peak of p and its last peak reaches n - first peak of p."""
    p = draw(dyck_paths())
    n = p.semilength
    q = DyckPath(draw(dyck_words(n)))
    a, b = n - p.last_peak, n - p.first_peak
    if a:
        k = min(a, n - b)
        q = _pointwise_max(q, DyckPath("r" * a + "f" * k + "r" * (n - a) + "f" * (n - k)))
    else:
        q = _pointwise_max(q, staircase(n))
    return p, q


@settings(max_examples=60, deadline=None)
@given(admissible_pairs())
def test_pair_interval_round_trip(pair):
    p, q = pair
    assert is_admissible(p, q)
    b = phi_inv(p, q)
    again = BasicIdeal.from_intervals(b.n, set(b.s_plus), set(b.s_minus))
    assert again == b and hash(again) == hash(b)
    assert (phi(again).p, phi(again).q) == (p, q)


@settings(max_examples=25, deadline=None)
@given(admissible_pairs())
def test_cached_degrees_match_fresh_computation(pair):
    b = BasicIdeal(*pair)
    for _ in range(2):  # the second round reads the per-path cache
        assert nd_plus(b) == fresh_nd_plus(b.s_plus)
        assert qnd_from_plus_degree(b) == qnd_direct(b)


@settings(max_examples=100, deadline=None)
@given(dyck_paths())
def test_reflect_is_an_involution(p):
    r = p.reflect()
    assert r.reflect() == p
    assert (r.first_peak, r.last_peak) == (p.last_peak, p.first_peak)
