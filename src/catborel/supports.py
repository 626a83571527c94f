"""Supports of arbitrary nonzero Borel ideals for affine sl_n.

Up to a uniform shift by the imaginary root, such a support is pinned by
its level l (the least positive multiple of the imaginary root present)
and by four interval layers: positive roots at loop degree l-1 and l,
negated positive roots at degrees l and l+1.  Each layer is read off a
Dyck path as in :mod:`catborel.ideals`, giving a quadruple
(p, q, p', q') of Dyck paths, held as that plain tuple and passed as
four arguments; the level only translates the picture, so level-1
quadruples classify everything.

``classify`` decides, from the four paths alone, which quadruples
actually occur, splitting the accepted ones into four mutually
exclusive shapes driven by whether the two leading layers are trivial,
how often p' returns to the floor, and dominance thresholds against
minimal partners.  Statements comparing a count use the number of
height-0 valleys; statements written as containments use the set of
their x-coordinates.  ``build_witness`` constructs, per shape, an
explicit spanning set in a three-degree truncated loop algebra, with
(p, q) and (p', q') placed as matrix units by ``ideals.layer_units`` at
degrees 0 and 1, whose stability under the Borel generators is then
checked with honest matrix brackets by ``verify_witness``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .dyck import (
    DyckPath,
    all_paths,
    cell_min,
    floor_gap_points,
    floor_valleys,
    min_partner,
    path_leq,
    pyramid,
    staircase,
)
from .ideals import layer_units, minus_intervals, partners, plus_intervals

if TYPE_CHECKING:
    from .loopalgebra import Span, TruncatedLoopAlgebra

CASES = ("I", "II", "III", "IV")
Quadruple = tuple[DyckPath, DyckPath, DyckPath, DyckPath]


def _semilength(p: DyckPath, q: DyckPath, p_prime: DyckPath, q_prime: DyckPath) -> int:
    n = len(p.word) // 2
    if not len(q.word) == len(p_prime.word) == len(q_prime.word) == 2 * n:
        raise ValueError("all four paths must have one semilength")
    return n


def classify(p: DyckPath, q: DyckPath, p_prime: DyckPath, q_prime: DyckPath) -> str | None:
    """Shape tag of an admissible quadruple of paths, or None for a
    rejected one; the four paths must share one semilength n.

    The single semilength-1 quadruple is accepted with its own tag
    "unique"; the four shapes require n at least 2.
    """
    n = len(p.word) // 2
    if not len(q.word) == len(p_prime.word) == len(q_prime.word) == len(p.word):
        raise ValueError("all four paths must have one semilength")
    if n == 1:
        return "unique"
    top = pyramid(n)
    if p.word != top.word:
        # the word comparisons are cheap and reject most quadruples first
        if (
            q_prime.word == top.word
            and path_leq(min_partner(p), q)
            and floor_gap_points(q) | {2, 2 * n - 2} <= floor_valleys(p_prime)
        ):
            return "IV"
        return None
    v0_prime = floor_valleys(p_prime)
    if q == staircase(n):
        if len(v0_prime) == 1 and q_prime == top:
            return "I"
        if len(v0_prime) > 1 and path_leq(min_partner(p_prime), q_prime):
            return "II"
        return None
    if not floor_gap_points(q) <= v0_prime:
        return None
    if not path_leq(min_partner(p_prime), q_prime):
        return None
    v0_q = floor_valleys(q)
    if (2 not in v0_q or 2 * n - 2 not in v0_q) and q_prime != top:
        return None
    return "III"


def enumerate_classes(n: int) -> list[tuple[Quadruple, str]]:
    """All accepted quadruples with their tags, ordered by word quadruple."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return [((pyramid(1),) * 4, "unique")]
    paths = all_paths(n)
    top = pyramid(n)
    bottom = staircase(n)
    prime_data = [(pp, floor_valleys(pp)) for pp in paths]

    def classes_for(p: DyckPath) -> list[tuple[Quadruple, str]]:
        out = []
        if p == top:
            for q in paths:
                if q == bottom:
                    for pp, v0p in prime_data:
                        if len(v0p) == 1:
                            out.append(((p, q, pp, top), "I"))
                        elif len(v0p) > 1:
                            for qp in partners(pp):
                                out.append(((p, q, pp, qp), "II"))
                else:
                    gaps = floor_gap_points(q)
                    v0_q = floor_valleys(q)
                    force_top = 2 not in v0_q or 2 * n - 2 not in v0_q
                    for pp, v0p in prime_data:
                        if not gaps <= v0p:
                            continue
                        # top is the dominance maximum, so it is always a partner
                        for qp in (top,) if force_top else partners(pp):
                            out.append(((p, q, pp, qp), "III"))
        else:
            for q in partners(p):
                needed = floor_gap_points(q) | {2, 2 * n - 2}
                for pp, v0p in prime_data:
                    if needed <= v0p:
                        out.append(((p, q, pp, top), "IV"))
        return out

    return [item for p in paths for item in classes_for(p)]


def check_layer_restrictions(p: DyckPath, q: DyckPath, p_prime: DyckPath, q_prime: DyckPath) -> bool:
    """Necessary shape restrictions on a quadruple:

    (a) a nontrivial leading positive layer forces a full trailing
        negative layer;
    (b) neither primed layer may be trivial;
    (c) a leading negative layer holding every negated simple root forces
        a full primed positive layer;
    (d) a full positive layer at either degree restricts the matching
        negative layer to everything or everything minus the corner.
    """
    n = _semilength(p, q, p_prime, q_prime)
    top = pyramid(n)
    bottom = staircase(n)
    if p != top and q_prime != top:
        return False
    if p_prime == top or q_prime == bottom:
        return False
    simples = {(k, k) for k in range(1, n)}
    if simples <= minus_intervals(q) and p_prime != bottom:
        return False
    # the negative layer holding everything except the longest root
    corner = cell_min(n, n - 1, n - 1)
    if p == bottom and q not in (top, corner):
        return False
    if p_prime == bottom and q_prime not in (top, corner):
        return False
    return True


# ---------------------------------------------------------------------------
# witnesses in the three-degree truncation
#
# The bracket code is imported inside these functions, so that listing and
# classifying quadruples does not load it.


@lru_cache(maxsize=None)
def _witness_algebra(n: int) -> TruncatedLoopAlgebra:
    from .loopalgebra import TruncatedLoopAlgebra

    return TruncatedLoopAlgebra(n, ("upper", "full", "lower_diag"))


def build_witness(p: DyckPath, q: DyckPath, p_prime: DyckPath, q_prime: DyckPath) -> Span:
    """Case-shaped spanning set realizing an accepted quadruple.

    The imaginary-root component at degree one depends on the shape: a
    single coroot for shape I, a difference of two for shape II, the
    coroots of the leading negative layer for shape III, and of both
    leading layers for shape IV.  Degree two always carries the full
    Cartan.
    """
    from .loopalgebra import Span, cartan_basis, coroot_vector, dual_basis_vector

    case = classify(p, q, p_prime, q_prime)
    if case is None:
        raise ValueError("quadruple is not accepted; no witness exists")
    n = p.semilength
    alg = _witness_algebra(n)
    if case == "unique":
        # semilength 1: the support is the imaginary tail only
        return Span(alg, frozenset(), {1: [], 2: []})
    a_plus, a_minus = plus_intervals(p), minus_intervals(q)
    units = layer_units(a_plus, a_minus, 0)
    units |= layer_units(plus_intervals(p_prime), minus_intervals(q_prime), 1)
    v0 = sorted(floor_valleys(p_prime))
    if case == "I":
        diag1 = [dual_basis_vector(n, v0[0] // 2)]
    elif case == "II":
        vm, vk = dual_basis_vector(n, v0[0] // 2), dual_basis_vector(n, v0[1] // 2)
        diag1 = [tuple(a - b for a, b in zip(vm, vk))]
    else:
        diag1 = [coroot_vector(n, iv) for iv in sorted(a_minus)]
        if case == "IV":
            diag1 += [coroot_vector(n, iv) for iv in sorted(a_plus)]
    return Span(alg, units, {1: diag1, 2: cartan_basis(n)})


def verify_witness(p: DyckPath, q: DyckPath, p_prime: DyckPath, q_prime: DyckPath) -> bool:
    """Check with matrix brackets that the witness span is stable under
    the Borel generators in the three-degree truncation."""
    from .loopalgebra import stable_under

    return stable_under(build_witness(p, q, p_prime, q_prime))


def assemble_naive_span(p: DyckPath, q: DyckPath, p_prime: DyckPath, q_prime: DyckPath) -> Span:
    """The layers of a quadruple taken at face value, with full imaginary
    components at both degrees; no acceptance filtering.  Used as the
    negative-control span for rejected quadruples."""
    from .loopalgebra import Span, cartan_basis

    n = _semilength(p, q, p_prime, q_prime)
    units = layer_units(plus_intervals(p), minus_intervals(q), 0)
    units |= layer_units(plus_intervals(p_prime), minus_intervals(q_prime), 1)
    return Span(_witness_algebra(n), units, {1: cartan_basis(n), 2: cartan_basis(n)})


def class_record(t: Quadruple, case: str) -> dict:
    p, q, pp, qp = (path.word for path in t)
    return {
        "n": len(p) // 2,
        "level": 1,
        "p": p,
        "q": q,
        "p_prime": pp,
        "q_prime": qp,
        "case": case if case in CASES else None,
    }
