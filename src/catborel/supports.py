"""Supports of arbitrary nonzero Borel ideals for affine sl_n.

Up to a uniform shift by the imaginary root, such a support is pinned by
its level l (the least positive multiple of the imaginary root present)
and by four interval layers: positive roots at loop degree l-1 and l,
negated positive roots at degrees l and l+1.  Each layer is encoded by
the same grid walk as in :mod:`catborel.ideals`, giving a quadruple
(p, q, p', q') of Dyck paths; the level only translates the picture, so
level-1 quadruples classify everything.

``classify`` decides which quadruples actually occur, splitting the
accepted ones into four mutually exclusive shapes driven by whether the
two leading layers are trivial, how often p' returns to the floor, and
dominance thresholds against minimal partners.  Statements comparing a
count use the number of height-0 valleys; statements written as
containments use the set of their x-coordinates.  ``build_witness``
constructs, per shape, an explicit spanning set in a three-degree
truncated loop algebra whose stability under the Borel generators is
then checked with honest matrix brackets by ``verify_witness``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .dyck import (
    DyckPath,
    all_paths,
    floor_gap_points,
    min_partner,
    path_leq,
    pyramid,
    staircase,
    valley_xs_at_height,
)
from .frozen import Frozen
from .ideals import Interval, minus_intervals, partners, plus_intervals

if TYPE_CHECKING:
    from .loopalgebra import Span, TruncatedLoopAlgebra

CASES = ("I", "II", "III", "IV")


class SupportQuadruple(Frozen):
    """Layer encoding (p, q, p_prime, q_prime) of a level-normalized support."""

    __slots__ = ("n", "p", "q", "p_prime", "q_prime")

    def __init__(
        self, n: int, p: DyckPath, q: DyckPath, p_prime: DyckPath, q_prime: DyckPath
    ) -> None:
        if not len(p.word) == len(q.word) == len(p_prime.word) == len(q_prime.word) == 2 * n:
            raise ValueError("all four paths must have semilength n")
        set_ = object.__setattr__
        set_(self, "n", n)
        set_(self, "p", p)
        set_(self, "q", q)
        set_(self, "p_prime", p_prime)
        set_(self, "q_prime", q_prime)

    def words(self) -> tuple[str, str, str, str]:
        return (self.p.word, self.q.word, self.p_prime.word, self.q_prime.word)


class LevelledSupport(Frozen):
    __slots__ = ("level", "quadruple")

    def __init__(self, level: int, quadruple: SupportQuadruple) -> None:
        if level < 1:
            raise ValueError("level must be a positive integer")
        set_ = object.__setattr__
        set_(self, "level", level)
        set_(self, "quadruple", quadruple)


def classify(t: SupportQuadruple) -> str | None:
    """Shape tag of an admissible quadruple, or None for a rejected one.

    The single semilength-1 quadruple is accepted with its own tag
    "unique"; the four shapes require n at least 2.
    """
    n = t.n
    if n == 1:
        return "unique"
    top = pyramid(n)
    if t.p != top:
        # the equality test is cheap and rejects most quadruples first
        if (
            t.q_prime == top
            and path_leq(min_partner(t.p), t.q)
            and floor_gap_points(t.q) | {2, 2 * n - 2} <= valley_xs_at_height(t.p_prime, 0)
        ):
            return "IV"
        return None
    v0_prime = valley_xs_at_height(t.p_prime, 0)
    if t.q == staircase(n):
        if len(v0_prime) == 1 and t.q_prime == top:
            return "I"
        if len(v0_prime) > 1 and path_leq(min_partner(t.p_prime), t.q_prime):
            return "II"
        return None
    if not floor_gap_points(t.q) <= v0_prime:
        return None
    if not path_leq(min_partner(t.p_prime), t.q_prime):
        return None
    v0_q = valley_xs_at_height(t.q, 0)
    if (2 not in v0_q or 2 * n - 2 not in v0_q) and t.q_prime != top:
        return None
    return "III"


def enumerate_classes(n: int) -> list[tuple[SupportQuadruple, str]]:
    """All accepted quadruples with their tags, ordered by word quadruple."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        only = pyramid(1)
        return [(SupportQuadruple(1, only, only, only, only), "unique")]
    paths = all_paths(n)
    top = pyramid(n)
    bottom = staircase(n)
    prime_data = [(pp, valley_xs_at_height(pp, 0)) for pp in paths]

    def classes_for(p: DyckPath) -> list[tuple[SupportQuadruple, str]]:
        out = []
        if p == top:
            for q in paths:
                if q == bottom:
                    for pp, v0p in prime_data:
                        if len(v0p) == 1:
                            out.append((SupportQuadruple(n, p, q, pp, top), "I"))
                        elif len(v0p) > 1:
                            for qp in partners(pp):
                                out.append((SupportQuadruple(n, p, q, pp, qp), "II"))
                else:
                    gaps = floor_gap_points(q)
                    v0_q = valley_xs_at_height(q, 0)
                    force_top = 2 not in v0_q or 2 * n - 2 not in v0_q
                    for pp, v0p in prime_data:
                        if not gaps <= v0p:
                            continue
                        # top is the dominance maximum, so it is always a partner
                        for qp in (top,) if force_top else partners(pp):
                            out.append((SupportQuadruple(n, p, q, pp, qp), "III"))
        else:
            for q in partners(p):
                needed = floor_gap_points(q) | {2, 2 * n - 2}
                for pp, v0p in prime_data:
                    if needed <= v0p:
                        out.append((SupportQuadruple(n, p, q, pp, top), "IV"))
        return out

    return [item for p in paths for item in classes_for(p)]


def shift_level(ls: LevelledSupport, k: int) -> LevelledSupport:
    """Translate the whole support by k imaginary roots; the quadruple is
    untouched and the resulting level must stay positive."""
    if ls.level + k < 1:
        raise ValueError("shift would take the level below 1")
    return LevelledSupport(ls.level + k, ls.quadruple)


def layer_intervals(t: SupportQuadruple) -> dict[str, frozenset[Interval]]:
    return {
        "a_plus": plus_intervals(t.p),
        "a_minus": minus_intervals(t.q),
        "a_plus_prime": plus_intervals(t.p_prime),
        "a_minus_prime": minus_intervals(t.q_prime),
    }


def check_layer_restrictions(t: SupportQuadruple) -> bool:
    """Necessary shape restrictions on a quadruple:

    (a) a nontrivial leading positive layer forces a full trailing
        negative layer;
    (b) neither primed layer may be trivial;
    (c) a leading negative layer holding every negated simple root forces
        a full primed positive layer;
    (d) a full positive layer at either degree restricts the matching
        negative layer to everything or everything minus the corner.
    """
    n = t.n
    top = pyramid(n)
    bottom = staircase(n)
    if t.p != top and t.q_prime != top:
        return False
    if t.p_prime == top or t.q_prime == bottom:
        return False
    a_minus = minus_intervals(t.q)
    simples = {(k, k) for k in range(1, n)}
    if simples <= a_minus and t.p_prime != bottom:
        return False
    corner = _corner_path(n)
    if t.p == bottom and t.q not in (top, corner):
        return False
    if t.p_prime == bottom and t.q_prime not in (top, corner):
        return False
    return True


def _corner_path(n: int) -> DyckPath:
    """Encoding of the negative layer holding everything except the
    longest root: r^(n-1) f r f^(n-1)."""
    if n == 1:
        return pyramid(1)
    return DyckPath("r" * (n - 1) + "f" + "r" + "f" * (n - 1))


# ---------------------------------------------------------------------------
# witnesses in the three-degree truncation
#
# The bracket code is imported inside these functions, so that listing and
# classifying quadruples does not load it.


def _witness_algebra(n: int) -> TruncatedLoopAlgebra:
    from .loopalgebra import TruncatedLoopAlgebra

    return TruncatedLoopAlgebra(n, ("upper", "full", "lower_diag"))


def _layer_units(layers: dict[str, frozenset[Interval]]) -> set[tuple[int, int, int]]:
    units = set()
    units |= {(0, i, j + 1) for i, j in layers["a_plus"]}
    units |= {(1, j + 1, i) for i, j in layers["a_minus"]}
    units |= {(1, i, j + 1) for i, j in layers["a_plus_prime"]}
    units |= {(2, j + 1, i) for i, j in layers["a_minus_prime"]}
    return units


def build_witness(t: SupportQuadruple) -> Span:
    """Case-shaped spanning set realizing an accepted quadruple.

    The imaginary-root component at degree one depends on the shape: a
    single coroot for shape I, a difference of two for shape II, the
    coroots of the leading negative layer for shape III, and of both
    leading layers for shape IV.  Degree two always carries the full
    Cartan.
    """
    from .loopalgebra import Span, cartan_basis, coroot_vector, dual_basis_vector

    case = classify(t)
    if case is None:
        raise ValueError("quadruple is not accepted; no witness exists")
    n = t.n
    alg = _witness_algebra(n)
    layers = layer_intervals(t)
    units = _layer_units(layers)
    diag1: list[tuple[int, ...]] = []
    if case == "unique":
        # semilength 1: the support is the imaginary tail only
        return Span(alg, frozenset(), {1: [], 2: []})
    v0 = sorted(valley_xs_at_height(t.p_prime, 0))
    if case == "I":
        m = v0[0] // 2
        diag1 = [dual_basis_vector(n, m)]
    elif case == "II":
        m, k = v0[0] // 2, v0[1] // 2
        vm, vk = dual_basis_vector(n, m), dual_basis_vector(n, k)
        diag1 = [tuple(a - b for a, b in zip(vm, vk))]
    elif case == "III":
        diag1 = [coroot_vector(n, iv) for iv in sorted(layers["a_minus"])]
    else:  # case IV
        diag1 = [coroot_vector(n, iv) for iv in sorted(layers["a_minus"])]
        diag1 += [coroot_vector(n, iv) for iv in sorted(layers["a_plus"])]
    return Span(alg, frozenset(units), {1: diag1, 2: cartan_basis(n)})


def verify_witness(t: SupportQuadruple) -> bool:
    """Check with matrix brackets that the witness span is stable under
    the Borel generators in the three-degree truncation."""
    from .loopalgebra import borel_generators, stable_under

    span = build_witness(t)
    if t.n == 1:
        return True
    return stable_under(span, borel_generators(span.algebra))


def assemble_naive_span(t: SupportQuadruple) -> Span:
    """The layers of a quadruple taken at face value, with full imaginary
    components at both degrees; no acceptance filtering.  Used as the
    negative-control span for rejected quadruples."""
    from .loopalgebra import Span, cartan_basis

    n = t.n
    alg = _witness_algebra(n)
    units = _layer_units(layer_intervals(t))
    return Span(alg, frozenset(units), {1: cartan_basis(n), 2: cartan_basis(n)})


def naive_span_is_stable(t: SupportQuadruple) -> bool:
    from .loopalgebra import borel_generators, stable_under

    if t.n == 1:
        return True
    span = assemble_naive_span(t)
    return stable_under(span, borel_generators(span.algebra))


def class_record(t: SupportQuadruple, case: str, level: int = 1) -> dict:
    p, q, pp, qp = t.words()
    return {
        "n": t.n,
        "level": level,
        "p": p,
        "q": q,
        "p_prime": pp,
        "q_prime": qp,
        "case": case if case in CASES else None,
    }
