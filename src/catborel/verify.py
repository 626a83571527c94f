"""Self-verification suites behind the command line ``verify`` command.

Each suite returns a list of named checks with a pass flag and a short
detail string.  The checks replay the package's cross-validations:
formula against brute force, path criterion against matrix bracket,
closure order against natural order.  Bounds scale with ``max_n`` where
a check enumerates, and stay at their cheap fixed defaults where it
evaluates closed formulas.
"""

from __future__ import annotations

from itertools import product

from . import dyck, ideals, loopalgebra, matrices, rootsys, sequences, supports
from .frozen import Frozen

B_SEQUENCE = [1, 4, 18, 82, 370, 1648, 7252, 31582, 136338, 584248]
QUASI_ABELIAN_SEQUENCE = [1, 3, 11, 44, 183, 774, 3294, 14034]
SUPPORT_CLASS_SEQUENCE = [1, 4, 21, 100, 455]
PRINTED_MATRICES = {
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
SPLIT_SEARCH_TYPES = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4",
    "C3", "C4",
    "D4", "G2", "F4", "E6",
)
SPLIT_SEARCH_EXTRA = ("E7", "E8")
ORDER_CHECK_TYPES = ("B3", "C3", "G2")

SUITES = ("matrices", "dyck", "rootsys", "ideals", "supports")


class Check(Frozen):
    __slots__ = ("suite", "name", "ok", "detail")

    def __init__(self, suite: str, name: str, ok: bool, detail: str) -> None:
        set_ = object.__setattr__
        set_(self, "suite", suite)
        set_(self, "name", name)
        set_(self, "ok", ok)
        set_(self, "detail", detail)


def _entry_or_zero(c, n: int, i: int, j: int) -> int:
    return c.entry(i, j) if 1 <= i <= n and 1 <= j <= n else 0


def _catalan_matrices(bound: int) -> dict[int, matrices.ExactMatrix]:
    """C(1)..C(bound), each built once by the tau recursion."""
    return {n: matrices.catalan_matrix(n) for n in range(1, bound + 1)}


def suite_matrices(max_n: int) -> list[Check]:
    out = []
    bound = 12
    cm = _catalan_matrices(bound)
    ok = all(cm[n].rows() == PRINTED_MATRICES[n] for n in range(1, 6))
    out.append(Check("matrices", "small_matrices_pinned", ok, "n=1..5 fixed tables"))
    sym = all(matrices.is_symmetric(cm[n]) for n in range(1, bound + 1))
    out.append(Check("matrices", "symmetry", sym, f"n<={bound}"))
    sums = all(
        matrices.entry_sum(cm[n]) == dyck.catalan_number(n) for n in range(1, bound + 1)
    )
    out.append(Check("matrices", "entry_sum_catalan", sums, f"n<={bound}"))
    b_ok = True
    for n, closed in sequences.b_sequence(10):
        c = cm[n]
        values = (closed, ideals.b_count_formula(n), matrices.dot(c, matrices.omega(c)))
        b_ok = b_ok and values == (B_SEQUENCE[n - 1],) * 3
    out.append(
        Check(
            "matrices", "b_formulas_pinned", b_ok,
            "n<=10 closed form, cell sums, dot(C, omega(C))",
        )
    )
    return out


def suite_dyck(max_n: int) -> list[Check]:
    out = []
    bound = min(max_n, 10)
    bound12 = 12
    cm = _catalan_matrices(bound12)
    cells_ok = True
    for n in range(1, bound + 1):
        c = cm[n]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if len(dyck.cell_paths(n, i, j)) != c.entry(i, j):
                    cells_ok = False
    out.append(
        Check("dyck", "cell_counts_vs_matrix", cells_ok, f"generated cells vs tau matrix n<={bound}")
    )

    tri_ok = all(
        cm[n].entry(1, j) == dyck.catalan_triangle(n - 2, n - 1 - j)
        for n in range(2, bound12 + 1)
        for j in range(1, n)
    )
    out.append(Check("dyck", "first_row_is_triangle", tri_ok, f"n<={bound12}"))

    closed_ok = all(
        cm[n].entry(i, j) == dyck.cell_count_formula(n, i, j)
        for n in range(2, bound12 + 1)
        for i in range(1, n)
        for j in range(1, n)
    )
    out.append(Check("dyck", "closed_form_cells", closed_ok, f"n<={bound12}"))

    pascal_ok = True
    for n in range(1, bound12 + 1):
        c = cm[n]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = _entry_or_zero(c, n, i, j) + sum(
                    _entry_or_zero(c, n, s, i + j + 1) for s in range(1, n + 1)
                )
                rhs = sum(_entry_or_zero(c, n, s, j + 1) for s in range(i, n + 1))
                if (i, j) in ((n, n - 1), (n, n)):
                    if lhs == rhs and n > 1:
                        pascal_ok = False  # excluded corner is genuinely special
                elif lhs != rhs:
                    pascal_ok = False
                lhs2 = _entry_or_zero(c, n, i, j) + _entry_or_zero(c, n, 1, i + j)
                rhs2 = _entry_or_zero(c, n, i + 1, j) + _entry_or_zero(c, n, i, j + 1)
                if i >= n - 1 and j >= n - 1:
                    if lhs2 == rhs2 and n > 1:
                        pascal_ok = False
                elif lhs2 != rhs2:
                    pascal_ok = False
    out.append(
        Check("dyck", "pascal_identities", pascal_ok, f"n<={bound12}, documented corners excluded")
    )

    bound8 = min(max_n, 8)
    minok = True
    for n in range(1, bound8 + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                members = dyck.cell_paths(n, i, j)
                if not members:
                    continue
                low = dyck.cell_min(n, i, j)
                if low not in members or not all(dyck.path_leq(low, p) for p in members):
                    minok = False
    out.append(Check("dyck", "cell_minimum", minok, f"exhaustive n<={bound8}"))
    return out


def suite_rootsys(max_n: int, include_e78: bool = False) -> list[Check]:
    out = []
    bound = min(max_n, 6)
    labels = [f"A{k}" for k in range(1, bound)] + list(ORDER_CHECK_TYPES)
    coincide = True
    for label in labels:
        poset = rootsys.window(rootsys.build_root_system(label))
        if not rootsys.orders_coincide(poset):
            coincide = False
    out.append(Check("rootsys", "orders_coincide", coincide, ", ".join(labels)))

    bridge_ok = True
    for n in range(2, bound + 1):
        poset = rootsys.window(rootsys.build_root_system(f"A{n - 1}"))
        if len(poset.antichains()) != ideals.b_count_formula(n):
            bridge_ok = False
    out.append(Check("rootsys", "antichain_bridge", bridge_ok, f"type A, n<={bound}"))

    types = SPLIT_SEARCH_TYPES + (SPLIT_SEARCH_EXTRA if include_e78 else ())
    empty = True
    for label in types:
        if rootsys.highest_root_split_search(rootsys.build_root_system(label)):
            empty = False
    out.append(Check("rootsys", "split_search_empty", empty, ", ".join(types)))
    return out


def suite_ideals(max_n: int) -> list[Check]:
    out = []
    bound8 = min(max_n, 8)
    agree = True
    for n in range(1, bound8 + 1):
        count = len(ideals.basic_ideals(n))
        if count != B_SEQUENCE[n - 1] or count != ideals.b_count_formula(n):
            agree = False
    out.append(Check("ideals", "enumeration_matches_formulas", agree, f"n<={bound8}"))

    cor_ok = all(
        ideals.b_count_formula(n) <= dyck.catalan_number(n) ** 2 for n in range(1, 11)
    )
    out.append(Check("ideals", "square_bound", cor_ok, "n<=10"))

    bound6 = min(max_n, 6)
    round_ok = True
    for n in range(1, bound6 + 1):
        for b in ideals.basic_ideals(n):
            if ideals.BasicIdeal(*ideals.phi(b)) != b:
                round_ok = False
            if ideals.from_antichain(n, ideals.antichain_of(b)) != b:
                round_ok = False
    out.append(Check("ideals", "encoding_round_trips", round_ok, f"n<={bound6}"))

    bound7 = min(max_n, 7)
    gen_ok = all(
        ideals.generators_direct(b) == ideals.generators_formula(b)
        for n in range(1, bound7 + 1)
        for b in ideals.basic_ideals(n)
    )
    out.append(Check("ideals", "generator_count_two_ways", gen_ok, f"n<={bound7}"))

    qa_closed = [v for _, v in sequences.quasi_abelian_sequence(30)]
    qa_ok = qa_closed[: len(QUASI_ABELIAN_SEQUENCE)] == QUASI_ABELIAN_SEQUENCE and all(
        ideals.quasi_abelian_count(n) == qa_closed[n - 1] for n in range(1, 31)
    )
    out.append(
        Check(
            "ideals", "quasi_abelian_pinned", qa_ok,
            f"closed form pinned n<={len(QUASI_ABELIAN_SEQUENCE)}, LGV cell sums n<=30",
        )
    )

    bound5 = min(max_n, 5)
    qa_oracle = all(
        ideals.is_quasi_abelian(b) == ideals.is_quasi_abelian_bracket(b)
        for n in range(1, bound5 + 1)
        for b in ideals.basic_ideals(n)
    )
    out.append(Check("ideals", "quasi_abelian_bracket_oracle", qa_oracle, f"n<={bound5}"))

    qnd_ok = True
    for n in range(1, bound6 + 1):
        for b in ideals.basic_ideals(n):
            m = ideals.nd_plus(b)
            qd = ideals.qnd_direct(b)
            if qd != ideals.qnd_from_plus_degree(b) or qd not in (m, m + 1):
                qnd_ok = False
            if (m == 0 and qd != 1) or ((qd == 1) != ideals.is_quasi_abelian(b)):
                qnd_ok = False
    out.append(Check("ideals", "qnd_two_ways", qnd_ok, f"n<={bound6}"))

    trunc_ok = all(
        ideals.verify_basic_in_truncation(b)
        for n in range(1, bound5 + 1)
        for b in ideals.basic_ideals(n)
    )
    controls_fail = not loopalgebra.stable_under(
        ideals.support_span(3, {(1, 1)}, {(2, 2)})
    ) and not loopalgebra.stable_under(
        ideals.support_span(3, {(1, 1), (1, 2)}, {(1, 1), (2, 2), (1, 2)}, include_delta=False)
    )
    out.append(
        Check(
            "ideals",
            "matrix_oracle",
            trunc_ok and controls_fail,
            f"n<={bound5}, negative controls fail",
        )
    )
    return out


def suite_supports(max_n: int) -> list[Check]:
    out = []
    bound5 = min(max_n, 5)
    counts_ok = all(
        len(supports.enumerate_classes(n)) == SUPPORT_CLASS_SEQUENCE[n - 1]
        for n in range(1, bound5 + 1)
    )
    out.append(Check("supports", "class_counts_pinned", counts_ok, f"n<={bound5}"))

    bound4 = min(max_n, 4)
    excl_ok = all(
        sum(supports.classify(*quad) is not None for quad in product(dyck.all_paths(n), repeat=4))
        == SUPPORT_CLASS_SEQUENCE[n - 1]
        for n in range(2, bound4 + 1)
    )
    out.append(Check("supports", "full_product_scan", excl_ok, f"n<={bound4}"))

    bound6 = min(max_n, 6)
    restr_ok = all(
        supports.check_layer_restrictions(*t)
        for n in range(2, bound6 + 1)
        for t, _ in supports.enumerate_classes(n)
    )
    out.append(Check("supports", "layer_restrictions", restr_ok, f"n<={bound6}"))

    # build_witness re-classifies, so a listed quadruple that classify
    # rejects must fail here rather than raise.  The naive layers of
    # shapes I and II fail first at n = 3, so both bracket checks reach it.
    wit_bound = max(bound4, 3)
    wit_ok = all(
        supports.classify(*t) == case and supports.verify_witness(*t)
        for n in range(1, wit_bound + 1)
        for t, case in supports.enumerate_classes(n)
    )
    q2 = dyck.staircase(2)
    control = not loopalgebra.stable_under(supports.assemble_naive_span(q2, q2, q2, q2))
    out.append(Check("supports", "witness_brackets", wit_ok and control, f"n<={wit_bound}"))

    embed_ok = all(
        supports.classify(*ideals.phi(b), dyck.staircase(n), dyck.pyramid(n)) is not None
        for n in range(1, bound4 + 1)
        for b in ideals.basic_ideals(n)
    )
    out.append(Check("supports", "basic_ideal_embedding", embed_ok, f"n<={bound4}"))

    # the level only translates a support, so each witness moved one loop
    # degree up must stay stable in a truncation one degree longer
    level_ok = all(
        supports.classify(*t) == case
        and loopalgebra.stable_under(loopalgebra.one_degree_up(supports.build_witness(*t)))
        for n in range(1, 4)
        for t, case in supports.enumerate_classes(n)
    )
    level_control = not loopalgebra.stable_under(
        loopalgebra.one_degree_up(supports.assemble_naive_span(q2, q2, q2, q2))
    )
    out.append(
        Check(
            "supports", "level_two_witnesses", level_ok and level_control,
            "n<=3, negative control fails",
        )
    )
    return out


# Below this the enumerating checks would examine only the trivial
# semilength-1 ideal or nothing at all, and pass vacuously.
MIN_MAX_N = 2


def run_suites(names, max_n: int = 6, include_e78: bool = False) -> list[Check]:
    """Run the named suites; ``max_n`` must be at least ``MIN_MAX_N``, and
    ``include_e78`` is refused unless the rootsys suite runs."""
    if max_n < MIN_MAX_N:
        raise ValueError(f"max-n must be at least {MIN_MAX_N}, got {max_n}")
    if include_e78 and "rootsys" not in names:
        raise ValueError("--include-e78 needs the rootsys suite")
    table = {
        "matrices": lambda: suite_matrices(max_n),
        "dyck": lambda: suite_dyck(max_n),
        "rootsys": lambda: suite_rootsys(max_n, include_e78),
        "ideals": lambda: suite_ideals(max_n),
        "supports": lambda: suite_supports(max_n),
    }
    out: list[Check] = []
    for name in names:
        if name not in table:
            raise ValueError(f"unknown suite {name!r}")
        out.extend(table[name]())
    return out
