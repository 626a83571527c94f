"""Self-verification suites behind the command line ``verify`` command.

Each suite lists its checks as ``(name, detail, verdicts)``, where
``verdicts`` lazily yields one truth value per object the check examines,
and one runner turns the listing into ``Check`` values: a check passes
only when it examined at least one object and every verdict holds, so a
check that sees nothing fails.  The checks replay the package's
cross-validations: formula against brute force, path criterion against
matrix bracket, closure order against natural order.  Bounds scale with
``max_n`` where a check enumerates, and stay at their cheap fixed
defaults where it evaluates closed formulas.
"""

from __future__ import annotations

from itertools import chain, product

from . import dyck, ideals, loopalgebra, matrices, rootsys, sequences, supports
from .frozen import Frozen

B_SEQUENCE = [1, 4, 18, 82, 370, 1648, 7252, 31582, 136338, 584248]
QUASI_ABELIAN_SEQUENCE = [1, 3, 11, 44, 183, 774, 3294, 14034]
SUPPORT_CLASS_SEQUENCE = [1, 4, 21, 100, 455]
PRINTED_MATRICES = {
    1: ((1,),),
    2: ((1, 0), (0, 1)),
    3: ((1, 1, 0), (1, 1, 0), (0, 0, 1)),
    4: ((2, 2, 1, 0), (2, 2, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1)),
    5: (
        (5, 5, 3, 1, 0),
        (5, 5, 3, 1, 0),
        (3, 3, 2, 1, 0),
        (1, 1, 1, 1, 0),
        (0, 0, 0, 0, 1),
    ),
}
SPLIT_SEARCH_TYPES = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4",
    "C3", "C4",
    "D4", "G2", "F4", "E6",
)
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


def _run(suite: str, checks) -> list[Check]:
    """One ``Check`` per ``(name, detail, verdicts)``.  Every verdict is
    read, and the check passes when at least one was read and all hold."""
    out = []
    for name, detail, verdicts in checks:
        examined = failed = 0
        for verdict in verdicts:
            examined += 1
            failed += not verdict
        out.append(Check(suite, name, examined > 0 and not failed, detail))
    return out


def _entry_or_zero(c, i: int, j: int) -> int:
    return c[i - 1][j - 1] if 1 <= i <= len(c) and 1 <= j <= len(c) else 0


def _pascal_holds(c, i: int, j: int) -> bool:
    """Both Pascal-type identities of C(n) at (i, j).  Each is genuinely
    false at its documented corner cells, so there it must fail (n > 1)."""
    n, e = len(c), _entry_or_zero
    first = e(c, i, j) + sum(e(c, s, i + j + 1) for s in range(1, n + 1)) == sum(
        e(c, s, j + 1) for s in range(i, n + 1)
    )
    second = e(c, i, j) + e(c, 1, i + j) == e(c, i + 1, j) + e(c, i, j + 1)
    if (i, j) in ((n, n - 1), (n, n)):
        first = not first or n == 1
    if i >= n - 1 and j >= n - 1:
        second = not second or n == 1
    return first and second


def _is_cell_minimum(n: int, i: int, j: int, members) -> bool:
    low = dyck.cell_min(n, i, j)
    return low in members and all(dyck.path_leq(low, p) for p in members)


def _qnd_agrees(b) -> bool:
    """qnd two ways, within one of the plus degree m, 1 when m = 0, and 1
    exactly for the quasi-abelian ideals."""
    m = ideals.nd_plus(b)
    qd = ideals.qnd_direct(b)
    return (
        qd == ideals.qnd_from_plus_degree(b)
        and qd in (m, m + 1)
        and (m != 0 or qd == 1)
        and (qd == 1) == ideals.is_quasi_abelian(b)
    )


def _qnd_row_agrees(n: int) -> bool:
    """The conjectural closed-form row of the qnd histogram against the
    pair scan, and its total against the listed ideals."""
    row = dict(sequences.qnd_row(n))
    return row == ideals.qnd_histogram(n) and sum(row.values()) == len(ideals.basic_ideals(n))


def _catalan_matrices(bound: int) -> dict[int, matrices.Matrix]:
    """C(1)..C(bound), each built once by the tau recursion."""
    return {n: matrices.catalan_matrix(n) for n in range(1, bound + 1)}


def suite_matrices(max_n: int) -> list[Check]:
    bound = 12
    cm = _catalan_matrices(bound)
    return _run("matrices", [
        ("small_matrices_pinned", "n=1..5 fixed tables", (
            cm[n] == PRINTED_MATRICES[n] for n in range(1, 6)
        )),
        ("symmetry", f"n<={bound}", (matrices.is_symmetric(cm[n]) for n in range(1, bound + 1))),
        ("entry_sum_catalan", f"n<={bound}", (
            matrices.entry_sum(cm[n]) == dyck.catalan_number(n) for n in range(1, bound + 1)
        )),
        ("b_formulas_pinned", "n<=10 closed form, cell sums, dot(C, omega(C))", (
            (closed, ideals.b_count_formula(n), matrices.dot(cm[n], matrices.omega(cm[n])))
            == (B_SEQUENCE[n - 1],) * 3
            for n, closed in sequences.b_sequence(10)
        )),
    ])


def suite_dyck(max_n: int) -> list[Check]:
    bound = min(max_n, 10)
    bound8 = min(max_n, 8)
    bound12 = 12
    cm = _catalan_matrices(bound12)
    return _run("dyck", [
        ("cell_counts_vs_matrix", f"generated cells vs tau matrix n<={bound}", (
            len(dyck.cell_paths(n, i, j)) == cm[n][i - 1][j - 1]
            for n in range(1, bound + 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )),
        ("first_row_is_triangle", f"n<={bound12}", (
            cm[n][0][j - 1] == dyck.catalan_triangle(n - 2, n - 1 - j)
            for n in range(2, bound12 + 1)
            for j in range(1, n)
        )),
        ("closed_form_cells", f"n<={bound12}", (
            cm[n][i - 1][j - 1] == dyck.cell_count(n, i, j)
            for n in range(2, bound12 + 1)
            for i in range(1, n)
            for j in range(1, n)
        )),
        ("pascal_identities", f"n<={bound12}, documented corners excluded", (
            _pascal_holds(cm[n], i, j)
            for n in range(1, bound12 + 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )),
        ("cell_minimum", f"exhaustive n<={bound8}", (
            _is_cell_minimum(n, i, j, members)
            for n in range(1, bound8 + 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if (members := dyck.cell_paths(n, i, j))
        )),
    ])


def suite_rootsys(max_n: int) -> list[Check]:
    bound = min(max_n, 6)
    labels = [f"A{k}" for k in range(1, bound)] + list(ORDER_CHECK_TYPES)
    # both window checks read one window per label, A1..A(bound-1) shared
    windows = {label: rootsys.window(rootsys.build_root_system(label)) for label in labels}
    return _run("rootsys", [
        ("orders_coincide", ", ".join(labels), (
            rootsys.orders_coincide(windows[label]) for label in labels
        )),
        ("antichain_bridge", f"type A, n<={bound}", (
            len(windows[f"A{n - 1}"].antichains()) == ideals.b_count_formula(n)
            for n in range(2, bound + 1)
        )),
        ("split_search_empty", ", ".join(SPLIT_SEARCH_TYPES), (
            not rootsys.highest_root_split_search(rootsys.build_root_system(label))
            for label in SPLIT_SEARCH_TYPES
        )),
    ])


def suite_ideals(max_n: int) -> list[Check]:
    bound5 = min(max_n, 5)
    bound6 = min(max_n, 6)
    bound7 = min(max_n, 7)
    bound8 = min(max_n, 8)
    pinned_qa = dict(enumerate(QUASI_ABELIAN_SEQUENCE, 1))
    controls_fail = not loopalgebra.stable_under(
        ideals.support_span(3, {(1, 1)}, {(2, 2)})
    ) and not loopalgebra.stable_under(
        ideals.support_span(3, {(1, 1), (1, 2)}, {(1, 1), (2, 2), (1, 2)}, include_delta=False)
    )

    def listed(bound):
        return ((n, b) for n in range(1, bound + 1) for b in ideals.basic_ideals(n))

    return _run("ideals", [
        # per n: the listing's count, and its records read two ways
        ("enumeration_matches_formulas", f"n<={bound8}", chain.from_iterable((
            len(ideals.basic_ideals(n)) == B_SEQUENCE[n - 1] == ideals.b_count_formula(n),
            list(ideals.basic_records(n)) == list(map(ideals.ideal_record, ideals.basic_ideals(n))),
        ) for n in range(1, bound8 + 1))),
        ("square_bound", "n<=10", (
            ideals.b_count_formula(n) <= dyck.catalan_number(n) ** 2 for n in range(1, 11)
        )),
        ("encoding_round_trips", f"n<={bound6}", (
            ideals.BasicIdeal(*ideals.phi(b)) == b
            and ideals.from_antichain(n, ideals.antichain_of(b)) == b
            for n, b in listed(bound6)
        )),
        ("generator_count_two_ways", f"n<={bound7}", (
            ideals.generators_direct(b) == ideals.generators_formula(b)
            for _, b in listed(bound7)
        )),
        (
            "quasi_abelian_pinned",
            f"closed form pinned n<={len(QUASI_ABELIAN_SEQUENCE)}, LGV cell sums n<=30",
            (
                pinned_qa.get(n, q) == q == ideals.quasi_abelian_count(n)
                for n, q in sequences.quasi_abelian_sequence(30)
            ),
        ),
        ("quasi_abelian_bracket_oracle", f"n<={bound5}", (
            ideals.is_quasi_abelian(b) == ideals.is_quasi_abelian_bracket(b)
            for _, b in listed(bound5)
        )),
        ("qnd_two_ways", f"n<={bound6}", chain(
            (_qnd_agrees(b) for _, b in listed(bound6)),
            map(_qnd_row_agrees, range(1, bound6 + 1)),
        )),
        ("matrix_oracle", f"n<={bound5}, negative controls fail", (
            controls_fail and ideals.verify_basic_in_truncation(b) for _, b in listed(bound5)
        )),
    ])


def suite_supports(max_n: int) -> list[Check]:
    bound4 = min(max_n, 4)
    bound5 = min(max_n, 5)
    bound6 = min(max_n, 6)
    # build_witness re-classifies, so a listed quadruple that classify
    # rejects must fail here rather than raise.  The naive layers of
    # shapes I and II fail first at n = 3, so both bracket checks reach it.
    wit_bound = max(bound4, 3)
    q2 = dyck.staircase(2)
    naive = supports.assemble_naive_span(q2, q2, q2, q2)
    control = not loopalgebra.stable_under(naive)
    level_control = not loopalgebra.stable_under(loopalgebra.one_degree_up(naive))

    def listed(low, bound):
        return (tc for n in range(low, bound + 1) for tc in supports.enumerate_classes(n))

    return _run("supports", [
        ("class_counts_pinned", f"n<={bound5}", (
            len(supports.enumerate_classes(n)) == SUPPORT_CLASS_SEQUENCE[n - 1]
            for n in range(1, bound5 + 1)
        )),
        ("full_product_scan", f"n<={bound4}", (
            sum(supports.classify(*q) is not None for q in product(dyck.all_paths(n), repeat=4))
            == SUPPORT_CLASS_SEQUENCE[n - 1]
            for n in range(2, bound4 + 1)
        )),
        ("layer_restrictions", f"n<={bound6}", (
            supports.check_layer_restrictions(*t) for t, _ in listed(2, bound6)
        )),
        ("witness_brackets", f"n<={wit_bound}", (
            control and supports.classify(*t) == case and supports.verify_witness(*t)
            for t, case in listed(1, wit_bound)
        )),
        ("basic_ideal_embedding", f"n<={bound4}", (
            supports.classify(*ideals.phi(b), dyck.staircase(n), dyck.pyramid(n)) is not None
            for n in range(1, bound4 + 1)
            for b in ideals.basic_ideals(n)
        )),
        # the level only translates a support, so each witness moved one
        # loop degree up must stay stable in a truncation one degree longer
        ("level_two_witnesses", "n<=3, negative control fails", (
            level_control
            and supports.classify(*t) == case
            and loopalgebra.stable_under(loopalgebra.one_degree_up(supports.build_witness(*t)))
            for t, case in listed(1, 3)
        )),
    ])


# Below this the enumerating checks would examine only the trivial
# semilength-1 ideal, or nothing at all and fail.
MIN_MAX_N = 2


def run_suites(names, max_n: int) -> list[Check]:
    """Run the named suites of ``SUITES``, each ``suite_<name>``; ``max_n``
    must be at least ``MIN_MAX_N``."""
    if max_n < MIN_MAX_N:
        raise ValueError(f"max-n must be at least {MIN_MAX_N}, got {max_n}")
    out: list[Check] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        # looked up per call, so that a wrapper set on a suite function is used
        out.extend(globals()[f"suite_{name}"](max_n))
    return out
