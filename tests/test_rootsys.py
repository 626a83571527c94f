import random

import pytest

from catborel.ideals import b_count_formula
from catborel.rootsys import (
    FiniteRootSystem,
    WindowPoset,
    WindowRoot,
    _check_partial_order,
    build_root_system,
    cartan_matrix,
    highest_root_split_search,
    orders_coincide,
    window,
)


def simple_roots(system):
    """The unit vectors of the simple-root basis."""
    r = system.rank
    return tuple(tuple(1 if k == i else 0 for k in range(r)) for i in range(r))


def delta(poset):
    """The imaginary root of a window, at level 1 with zero finite part."""
    return WindowRoot(tuple(0 for _ in range(poset.system.rank)), 1)


def closure_leq(poset, a, b):
    """a <= b in the closure order, read from the poset's bit rows."""
    return bool(poset.closure[poset.index(a)] >> poset.index(b) & 1)


# classical positive-root counts and highest roots over the simple basis
EXPECTED = {
    "A1": (1, (1,)),
    "A2": (3, (1, 1)),
    "A3": (6, (1, 1, 1)),
    "A4": (10, (1, 1, 1, 1)),
    "A5": (15, (1, 1, 1, 1, 1)),
    "B2": (4, (1, 2)),
    "B3": (9, (1, 2, 2)),
    "B4": (16, (1, 2, 2, 2)),
    "C3": (9, (2, 2, 1)),
    "C4": (16, (2, 2, 2, 1)),
    "D4": (12, (1, 2, 1, 1)),
    "G2": (6, (3, 2)),
    "F4": (24, (2, 3, 4, 2)),
    "E6": (36, (1, 2, 2, 3, 2, 1)),
    "E7": (63, (2, 2, 3, 4, 3, 2, 1)),
    "E8": (120, (2, 3, 4, 6, 5, 4, 3, 2)),
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_positive_root_tables(label):
    count, highest = EXPECTED[label]
    rs = build_root_system(label)
    assert len(rs.positive_roots) == count
    assert rs.highest_root == highest
    assert set(simple_roots(rs)) <= set(rs.positive_roots)


def test_type_a_count_formula():
    for k in range(1, 8):
        rs = build_root_system(f"A{k}")
        assert len(rs.positive_roots) == k * (k + 1) // 2


@pytest.mark.parametrize(
    "label, count",
    [("A28", 28 * 29 // 2), ("B21", 21 * 21), ("C21", 21 * 21), ("D21", 21 * 20)],
)
def test_positive_root_counts_at_large_rank(label, count):
    # r(r+1)/2, r^2, r^2 and r(r-1) positive roots
    assert len(build_root_system(label).positive_roots) == count


def signed_orbit_positive_half(label):
    """Positive half of the orbit of the simple roots under the simple
    reflections, taken over both signs with no reflection skipped."""
    cartan = cartan_matrix(label[0], int(label[1:]))
    rank = len(cartan)
    frontier = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    orbit = set(frontier)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank):
                pairing = sum(c * b for c, b in zip(cartan[i], beta))
                refl = tuple(b - pairing * (k == i) for k, b in enumerate(beta))
                if refl not in orbit:
                    orbit.add(refl)
                    nxt.append(refl)
        frontier = nxt
    positive = [v for v in orbit if min(v) >= 0]
    assert len(orbit) == 2 * len(positive)  # every root is positive or negative
    return sorted(positive, key=lambda v: (sum(v), v))


@pytest.mark.parametrize("label", sorted(EXPECTED) + ["D5"])
def test_positive_roots_match_signed_orbit_reference(label):
    assert build_root_system(label).positive_roots == tuple(signed_orbit_positive_half(label))


def test_non_finite_type_rejected():
    with pytest.raises(ValueError):
        build_root_system("H3")


def test_window_sizes():
    for k, expect in [(1, 3), (2, 7), (3, 13), (4, 21), (5, 31)]:
        poset = window(build_root_system(f"A{k}"))
        assert len(poset.elements) == expect


def test_window_one_step_example():
    poset = window(build_root_system("A2"))
    a1 = WindowRoot((1, 0), 0)
    shifted = WindowRoot((0, -1), 1)  # -alpha2 + delta
    assert closure_leq(poset, a1, shifted)
    assert not closure_leq(poset, shifted, a1)


def test_delta_is_unique_maximum():
    for label in ["A1", "A3", "B3", "G2"]:
        poset = window(build_root_system(label))
        top = delta(poset)
        for w in poset.elements:
            assert closure_leq(poset, w, top)
            if w != top:
                assert not closure_leq(poset, top, w)


def test_orders_coincide():
    for label in ["A1", "A2", "A3", "A4", "A5", "B3", "C3", "G2"]:
        assert orders_coincide(window(build_root_system(label))), label


def test_closure_is_subset_of_natural():
    for label in ["A3", "B3", "C3", "G2", "D4"]:
        poset = window(build_root_system(label))
        for closure_row, natural_row in zip(poset.closure, poset.natural):
            assert closure_row & ~natural_row == 0


def test_corrupted_table_detected():
    poset = window(build_root_system("A2"))
    rows = list(poset.closure)
    rows[0] ^= 1 << 1
    corrupted = WindowPoset(
        system=poset.system,
        elements=poset.elements,
        natural=poset.natural,
        closure=tuple(rows),
    )
    assert not orders_coincide(corrupted)


@pytest.mark.parametrize("label", ["A4", "F4", "E8"])
def test_index_is_position_in_elements(label):
    poset = window(build_root_system(label))
    for i, w in enumerate(poset.elements):
        assert poset.index(w) == i
    # the highest root plus a simple root is no root, and a vector of the
    # wrong length is no root of this system
    above = tuple(c + (k == 0) for k, c in enumerate(poset.system.highest_root))
    for w in (WindowRoot(above, 0), WindowRoot((1,), 0)):
        with pytest.raises(KeyError):
            poset.index(w)


def test_antichains_smallest_window():
    poset = window(build_root_system("A1"))
    chains = poset.antichains()
    assert len(chains) == 4
    sizes = sorted(len(c) for c in chains)
    assert sizes == [1, 1, 1, 2]


def test_antichain_counts_match_ideal_counts():
    for n in range(2, 7):
        poset = window(build_root_system(f"A{n - 1}"))
        assert len(poset.antichains()) == b_count_formula(n)


def test_coideal_of_delta():
    poset = window(build_root_system("A2"))
    assert poset.coideal_of([delta(poset)]) == frozenset({delta(poset)})


def test_coideal_minimal_round_trip():
    for label in ["A1", "A2", "A3", "B3"]:
        poset = window(build_root_system(label))
        for antichain in poset.antichains():
            upset = poset.coideal_of(antichain)
            assert poset.minimal_elements(upset) == antichain


def test_coideal_rejects_comparable_input():
    poset = window(build_root_system("A2"))
    a1 = WindowRoot((1, 0), 0)
    with pytest.raises(ValueError):
        poset.coideal_of([a1, delta(poset)])
    with pytest.raises(ValueError):
        poset.minimal_elements([a1])  # not upward closed


def test_cover_relations_shape():
    poset = window(build_root_system("A2"))
    covers = poset.cover_relations()
    assert set(covers) == {w.label for w in poset.elements}
    # delta covers nothing; every non-delta element reaches delta
    assert covers["delta"] == []
    total_edges = sum(len(v) for v in covers.values())
    assert total_edges >= len(poset.elements) - 1


@pytest.mark.parametrize(
    "label",
    [
        "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4", "E6", "E7", "E8",
        "A40", "B30", "C30", "D30",
    ],
)
def test_split_search_is_empty(label):
    assert highest_root_split_search(build_root_system(label)) == []


def test_split_search_reports_violations_when_conditions_relaxed():
    # sanity of the search loop: with the non-root condition dropped,
    # splits do exist in type A
    rs = build_root_system("A3")
    found = []
    for xi in rs.positive_roots:
        for zeta in rs.positive_roots:
            eta = tuple(h - a - b for h, a, b in zip(rs.highest_root, xi, zeta))
            if any(c < 0 for c in eta) or all(c == 0 for c in eta):
                continue
            found.append((xi, zeta, eta))
    assert found, "relaxed scan should produce candidate triples"



# ---------------------------------------------------------------------------
# brute references: pairwise tuple tables, Warshall on bools, O(n^3) checks


def brute_tables(poset):
    """Natural and closure tables of the window, one pair at a time."""
    system = poset.system
    highest = system.highest_root
    pos_set = frozenset(system.positive_roots)
    all_roots = pos_set | {tuple(-c for c in v) for v in pos_set}
    elements = poset.elements
    n = len(elements)
    natural = [[False] * n for _ in range(n)]
    step = [[False] * n for _ in range(n)]
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            k = y.level - x.level
            if k >= 0:
                diff = tuple(b - a + k * h for a, b, h in zip(x.finite, y.finite, highest))
                natural[i][j] = all(c >= 0 for c in diff)
            diff = tuple(b - a for a, b in zip(x.finite, y.finite))
            if i == j:
                step[i][j] = True
            elif k == 0:
                step[i][j] = diff in pos_set
            elif k == 1:
                step[i][j] = diff in all_roots or all(c == 0 for c in diff)
    closure = [row[:] for row in step]
    for m in range(n):
        for i in range(n):
            if closure[i][m]:
                for j in range(n):
                    if closure[m][j]:
                        closure[i][j] = True
    return natural, closure


def brute_is_partial_order(table):
    n = len(table)
    return (
        all(table[i][i] for i in range(n))
        and not any(table[i][j] and table[j][i] for i in range(n) for j in range(n) if i != j)
        and all(
            table[i][k]
            for i in range(n)
            for j in range(n)
            if table[i][j]
            for k in range(n)
            if table[j][k]
        )
    )


def brute_covers(elements, table):
    n = len(table)
    covers = {w.label: [] for w in elements}
    for i in range(n):
        for j in range(n):
            if i != j and table[i][j] and not any(
                table[i][k] and table[k][j] for k in range(n) if k not in (i, j)
            ):
                covers[elements[i].label].append(elements[j].label)
    return {key: sorted(v) for key, v in covers.items()}


WINDOW_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B3", "B4", "C3", "C4",
    "D4", "D5", "G2", "F4", "E6", "E7",
]


def rows_of(table):
    """Bit rows of a table of bools: bit j of row i is table[i][j]."""
    return tuple(sum(1 << j for j, v in enumerate(row) if v) for row in table)


@pytest.mark.parametrize("label", WINDOW_TYPES)
def test_window_matches_brute_reference(label):
    poset = window(build_root_system(label))
    natural, closure = brute_tables(poset)
    assert poset.natural == rows_of(natural)
    assert poset.closure == rows_of(closure)
    assert brute_is_partial_order(closure)
    assert poset.cover_relations() == brute_covers(poset.elements, closure)
    # the natural order's covers, from a poset whose closure rows are natural
    as_natural = WindowPoset(poset.system, poset.elements, poset.natural, poset.natural)
    assert as_natural.cover_relations() == brute_covers(poset.elements, natural)


@pytest.mark.parametrize("label", sorted(set(EXPECTED) | set(WINDOW_TYPES)))
def test_window_elements_in_window_order(label):
    # positive roots at level 0, delta, then the negated positive roots at
    # level 1, both runs in the order of positive_roots
    rs = build_root_system(label)
    zero = tuple(0 for _ in range(rs.rank))
    assert window(rs).elements == (
        *(WindowRoot(v, 0) for v in rs.positive_roots),
        WindowRoot(zero, 1),
        *(WindowRoot(tuple(-c for c in v), 1) for v in rs.positive_roots),
    )


def test_cover_relations_of_a_relation_that_is_not_an_order():
    # the rows and the brute loop read the same definition on any table
    poset = window(build_root_system("A2"))
    n = len(poset.elements)
    rows = [[bool(r >> j & 1) for j in range(n)] for r in poset.closure]
    rows[0][1] = not rows[0][1]
    rows[3][3] = False
    rows[5][2] = True
    corrupted = WindowPoset(poset.system, poset.elements, poset.natural, rows_of(rows))
    assert corrupted.cover_relations() == brute_covers(poset.elements, rows)


def brute_antichains(poset):
    """Antichains by the pairwise extend: depth first, each later element
    tested against every chosen member with ``closure_leq``."""
    elements = poset.elements
    out = []
    chosen = []

    def comparable(a, b):
        return closure_leq(poset, a, b) or closure_leq(poset, b, a)

    def extend(start):
        for i in range(start, len(elements)):
            if all(not comparable(elements[i], c) for c in chosen):
                chosen.append(elements[i])
                out.append(frozenset(chosen))
                extend(i + 1)
                chosen.pop()

    extend(0)
    return out


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B3"])
def test_antichains_match_pairwise_reference_in_order(label):
    poset = window(build_root_system(label))
    assert poset.antichains() == brute_antichains(poset)


def _chain_rows():
    # 0 <= 1 <= 2
    return [0b111, 0b110, 0b100]


def test_check_partial_order_accepts_a_chain():
    _check_partial_order(_chain_rows(), "chain")


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda rows: rows.__setitem__(1, 0b100), "reflexive"),  # diagonal bit of 1 missing
        (lambda rows: rows.__setitem__(1, 0b111), "antisymmetric"),  # 0 <= 1 <= 0
        (lambda rows: rows.__setitem__(0, 0b011), "transitive"),  # 0 <= 1 <= 2, not 0 <= 2
        # both of the last two: transitivity is checked first, since distinct
        # rows decide antisymmetry only for a transitive relation
        pytest.param(
            lambda rows: rows.__setitem__(slice(0, 2), [0b011, 0b111]),
            "transitive",
            id="neither-transitive-nor-antisymmetric",
        ),
    ],
)
def test_check_partial_order_negative_controls(edit, problem):
    rows = _chain_rows()
    edit(rows)
    with pytest.raises(AssertionError, match=f"not {problem}"):
        _check_partial_order(rows, "chain")


def brute_split_search(system):
    """The split search on tuples, one root and one simple root at a time."""
    pos = frozenset(system.positive_roots)
    rank = system.rank
    highest = system.highest_root
    hits = []
    for xi in system.positive_roots:
        for zeta in system.positive_roots:
            eta = tuple(h - a - b for h, a, b in zip(highest, xi, zeta))
            if any(c < 0 for c in eta) or all(c == 0 for c in eta):
                continue
            if tuple(a + b for a, b in zip(xi, zeta)) in pos:
                continue
            if any(
                tuple(c + (k == i) for k, c in enumerate(v)) in pos
                for i in range(rank)
                if eta[i] > 0
                for v in (xi, zeta)
            ):
                continue
            hits.append((xi, zeta, eta))
    return hits


SPLIT_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("label", SPLIT_TYPES)
def test_split_search_matches_brute_reference(label):
    system = build_root_system(label)
    assert highest_root_split_search(system) == brute_split_search(system)
    # with roots removed (simple and highest roots kept) splits do exist,
    # so the two searches are also compared on nonempty results: the bare
    # basis, every third root removed, and 20 seeded random shares removed
    roots = system.positive_roots
    keep = set(simple_roots(system)) | {system.highest_root}
    thinnings = [
        [v for v in roots if v in keep],
        [v for k, v in enumerate(roots) if v in keep or k % 3],
    ]
    rng = random.Random(f"split {label}")
    for _ in range(20):
        share = rng.random()
        thinnings.append([v for v in roots if v in keep or rng.random() < share])
    found = []
    for kept in thinnings:
        thinned = FiniteRootSystem(system.label, tuple(kept), system.highest_root)
        hits = highest_root_split_search(thinned)
        assert hits == brute_split_search(thinned)
        found.append(len(hits))
    if system.rank >= 3:
        assert found[0] > 0
    # A1 and A2 have no root to remove
    assert sum(found[2:]) > 0 or keep == set(roots)
