"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line with its runtime after asserting the
exact expected values; the time limits are the documented budgets.
"""

import subprocess
import sys
import time
from itertools import product
from pathlib import Path

from catborel import dyck, ideals, loopalgebra, matrices, rootsys, supports
from test_dyck import peaks_at_least

SRC = str(Path(__file__).resolve().parent.parent / "src")

B_SEQUENCE = [1, 4, 18, 82, 370, 1648, 7252, 31582, 136338, 584248]
QA_SEQUENCE = [1, 3, 11, 44, 183, 774, 3294, 14034]
CLASS_SEQUENCE = [1, 4, 21, 100, 455]

PRINTED = {
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


class criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"criterion {self.number:02d} PASS ({elapsed:.2f}s, limit {self.limit}s)")
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        else:
            print(f"criterion {self.number:02d} FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_01_small_matrices_printed():
    with criterion(1, 1):
        for n, rows in PRINTED.items():
            assert matrices.catalan_matrix(n) == rows


def test_criterion_02_symmetry_and_catalan_sums():
    with criterion(2, 1):
        for n in range(1, 13):
            c = matrices.catalan_matrix(n)
            assert matrices.is_symmetric(c)
            assert matrices.entry_sum(c) == dyck.catalan_number(n)


def test_criterion_03_cell_counts_brute_force():
    with criterion(3, 120):
        for n in range(1, 11):
            c = matrices.catalan_matrix(n)
            buckets = {}
            for p in dyck.all_paths(n):
                key = (p.first_peak, p.last_peak)
                buckets[key] = buckets.get(key, 0) + 1
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert buckets.get((i, j), 0) == c[i - 1][j - 1]


def test_criterion_04_closed_forms_and_identities():
    with criterion(4, 5):
        for n in range(2, 13):
            c = matrices.catalan_matrix(n)
            for i in range(1, n):
                for j in range(1, n):
                    assert dyck.cell_count(n, i, j) == c[i - 1][j - 1]
            for j in range(1, n):
                assert c[0][j - 1] == dyck.catalan_triangle(n - 2, n - 1 - j)

        def entry(c, n, i, j):
            return c[i - 1][j - 1] if 1 <= i <= n and 1 <= j <= n else 0

        for n in range(1, 13):
            c = matrices.catalan_matrix(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    lhs = entry(c, n, i, j) + sum(
                        entry(c, n, s, i + j + 1) for s in range(1, n + 1)
                    )
                    rhs = sum(entry(c, n, s, j + 1) for s in range(i, n + 1))
                    if (i, j) not in ((n, n - 1), (n, n)):
                        assert lhs == rhs
                    lhs = entry(c, n, i, j) + entry(c, n, 1, i + j)
                    rhs = entry(c, n, i + 1, j) + entry(c, n, i, j + 1)
                    if not (i >= n - 1 and j >= n - 1):
                        assert lhs == rhs


def test_criterion_05_b_sequence_three_ways():
    with criterion(5, 60):
        for n in range(1, 11):
            assert ideals.b_count_formula(n) == B_SEQUENCE[n - 1]
            c = matrices.catalan_matrix(n)
            assert matrices.dot(c, matrices.omega(c)) == B_SEQUENCE[n - 1]
        for n in range(1, 9):
            assert len(ideals.basic_ideals(n)) == B_SEQUENCE[n - 1]


def test_criterion_06_antichain_bridge():
    with criterion(6, 120):
        # the semilength-1 window is the one-point poset: one antichain
        assert len(ideals.basic_ideals(1)) == 1
        for n in range(2, 7):
            poset = rootsys.window(rootsys.build_root_system(f"A{n - 1}"))
            assert len(poset.antichains()) == B_SEQUENCE[n - 1]


def test_criterion_07_orders_coincide():
    with criterion(7, 60):
        for label in ["A1", "A2", "A3", "A4", "A5", "B3", "C3", "G2"]:
            poset = rootsys.window(rootsys.build_root_system(label))
            assert rootsys.orders_coincide(poset), label


def test_criterion_08_split_search_empty():
    with criterion(8, 60):
        labels = [
            "A1", "A2", "A3", "A4", "A5",
            "B2", "B3", "B4", "C3", "C4",
            "D4", "G2", "F4", "E6", "E7", "E8",
        ]
        for label in labels:
            rs = rootsys.build_root_system(label)
            assert rootsys.highest_root_split_search(rs) == [], label


def test_criterion_09_generator_count_two_ways():
    with criterion(9, 120):
        for n in range(1, 8):
            for b in ideals.basic_ideals(n):
                assert ideals.generators_direct(b) == ideals.generators_formula(b)
        # the unguarded expression undercounts on this ideal, exactly as documented
        b = ideals.BasicIdeal(dyck.DyckPath("rrfrff"), dyck.staircase(3))
        assert b.s_plus == {(1, 2)}
        p, q = ideals.phi(b)
        a, bb = p.first_peak, p.last_peak
        c, d = q.first_peak, q.last_peak
        unguarded = (
            len(p.valleys)
            + peaks_at_least(q, 2)
            - (1 if d == 3 - a else 0)
            - (1 if c == 3 - bb else 0)
        )
        assert unguarded == -1
        assert ideals.generators_direct(b) == 1 == ideals.generators_formula(b)


def test_criterion_10_quasi_abelian_counts_and_oracle():
    with criterion(10, 120):
        for n in range(1, 9):
            assert ideals.quasi_abelian_count(n) == QA_SEQUENCE[n - 1]
        for n in range(1, 6):
            for b in ideals.basic_ideals(n):
                assert ideals.is_quasi_abelian(b) == ideals.is_quasi_abelian_bracket(b)


def test_criterion_11_quasi_nilpotency_degree():
    with criterion(11, 120):
        for n in range(1, 7):
            for b in ideals.basic_ideals(n):
                m = ideals.nd_plus(b)
                value = ideals.qnd_direct(b)
                assert value in (m, m + 1)
                if m == 0:
                    assert value == 1
                assert value == ideals.qnd_from_plus_degree(b)
                assert (value == 1) == ideals.is_quasi_abelian(b)


def _exclusivity_scan(n):
    """Count accepted quadruples and multi-matches over the full product."""
    paths = dyck.all_paths(n)
    top, bottom = dyck.pyramid(n), dyck.staircase(n)
    leq = dyck.path_leq
    pre = {
        x: (
            x == top,
            x == bottom,
            x.floor_valleys,
            x.floor_gap_points,
            dyck.min_partner(x),
        )
        for x in paths
    }
    accepted = 0
    multi = 0
    for p in paths:
        p_top = pre[p][0]
        lo_p = pre[p][4]
        for q in paths:
            q_bottom = pre[q][1]
            v0q, gq = pre[q][2], pre[q][3]
            force_top = (2 not in v0q) or (2 * n - 2 not in v0q)
            q_above = leq(lo_p, q)
            for pp in paths:
                v0p = pre[pp][2]
                lo_pp = pre[pp][4]
                c3_base = p_top and not q_bottom and gq <= v0p
                c4_base = (not p_top) and q_above and (gq | {2, 2 * n - 2}) <= v0p
                for qp in paths:
                    c1 = p_top and q_bottom and qp == top and len(v0p) == 1
                    c2 = p_top and q_bottom and len(v0p) > 1 and leq(lo_pp, qp)
                    c3 = c3_base and leq(lo_pp, qp) and (not force_top or qp == top)
                    c4 = c4_base and qp == top
                    hits = c1 + c2 + c3 + c4
                    if hits:
                        accepted += 1
                    if hits > 1:
                        multi += 1
    return accepted, multi


def test_criterion_12_support_classification():
    with criterion(12, 300):
        for n, expect in enumerate(CLASS_SEQUENCE, start=1):
            assert len(supports.enumerate_classes(n)) == expect
        # mutual exclusivity, exhaustive: evaluator agreement at n <= 4,
        # flag scan over the full fourfold product at n = 5
        for n in (2, 3, 4):
            paths = dyck.all_paths(n)
            count = 0
            for quad in product(paths, repeat=4):
                if supports.classify(*quad):
                    count += 1
            assert count == CLASS_SEQUENCE[n - 1]
        accepted, multi = _exclusivity_scan(5)
        assert accepted == CLASS_SEQUENCE[4]
        assert multi == 0
        for n in range(2, 7):
            for t, _ in supports.enumerate_classes(n):
                assert supports.check_layer_restrictions(*t)
        for n in range(1, 5):
            for t, _ in supports.enumerate_classes(n):
                assert supports.verify_witness(*t)


def test_criterion_13_truncation_oracle():
    with criterion(13, 60):
        for n in range(1, 6):
            for b in ideals.basic_ideals(n):
                assert ideals.verify_basic_in_truncation(b)
        assert not loopalgebra.stable_under(ideals.support_span(3, {(1, 1)}, {(2, 2)}))
        assert not loopalgebra.stable_under(
            ideals.support_span(3, {(1, 1), (1, 2)}, {(1, 1), (2, 2), (1, 2)}, include_delta=False)
        )
        q2 = dyck.staircase(2)
        assert not loopalgebra.stable_under(
            supports.assemble_naive_span(q2, q2, q2, q2)
        )


def _run_verify():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "catborel.cli",
            "verify",
            "--suite",
            "all",
            "--max-n",
            "6",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    return proc.returncode, proc.stdout.encode()


def test_criterion_14_verify_reports_deterministic():
    with criterion(14, 240):
        code1, out1 = _run_verify()
        code2, out2 = _run_verify()
        assert code1 == code2 == 0
        assert out1 == out2
        assert b"FAIL" not in out1
