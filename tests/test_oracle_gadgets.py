"""Brute-force oracle and the hardness-reduction point-set generators."""

import math

import numpy as np
import pytest

from entrange import oracle
from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind

from conftest import random_pointset, random_rect


def test_brute_entropy_nine_points():
    # nine highlighted points: 2 red, 3 green, 4 blue
    coords = [(1, 1), (2, 2), (1, 3), (2, 4), (3, 1), (3, 3), (4, 2), (4, 4), (2.5, 2.5)]
    colors = [0, 0, 1, 1, 1, 2, 2, 2, 2]
    pts = ColoredPointSet(np.array(coords), np.array(colors))
    rect = QueryRect((0.0, 0.0), (5.0, 5.0))
    s = oracle.brute_entropy(pts, rect, SHANNON)
    assert abs(s.value - 1.5304930567574824) < 1e-9
    r = oracle.brute_entropy(pts, rect, renyi_kind(2.0))
    assert abs(r.value - 1.4818690077570527) < 1e-9
    empty = oracle.brute_entropy(pts, QueryRect((10.0, 10.0), (11.0, 11.0)))
    assert empty.value == 0.0 and empty.count == 0.0


def test_expected_entropy_of_a_massless_set_is_zero():
    # a total mass of 0 scores every bucket 0, not 0/0
    pts = ColoredPointSet(np.arange(4.0), [0, 1, 0, 1], np.zeros(4))
    backend = oracle.OracleBackend(pts)
    assert backend.total_weight == 0.0
    assert backend.expected_range(0, 4) == 0.0
    assert backend.expected_row(0).tolist() == [0.0] * 5
    assert backend.expected_rect(QueryRect.full(1)) == 0.0


def test_brute_entropy_matches_direct_histogram(rng):
    pts = random_pointset(rng, 120, d=2, m=9, weighted=True)
    for _ in range(30):
        rect = random_rect(rng, d=2)
        hist = oracle.brute_histogram(pts, rect)
        s = oracle.brute_entropy(pts, rect)
        total = hist.total
        want = sum((w / total) * math.log2(total / w) for w in hist.entries.values()) if total else 0.0
        assert abs(s.value - want) < 1e-12


# ---------------------------------------------------------------------------
# boolean matrix-product gadget

DEMO_A = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]])
DEMO_B = np.array([[0, 1, 1], [1, 1, 1], [0, 0, 0]])


def test_matrix_gadget_structure():
    g = oracle.build_matrix_gadget(DEMO_A, DEMO_B)
    assert len(g.points) == 2 * 9          # 2n points for sqrt(n)=3
    assert g.points.num_colors == 3
    # worked example: the (2,2) query interval spans points 6 through 14
    rect = g.intervals[(1, 1)]
    assert rect.lo[0] == 6.0 and rect.hi[0] == 14.0
    inside = [i + 1 for i in range(18) if rect.lo[0] <= i + 1 <= rect.hi[0]]
    assert inside == list(range(6, 15))


def _check_gadget_pair(a, b, alphas=(2.0,)):
    # the decision predicate: product bit is 0 iff range entropy equals the
    # closed form, and each shared color pushes the true entropy strictly below
    g = oracle.build_matrix_gadget(a, b)
    s = g.size
    for i in range(s):
        for j in range(s):
            bit = g.product_bit(i, j)
            h = oracle.brute_entropy(g.points, g.intervals[(i, j)], SHANNON).value
            ref = g.shannon_reference(i, j)
            assert (bit == 0) == (abs(h - ref) < 1e-9), (i, j)
            if bit == 1:
                assert h < ref - 1e-9, (i, j)
            for alpha in alphas:
                ha = oracle.brute_entropy(g.points, g.intervals[(i, j)], renyi_kind(alpha)).value
                refa = g.renyi_reference(i, j, alpha)
                assert (bit == 0) == (abs(ha - refa) < 1e-9), (i, j, alpha)
                if bit == 1:
                    assert ha < refa - 1e-9, (i, j, alpha)


def test_matrix_gadget_worked_example():
    _check_gadget_pair(DEMO_A, DEMO_B, alphas=(1.5, 2.0, 3.0))


def test_matrix_gadget_zero_matrices():
    z = np.zeros((3, 3), dtype=int)
    _check_gadget_pair(z, z)
    g = oracle.build_matrix_gadget(z, z)
    assert all(g.product_bit(i, j) == 0 for i in range(3) for j in range(3))


def test_matrix_gadget_refuses_non_square_or_unequal_matrices():
    square, wide = np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int)
    for a, b in ((wide, wide), (square, wide), (wide, square), (square, np.zeros((3, 3)))):
        with pytest.raises(ValueError, match="matrices must be square and same size"):
            oracle.build_matrix_gadget(a, b)


def test_matrix_gadget_random_pairs(rng):
    for _ in range(12):
        a = (rng.random((3, 3)) < 0.5).astype(int)
        b = (rng.random((3, 3)) < 0.5).astype(int)
        _check_gadget_pair(a, b)
    for _ in range(4):
        a = (rng.random((8, 8)) < 0.4).astype(int)
        b = (rng.random((8, 8)) < 0.6).astype(int)
        _check_gadget_pair(a, b)


# ---------------------------------------------------------------------------
# set-intersection gadget


def _check_set_gadget(sets, alphas=(2.0,)):
    g = oracle.build_set_intersection_gadget(sets)
    assert len(g.points) == 2 * g.total_items
    for i in range(len(sets)):
        for j in range(len(sets)):
            rect = g.query_rect(i, j)
            hist = oracle.brute_histogram(g.points, rect)
            n_ij = g.pair_count(i, j)
            assert hist.total == n_ij, (i, j)
            h = oracle.brute_entropy(g.points, rect, SHANNON).value
            if g.disjoint(i, j):
                assert abs(h - math.log2(n_ij)) < 1e-9
            else:
                assert h < math.log2(n_ij) - 1e-12
            for alpha in alphas:
                ha = oracle.brute_entropy(g.points, rect, renyi_kind(alpha)).value
                if g.disjoint(i, j):
                    assert abs(ha - math.log2(n_ij)) < 1e-9
                else:
                    assert ha < math.log2(n_ij) - 1e-12


def test_set_gadget_disjoint_singletons():
    _check_set_gadget([{1}, {2}, {3}], alphas=(1.5, 2.0))


def test_set_gadget_identical_sets():
    _check_set_gadget([{1, 2, 3}, {1, 2, 3}])


def test_set_gadget_random_families(rng):
    for _ in range(10):
        g_count = int(rng.integers(2, 7))
        sets = []
        for _ in range(g_count):
            size = int(rng.integers(1, 8))
            sets.append(set(int(x) for x in rng.integers(0, 12, size=size)))
        _check_set_gadget(sets)


def test_set_gadget_rejects_empty_sets():
    with pytest.raises(ValueError):
        oracle.build_set_intersection_gadget([{1}, set()])


# ---------------------------------------------------------------------------
# exhaustive partitioning reference


def test_exhaustive_partition_trivial():
    pts = ColoredPointSet(np.arange(4.0), np.array([0, 0, 1, 1]))
    value, cuts = oracle.exhaustive_partition(pts, 2, objective="max")
    assert value == 0.0
    assert cuts == (0, 2, 4)


def test_exhaustive_partition_k_equals_n():
    pts = ColoredPointSet(np.arange(5.0), np.array([0, 1, 0, 1, 0]))
    value, _ = oracle.exhaustive_partition(pts, 5, objective="max")
    assert value == 0.0
