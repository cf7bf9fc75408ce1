"""Partitioners: DP vs exhaustive, approximation factors, greedy traces."""

import math

import numpy as np
import pytest

from entrange import partition
from entrange.approx import EstimatorIndex
from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind
from entrange.errors import TooManyBuckets
from entrange.exact1d import Exact1DIndex
from entrange.exactnd import ExactNDIndex
from entrange.oracle import exhaustive_partition
from entrange.partition import (
    Bucketing1D,
    EstimateBackend,
    ExactIndexBackend,
    OracleBackend,
    greedy_tree_split,
    maxpart_approx,
    maxpart_dp,
    smallest_nonzero_expected_entropy,
    sumpart_approx,
)

from conftest import random_pointset


def seq_points(colors, coords=None):
    colors = np.asarray(colors, dtype=np.int64)
    if coords is None:
        coords = np.arange(len(colors), dtype=float)
    return ColoredPointSet(np.asarray(coords, dtype=float), colors)


def test_maxpart_dp_two_blocks():
    pts = seq_points([0, 0, 1, 1])
    out = maxpart_dp(pts, 2, OracleBackend(pts))
    assert out.cuts == (0, 2, 4)
    assert out.value == 0.0


def test_maxpart_dp_trivial_k():
    pts = seq_points([0, 1, 0, 2, 1])
    backend = OracleBackend(pts)
    one = maxpart_dp(pts, 1, backend)
    assert one.cuts == (0, 5)
    assert abs(one.value - backend.expected_range(0, 5)) < 1e-12
    full = maxpart_dp(pts, 5, backend)
    assert full.value == 0.0
    assert full.cuts == (0, 1, 2, 3, 4, 5)


def test_maxpart_dp_equals_exhaustive(rng):
    for trial in range(40):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(4, n) + 1))
        pts = seq_points(rng.integers(0, 4, size=n))
        want, _ = exhaustive_partition(pts, k, SHANNON, objective="max")
        got = maxpart_dp(pts, k, OracleBackend(pts))
        assert abs(got.value - want) < 1e-9
        assert max(got.scores) == pytest.approx(got.value, abs=1e-12)


def test_maxpart_dp_on_exact_rows_equals_exhaustive(rng):
    for trial in range(30):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, min(4, n) + 1))
        pts = ColoredPointSet(rng.integers(0, 6, size=n).astype(float),
                              rng.integers(0, 4, size=n), rng.uniform(0.5, 2.0, size=n))
        backend = ExactIndexBackend(Exact1DIndex(pts, t=0.5))
        for objective, agg in (("min", "max"), ("max", "min")):
            want, _ = exhaustive_partition(pts, k, SHANNON, objective=agg,
                                           minimize=objective == "min")
            got = maxpart_dp(pts, k, backend, objective=objective)
            assert abs(got.value - want) < 1e-9
            assert len(got.cuts) == k + 1 and all(a < b for a, b in zip(got.cuts, got.cuts[1:]))


def test_maxpart_dp_streams_its_rows():
    import tracemalloc

    rng = np.random.default_rng(2000)
    pts = ColoredPointSet(rng.uniform(0, 1e3, size=2000), rng.integers(0, 32, size=2000),
                          rng.uniform(0.5, 2.0, size=2000))
    backend = ExactIndexBackend(Exact1DIndex(pts, t=0.5))
    tracemalloc.start()
    try:
        out = maxpart_dp(pts, 8, backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.cuts) == 9
    assert peak < 4_000_000  # a row per start, kept, peaks at about 16 MB


def test_maxpart_dp_monotone_in_k(rng):
    pts = random_pointset(rng, 60, d=1, m=5)
    backend = OracleBackend(pts)
    values = [maxpart_dp(pts, k, backend).value for k in range(1, 9)]
    for a, b in zip(values[:-1], values[1:]):
        assert b <= a + 1e-12


def test_maxpart_dp_maximize_min(rng):
    pts = seq_points([0, 1, 0, 1, 2, 2])
    got = maxpart_dp(pts, 2, OracleBackend(pts), objective="max")
    # brute force max-min
    best = -1.0
    backend = OracleBackend(pts)
    for cut in range(1, 6):
        best = max(best, min(backend.expected_range(0, cut), backend.expected_range(cut, 6)))
    assert abs(got.value - best) < 1e-9


def test_maxpart_rejects_bad_k():
    pts = seq_points([0, 1])
    with pytest.raises(TooManyBuckets):
        maxpart_dp(pts, 3, OracleBackend(pts))
    with pytest.raises(ValueError):
        maxpart_dp(pts, 0, OracleBackend(pts))


def test_partition_refusals():
    # unknown modes and objectives, and approximations at eps <= 0
    pts = seq_points([0, 1, 0, 1])
    backend = OracleBackend(pts)
    with pytest.raises(ValueError, match="unknown estimator mode 'median'"):
        EstimateBackend(EstimatorIndex(pts), mode="median")
    for split in (maxpart_dp, greedy_tree_split):
        with pytest.raises(ValueError, match="unknown objective 'mean'"):
            split(pts, 2, backend, objective="mean")
    for approximate in (maxpart_approx, sumpart_approx):
        for eps in (0.0, -0.5):
            with pytest.raises(ValueError, match="eps must be positive"):
                approximate(pts, 2, eps, backend)


def test_greedy_cover_refuses_an_item_above_the_threshold():
    # three items, each scoring 1.0: rows(i)[j - i] = j - i
    def rows(i):
        return np.arange(4.0 - i)

    assert partition._greedy_cover(3, 3, 1.0, rows) == [0, 1, 2, 3]
    assert partition._greedy_cover(3, 2, 2.0, rows) == [0, 2, 3]
    assert partition._greedy_cover(3, 3, 0.5, rows) is None   # a single item exceeds it
    assert partition._greedy_cover(3, 1, 2.0, rows) is None   # more than k buckets


def test_maxpart_approx_on_one_color_input_through_exact_backends(monkeypatch):
    # one color has no nonzero expected entropy, so the ladder's floor is
    # tiny; an exact backend's rounding can leave about 1e-16 on a bucket,
    # where the zero cover then fails and the ladder is searched. The value
    # is 0 up to rounding either way
    thresholds = []
    cover = partition._greedy_cover
    monkeypatch.setattr(partition, "_greedy_cover",
                        lambda n, k, threshold, rows: thresholds.append(threshold)
                        or cover(n, k, threshold, rows))
    searched = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        pts = ColoredPointSet(rng.uniform(0.0, 10.0, n), np.zeros(n, dtype=np.int64),
                              rng.uniform(0.1, 3.0, n))
        assert smallest_nonzero_expected_entropy(pts) == 0.0
        for alpha in (None, 2.0):
            kind = SHANNON if alpha is None else renyi_kind(alpha)
            index = Exact1DIndex(pts, 1.0, () if alpha is None else (alpha,))
            k = 1 + seed % min(n, 3)
            thresholds.clear()
            out = maxpart_approx(pts, k, 0.1, ExactIndexBackend(index, kind))
            assert len(out.cuts) == k + 1 and abs(out.value) < 1e-13
            searched += len(thresholds) > 1
    assert searched > 0


def test_maxpart_approx_zero_case():
    pts = seq_points([0, 0, 1, 1])
    out = maxpart_approx(pts, 2, 0.1, OracleBackend(pts))
    assert out.value == 0.0
    assert out.k == 2


def test_maxpart_approx_within_factor(rng):
    for trial in range(15):
        n = int(rng.integers(20, 120))
        k = int(rng.integers(2, 6))
        pts = seq_points(rng.integers(0, 5, size=n))
        backend = OracleBackend(pts)
        for eps in (0.1, 0.4):
            opt = maxpart_dp(pts, k, backend).value
            got = maxpart_approx(pts, k, eps, backend).value
            assert got <= (1 + eps) * opt + 1e-9
            assert got >= opt - 1e-9  # cannot beat the optimum


def test_maxpart_approx_k_equals_n(rng):
    pts = seq_points(rng.integers(0, 3, size=7))
    out = maxpart_approx(pts, 7, 0.2, OracleBackend(pts))
    assert out.value == 0.0
    assert out.cuts == tuple(range(8))


def test_smallest_nonzero_expected_entropy(rng):
    pts = seq_points([0, 1, 1, 1])
    # two cheapest distinct-color weights are 1 and 1: pair mass 2, H=1
    assert smallest_nonzero_expected_entropy(pts) == pytest.approx(2 / 4)
    single = seq_points([0, 0, 0])
    assert smallest_nonzero_expected_entropy(single) == 0.0


def loop_smallest_nonzero_expected_entropy(pts):
    """The per-point loop reference: each color's least positive weight,
    then the two smallest of those."""
    per_color_min = {}
    for c, w in zip(pts.colors.tolist(), pts.weights.tolist()):
        if w > 0 and w < per_color_min.get(c, float("inf")):
            per_color_min[c] = w
    if len(per_color_min) < 2:
        return 0.0
    w1, w2 = sorted(per_color_min.values())[:2]
    pair = w1 * math.log2((w1 + w2) / w1) + w2 * math.log2((w1 + w2) / w2)
    return pair / float(pts.weights.sum())


def test_smallest_nonzero_expected_entropy_matches_loop(rng):
    # bit for bit, with zero weights, ties, absent colors and one color left
    for trial in range(300):
        n = int(rng.integers(1, 40))
        weights = np.round(rng.uniform(0.0, 3.0, n), 1) * (rng.random(n) < 0.8)
        pts = ColoredPointSet(rng.uniform(0.0, 1.0, n), rng.integers(0, 6, n), weights,
                              num_colors=8)
        want = loop_smallest_nonzero_expected_entropy(pts)
        assert smallest_nonzero_expected_entropy(pts) == want, trial


def test_sumpart_trivial_cases(rng):
    pts = seq_points([0] * 6)
    for k in (1, 2, 3):
        assert sumpart_approx(pts, k, 0.2, OracleBackend(pts)).value == 0.0
    pts = seq_points([0, 1, 0, 1])
    backend = OracleBackend(pts)
    one = sumpart_approx(pts, 1, 0.3, backend)
    assert one.value == pytest.approx(backend.expected_range(0, 4))


def test_sumpart_within_factor_of_exhaustive(rng):
    for trial in range(25):
        n = int(rng.integers(5, 13))
        k = int(rng.integers(1, min(4, n) + 1))
        pts = seq_points(rng.integers(0, 4, size=n))
        want, _ = exhaustive_partition(pts, k, SHANNON, objective="sum")
        for eps in (0.1, 0.5):
            got = sumpart_approx(pts, k, eps, OracleBackend(pts))
            assert got.value <= (1 + eps) * want + 1e-9
            assert got.value >= want - 1e-9


def test_exact_backend_matches_oracle(rng):
    distinct = rng.permutation(np.arange(80, dtype=float))
    duplicated = rng.integers(0, 20, size=80).astype(float)
    for coords in (distinct, duplicated):
        pts = ColoredPointSet(coords, rng.integers(0, 6, size=80))
        oracle_b = OracleBackend(pts)
        exact_b = ExactIndexBackend(Exact1DIndex(pts, t=0.5))
        for i in range(81):
            for j in range(i, 81):
                assert abs(oracle_b.expected_range(i, j) - exact_b.expected_range(i, j)) < 1e-6
        got = maxpart_dp(pts, 3, exact_b)
        want = maxpart_dp(pts, 3, oracle_b)
        assert abs(got.value - want.value) < 1e-6


def row_inputs():
    rng = np.random.default_rng(61)
    n = 61
    weights = rng.uniform(0.5, 2.0, size=n)
    zero = weights.copy()
    zero[rng.integers(0, n, size=20)] = 0.0
    heavy = weights.copy()
    heavy[rng.integers(0, n, size=4)] = 10.0 ** rng.uniform(12, 15, size=4)
    distinct = rng.permutation(np.arange(n, dtype=float))
    return {
        "all-zero-weights": (distinct, rng.integers(0, 5, size=n), np.zeros(n)),
        "duplicates": (rng.integers(0, 12, size=n).astype(float), rng.integers(0, 5, size=n),
                       weights),
        "one-color": (distinct, np.zeros(n, dtype=np.int64), weights),
        "zero-weights": (distinct, rng.integers(0, 5, size=n), zero),
        "heavy-1e15": (distinct, rng.integers(0, 5, size=n), heavy),
    }


@pytest.mark.parametrize("case", sorted(row_inputs()))
@pytest.mark.parametrize("alpha", [None, 2.0])
def test_exact_rows_match_spans(case, alpha):
    coords, colors, weights = row_inputs()[case]
    pts = ColoredPointSet(coords, colors, weights)
    kind = SHANNON if alpha is None else renyi_kind(alpha)
    exact = ExactIndexBackend(Exact1DIndex(pts, t=0.5, orders=(2.0,)), kind)
    oracle = OracleBackend(pts, kind)
    n = len(pts)
    for i in range(n + 1):
        row = exact.expected_row(i)
        assert row.shape == (n - i + 1,)
        want = [exact.expected_range(i, j) for j in range(i, n + 1)]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-9)
        # the oracle's row is its own spans, bit for bit
        assert oracle.expected_row(i).tolist() == [oracle.expected_range(i, j)
                                                  for j in range(i, n + 1)]


@pytest.mark.parametrize("mode", ["additive", "multiplicative"])
@pytest.mark.parametrize("alpha", [None, 2.0])
def test_estimate_backend_matches_oracle(mode, alpha):
    # 40 points: every range holds fewer points than an estimate would draw,
    # so each estimate answers exactly and the jobs agree with the oracle
    rng = np.random.default_rng(40)
    pts = ColoredPointSet(rng.permutation(np.arange(40, dtype=float)),
                          rng.integers(0, 5, size=40), rng.uniform(0.5, 2.0, size=40))
    est = EstimateBackend(EstimatorIndex(pts), mode=mode, alpha=alpha)
    oracle = OracleBackend(pts, SHANNON if alpha is None else renyi_kind(alpha))
    for job in (lambda b: maxpart_dp(pts, 3, b), lambda b: sumpart_approx(pts, 3, 0.2, b),
                lambda b: maxpart_approx(pts, 3, 0.2, b)):
        got, want = job(est), job(oracle)
        assert got.cuts == want.cuts
        np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-12)
        assert abs(got.value - want.value) <= 1e-12
    got = greedy_tree_split(pts, 4, est).scores
    np.testing.assert_allclose(got, greedy_tree_split(pts, 4, oracle).scores, rtol=0, atol=1e-12)
    assert est.describe()["mode"] == mode


def test_estimate_backend_scores_an_empty_span_zero():
    pts = seq_points([0, 1, 2, 1])
    backend = EstimateBackend(EstimatorIndex(pts), rng=np.random.default_rng(1))
    assert [backend.expected_range(i, i) for i in range(5)] == [0.0] * 5
    assert backend.expected_range(3, 1) == 0.0


def test_estimate_backend_rejects_duplicate_coordinates():
    pts = ColoredPointSet(np.array([0.0, 1.0, 1.0, 2.0]), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="distinct coordinates"):
        EstimateBackend(EstimatorIndex(pts))


# ---------------------------------------------------------------------------
# greedy tree splitter


def quadrant_points():
    # four clusters, one color each
    coords, colors = [], []
    offsets = [(0, 0), (10, 0), (0, 10), (10, 10)]
    for color, (ox, oy) in enumerate(offsets):
        for i in range(4):
            coords.append((ox + i % 2, oy + i // 2))
            colors.append(color)
    return ColoredPointSet(np.array(coords, dtype=float), np.array(colors))


def test_greedy_tree_k1(rng):
    pts = quadrant_points()
    part = greedy_tree_split(pts, 1, OracleBackend(pts))
    assert len(part.leaves) == 1
    assert part.leaves[0] is part.root
    assert part.trace == []


def test_greedy_tree_quadrants():
    pts = quadrant_points()
    part = greedy_tree_split(pts, 4, OracleBackend(pts))
    assert len(part.leaves) == 4
    assert all(score == 0.0 for score in part.scores)
    sets = sorted(tuple(sorted(leaf.point_ids.tolist())) for leaf in part.leaves)
    assert sets == [tuple(range(0, 4)), tuple(range(4, 8)),
                    tuple(range(8, 12)), tuple(range(12, 16))]


def test_greedy_tree_trace_extremeness(rng):
    pts = random_pointset(rng, 100, d=2, m=7)
    for objective in ("min", "max"):
        part = greedy_tree_split(pts, 6, OracleBackend(pts), objective=objective)
        assert len(part.leaves) == 6
        for step in part.trace:
            chosen_score = step["scores"][step["chosen"]]
            splittable_scores = [step["scores"][i] for i in step["splittable"]]
            if objective == "min":
                assert chosen_score == max(splittable_scores)
            else:
                assert chosen_score == min(splittable_scores)
            # tie rule: oldest among the extreme
            extremes = [i for i in step["splittable"]
                        if step["scores"][i] == chosen_score]
            assert step["chosen"] == min(extremes)


def test_greedy_tree_children_partition_parent(rng):
    # 3-D points; k = n, which leaves one-point leaves unsplittable; and a
    # few integer coordinates, so that medians tie and a right child starts
    # at the tied coordinate
    tied = ColoredPointSet(rng.integers(0, 3, size=(40, 2)).astype(float),
                           rng.integers(0, 4, size=40))
    for pts, k in ((random_pointset(rng, 60, d=3, m=5), 5),
                   (random_pointset(rng, 12, d=2, m=3), 12), (tied, 9)):
        part = greedy_tree_split(pts, k, OracleBackend(pts))
        ids = np.concatenate([leaf.point_ids for leaf in part.leaves])
        assert sorted(ids.tolist()) == list(range(len(pts)))

        def walk(node):
            if node.is_leaf:
                return
            got = np.concatenate([node.left.point_ids, node.right.point_ids])
            assert sorted(got.tolist()) == sorted(node.point_ids.tolist())
            walk(node.left)
            walk(node.right)

        walk(part.root)
    assert all(len(leaf.point_ids) == 1 for leaf in greedy_tree_split(
        pts, len(pts), OracleBackend(pts)).leaves)


def test_greedy_tree_over_an_exact_nd_index_matches_the_oracle(rng):
    tied = ColoredPointSet(rng.integers(0, 3, size=(60, 2)).astype(float),
                           rng.integers(0, 4, size=60), rng.uniform(0.5, 2.0, size=60))
    for d, alpha in ((2, None), (3, 2.0), ("tied", None)):
        pts = tied if d == "tied" else random_pointset(rng, 80, d=d, m=5, weighted=True)
        kind = SHANNON if alpha is None else renyi_kind(alpha)
        index = ExactNDIndex(pts, 0.5, () if alpha is None else (alpha,))
        got = greedy_tree_split(pts, 6, ExactIndexBackend(index, kind))
        want = greedy_tree_split(pts, 6, OracleBackend(pts, kind))
        assert [leaf.node_id for leaf in got.leaves] == [leaf.node_id for leaf in want.leaves]
        for a, b in zip(got.leaves, want.leaves):
            assert a.rect == b.rect and a.point_ids.tolist() == b.point_ids.tolist()
        np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-9)


def test_greedy_tree_too_many_buckets():
    pts = quadrant_points()
    with pytest.raises(TooManyBuckets):
        greedy_tree_split(pts, 17, OracleBackend(pts))
