"""Range tree: canonical decomposition, counting, weighted sampling."""

import numpy as np
import pytest

from entrange.core import ColoredPointSet, QueryRect
from entrange.errors import EmptyRange
from entrange.oracle import brute_histogram
from entrange.rangetree import ColorAwareRangeTree, ColorTrees, RangeTree, color_range_count

from conftest import random_pointset, random_rect


def test_empty_tree():
    pts = ColoredPointSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    tree = RangeTree.build(pts)
    rect = QueryRect((0.0, 0.0), (1.0, 1.0))
    assert len(tree.canonical_nodes(rect)) == 0
    assert tree.range_count(rect) == 0
    assert tree.range_weight(rect) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_canonical_partition_property(rng, d):
    pts = random_pointset(rng, 300, d=d, m=12, weighted=True, duplicate_frac=0.1)
    tree = RangeTree.build(pts)
    for _ in range(60):
        rect = random_rect(rng, d=d)
        pieces = tree.canonical_nodes(rect)
        ids: list[int] = []
        for a, b in zip(pieces.start, pieces.stop):
            ids.extend(tree.pool_ids[a:b].tolist())
        # disjoint and exactly covering the range
        assert len(ids) == len(set(ids))
        want = set(np.nonzero(rect.mask(pts))[0].tolist())
        assert set(ids) == want


def test_full_space_and_empty_rect(rng):
    pts = random_pointset(rng, 128, d=2, m=6)
    tree = RangeTree.build(pts)
    full = QueryRect.full(2)
    assert tree.range_count(full) == 128
    nowhere = QueryRect((200.0, 200.0), (300.0, 300.0))
    assert len(tree.canonical_nodes(nowhere)) == 0


@pytest.mark.parametrize("d", [1, 2])
def test_counts_match_brute_force(rng, d):
    pts = random_pointset(rng, 500, d=d, m=20, weighted=True)
    tree = RangeTree.build(pts)
    for _ in range(200):
        rect = random_rect(rng, d=d)
        mask = rect.mask(pts)
        assert tree.range_count(rect) == int(mask.sum())
        assert abs(tree.range_weight(rect) - float(pts.weights[mask].sum())) < 1e-9


def test_canonical_node_count_polylog(rng):
    n = 1000
    pts = random_pointset(rng, n, d=2, m=30)
    tree = RangeTree.build(pts)
    # calibrated once: 2-D canonical counts stay below C * log2(n)^2 with C=4
    cap = 4 * np.log2(n) ** 2
    worst = 0
    for _ in range(300):
        rect = random_rect(rng, d=2)
        worst = max(worst, len(tree.canonical_nodes(rect)))
    assert worst <= cap


def test_color_range_count(rng):
    pts = random_pointset(rng, 400, d=2, m=10, weighted=True)
    trees = ColorTrees(pts)
    for _ in range(50):
        rect = random_rect(rng, d=2)
        hist = brute_histogram(pts, rect)
        for color in range(10):
            want = hist.entries.get(color, 0.0)
            assert abs(color_range_count(trees, rect, color) - want) < 1e-9
    assert color_range_count(trees, QueryRect.full(2), 99) == 0.0


# ---------------------------------------------------------------------------
# sampling laws


def test_sample_single_point(rng):
    pts = ColoredPointSet(np.array([[5.0, 5.0]]), np.array([3]), num_colors=4)
    tree = RangeTree.build(pts)
    rect = QueryRect((0.0, 0.0), (10.0, 10.0))
    for _ in range(20):
        assert tree.sample_index(rect, rng) == 0


def test_sample_empty_raises(rng):
    pts = random_pointset(rng, 50, d=1)
    tree = RangeTree.build(pts)
    with pytest.raises(EmptyRange):
        tree.sample_index(QueryRect.interval(200.0, 300.0), rng)


def test_sample_uniform_frequencies(rng):
    pts = ColoredPointSet(np.array([[1.0], [2.0], [3.0], [4.0]]), np.arange(4))
    tree = RangeTree.build(pts)
    rect = QueryRect.interval(0.0, 10.0)
    draws = 40_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[tree.sample_index(rect, rng)] += 1
    # each frequency within 3 sigma of 1/4
    sigma = np.sqrt(0.25 * 0.75 / draws)
    assert np.all(np.abs(counts / draws - 0.25) < 3 * sigma + 1e-12)


def test_sample_weighted_ratio(rng):
    pts = ColoredPointSet(np.array([[1.0], [2.0]]), np.array([0, 1]),
                          np.array([1.0, 3.0]))
    tree = RangeTree.build(pts)
    rect = QueryRect.interval(0.0, 10.0)
    draws = 40_000
    hits = sum(tree.sample_index(rect, rng) == 1 for _ in range(draws))
    sigma = np.sqrt(0.75 * 0.25 / draws)
    assert abs(hits / draws - 0.75) < 3 * sigma


def test_sample_law_matches_restriction(rng):
    # restricted to a strict sub-rectangle, empirical law ~ weights in range
    pts = random_pointset(rng, 60, d=2, m=5, weighted=True)
    tree = RangeTree.build(pts)
    rect = QueryRect((20.0, 10.0), (80.0, 90.0))
    mask = rect.mask(pts)
    if not mask.any():
        pytest.skip("degenerate draw")
    probs = np.where(mask, pts.weights, 0.0)
    probs = probs / probs.sum()
    draws = 30_000
    counts = np.zeros(len(pts))
    for _ in range(draws):
        counts[tree.sample_index(rect, rng)] += 1
    assert counts[~mask].sum() == 0
    sel = probs > 0
    sigma = np.sqrt(probs[sel] * (1 - probs[sel]) / draws)
    assert np.all(np.abs(counts[sel] / draws - probs[sel]) < 4 * sigma + 2e-3)


# ---------------------------------------------------------------------------
# color-aware tree and exclusion sampling


@pytest.mark.parametrize("d", [1, 2, 3])
def test_piece_color_masses_sum_to_weight(rng, d):
    pts = random_pointset(rng, 200, d=d, m=8, weighted=True, duplicate_frac=0.1)
    tree = ColorAwareRangeTree.build(pts)
    colors = np.arange(8)
    for _ in range(40):
        pieces = tree.canonical_nodes(random_rect(rng, d=d))
        weights = tree.pieces_weight(pieces)
        for a, b, w in zip(pieces.start, pieces.stop, weights):
            masses = tree.color_prefix.mass(colors, a, b)
            assert abs(masses.sum() - w) < 1e-9
            assert w == pytest.approx(pts.weights[tree.pool_ids[a:b]].sum(), abs=1e-9)


def test_sample_excluding_two_colors(rng):
    pts = ColoredPointSet(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 1]))
    tree = ColorAwareRangeTree.build(pts)
    rect = QueryRect.interval(0.0, 10.0)
    for _ in range(50):
        assert tree.sample_excluding_index(rect, 1, rng) == 0
        assert tree.sample_excluding_index(rect, 0, rng) in (1, 2)


def test_sample_excluding_absent_color_matches_plain_law(rng):
    pts = random_pointset(rng, 40, d=1, m=4, weighted=True)
    tree = ColorAwareRangeTree.build(pts)
    rect = QueryRect.interval(10.0, 90.0)
    mask = rect.mask(pts)
    if not mask.any():
        pytest.skip("degenerate draw")
    probs = np.where(mask, pts.weights, 0.0)
    probs /= probs.sum()
    draws = 30_000
    counts = np.zeros(len(pts))
    for _ in range(draws):
        counts[tree.sample_excluding_index(rect, 99, rng)] += 1
    sel = probs > 0
    sigma = np.sqrt(probs[sel] * (1 - probs[sel]) / draws)
    assert np.all(np.abs(counts[sel] / draws - probs[sel]) < 4 * sigma + 2e-3)


def test_sample_excluding_law(rng):
    pts = random_pointset(rng, 80, d=2, m=5, weighted=True)
    tree = ColorAwareRangeTree.build(pts)
    rect = QueryRect((10.0, 10.0), (90.0, 90.0))
    excluded = 2
    mask = rect.mask(pts) & (np.asarray(pts.colors) != excluded)
    if not mask.any():
        pytest.skip("degenerate draw")
    probs = np.where(mask, pts.weights, 0.0)
    probs /= probs.sum()
    draws = 30_000
    counts = np.zeros(len(pts))
    for _ in range(draws):
        counts[tree.sample_excluding_index(rect, excluded, rng)] += 1
    assert counts[~mask].sum() == 0
    sel = probs > 0
    sigma = np.sqrt(probs[sel] * (1 - probs[sel]) / draws)
    assert np.all(np.abs(counts[sel] / draws - probs[sel]) < 4 * sigma + 2e-3)


def test_sample_excluding_everything_raises(rng):
    pts = ColoredPointSet(np.array([[1.0], [2.0]]), np.array([0, 0]))
    tree = ColorAwareRangeTree.build(pts)
    with pytest.raises(EmptyRange):
        tree.sample_excluding_index(QueryRect.interval(0.0, 10.0), 0, rng)
