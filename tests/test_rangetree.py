"""Range tree: canonical decomposition, counting, weighted sampling."""

import math
import pickle

import numpy as np
import pytest
from scipy import stats

from entrange.approx_shannon import EstimatorIndex
from entrange.core import ColoredPointSet, QueryRect
from entrange.errors import EmptyRange
from entrange.oracle import brute_histogram
from entrange.rangetree import (
    ColorAwareRangeTree,
    ColorTrees,
    Pieces,
    RangeTree,
    color_range_count,
    depth_rows,
    refine_spans,
    tile,
)

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


def stack_tile(lo, hi, a, b):
    """Reference for ``tile``: every node of the mid-split tree meeting
    [a, b), split until covered."""
    out, stack = [], [(lo, hi, 0)]
    while stack:
        u, v, depth = stack.pop()
        if v <= a or b <= u:
            continue
        if a <= u and v <= b:
            out.append((u, v, depth))
            continue
        mid = (u + v) // 2
        stack += [(mid, v, depth + 1), (u, mid, depth + 1)]
    return sorted(out)


def test_tile_matches_stack_walk():
    for n in range(1, 40):
        for a in range(n):
            for b in range(a + 1, n + 1):
                assert sorted(tile(0, n, a, b)) == stack_tile(0, n, a, b), (n, a, b)
    assert sorted(tile(100, 1100, 137, 901)) == stack_tile(100, 1100, 137, 901)


def lexsort_depth_rows(row, key, starts, depths):
    """Reference for ``depth_rows``: one (span, key, entry) lexsort per depth."""
    n = len(row)
    for _ in range(depths):
        span = np.searchsorted(starts, np.arange(n), side="right")
        yield row[np.lexsort((row, key[row], span))], starts
        starts = refine_spans(starts, n)


@pytest.mark.parametrize("n, top", [(1, 1), (7, 1), (300, 1), (300, 4), (1000, 12)])
def test_depth_rows_match_lexsort_reference(rng, n, top):
    # few distinct keys, so most ties fall to the entry; rows are permuted
    # ids drawn from a larger range, under several top spans of unequal size
    key = rng.integers(0, 5, size=3 * n).astype(float)
    row = rng.choice(3 * n, size=n, replace=False)
    starts = np.unique(np.append(0, rng.integers(0, n, size=top - 1)))
    depths = math.ceil(math.log2(n)) + 2
    got = list(depth_rows(row, key, starts, depths))
    want = list(lexsort_depth_rows(row, key, starts, depths))
    assert len(got) == len(want) == depths
    for (g_row, g_starts), (w_row, w_starts) in zip(got, want):
        assert g_row.dtype == w_row.dtype and np.array_equal(g_row, w_row)
        assert np.array_equal(g_starts, w_starts)


def test_derived_arrays_are_counted_and_rebuilt_on_load(rng):
    # the sorted last coordinates, pool colors and others_before are derived
    # on build and on load: left out of the pickle, but counted by nbytes and
    # space_stats
    pts = random_pointset(rng, 300, d=2, m=7, weighted=True)
    index = EstimatorIndex(pts)
    tree = index.tree
    derived = ("last_sorted", "pool_colors", "others_before")
    assert tree.DERIVED == derived
    cp = tree.color_prefix
    stored = (*tree.keys, tree.pool_ids, tree.wpre, tree.wlo, cp.keys, cp.wpre, cp.wlo)
    extra = sum(getattr(tree, name).nbytes for name in derived)
    assert extra > 0
    assert tree.nbytes() == sum(a.nbytes for a in stored) + extra
    assert index.space_stats()["bytes"] == tree.nbytes()
    assert not set(derived) & set(tree.__getstate__())
    loaded = pickle.loads(pickle.dumps(tree))
    for name in derived:
        assert np.array_equal(getattr(loaded, name), getattr(tree, name))
    assert loaded.nbytes() == tree.nbytes()


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


def test_samplers_raise_empty_range_on_empty_pieces(rng):
    pts = random_pointset(rng, 50, d=2, m=4)
    tree = ColorAwareRangeTree.build(pts)
    nowhere = QueryRect((200.0, 200.0), (300.0, 300.0))
    none = Pieces(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(EmptyRange):
        tree.draw(none, rng, 5)
    with pytest.raises(EmptyRange):
        tree.draw(none, rng, 5, tree.exclude(none, 0))
    for size in (None, 1, 50):
        with pytest.raises(EmptyRange):
            tree.sample_index(nowhere, rng, size)
        with pytest.raises(EmptyRange):
            tree.sample_excluding_index(nowhere, 0, rng, size)
        with pytest.raises(EmptyRange):
            EstimatorIndex(pts).oracle(nowhere).sample_point(rng, size)


def first_draw_pvalue(sampler, probs, calls=3000):
    """Chi-square p-value of element 0 of ``calls`` size-50 draws against the
    law ``probs``: a sampler whose draws come out sorted fails it."""
    counts = np.zeros(len(probs))
    for _ in range(calls):
        counts[sampler(50)[0]] += 1
    sel = probs > 0
    assert counts[~sel].sum() == 0
    return stats.chisquare(counts[sel], probs[sel] * calls).pvalue


@pytest.mark.parametrize("d", [1, 2])
def test_public_samplers_return_draws_in_draw_order(d):
    rng = np.random.default_rng(5 + d)
    pts = random_pointset(rng, 24, d=d, m=3, weighted=True)
    tree = ColorAwareRangeTree.build(pts)
    oracle = EstimatorIndex(pts).oracle(QueryRect.full(d))
    excluded = 1
    probs = pts.weights / pts.weights.sum()
    reduced = np.where(pts.colors == excluded, 0.0, pts.weights)
    reduced /= reduced.sum()
    full = QueryRect.full(d)
    cases = (
        (lambda k: tree.sample_index(full, rng, k), probs),
        (lambda k: tree.sample_excluding_index(full, excluded, rng, k), reduced),
        (lambda k: oracle.sample_point(rng, k), probs),
        (lambda k: oracle.excluding(excluded).sample_point(rng, k), reduced),
    )
    for sampler, law in cases:
        assert first_draw_pvalue(sampler, law) >= 1e-3


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
