"""Range tree: canonical decomposition, counting, weighted sampling."""

import math
import sys
import timeit

import numpy as np
import pytest

from entrange import rangetree
from entrange.approx import (
    EstimatorIndex,
    estimate_additive,
    estimate_additive_renyi,
    estimate_moment,
    estimate_moment_excluding,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
    exact_statistic,
)
from entrange.core import (SHANNON, ColoredPointSet, EntropySummary, QueryRect,
                           entropy_from_statistic, renyi_kind)
from entrange.errors import EmptyRange
from entrange.exactnd import ExactNDIndex
from entrange.oracle import brute_entropy, brute_histogram
from entrange.rangetree import (
    FOLD_POINTS,
    ColorTrees,
    Pieces,
    RangeTree,
    depth_rows,
    refine_spans,
    tile,
)
from entrange.storage import load_index, save_index

from conftest import profiled_calls, random_pointset, random_rect


def range_count(tree, rect):
    """Points in the range: the sizes of its canonical pieces."""
    pieces = tree.canonical_nodes(rect)
    return sum(pieces.stop) - sum(pieces.start)


def draw_ids(tree, rect, rng, size, excluded=None):
    """Point ids of ``size`` draws by weight from the range, without the
    points of the excluded color when given: ``draw`` on its pieces."""
    pieces = tree.canonical_nodes(rect)
    exclusion = None if excluded is None else tree.exclude(pieces, excluded)
    return tree.pool_ids[tree.draw(pieces, rng, size, exclusion)]


def test_empty_tree():
    pts = ColoredPointSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    tree = RangeTree(pts)
    rect = QueryRect((0.0, 0.0), (1.0, 1.0))
    pieces = tree.canonical_nodes(rect)
    assert len(pieces) == 0
    assert range_count(tree, rect) == 0
    assert tree.pieces_weight(pieces).sum() == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_canonical_partition_property(rng, d):
    pts = random_pointset(rng, 300, d=d, m=12, weighted=True, duplicate_frac=0.1)
    tree = RangeTree(pts)
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
        hist = brute_histogram(pts, rect).entries
        masses = [hist[c] for c in sorted(hist) if hist[c] > 0.0]
        np.testing.assert_allclose(tree.color_masses(pieces), masses, rtol=1e-12)


def stack_tile(lo, hi, a, b):
    """Reference for ``tile``: every node of the mid-split tree meeting
    [a, b), split until covered, found depth first and so left to right."""
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
    return out


def test_tile_matches_stack_walk():
    # the same nodes in the same left-to-right order
    for n in range(1, 40):
        for a in range(n):
            for b in range(a + 1, n + 1):
                assert tile(0, n, a, b) == stack_tile(0, n, a, b), (n, a, b)
    assert tile(100, 1100, 137, 901) == stack_tile(100, 1100, 137, 901)


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


def reference_levels(pts, depths):
    """Each tree level's rows and their top span starts, laid out level by
    level from the points: level 0 is the positive-weight ids by first
    coordinate, and the last level's rows make the pool."""
    ids = np.flatnonzero(pts.weights > 0.0)
    ids = ids[np.lexsort((ids, pts.coords[ids, 0]))]
    levels = [([ids], [np.zeros(1, dtype=np.int64)])]
    for k in range(1, pts.dim if len(ids) else 1):
        next_rows, next_parts = [], []
        for row, starts in zip(*levels[-1]):
            for sorted_row, depth_starts in depth_rows(row, pts.coords[:, k], starts, depths):
                next_rows.append(sorted_row)
                next_parts.append(depth_starts)
        levels.append((next_rows, next_parts))
    return levels


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 100, 257, 1000])
def test_keys_derived_from_the_pool(rng, d, n):
    # each upper level's keys are read off the pool; they must equal the
    # coordinates of that level's rows, with duplicate coordinates and about
    # a fifth of the weights zero
    pts = random_pointset(rng, n, d=d, m=5, weighted=True, duplicate_frac=0.3)
    weights = np.where(rng.random(n) < 0.2, 0.0, pts.weights)
    pts = ColoredPointSet(pts.coords, pts.colors, weights, num_colors=5)
    tree = RangeTree(pts)
    levels = reference_levels(pts, tree.rows)
    assert np.array_equal(np.concatenate(levels[-1][0]), tree.pool_ids)
    assert len(tree.keys) == (d - 1 if tree.n else 0)
    for k, key in enumerate(tree.keys):
        want = pts.coords[np.concatenate(levels[k][0]), k]
        assert key.dtype == want.dtype and np.array_equal(key, want), k


def cut_keys(tree):
    """The last level's cut keys of the former layout, rebuilt from the
    points: each pool entry's slice start times (n + 1) plus its last
    coordinate's rank, which sort the whole pool as one array."""
    pts, n = tree.pts, tree.n
    rows, parts = reference_levels(pts, tree.rows)[-1]
    assert np.array_equal(np.concatenate(rows), tree.pool_ids)
    first = tree.pool_ids[:n]
    rank = np.zeros(len(pts), dtype=np.int64)
    rank[first] = pts.coords[first, -1].searchsorted(pts.coords[first, -1])
    span = np.concatenate([r * n + np.repeat(starts, np.diff(starts, append=n))
                           for r, starts in enumerate(parts)])
    return span * (n + 1) + rank[tree.pool_ids]


def cut_key_pieces(tree, keys, rect):
    """Reference for ``canonical_nodes``: the upper trees walked with
    ``searchsorted`` on their coordinate rows, then every last-level node
    cut by one search of the cut keys."""
    n, nodes = tree.n, []

    def walk(k, row, lo, hi):
        coords = tree.keys[k][row * n + lo:row * n + hi]
        a = lo + int(coords.searchsorted(rect.lo[k], "left"))
        b = lo + int(coords.searchsorted(rect.hi[k], "right"))
        if a < b:
            for u, v, depth in tile(lo, hi, a, b):
                child = row * tree.rows + depth
                if k + 2 < tree.dim:
                    walk(k + 1, child, u, v)
                else:
                    nodes.append(child * n + u)

    if n:
        walk(0, 0, 0, n) if tree.dim > 1 else nodes.append(0)
    if not nodes:
        return [], []
    last = tree.pts.coords[tree.pool_ids[:n], -1]
    base = np.array(nodes, dtype=np.int64) * (n + 1)
    a = keys.searchsorted(base + last.searchsorted(rect.lo[-1], "left"))
    b = keys.searchsorted(base + last.searchsorted(rect.hi[-1], "right"))
    keep = a < b
    return a[keep].tolist(), b[keep].tolist()


def grid_case(rng, n, d):
    """n points on an 8-wide integer grid (ties on every axis, the last
    included), every fifth weight zero, and rectangles on the grid, with
    bounds off the grid, at +-inf and at +-float max, empty and full ones."""
    coords = rng.integers(0, 8, size=(n, d)).astype(float)
    weights = rng.uniform(0.5, 2.0, size=n)
    weights[::5] = 0.0
    pts = ColoredPointSet(coords, rng.integers(0, 6, size=n), weights)
    big, inf = sys.float_info.max, math.inf
    rects = [QueryRect.full(d), QueryRect((-inf,) * d, (inf,) * d),
             QueryRect((-big,) * d, (-big,) * d), QueryRect((big,) * d, (inf,) * d),
             QueryRect((-inf,) * d, (-0.5,) * d), QueryRect((7.5,) * d, (big,) * d),
             QueryRect((2.5,) * d, (2.75,) * d), QueryRect((3.0,) * d, (3.0,) * d)]
    ends = [-inf, -big, -1.0, 0.0, 2.0, 3.5, 7.0, 8.0, big, inf]
    for _ in range(150):
        lo = rng.integers(-1, 9, size=d).astype(float)
        hi = lo + rng.integers(0, 6, size=d)
        lo[rng.random(d) < 0.15] = -inf
        hi[rng.random(d) < 0.15] = inf
        rects.append(QueryRect(tuple(lo.tolist()), tuple(hi.tolist())))
        pair = sorted(rng.choice(ends, size=2))
        rects.append(QueryRect((pair[0],) * d, (pair[1],) * d))
    return pts, rects


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [150, 400])
def test_walk_matches_cut_key_search(d, n):
    # 120 and 320 positive-weight points: ranks on uint8 and on uint16
    pts, rects = grid_case(np.random.default_rng(10 * n + d), n, d)
    tree = RangeTree(pts)
    assert tree.last_rank.dtype == np.min_scalar_type(n - n // 5)
    keys = cut_keys(tree)
    empty = 0
    for rect in rects:
        got = tree.canonical_nodes(rect)
        assert (got.start, got.stop) == cut_key_pieces(tree, keys, rect), rect
        assert all(type(x) is int for x in got.start + got.stop)
        assert range_count(tree, rect) == int((rect.mask(pts) & (pts.weights > 0)).sum())
        assert got.points == range_count(tree, rect)
        empty += not len(got)
    assert 0 < empty < len(rects)
    zero = ColoredPointSet(pts.coords, pts.colors, np.zeros(n))
    assert len(RangeTree(zero).canonical_nodes(QueryRect.full(d))) == 0


def test_canonical_nodes_makes_no_numpy_call(rng):
    pts = random_pointset(rng, 300, d=3, m=9, weighted=True, duplicate_frac=0.1)
    tree = RangeTree(pts)
    rects = [random_rect(rng, d=3) for _ in range(40)] + [QueryRect.full(3)]
    pieces, calls, numpy_calls = profiled_calls(
        lambda: [tree.canonical_nodes(rect) for rect in rects])
    assert sum(map(len, pieces)) > len(rects)
    assert any(getattr(c, "__name__", "") == "bisect_left" for c in calls)
    assert not numpy_calls


def sampling_arrays(tree):
    s = tree.sampling
    cp = s.color_prefix
    return {"wpre": s.wpre, "wlo": s.wlo, "colors": s.colors, "cp.keys": cp.keys,
            "cp.wpre": cp.wpre, "cp.wlo": cp.wlo, "others_before": s.others_before}


def test_derived_arrays_are_counted_and_rebuilt_on_load(rng, tmp_path):
    # an estimator file holds the points and the pool alone. What the exact
    # answer reads is derived on build and on load; the sampling arrays on
    # the first draw or EVAL, never by an exact answer, a save or a load.
    # nbytes and space_stats count what the tree holds
    pts = random_pointset(rng, 300, d=2, m=7, weighted=True)
    index = EstimatorIndex(pts)
    tree = index.tree
    assert tuple(index.to_arrays()[0]) == tree.STORED == ("coords", "colors", "weights",
                                                         "pool_ids")
    assert tree.last_rank.dtype == np.min_scalar_type(tree.n)
    assert tree.pool_ids.dtype == np.min_scalar_type(len(pts) - 1) == np.uint16
    exact = {"keys": tree.keys[0], "last_sorted": tree.last_sorted,
             "last_rank": tree.last_rank}
    assert len(tree.keys) == 1
    held = tree.pool_ids.nbytes + sum(a.nbytes for a in exact.values())
    full = QueryRect.full(2)
    assert len(tree.color_masses(tree.canonical_nodes(full))) == 7
    save_index(tmp_path / "e.rqe", "estimator", index)
    loaded_index = load_index(tmp_path / "e.rqe")[2]
    loaded = loaded_index.tree
    got = {"keys": loaded.keys[0], "last_sorted": loaded.last_sorted,
           "last_rank": loaded.last_rank}
    for name, want in exact.items():
        assert got[name].dtype == want.dtype and np.array_equal(got[name], want), name
    for t in (tree, loaded):
        assert "sampling" not in vars(t) and t.nbytes() == held
    assert index.space_stats()["bytes"] == loaded_index.space_stats()["bytes"] == held
    # a first draw on the built tree, a first EVAL on the loaded one
    tree.draw(tree.canonical_nodes(full), rng, 10)
    assert loaded_index.color_trees.weight(full, 0) > 0.0
    want, got = sampling_arrays(tree), sampling_arrays(loaded)
    for name, a in want.items():
        assert got[name].dtype == a.dtype and np.array_equal(got[name], a), name
    assert tree.sampling is tree.sampling   # derived once, then held
    held += sum(a.nbytes for a in want.values())
    assert tree.nbytes() == loaded.nbytes() == index.space_stats()["bytes"] == held


def test_full_space_and_empty_rect(rng):
    pts = random_pointset(rng, 128, d=2, m=6)
    tree = RangeTree(pts)
    full = QueryRect.full(2)
    assert range_count(tree, full) == 128
    nowhere = QueryRect((200.0, 200.0), (300.0, 300.0))
    assert len(tree.canonical_nodes(nowhere)) == 0


@pytest.mark.parametrize("d", [1, 2])
def test_counts_match_brute_force(rng, d):
    pts = random_pointset(rng, 500, d=d, m=20, weighted=True)
    tree = RangeTree(pts)
    for _ in range(200):
        rect = random_rect(rng, d=d)
        mask = rect.mask(pts)
        assert range_count(tree, rect) == int(mask.sum())
        weight = tree.pieces_weight(tree.canonical_nodes(rect)).sum()
        assert abs(weight - float(pts.weights[mask].sum())) < 1e-9


def test_canonical_node_count_polylog(rng):
    n = 1000
    pts = random_pointset(rng, n, d=2, m=30)
    tree = RangeTree(pts)
    # calibrated once: 2-D canonical counts stay below C * log2(n)^2 with C=4
    cap = 4 * np.log2(n) ** 2
    worst = 0
    for _ in range(300):
        rect = random_rect(rng, d=2)
        worst = max(worst, len(tree.canonical_nodes(rect)))
    assert worst <= cap


def test_color_range_count(rng):
    pts = random_pointset(rng, 400, d=2, m=10, weighted=True)
    trees = ColorTrees(RangeTree(pts))
    for _ in range(50):
        rect = random_rect(rng, d=2)
        hist = brute_histogram(pts, rect)
        for color in range(10):
            want = hist.entries.get(color, 0.0)
            assert abs(trees.weight(rect, color) - want) < 1e-9
    assert trees.weight(QueryRect.full(2), 99) == 0.0


# ---------------------------------------------------------------------------
# sampling laws


def test_sample_single_point(rng):
    pts = ColoredPointSet(np.array([[5.0, 5.0]]), np.array([3]), num_colors=4)
    tree = RangeTree(pts)
    rect = QueryRect((0.0, 0.0), (10.0, 10.0))
    assert draw_ids(tree, rect, rng, 20).tolist() == [0] * 20


def test_sample_empty_raises(rng):
    pts = random_pointset(rng, 50, d=1)
    tree = RangeTree(pts)
    with pytest.raises(EmptyRange):
        draw_ids(tree, QueryRect.interval(200.0, 300.0), rng, 1)


def test_samplers_raise_empty_range_on_empty_pieces(rng):
    pts = random_pointset(rng, 50, d=2, m=4)
    tree = RangeTree(pts)
    nowhere = QueryRect((200.0, 200.0), (300.0, 300.0))
    none = Pieces([], [])
    with pytest.raises(EmptyRange):
        tree.draw(none, rng, 5)
    with pytest.raises(EmptyRange):
        tree.draw(none, rng, 5, tree.exclude(none, 0))
    for size in (1, 50):
        with pytest.raises(EmptyRange):
            draw_ids(tree, nowhere, rng, size)
        with pytest.raises(EmptyRange):
            draw_ids(tree, nowhere, rng, size, excluded=0)
        with pytest.raises(EmptyRange):
            EstimatorIndex(pts).oracle(nowhere).tally(rng, size)


def test_sample_uniform_frequencies(rng):
    pts = ColoredPointSet(np.array([[1.0], [2.0], [3.0], [4.0]]), np.arange(4))
    tree = RangeTree(pts)
    rect = QueryRect.interval(0.0, 10.0)
    draws = 40_000
    counts = np.bincount(draw_ids(tree, rect, rng, draws), minlength=4)
    # each frequency within 3 sigma of 1/4
    sigma = np.sqrt(0.25 * 0.75 / draws)
    assert np.all(np.abs(counts / draws - 0.25) < 3 * sigma + 1e-12)


def test_sample_weighted_ratio(rng):
    pts = ColoredPointSet(np.array([[1.0], [2.0]]), np.array([0, 1]),
                          np.array([1.0, 3.0]))
    tree = RangeTree(pts)
    rect = QueryRect.interval(0.0, 10.0)
    draws = 40_000
    hits = int((draw_ids(tree, rect, rng, draws) == 1).sum())
    sigma = np.sqrt(0.75 * 0.25 / draws)
    assert abs(hits / draws - 0.75) < 3 * sigma


def test_sample_law_matches_restriction(rng):
    # restricted to a strict sub-rectangle, empirical law ~ weights in range
    pts = random_pointset(rng, 60, d=2, m=5, weighted=True)
    tree = RangeTree(pts)
    rect = QueryRect((20.0, 10.0), (80.0, 90.0))
    mask = rect.mask(pts)
    if not mask.any():
        pytest.skip("degenerate draw")
    probs = np.where(mask, pts.weights, 0.0)
    probs = probs / probs.sum()
    draws = 30_000
    counts = np.bincount(draw_ids(tree, rect, rng, draws), minlength=len(pts))
    assert counts[~mask].sum() == 0
    sel = probs > 0
    sigma = np.sqrt(probs[sel] * (1 - probs[sel]) / draws)
    assert np.all(np.abs(counts[sel] / draws - probs[sel]) < 4 * sigma + 2e-3)


# ---------------------------------------------------------------------------
# the sampling arrays: per-color masses and exclusion sampling


@pytest.mark.parametrize("d", [1, 2, 3])
def test_piece_color_masses_sum_to_weight(rng, d):
    pts = random_pointset(rng, 200, d=d, m=8, weighted=True, duplicate_frac=0.1)
    tree = RangeTree(pts)
    colors = np.arange(8)
    for _ in range(40):
        pieces = tree.canonical_nodes(random_rect(rng, d=d))
        weights = tree.pieces_weight(pieces)
        for a, b, w in zip(pieces.start, pieces.stop, weights):
            masses = tree.sampling.color_prefix.mass(colors, a, b)
            assert abs(masses.sum() - w) < 1e-9
            assert w == pytest.approx(pts.weights[tree.pool_ids[a:b]].sum(), abs=1e-9)


def test_sample_excluding_two_colors(rng):
    pts = ColoredPointSet(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 1]))
    tree = RangeTree(pts)
    rect = QueryRect.interval(0.0, 10.0)
    assert set(draw_ids(tree, rect, rng, 50, excluded=1).tolist()) == {0}
    assert set(draw_ids(tree, rect, rng, 50, excluded=0).tolist()) <= {1, 2}


def test_sample_excluding_absent_color_matches_plain_law(rng):
    pts = random_pointset(rng, 40, d=1, m=4, weighted=True)
    tree = RangeTree(pts)
    rect = QueryRect.interval(10.0, 90.0)
    mask = rect.mask(pts)
    if not mask.any():
        pytest.skip("degenerate draw")
    probs = np.where(mask, pts.weights, 0.0)
    probs /= probs.sum()
    draws = 30_000
    counts = np.bincount(draw_ids(tree, rect, rng, draws, excluded=99), minlength=len(pts))
    sel = probs > 0
    sigma = np.sqrt(probs[sel] * (1 - probs[sel]) / draws)
    assert np.all(np.abs(counts[sel] / draws - probs[sel]) < 4 * sigma + 2e-3)


def test_sample_excluding_law(rng):
    pts = random_pointset(rng, 80, d=2, m=5, weighted=True)
    tree = RangeTree(pts)
    rect = QueryRect((10.0, 10.0), (90.0, 90.0))
    excluded = 2
    mask = rect.mask(pts) & (np.asarray(pts.colors) != excluded)
    if not mask.any():
        pytest.skip("degenerate draw")
    probs = np.where(mask, pts.weights, 0.0)
    probs /= probs.sum()
    draws = 30_000
    counts = np.bincount(draw_ids(tree, rect, rng, draws, excluded), minlength=len(pts))
    assert counts[~mask].sum() == 0
    sel = probs > 0
    sigma = np.sqrt(probs[sel] * (1 - probs[sel]) / draws)
    assert np.all(np.abs(counts[sel] / draws - probs[sel]) < 4 * sigma + 2e-3)


def test_sample_excluding_everything_raises(rng):
    pts = ColoredPointSet(np.array([[1.0], [2.0]]), np.array([0, 0]))
    tree = RangeTree(pts)
    with pytest.raises(EmptyRange):
        draw_ids(tree, QueryRect.interval(0.0, 10.0), rng, 1, excluded=0)


# ---------------------------------------------------------------------------
# the statistic's two folds, either side of FOLD_POINTS


FOLD_ORDERS = (1.5, 2.0, 3.0, 10.0)
FOLD_KINDS = (SHANNON,) + tuple(map(renyi_kind, FOLD_ORDERS))


def fold_points(scale):
    """600 weighted 2-D points of 9 colors, at x = 0..599 (shuffled), with
    weights of one uniform ``scale``."""
    rng = np.random.default_rng(20)
    coords = np.column_stack((rng.permutation(600).astype(float), rng.uniform(0.0, 1.0, 600)))
    return ColoredPointSet(coords, rng.integers(0, 9, 600), rng.uniform(0.5, 2.0, 600) * scale)


def first_points(m):
    """The rectangle that holds the m points of least x."""
    return QueryRect((-0.5, 0.0), (m - 0.5, 1.0))


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("loaded", [False, True])
def test_exact_answers_match_brute_on_both_sides_of_the_fold(scale, loaded, tmp_path):
    pts = fold_points(scale)
    exact = ExactNDIndex(pts, t=0.5, orders=FOLD_ORDERS)
    index = EstimatorIndex(pts)
    if loaded:   # the pool and the weights are views of the file's payload
        save_index(tmp_path / "x", "exactnd", exact)
        save_index(tmp_path / "e", "estimator", index)
        exact, index = load_index(tmp_path / "x")[2], load_index(tmp_path / "e")[2]
        for tree in (exact.tree, index.tree):
            assert not tree.pool_ids.flags.owndata and not tree.pts.weights.flags.owndata
    for m in (1, FOLD_POINTS, FOLD_POINTS + 1, 400):
        rect = first_points(m)
        assert range_count(exact.tree, rect) == m
        excluded = int(pts.colors[pts.coords[:, 0] == 0.0][0])
        keep = pts.colors != excluded
        rest = ColoredPointSet(pts.coords[keep], pts.colors[keep], pts.weights[keep])
        for kind in FOLD_KINDS:
            want = brute_entropy(pts, rect, kind).value
            assert abs(exact.query(rect, kind).value - want) < 1e-9, (m, kind)
            stats = [{}, {}]
            if kind.is_shannon:
                got = [estimate_additive(index, rect, 0.1, stats=stats[0]),
                       estimate_multiplicative(index, rect, 0.1, stats=stats[1])]
            else:
                got = [estimate_additive_renyi(index, rect, kind.alpha, 0.1, stats=stats[0]),
                       estimate_multiplicative_renyi(index, rect, kind.alpha, 0.1,
                                                     stats=stats[1])]
                moment = estimate_moment(index, rect, kind.alpha, 0.1)
                assert moment.samples == 0
                got.append(EntropySummary(kind, 0.0, entropy_from_statistic(moment.value, kind)))
            assert all(st["mode"] == "exact-fallback" for st in stats)
            assert all(abs(s.value - want) < 1e-9 for s in got), (m, kind)
            # the estimators' exact answer without one color
            oracle = index.oracle(rect, excluded)
            if m == 1:
                with pytest.raises(EmptyRange):
                    exact_statistic(kind, oracle)
                continue
            want = brute_entropy(rest, rect, kind).value
            got = entropy_from_statistic(exact_statistic(kind, oracle), kind)
            assert abs(got - want) < 1e-9, (m, kind)
            if not kind.is_shannon:
                moment = estimate_moment_excluding(index, rect, kind.alpha, 0.1, excluded)
                assert moment.samples == 0
                assert abs(entropy_from_statistic(moment.value, kind) - want) < 1e-9


def test_fold_crossover(monkeypatch):
    """Both sides of the statistic's size rule match brute force at each
    size, and the Python side makes no numpy call; with -s, prints each
    side's microseconds per call (a Shannon statistic on one range)."""
    pts = fold_points(1.0)
    tree = RangeTree(pts)
    print(f"\nRangeTree.statistic per call (us), FOLD_POINTS = {FOLD_POINTS}")
    for m in (4, 32, FOLD_POINTS, 2 * FOLD_POINTS, 512):
        rect = first_points(m)
        pieces = tree.canonical_nodes(rect)
        us = {}
        for side, bound in (("python", m), ("numpy", m - 1)):
            monkeypatch.setattr(rangetree, "FOLD_POINTS", bound)
            for kind in (SHANNON, renyi_kind(2.0)):
                (value, total), _, numpy_calls = profiled_calls(
                    lambda: tree.statistic(pieces, kind))
                want = brute_entropy(pts, rect, kind)
                assert abs(entropy_from_statistic(value, kind) - want.value) < 1e-9
                assert total == pytest.approx(want.count, rel=1e-12)
                assert (side == "numpy") == bool(numpy_calls)
            runs = timeit.repeat(lambda: tree.statistic(pieces, SHANNON),
                                 number=20, repeat=5)
            us[side] = min(runs) / 20 * 1e6
        print(f"{m:5d} points: python {us['python']:7.1f}, numpy {us['numpy']:7.1f}")


def test_statistic_reads_arrays_in_either_byte_order():
    # from_arrays takes the points in either byte order; the pool ids, which
    # the small-range fold reads through a memoryview, must come out native
    pts = fold_points(1.0)
    tree = RangeTree(pts)
    arrays, scalars = tree.to_arrays()
    swapped = {name: a.astype(a.dtype.newbyteorder(">")) for name, a in arrays.items()}
    loaded = RangeTree.from_arrays(swapped, scalars)
    for m in (1, FOLD_POINTS, FOLD_POINTS + 1):
        pieces = tree.canonical_nodes(first_points(m))
        for kind in (SHANNON, renyi_kind(2.0)):
            assert loaded.statistic(pieces, kind) == tree.statistic(pieces, kind)
