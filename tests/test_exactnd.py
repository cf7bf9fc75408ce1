"""Color-bucketed exact d-D index: tables, stitching, oracle equality."""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrange import core
from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind
from entrange.errors import OrderNotIndexed
from entrange.exactnd import ExactNDIndex
from entrange.oracle import brute_entropy

from conftest import random_pointset, random_rect

KINDS = (SHANNON, renyi_kind(1.5), renyi_kind(2.0), renyi_kind(3.0))


def bucket_points(idx, pts, b):
    """Input indices of bucket b's points, in the index's documented order:
    positive weights only, by color, then coordinates, then input index."""
    ids = np.flatnonzero(pts.weights > 0)
    keys = (ids,) + tuple(pts.coords[ids, k] for k in reversed(range(pts.dim)))
    order = ids[np.lexsort(keys + (pts.colors[ids],))]
    return order[b * idx.bucket_size:(b + 1) * idx.bucket_size]


def test_bucket_color_sharing_invariant(rng):
    for _ in range(5):
        pts = random_pointset(rng, 240, d=2, m=14, weighted=True)
        idx = ExactNDIndex(pts, t=0.5)
        colors = [set(pts.colors[bucket_points(idx, pts, b)].tolist())
                  for b in range(idx.space_stats()["buckets"])]
        assert len(colors) > 1
        for a, b in zip(colors[:-1], colors[1:]):
            assert len(a & b) <= 1


def test_eager_table_matches_direct(rng):
    """Every cell of every eager grid, against the lazy evaluation of the
    same cell in an index built with ``table_cap=0``."""
    for d, n, t in ((1, 100, 0.75), (2, 100, 0.5), (3, 30, 0.5)):
        pts = random_pointset(rng, n, d=d, m=8, weighted=True, duplicate_frac=0.1)
        eager = ExactNDIndex(pts, t=t, orders=(1.5, 2.0, 3.0))
        lazy = ExactNDIndex(pts, t=t, orders=(1.5, 2.0, 3.0), table_cap=0)
        buckets = eager.space_stats()["buckets"]
        assert eager.space_stats()["eager_buckets"] == buckets
        assert lazy.space_stats()["eager_buckets"] == 0
        for b in range(buckets):
            distinct = eager.ranks[:, :, b].max(axis=1) + 1
            pairs = [[(lo, hi) for lo in range(u) for hi in range(lo, u)] for u in distinct]
            cells = np.array(list(itertools.product(*pairs)))    # [cell, dim, (lo, hi)]
            assert len(cells) == np.prod([len(p) for p in pairs])
            at = np.full(len(cells), b)
            got = eager._rows(at, cells[:, :, 0], cells[:, :, 1])
            want = lazy._rows(at, cells[:, :, 0], cells[:, :, 1])
            assert np.array_equal(got[:, 0], want[:, 0])                 # counts
            nonempty = want[:, 0] > 0
            assert np.array_equal(got[nonempty][:, [-4, -2]], want[nonempty][:, [-4, -2]])
            np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=1e-12, atol=1e-12)


def mask_tightened_grid(idx):
    """Reference eager fill: every grid cell masks every slot of its bucket,
    takes the min and max rank per dimension of the points inside as its
    tight box, and the distinct boxes are summed into the table."""
    eager = np.flatnonzero(idx.offsets >= 0)
    u = idx.ranks.max(axis=1).T + 1                       # [bucket, dim]
    radix = u * (u + 1) // 2
    cells = len(idx.grid)

    def decode(g):
        b = eager[np.searchsorted(idx.offsets[eager], g, side="right") - 1]
        tri = (g - idx.offsets[b])[:, None] // idx.strides[b] % radix[b]
        hi = ((np.sqrt(8 * tri + 1) - 1) // 2).astype(np.int64)
        return b, tri - hi * (hi + 1) // 2, hi

    b, lo, hi = decode(np.arange(cells))
    ranks = idx.ranks[:, :, b]                            # [dim, point, cell]
    inside = np.ones(ranks.shape[1:], dtype=bool)
    for r, low, high in zip(ranks, lo.T, hi.T):
        inside &= (r >= low) & (r <= high)
    tight = np.full(cells, -1, dtype=np.int64)
    full = np.flatnonzero(inside.any(axis=0))
    box_lo = np.where(inside, ranks, idx.bucket_size).min(axis=1).T
    box_hi = np.where(inside, ranks, -1).max(axis=1).T
    tight[full] = idx._number(b[full], box_lo[full], box_hi[full])
    boxes, grid = np.unique(np.append(-1, tight), return_inverse=True)
    table = np.vstack((np.zeros(idx.width), idx._evaluate(*decode(boxes[1:]))))
    return grid[1:].astype(np.int32), table


@pytest.mark.parametrize("d, n, t, eager_buckets, grid_coords", [
    (2, 120, 0.5, "all", False),
    (2, 150, 0.75, "all", True),     # ties within a dimension, not only whole points
    (3, 90, 0.5, "all", False),
    (3, 100, 0.25, "all", True),
    (2, 2048, 0.5, "tail", False),   # only the short last bucket fits table_cap
])
def test_eager_grid_matches_mask_tightening(rng, d, n, t, eager_buckets, grid_coords):
    pts = random_pointset(rng, n, d=d, m=9, weighted=True, duplicate_frac=0.2)
    if grid_coords:
        pts = ColoredPointSet(np.round(pts.coords / 8.0), pts.colors, pts.weights,
                              num_colors=pts.num_colors)
    idx = ExactNDIndex(pts, t=t, orders=(2.0, 3.0))
    eager = np.flatnonzero(idx.offsets >= 0)
    buckets = len(idx.offsets)
    if eager_buckets == "all":
        assert len(eager) == buckets > 1
    else:
        assert eager.tolist() == [buckets - 1] and n % idx.bucket_size
    grid, table = mask_tightened_grid(idx)
    assert idx.grid.dtype == grid.dtype and np.array_equal(idx.grid, grid)
    assert np.array_equal(idx.table, table)


def test_single_bucket_t_one(rng):
    pts = random_pointset(rng, 40, d=2, m=5)
    idx = ExactNDIndex(pts, t=1.0, orders=(2.0,))
    assert idx.space_stats()["buckets"] == 1
    rect = QueryRect.full(2)
    want = brute_entropy(pts, rect)
    assert abs(idx.query(rect).value - want.value) < 1e-6


@pytest.mark.parametrize("d", [1, 2, 3])
def test_query_matches_oracle(rng, d):
    pts = random_pointset(rng, 300, d=d, m=13, weighted=True, duplicate_frac=0.1)
    idx = ExactNDIndex(pts, t=0.5, orders=(1.5, 2.0, 3.0))
    for _ in range(120):
        rect = random_rect(rng, d=d)
        for kind in KINDS:
            want = brute_entropy(pts, rect, kind)
            got = idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-6, kind
            assert abs(got.count - want.count) < 1e-6


def test_zero_weight_points(rng):
    base = random_pointset(rng, 50, d=2, m=6, weighted=True, duplicate_frac=0.1)
    weights = base.weights.copy()
    weights[rng.choice(50, size=8, replace=False)] = 0.0
    pts = ColoredPointSet(base.coords, base.colors, weights, num_colors=6)
    idx = ExactNDIndex(pts, t=0.5, orders=(2.0, 3.0))
    for _ in range(80):
        rect = random_rect(rng, d=2)
        for kind in (SHANNON, renyi_kind(2.0), renyi_kind(3.0)):
            want = brute_entropy(pts, rect, kind)
            got = idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-6, kind
            assert abs(got.count - want.count) < 1e-6


def test_query_matches_oracle_lazy_path(rng):
    pts = random_pointset(rng, 400, d=2, m=10, weighted=True)
    idx = ExactNDIndex(pts, t=0.8, orders=(2.0,), table_cap=10)  # force lazy
    assert idx.space_stats()["eager_buckets"] == 0
    for _ in range(80):
        rect = random_rect(rng, d=2)
        for kind in (SHANNON, renyi_kind(2.0)):
            want = brute_entropy(pts, rect, kind)
            assert abs(idx.query(rect, kind).value - want.value) < 1e-6


def test_query_empty_rect(rng):
    pts = random_pointset(rng, 60, d=2, m=6)
    idx = ExactNDIndex(pts, t=0.5)
    s = idx.query(QueryRect((200.0, 200.0), (300.0, 300.0)))
    assert s.count == 0.0 and s.value == 0.0


def test_bucket_visits_and_snapped_point_sets(rng):
    pts = random_pointset(rng, 120, d=2, m=9, weighted=True, duplicate_frac=0.1)
    for table_cap in (200_000, 0):
        check_snapped_point_sets(rng, pts, ExactNDIndex(pts, t=0.5, table_cap=table_cap))


def check_snapped_point_sets(rng, pts, idx):
    buckets = idx.space_stats()["buckets"]
    for _ in range(40):
        rect = random_rect(rng, d=2)
        trace: list = []
        stats: dict = {}
        idx.query(rect, SHANNON, stats=stats, trace=trace)
        assert stats["bucket_visits"] == buckets
        assert [bi for bi, _, _ in trace] == list(range(buckets))
        # the snapped cell's point set equals the query's bucket intersection
        for bi, key, row in trace:
            coords = pts.coords[bucket_points(idx, pts, bi)]
            want = np.all((coords >= rect.lo) & (coords <= rect.hi), axis=1)
            if key is None:
                assert row is None and not want.any()
                continue
            ranks = idx.ranks[:, :len(coords), bi].T
            lo, hi = np.reshape(key, (2, -1))
            got = np.all((ranks >= lo) & (ranks <= hi), axis=1)
            assert np.array_equal(got, want)  # exact set equality
            assert (row is None) == (not want.any())
            if row is not None:
                assert row[0] == int(want.sum())


def test_unknown_order_rejected(rng):
    pts = random_pointset(rng, 30, d=2)
    idx = ExactNDIndex(pts, t=0.5, orders=(2.0,))
    with pytest.raises(OrderNotIndexed):
        idx.query(QueryRect.full(2), renyi_kind(3.0))


def power_sum_of(masses, kind):
    return float(core.power_term(np.array(list(masses)), kind).sum())


STITCH_CASES = [
    ({0: 2.0, 1: 3.0}, {1: 1.0, 2: 4.0}),
    # heavy ratio: a delete -> merge -> insert stitch cancels here (Underflow)
    ({0: 1.0, 1: 1e12}, {1: 3.0, 2: 1.0}),
]


def test_stitch_identity_two_buckets():
    """Power-sum stitch: S(A) + S(B) + f(x+y) - f(x) - f(y), for the color of
    mass x in A and y in B, is S(A u B); a color-disjoint union just adds."""
    kinds = (SHANNON, renyi_kind(2.0), renyi_kind(3.0))
    for a, b in STITCH_CASES:
        union = core.ColorHistogram(a).union(core.ColorHistogram(b))
        disjoint = core.ColorHistogram(a).union(core.ColorHistogram({5: 2.0}))
        for kind in kinds:
            x, y = a[1], b[1]
            S = (power_sum_of(a.values(), kind) + power_sum_of(b.values(), kind)
                 + power_sum_of([x + y], kind) - power_sum_of([x], kind)
                 - power_sum_of([y], kind))
            got = core.entropy_from_power_sum(union.total, S, kind)
            assert abs(got - core.entropy_of(union, kind).value) < 1e-9
            S = power_sum_of(a.values(), kind) + power_sum_of([2.0], kind)
            got = core.entropy_from_power_sum(disjoint.total, S, kind)
            assert abs(got - core.entropy_of(disjoint, kind).value) < 1e-9
        # the same two buckets through the index: colors 0, 1 | 1, 2
        pts = ColoredPointSet(np.repeat(np.arange(4.0)[:, None], 2, axis=1),
                              [0, 1, 1, 2], [a[0], a[1], b[1], b[2]])
        idx = ExactNDIndex(pts, t=0.5, orders=(2.0, 3.0))
        assert idx.space_stats()["buckets"] == 2
        for kind in kinds:
            got = idx.query(QueryRect.full(2), kind).value
            assert abs(got - core.entropy_of(union, kind).value) < 1e-9


def test_color_spanning_three_buckets(rng):
    # one dominant color whose run crosses several bucket cuts
    n = 60
    colors = np.concatenate([np.zeros(5), np.ones(40), np.full(15, 2)]).astype(np.int64)
    coords = rng.uniform(0, 100, size=(n, 2))
    pts = ColoredPointSet(coords, colors)
    idx = ExactNDIndex(pts, t=0.4, orders=(2.0,))  # small buckets
    assert idx.space_stats()["buckets"] >= 5
    for _ in range(80):
        rect = random_rect(rng, d=2)
        for kind in (SHANNON, renyi_kind(2.0)):
            want = brute_entropy(pts, rect, kind)
            assert abs(idx.query(rect, kind).value - want.value) < 1e-9


# ---------------------------------------------------------------------------
# weighted inputs: heavy points among light ones, zero weights, duplicates

WEIGHTED_KINDS = (SHANNON, renyi_kind(2.0), renyi_kind(3.0))


def weighted_case(seed, heavy_lo, heavy_hi):
    """64 2-D points, 4 colors, light weights in [0.5, 2], 1-5 heavy points
    log-uniform in [heavy_lo, heavy_hi], four zero weights, integer
    coordinates in [0, 8)^2 (so many duplicates), and a one-color block at
    coordinates 50..55 on the diagonal."""
    rng = np.random.default_rng(seed)
    n = 64
    coords = rng.integers(0, 8, size=(n, 2)).astype(float)
    colors = rng.integers(0, 4, size=n)
    weights = rng.uniform(0.5, 2.0, size=n)
    heavy = rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
    weights[heavy] = np.exp(rng.uniform(np.log(heavy_lo), np.log(heavy_hi), size=len(heavy)))
    weights[rng.choice(n, size=4, replace=False)] = 0.0
    coords[:6] = 50.0 + np.arange(6)[:, None]
    colors[:6] = 0
    pts = ColoredPointSet(coords, colors, weights, num_colors=4)
    rects = []
    for _ in range(20):
        a, b = rng.integers(-1, 10, size=(2, 2))
        rects.append(QueryRect(tuple(np.minimum(a, b).astype(float)),
                               tuple(np.maximum(a, b).astype(float))))
    rects += [
        QueryRect((50.0, 50.0), (55.0, 55.0)),     # single color
        QueryRect((50.0, 50.0), (50.0, 50.0)),     # single point
        QueryRect((8.5, 8.5), (49.5, 49.5)),       # empty gap inside the data
        QueryRect((100.0, 100.0), (200.0, 200.0)), # empty, beyond the data
    ]
    return pts, rects


def check_weighted(seed, heavy_lo, heavy_hi, table_cap):
    pts, rects = weighted_case(seed, heavy_lo, heavy_hi)
    idx = ExactNDIndex(pts, t=0.5, orders=(2.0, 3.0), table_cap=table_cap)
    space = idx.space_stats()
    assert space["eager_buckets"] == (space["buckets"] if table_cap else 0)
    for rect in rects:
        for kind in WEIGHTED_KINDS:
            want = brute_entropy(pts, rect, kind)
            got = idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-6, (seed, rect, kind)
            assert got.count == pytest.approx(want.count, rel=1e-6), (seed, rect, kind)


@pytest.mark.parametrize("table_cap", [200_000, 0], ids=["eager", "lazy"])
@pytest.mark.parametrize("heavy_lo, heavy_hi",
                         [(1e2, 1e4), (1e4, 1e6), (1e6, 1e9), (1e9, 1e15)])
def test_weighted_heavy_points_match_oracle(heavy_lo, heavy_hi, table_cap):
    for seed in range(30):
        check_weighted(seed, heavy_lo, heavy_hi, table_cap)


def test_memo_bounded_by_total_cap(rng):
    pts = random_pointset(rng, 400, d=2, m=10, weighted=True)
    idx = ExactNDIndex(pts, t=0.8, orders=(2.0,), total_cap=50)
    assert idx.space_stats()["eager_buckets"] == 0
    for _ in range(300):
        rect = random_rect(rng, d=2)
        for kind in (SHANNON, renyi_kind(2.0)):
            want = brute_entropy(pts, rect, kind)
            assert abs(idx.query(rect, kind).value - want.value) < 1e-6
        assert idx.space_stats()["table_entries"] <= 50
    assert idx.space_stats()["table_entries"] > 0


def test_total_cap_bounds_eager_grids_and_memo(rng):
    """Eager grids are charged what they store (one entry per grid cell), and
    grid plus memo never hold more than total_cap entries."""
    pts = random_pointset(rng, 100, d=2, m=8, weighted=True)
    # ten buckets of ten distinct coordinates per axis: 55**2 cells each
    idx = ExactNDIndex(pts, t=0.5, orders=(2.0,), total_cap=6600)
    space = idx.space_stats()
    assert (space["buckets"], space["eager_buckets"]) == (10, 2)
    assert space["table_entries"] == len(idx.grid) == 2 * 55**2
    bytes_before = space["bytes"]
    for _ in range(400):
        rect = random_rect(rng, d=2)
        for kind in (SHANNON, renyi_kind(2.0)):
            want = brute_entropy(pts, rect, kind)
            assert abs(idx.query(rect, kind).value - want.value) < 1e-6
        assert idx.space_stats()["table_entries"] <= 6600
    space = idx.space_stats()
    assert space["table_entries"] == 6600          # the memo filled what was left
    assert space["bytes"] > bytes_before


def test_concurrent_queries_match_serial(rng):
    """Two threads share one lazy index whose memo fills up mid-run."""
    pts = random_pointset(rng, 400, d=2, m=10, weighted=True)
    rects = [random_rect(rng, d=2) for _ in range(150)]
    kinds = (SHANNON, renyi_kind(2.0))
    serial = ExactNDIndex(pts, t=0.8, orders=(2.0,), total_cap=60)
    want = [serial.query(rect, kind).value for rect in rects for kind in kinds]
    shared = ExactNDIndex(pts, t=0.8, orders=(2.0,), total_cap=60)
    assert shared.space_stats()["eager_buckets"] == 0
    start = threading.Barrier(2)
    got: list = [None, None]

    def run(i):
        start.wait()
        order = rects if i == 0 else rects[::-1]
        answers = {(id(rect), kind): shared.query(rect, kind).value
                   for rect in order for kind in kinds}
        got[i] = [answers[id(rect), kind] for rect in rects for kind in kinds]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert got[0] == want and got[1] == want
    # each thread may pass the cap by one entry in a race
    assert shared.space_stats()["table_entries"] <= 60 + 2


_exponent = st.floats(min_value=0.0, max_value=12.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_brute_force_property(data):
    """Log-uniform weights in [1, 1e12] with zeros, integer coordinates (many
    duplicates), a one-color block, and empty rectangles, eager and lazy."""
    d = data.draw(st.integers(1, 3), "d")
    n = data.draw(st.integers(0, 30), "n")
    coords = np.array(data.draw(st.lists(st.lists(st.integers(0, 5), min_size=d, max_size=d),
                                         min_size=n, max_size=n)), dtype=float).reshape(n, d)
    colors = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    weights = data.draw(st.lists(st.one_of(st.just(0.0), _exponent.map(lambda e: 10.0**e)),
                                 min_size=n, max_size=n))
    block = data.draw(st.integers(1, 4), "block")    # one color at 20, 21, ...
    coords = np.vstack((coords, 20.0 + np.repeat(np.arange(block, dtype=float)[:, None], d, 1)))
    pts = ColoredPointSet(coords, np.array(colors + [5] * block, dtype=np.int64),
                          np.array(weights + [10.0**data.draw(_exponent)] * block), num_colors=6)
    t = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]), "t")
    table_cap = data.draw(st.sampled_from([200_000, 0]), "table_cap")
    idx = ExactNDIndex(pts, t=t, orders=(2.0, 3.0), table_cap=table_cap)
    rects = [QueryRect((20.0,) * d, (20.0 + block,) * d),       # the one-color block
             QueryRect((6.5,) * d, (19.5,) * d),                 # empty gap
             QueryRect((-3.0,) * d, (-1.0,) * d)]                # empty, before the data
    for _ in range(4):
        a, b = np.array(data.draw(st.lists(st.lists(st.integers(-1, 6), min_size=d, max_size=d),
                                           min_size=2, max_size=2)), dtype=float)
        rects.append(QueryRect(tuple(np.minimum(a, b)), tuple(np.maximum(a, b))))
    for rect in rects:
        for kind in WEIGHTED_KINDS:
            want = brute_entropy(pts, rect, kind)
            got = idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-6, (rect, kind)
            assert got.count == pytest.approx(want.count, rel=1e-9, abs=1e-12)
