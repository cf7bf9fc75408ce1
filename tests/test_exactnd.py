"""Color-bucketed exact d-D index: tables, stitching, oracle equality."""

import itertools

import numpy as np
import pytest

from entrange import core
from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind
from entrange.errors import OrderNotIndexed
from entrange.exactnd import ExactNDIndex
from entrange.oracle import brute_entropy

from conftest import random_pointset, random_rect

KINDS = (SHANNON, renyi_kind(1.5), renyi_kind(2.0), renyi_kind(3.0))


def test_bucket_color_sharing_invariant(rng):
    for _ in range(5):
        pts = random_pointset(rng, 240, d=2, m=14, weighted=True)
        idx = ExactNDIndex(pts, t=0.5)
        for a, b in zip(idx.buckets[:-1], idx.buckets[1:]):
            shared = set(a.colors.tolist()) & set(b.colors.tolist())
            assert len(shared) <= 1


def test_eager_table_matches_direct(rng):
    """Every key of every eager grid, against direct evaluation of its cell."""
    for d, n, t in ((1, 100, 0.75), (2, 100, 0.5), (3, 30, 0.5)):
        pts = random_pointset(rng, n, d=d, m=8, weighted=True, duplicate_frac=0.1)
        idx = ExactNDIndex(pts, t=t, orders=(1.5, 2.0, 3.0))
        assert all(b.eager for b in idx.buckets)
        for bucket in idx.buckets:
            check_eager_grid(bucket, idx.kinds)


def check_eager_grid(bucket, kinds):
    pairs = [[(lo, hi) for lo in range(len(u)) for hi in range(lo, len(u))]
             for u in bucket.distinct]
    for key in itertools.product(*pairs):
        st, direct = bucket.table.get(key), bucket.compute_stats(key, kinds)
        if direct is None:
            assert st is None
            continue
        assert st.count == direct.count
        assert st.weight == pytest.approx(direct.weight, rel=1e-12)
        assert st.sums == pytest.approx(direct.sums, rel=1e-12, abs=1e-12)
        assert (st.color_lo, st.color_hi) == (direct.color_lo, direct.color_hi)
        assert (st.w_lo, st.w_hi) == pytest.approx((direct.w_lo, direct.w_hi), rel=1e-12)


def test_single_bucket_t_one(rng):
    pts = random_pointset(rng, 40, d=2, m=5)
    idx = ExactNDIndex(pts, t=1.0, orders=(2.0,))
    assert len(idx.buckets) == 1
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
    assert not any(b.eager for b in idx.buckets)
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
    pts = random_pointset(rng, 120, d=2, m=9, weighted=True)
    idx = ExactNDIndex(pts, t=0.5)
    for _ in range(40):
        rect = random_rect(rng, d=2)
        trace: list = []
        stats: dict = {}
        idx.query(rect, SHANNON, stats=stats, trace=trace)
        assert stats["bucket_visits"] == len(idx.buckets)
        assert len(trace) == len(idx.buckets)
        # the snapped cell's point set equals the query's bucket intersection
        for bi, key, st in trace:
            bucket = idx.buckets[bi]
            want = np.all(
                (bucket.coords >= np.asarray(rect.lo)) & (bucket.coords <= np.asarray(rect.hi)),
                axis=1,
            )
            if st is None:
                assert not want.any()
            else:
                got = bucket._member_mask(key)
                assert np.array_equal(got, want)  # exact set equality
                assert st.count == int(want.sum())


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
        assert len(idx.buckets) == 2
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
    assert len(idx.buckets) >= 5
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
    assert all(b.eager == (table_cap > 0) for b in idx.buckets)
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
    assert not any(b.eager for b in idx.buckets)
    for _ in range(300):
        rect = random_rect(rng, d=2)
        for kind in (SHANNON, renyi_kind(2.0)):
            want = brute_entropy(pts, rect, kind)
            assert abs(idx.query(rect, kind).value - want.value) < 1e-6
        assert idx.space_stats()["table_entries"] <= 50
    assert idx.space_stats()["table_entries"] > 0
