"""Color-bucketed exact d-D index: tables, stitching, oracle equality."""

import numpy as np
import pytest

from entrange import core
from entrange.core import ColoredPointSet, EntropySummary, QueryRect, SHANNON, renyi_kind
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
    pts = random_pointset(rng, 100, d=2, m=8, weighted=True, duplicate_frac=0.1)
    idx = ExactNDIndex(pts, t=0.5, orders=(1.5, 2.0, 3.0))
    assert all(b.eager for b in idx.buckets)
    for bucket in idx.buckets:
        for key, st in bucket.table.items():
            direct = bucket.compute_stats(key, idx.kinds)
            assert direct is not None
            assert st.count == direct.count
            assert abs(st.weight - direct.weight) < 1e-9
            for got, want in zip(st.values, direct.values):
                assert abs(got - want) < 1e-6
            assert (st.color_lo, st.n_lo, st.color_hi, st.n_hi) == (
                direct.color_lo, direct.n_lo, direct.color_hi, direct.n_hi)


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


def test_stitch_identity_two_buckets():
    """Hand-built two-bucket stitches: shared-color and disjoint branches."""
    # bucket A: colors 0 (w 2), 1 (w 3); bucket B: colors 1 (w 1), 2 (w 4)
    for kind in (SHANNON, renyi_kind(2.0)):
        a = core.entropy_of(core.ColorHistogram({0: 2.0, 1: 3.0}), kind)
        b = core.entropy_of(core.ColorHistogram({1: 1.0, 2: 4.0}), kind)
        # simulate: delete trail (1:3) from A, delete head (1:1) from B,
        # merge, reinsert combined (1:4)
        a_minus = core.delete_color(a, 3.0)
        b_minus = core.delete_color(b, 1.0)
        merged = core.insert_color(core.merge(a_minus, b_minus), 4.0)
        want = core.entropy_of(core.ColorHistogram({0: 2.0, 1: 4.0, 2: 4.0}), kind)
        assert abs(merged.value - want.value) < 1e-9
        assert abs(merged.count - want.count) < 1e-9
        # disjoint branch: plain merge law
        c = core.entropy_of(core.ColorHistogram({5: 2.0}), kind)
        plain = core.merge(a, c)
        want2 = core.entropy_of(core.ColorHistogram({0: 2.0, 1: 3.0, 5: 2.0}), kind)
        assert abs(plain.value - want2.value) < 1e-9


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
