"""Exact d-D index on a range tree's canonical pieces: oracle equality,
heavy weights, the stats and trace contract."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrange import core, rangetree
from entrange.approx import (
    DualAccessOracle,
    EstimatorConfig,
    EstimatorIndex,
    estimate_additive,
    estimate_additive_renyi,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
)
from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind
from entrange.errors import EmptyRange, OrderNotIndexed
from entrange.exact1d import Exact1DIndex
from entrange.exactnd import ExactNDIndex
from entrange.oracle import brute_entropy
from entrange.rangetree import FOLD_POINTS
from entrange.storage import load_index, save_index
from entrange.sweep1d import build_renyi

from conftest import random_pointset, random_rect

KINDS = (SHANNON, renyi_kind(1.5), renyi_kind(2.0), renyi_kind(3.0))


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


def test_query_empty_rect(rng):
    pts = random_pointset(rng, 60, d=2, m=6)
    idx = ExactNDIndex(pts, t=0.5)
    s = idx.query(QueryRect((200.0, 200.0), (300.0, 300.0)))
    assert s.count == 0.0 and s.value == 0.0


@pytest.mark.parametrize("k", [-300, -170, -120, 0, 120, 160, 300])
def test_answers_hold_at_any_weight_scale(k):
    # a power sum of masses near 10^-170 or 10^160 under- or overflows: the
    # Renyi-2 answer was off by 1.1e3 bits at 10^-170 and read inf at 10^160
    rng = np.random.default_rng(64)
    base = random_pointset(rng, 64, d=2, m=7)
    pts = ColoredPointSet(base.coords, base.colors, rng.uniform(0.5, 1.5, 64) * 10.0**k)
    idx = ExactNDIndex(pts, t=0.5, orders=(1.5, 2.0, 3.0))
    rects = [QueryRect.full(2), QueryRect((10.0, 10.0), (70.0, 90.0))]
    for rect in rects:
        for kind in KINDS:
            want = brute_entropy(pts, rect, kind)
            got = idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-9, (k, kind)
            assert got.count == pytest.approx(want.count, rel=1e-12)


def test_bucket_visits_and_snapped_point_sets(rng):
    """The stats, trace and space_stats contract that perfbench reads:
    ``fold`` names the path; on the walk ``bucket_visits`` counts the
    canonical pieces, the trace holds one (piece, [start, stop], None) per
    piece and the pieces' point sets partition the range; a range scanned
    off its slab reports 0 pieces and traces none; nothing is tabled per
    cell."""
    pts = random_pointset(rng, 120, d=2, m=9, weighted=True, duplicate_frac=0.1)
    idx = ExactNDIndex(pts, t=0.5)
    pool_ids = idx.tree.pool_ids
    assert idx.space_stats() == {"points": 120, "colors": 9, "pool_entries": len(pool_ids),
                                 "table_entries": 0, "orders": (), "bytes": idx.tree.nbytes()}
    folds = set()
    for rect in [random_rect(rng, d=2) for _ in range(40)] + [QueryRect.full(2)]:
        trace: list = []
        stats: dict = {}
        got = idx.query(rect, SHANNON, stats=stats, trace=trace)
        want = np.flatnonzero(rect.mask(pts) & (pts.weights > 0))
        assert stats["points_in_range"] == len(want)
        assert got.count == pytest.approx(pts.weights[want].sum(), rel=1e-12)
        folds.add(stats["fold"])
        if stats["fold"] == "direct":
            assert idx.tree.slabs(rect).points <= FOLD_POINTS
            assert stats["bucket_visits"] == len(trace) == 0
            continue
        assert stats["fold"] == "canonical" and idx.tree.slabs(rect).points > FOLD_POINTS
        assert stats["bucket_visits"] == len(trace) == len(idx.tree.canonical_nodes(rect))
        assert [piece for piece, _, _ in trace] == list(range(len(trace)))
        assert all(row is None and a < b for _, (a, b), row in trace)
        ids = np.concatenate([pool_ids[a:b] for _, (a, b), _ in trace] + [pool_ids[:0]])
        assert len(ids) == len(set(ids.tolist())) and set(ids.tolist()) == set(want.tolist())
    assert folds == {"direct", "canonical"}
    assert idx.space_stats()["table_entries"] == 0


def test_t_is_range_checked_and_has_no_effect(rng):
    pts = random_pointset(rng, 80, d=2, m=6, weighted=True)
    for t in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            ExactNDIndex(pts, t=t)
    rects = [random_rect(rng, d=2) for _ in range(20)]
    answers = []
    for t in (0.0, 1.0):
        idx = ExactNDIndex(pts, t=t, orders=(2.0,))
        answers.append([idx.query(rect, kind) for rect in rects
                        for kind in (SHANNON, renyi_kind(2.0))])
    assert answers[0] == answers[1]


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
        # the same union through the index
        pts = ColoredPointSet(np.repeat(np.arange(4.0)[:, None], 2, axis=1),
                              [0, 1, 1, 2], [a[0], a[1], b[1], b[2]])
        idx = ExactNDIndex(pts, t=0.5, orders=(2.0, 3.0))
        for kind in kinds:
            got = idx.query(QueryRect.full(2), kind).value
            assert abs(got - core.entropy_of(union, kind).value) < 1e-9


def test_color_spanning_three_buckets(rng):
    # one dominant color spread over many canonical pieces
    n = 60
    colors = np.concatenate([np.zeros(5), np.ones(40), np.full(15, 2)]).astype(np.int64)
    coords = rng.uniform(0, 100, size=(n, 2))
    pts = ColoredPointSet(coords, colors)
    idx = ExactNDIndex(pts, t=0.4, orders=(2.0,))
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


def check_weighted(seed, heavy_lo, heavy_hi, reload):
    """``reload`` is None for the index as built, or a path to save it to and
    load it back from."""
    pts, rects = weighted_case(seed, heavy_lo, heavy_hi)
    idx = ExactNDIndex(pts, t=0.5, orders=(2.0, 3.0))
    if reload is not None:
        save_index(reload, "exactnd", idx)
        idx = load_index(reload, expect_kind="exactnd")[2]
    for rect in rects:
        for kind in WEIGHTED_KINDS:
            want = brute_entropy(pts, rect, kind)
            got = idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-6, (seed, rect, kind)
            assert got.count == pytest.approx(want.count, rel=1e-6), (seed, rect, kind)


# "eager": the index as built; "lazy": the index saved and loaded back,
# whose file holds the points and the pool, and whose derived tree arrays
# are rebuilt when it is loaded.
@pytest.mark.parametrize("reload", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("heavy_lo, heavy_hi",
                         [(1e2, 1e4), (1e4, 1e6), (1e6, 1e9), (1e9, 1e15)])
def test_weighted_heavy_points_match_oracle(heavy_lo, heavy_hi, reload, tmp_path):
    for seed in range(30):
        check_weighted(seed, heavy_lo, heavy_hi, tmp_path / "nd.rqe" if reload else None)


def exact_queries(rng, tmp_path):
    """A built ExactNDIndex, and thread i's answers: every rectangle and
    kind, thread 1 in reverse order."""
    pts = random_pointset(rng, 400, d=2, m=10, weighted=True)
    rects = [random_rect(rng, d=2) for _ in range(150)]
    kinds = (SHANNON, renyi_kind(2.0))
    index = ExactNDIndex(pts, t=0.8, orders=(2.0,))

    def answers(idx, i):
        order = rects if i == 0 else rects[::-1]
        got = {(id(rect), kind): idx.query(rect, kind).value for rect in order for kind in kinds}
        return [got[id(rect), kind] for rect in rects for kind in kinds]

    return lambda: index, answers


def first_sampled_calls(rng, tmp_path):
    """A freshly loaded EstimatorIndex, and thread i's answers: sampled
    estimates (additive Shannon, multiplicative Renyi-2, which also excludes
    a heavy color) drawn with its own generator, seeded i."""
    pts = random_pointset(rng, 400, d=2, m=10, weighted=True)
    rects = [QueryRect.full(2)] + [random_rect(rng, d=2) for _ in range(20)]
    save_index(tmp_path / "e.rqe", "estimator", EstimatorIndex(pts))
    cfg = EstimatorConfig(c_add=0.2, c_mult=2.0, c_mom=0.05, moment_c1=1.0, moment_c2=1.0)

    def answers(idx, i):
        g = np.random.default_rng(i)
        return [(estimate_additive(idx, rect, 0.25, cfg, g).value,
                 estimate_multiplicative_renyi(idx, rect, 2.0, 0.3, cfg, g).value)
                for rect in rects if not DualAccessOracle(idx, rect).is_empty]

    return lambda: load_index(tmp_path / "e.rqe")[2], answers


def race(shared, answers) -> list:
    """Thread i's answers on the shared index, two threads started together,
    with a short switch interval to interleave them finely."""
    interval = sys.getswitchinterval()
    start = threading.Barrier(2)
    got: list = [None, None]

    def run(i):
        start.wait()
        got[i] = answers(shared, i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return got


def test_concurrent_queries_match_serial(rng, tmp_path, always_sample):
    """Two threads share one index; each gets a serial run's answers. On the
    loaded estimator index their first calls race to derive the tree's
    sampling arrays."""
    for case in (exact_queries, first_sampled_calls):
        fresh, answers = case(rng, tmp_path)
        serial = fresh()
        want = [answers(serial, 0), answers(serial, 1)]
        shared = fresh()
        assert "sampling" not in vars(shared.tree)
        assert race(shared, answers) == want, case.__name__


def test_concurrent_first_queries_match_serial(rng, tmp_path):
    """The first queries of a freshly loaded sweep index, of a freshly
    loaded estimator index (exact answers) and of freshly loaded exact 1-D
    indexes, one in each fold regime, race to derive what a query reads
    lazily (the memoryviews, and an exact 1-D index's per-cut prefixes in
    the bincount regime or its ``ColorPrefix`` in the sort regime); each
    thread gets a serial run's answers."""
    pts1, pts2 = random_pointset(rng, 400, m=20), random_pointset(rng, 400, d=2, m=10,
                                                                   weighted=True)
    save_index(tmp_path / "s.rqe", "sweep-renyi", build_renyi(pts1, 0.3, 2.0))
    save_index(tmp_path / "e.rqe", "estimator", EstimatorIndex(pts2))
    for name, colors in (("b.rqe", 17), ("o.rqe", 150)):   # bound 80: bincount, then sort
        pts = ColoredPointSet(rng.uniform(0, 100, 400), rng.permutation(np.arange(400) % colors),
                              rng.uniform(0.5, 2.0, 400))
        built = Exact1DIndex(pts, t=0.5, orders=(2.0,))
        assert built.fold == ("bincount" if colors == 17 else "sort")
        save_index(tmp_path / name, "exact1d", built)
    intervals = [random_rect(rng) for _ in range(150)]
    rects = [random_rect(rng, d=2) for _ in range(150)]
    cfg = EstimatorConfig(c_add=0.2, c_mult=2.0, c_mom=0.05, moment_c1=1.0, moment_c2=1.0)

    def sweep_answers(idx, i):
        return [idx.query(r).value for r in (intervals if i == 0 else intervals[::-1])]

    def exact_estimates(idx, i):
        g = np.random.default_rng(i)
        return [estimate_additive(idx, r, 0.25, cfg, g).value
                for r in (rects if i == 0 else rects[::-1]) if not DualAccessOracle(idx, r).is_empty]

    def exact1d_answers(idx, i):
        return [idx.query(r, kind).value for r in (intervals if i == 0 else intervals[::-1])
                for kind in (SHANNON, renyi_kind(2.0))]

    lazy_1d = {"b.rqe": {"_views", "cut_prefix"},
               "o.rqe": {"_views", "color_prefix"}}
    for name, answers, holder in (("s.rqe", sweep_answers, lambda idx: idx),
                                  ("e.rqe", exact_estimates, lambda idx: idx.tree),
                                  ("b.rqe", exact1d_answers, lambda idx: idx),
                                  ("o.rqe", exact1d_answers, lambda idx: idx)):
        serial = load_index(tmp_path / name)[2]
        want = [answers(serial, 0), answers(serial, 1)]
        shared = load_index(tmp_path / name)[2]
        lazy = lazy_1d.get(name, {"_views"})
        assert not lazy & set(vars(holder(shared)))
        assert race(shared, answers) == want, name
        assert lazy <= set(vars(holder(shared))), name


_exponent = st.floats(min_value=0.0, max_value=12.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_brute_force_property(data):
    """Log-uniform weights in [1, 1e12] with zeros, integer coordinates (many
    duplicates), a one-color block, and empty rectangles."""
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
    idx = ExactNDIndex(pts, t=t, orders=(2.0, 3.0))
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


# ---------------------------------------------------------------------------
# the direct fold, either side of FOLD_POINTS


def rule_case():
    """600 points on a 200 x 200 integer grid (ties on both axes; every
    seventh of weight 0), and rectangles with bounds on the grid whose
    narrower slab holds exactly FOLD_POINTS or FOLD_POINTS + 1 points of
    positive weight, each slab being the narrower one, after four others:
    the full grid, an empty one whose slabs hold points, a one-point one and
    one whose x-slab is empty. Returns the points, the rectangles and each
    one's brute slab count."""
    rng = np.random.default_rng(65)
    n = 600
    coords = rng.integers(0, 200, (n, 2)).astype(float)
    weights = rng.uniform(0.5, 2.0, n)
    weights[::7] = 0.0
    pts = ColoredPointSet(coords, rng.integers(0, 9, n), weights)
    live = weights > 0
    rects, slabs, kept = [], [], {}
    single = coords[live][0]
    x, y = coords[live][1, 0], coords[live][2, 1]   # a column and a row that miss each other
    while (live & (coords[:, 0] == x) & (coords[:, 1] == y)).any():
        y += 1.0
    specials = [QueryRect((-5.0, -5.0), (-1.0, 300.0)), QueryRect(tuple(single), tuple(single)),
                QueryRect((x, y), (x, y)), QueryRect((0.0, 0.0), (199.0, 199.0))]
    while specials or len(kept) < 4 or min(kept.values()) < 12:
        lo = rng.integers(0, 200, 2).astype(float)
        rect = specials.pop() if specials else QueryRect(tuple(lo), tuple(lo + rng.integers(0, 200, 2)))
        counts = [int((live & (coords[:, k] >= rect.lo[k]) & (coords[:, k] <= rect.hi[k])).sum())
                  for k in (0, 1)]
        key = (min(counts), counts[0] <= counts[1])
        if len(rects) < 4 or key[0] in (FOLD_POINTS, FOLD_POINTS + 1) and kept.get(key, 0) < 12:
            if len(rects) >= 4:
                kept[key] = kept.get(key, 0) + 1
            rects.append(rect)
            slabs.append(key[0])
    return pts, rects, slabs


@pytest.mark.parametrize("swapped", [False, True])
def test_direct_fold_on_both_sides_of_the_rule(swapped, monkeypatch):
    # a 2-D range whose narrower slab, either one, holds at most FOLD_POINTS
    # points is scanned off that slab and folded directly; one point more
    # takes the walk. Either way ExactNDIndex and the four estimators' exact
    # answers match brute force and the walk's answer, on an index built
    # from arrays in the other byte order too; estimators decompose nothing
    # when the slab answers
    pts, rects, slabs = rule_case()
    built = ExactNDIndex(pts, orders=(2.0,))
    idx = built
    if swapped:
        arrays, scalars = built.to_arrays()
        idx = ExactNDIndex.from_arrays(
            {name: a.astype(a.dtype.newbyteorder(">")) for name, a in arrays.items()}, scalars)
    kinds = (SHANNON, renyi_kind(2.0))
    answers = []
    for rect, slab in zip(rects, slabs):
        located = idx.tree.slabs(rect)
        assert located.points == slab and located.direct == (slab <= FOLD_POINTS)
        for kind in kinds:
            want = brute_entropy(pts, rect, kind)
            stats: dict = {}
            got = idx.query(rect, kind, stats=stats)
            assert abs(got.value - want.value) <= 1e-9 and got.count == pytest.approx(want.count)
            assert stats["fold"] == ("direct" if located.direct else "canonical")
            assert (stats["bucket_visits"] == 0) == (located.direct or want.count == 0)
            assert stats["points_in_range"] == int((rect.mask(pts) & (pts.weights > 0)).sum())
            answers.append(got.value)
            if not want.count:
                with pytest.raises(EmptyRange):
                    estimate_additive(idx, rect, 0.2)
            if not want.count or slab > FOLD_POINTS + 1:   # draws would beat the exact answer
                continue
            for estimate, st in ((estimate_additive, {}), (estimate_multiplicative_renyi, {})):
                if kind.is_shannon:
                    h = (estimate_additive(idx, rect, 0.2, stats=st) if estimate is estimate_additive
                         else estimate_multiplicative(idx, rect, 0.2, stats=st))
                else:
                    h = (estimate_additive_renyi(idx, rect, 2.0, 0.2, stats=st)
                         if estimate is estimate_additive else
                         estimate_multiplicative_renyi(idx, rect, 2.0, 0.2, stats=st))
                assert abs(h.value - want.value) <= 1e-9 and st["mode"] == "exact-fallback"
                assert (st["pieces"] == 0) == located.direct
    assert {0, FOLD_POINTS, FOLD_POINTS + 1} <= set(slabs)
    # the full rectangle, an empty one whose slabs hold points, the one-point
    # one and one whose x-slab is empty
    assert [int((rect.mask(pts) & (pts.weights > 0)).sum()) for rect in rects[1:4]] == [0, 1, 0]
    assert 0 < slabs[1] <= FOLD_POINTS and slabs[3] == 0
    # the walk gives the same answers
    monkeypatch.setattr(rangetree, "FOLD_POINTS", 0)
    walked = [built.query(rect, kind).value for rect in rects for kind in kinds]
    assert np.allclose(walked, answers, rtol=1e-12, atol=1e-12)


def test_three_d_ranges_are_always_walked(rng):
    # past 2-D the slab count only bounds the range's points: a range of a
    # few points is still decomposed
    pts = random_pointset(rng, 200, d=3, m=5, weighted=True)
    idx = ExactNDIndex(pts)
    small = QueryRect(tuple(pts.coords[0] - 0.5), tuple(pts.coords[0] + 0.5))
    stats: dict = {}
    got = idx.query(small, SHANNON, stats=stats)
    assert idx.tree.slabs(small).points <= FOLD_POINTS and not idx.tree.slabs(small).direct
    assert stats["fold"] == "canonical" and stats["bucket_visits"] >= 1
    assert abs(got.value - brute_entropy(pts, small, SHANNON).value) <= 1e-9
