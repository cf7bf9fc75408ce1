"""Deterministic sweep structures: mapping, ladders, and hard bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind
from entrange.errors import WeightsNotSupported
from entrange.oracle import brute_entropy
from entrange.sweep1d import (
    Sweep1DIndex,
    _count_exponents,
    _exponents,
    _shrink_eps_shannon,
    build_renyi,
    build_shannon,
    fold_shannon,
    renyi_bound_holds,
    shannon_bound_holds,
)

from conftest import random_pointset


def rand_interval(rng, lo=0.0, hi=100.0):
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return QueryRect.interval(a, b)


def ladder_lengths(idx, keys):
    """Jumps per qualifying node in one ladder pool."""
    return np.bincount(keys // idx._stride, minlength=len(idx.node_keys))


def node_jumps(idx, keys, exps, gid):
    """(x, exponent) of node gid's jumps in one ladder pool."""
    sel = keys // idx._stride == gid
    return zip(idx.ucoords[keys[sel] % idx._stride - 1], exps[sel])


def test_weights_rejected(rng):
    pts = random_pointset(rng, 20, d=1, weighted=True)
    with pytest.raises(WeightsNotSupported):
        build_shannon(pts, 0.2)


def _assert_mapping_unique(pts, idx, a, b):
    in_box = (idx.mx >= a) & (idx.mx <= b) & (idx.my < a)
    counts = np.bincount(idx.mcolor[in_box], minlength=pts.num_colors)
    present = np.zeros(pts.num_colors, dtype=int)
    sel = (pts.coords[:, 0] >= a) & (pts.coords[:, 0] <= b)
    for c in np.unique(pts.colors[sel]):
        present[c] = 1
    assert np.array_equal(counts, present)


def test_mapped_color_uniqueness(rng):
    # in the mapped box, a color appears exactly once iff present in [a, b]
    for trial in range(20):
        pts = random_pointset(rng, 60, d=1, m=7, duplicate_frac=0.2)
        idx = build_shannon(pts, 0.3)
        for _ in range(40):
            rect = rand_interval(rng)
            _assert_mapping_unique(pts, idx, rect.lo[0], rect.hi[0])


def test_mapped_color_uniqueness_exhaustive():
    # every combinatorially distinct interval of one n=200 dataset
    rng = np.random.default_rng(77)
    pts = random_pointset(rng, 200, d=1, m=11, duplicate_frac=0.2)
    idx = build_shannon(pts, 0.4)
    xs = np.unique(pts.coords[:, 0])
    endpoints = np.concatenate(([xs[0] - 1], (xs[:-1] + xs[1:]) / 2, [xs[-1] + 1]))
    anchors = np.concatenate((endpoints, xs))  # open and closed boundaries
    anchors.sort()
    for i, a in enumerate(anchors):
        for b in anchors[i:]:
            _assert_mapping_unique(pts, idx, a, b)


def test_empty_query(rng):
    pts = random_pointset(rng, 50, d=1, m=5)
    for build in (lambda p: build_shannon(p, 0.2), lambda p: build_renyi(p, 0.2, 2.0)):
        idx = build(pts)
        s = idx.query(QueryRect.interval(500.0, 600.0))
        assert s.count == 0.0 and s.value == 0.0


def test_shannon_bound_random_sweep(rng):
    pts = random_pointset(rng, 400, d=1, m=31, duplicate_frac=0.1)
    for eps in (0.1, 0.5):
        idx = build_shannon(pts, eps)
        for _ in range(300):
            rect = rand_interval(rng)
            truth = brute_entropy(pts, rect, SHANNON).value
            got = idx.query(rect).value
            assert shannon_bound_holds(truth, got, eps), (eps, truth, got)


def test_renyi_bound_random_sweep(rng):
    pts = random_pointset(rng, 400, d=1, m=31, duplicate_frac=0.1)
    for eps in (0.1, 0.5):
        for alpha in (1.5, 2.0, 3.0):
            idx = build_renyi(pts, eps, alpha)
            for _ in range(200):
                rect = rand_interval(rng)
                truth = brute_entropy(pts, rect, renyi_kind(alpha)).value
                got = idx.query(rect).value
                assert renyi_bound_holds(truth, got, eps, alpha), (eps, alpha, truth, got)


def test_nine_point_projection_bounds():
    # 1-D projection of the 2:3:4 three-color example; both deterministic
    # bands contain the answer for eps = 0.2
    xs = np.array([1.0, 2.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.0, 2.5])
    colors = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2])
    pts = ColoredPointSet(xs, colors)
    rect = QueryRect.interval(0.0, 5.0)
    truth_s = 1.5304930567574824
    got = build_shannon(pts, 0.2).query(rect).value
    assert shannon_bound_holds(truth_s, got, 0.2)
    truth_r = 1.4818690077570527
    got = build_renyi(pts, 0.2, 2.0).query(rect).value
    assert renyi_bound_holds(truth_r, got, 0.2, 2.0)


def test_single_repeated_color(rng):
    coords = rng.uniform(0, 100, size=50)
    pts = ColoredPointSet(coords, np.zeros(50, dtype=np.int64))
    idx = build_shannon(pts, 0.3)
    # only single-color nodes qualify; every ladder is count-only
    assert not ladder_lengths(idx, idx.h_keys).any()
    for _ in range(50):
        rect = rand_interval(rng)
        assert idx.query(rect).value == 0.0


def test_ladders_match_bruteforce_prefixes(rng):
    # every stored jump satisfies its defining inequality pair
    pts = random_pointset(rng, 120, d=1, m=10, duplicate_frac=0.15)
    for make, alpha in ((lambda: build_shannon(pts, 0.25), None),
                        (lambda: build_renyi(pts, 0.25, 2.0), 2.0)):
        idx = make()
        base = idx._base
        # the lookups search each pool as one sorted array
        assert (np.diff(idx.s_keys) > 0).all() and (np.diff(idx.h_keys) > 0).all()
        coords = pts.coords[:, 0]
        for gid in range(len(idx.node_keys)):
            colors, x_v = idx._node(gid)
            sel = np.isin(pts.colors, colors) & (coords >= x_v)
            xs_all = np.sort(coords[sel])

            def value_at(x, kind_alpha=alpha):
                sub = sel & (coords <= x)
                counts = np.bincount(pts.colors[sub])
                counts = counts[counts > 0]
                n = counts.sum()
                if kind_alpha is None:
                    if n <= 1 or len(counts) <= 1:
                        return float(n > 1) * 0.0
                    return float(n * math.log2(n) - (counts * np.log2(counts)).sum())
                return float((counts.astype(float) ** kind_alpha).sum())

            for x, e in node_jumps(idx, idx.s_keys, idx.s_exp, gid):
                cnt = int((xs_all <= x).sum())
                assert base**e >= cnt > (base ** (e - 1) if e > 0 else 0)
            for x, e in node_jumps(idx, idx.h_keys, idx.h_exp, gid):
                val = value_at(x)
                assert base**e >= val - 1e-9
                if e > 0:
                    assert base ** (e - 1) < val + 1e-9


def test_per_node_sandwich(rng):
    # each node's estimate lies in [H_v, (1+eps')^2 H_v]
    pts = random_pointset(rng, 150, d=1, m=12, duplicate_frac=0.1)
    idx = build_shannon(pts, 0.3)
    coords = pts.coords[:, 0]
    for _ in range(60):
        rect = rand_interval(rng)
        for info in idx.canonical_debug(rect):
            colors = list(info["colors"])
            sel = np.isin(pts.colors, colors) & (coords >= info["x_v"]) & (coords <= rect.hi[0])
            counts = np.bincount(pts.colors[sel])
            counts = counts[counts > 0]
            n = counts.sum()
            h_true = float((counts / n * np.log2(n / counts)).sum()) if n else 0.0
            est = info["estimate"]
            assert est >= h_true - 1e-9
            assert est <= (1 + idx.eps_prime) ** 2 * h_true + 1e-9


def test_ladder_length_caps(rng):
    pts = random_pointset(rng, 300, d=1, m=25)
    idx = build_shannon(pts, 0.2)
    n = len(pts)
    cap_s = math.ceil(math.log(n + 1) / math.log(idx._base)) + 2
    cap_h = math.ceil(math.log(n * math.log2(n) + 2) / math.log(idx._base)) + 2
    assert int(ladder_lengths(idx, idx.s_keys).max()) <= cap_s
    assert int(ladder_lengths(idx, idx.h_keys).max()) <= cap_h
    ridx = build_renyi(pts, 0.2, 3.0)
    cap_g = math.ceil(math.log(float(n) ** 4.0) / math.log(ridx._base)) + 2
    assert int(ladder_lengths(ridx, ridx.h_keys).max()) <= cap_g


def test_coarse_thresholds_dominate_fine(rng):
    # both ladders sandwich the true count; the coarse one within its own factor
    pts = random_pointset(rng, 200, d=1, m=15)
    coarse = build_shannon(pts, 0.5)
    fine = build_shannon(pts, 0.05)
    for _ in range(100):
        rect = rand_interval(rng)
        c = coarse.query(rect)
        f = fine.query(rect)
        if f.count == 0:
            assert c.count == 0
            continue
        # coarse upper estimates exceed finer ones by at most their factor gap
        assert c.count >= f.count / (1 + fine.eps_prime) - 1e-9
        assert f.count >= c.count / (1 + coarse.eps_prime) ** 2 - 1e-9


def test_merge_depth_budget(rng):
    # balanced folding keeps depth within the 2*loglog(n)+O(1) allowance
    # that the eps shrink was sized for
    pts = random_pointset(rng, 500, d=1, m=40)
    idx = build_shannon(pts, 0.2)
    worst = 0
    for _ in range(200):
        rect = rand_interval(rng)
        worst = max(worst, len(idx._canonical_gids(rect.lo[0], rect.hi[0])))
    depth = math.ceil(math.log2(max(2, worst)))
    budget = 2 * math.log2(math.log2(len(pts))) + 4
    assert depth <= budget


def test_query_deterministic(rng):
    pts = random_pointset(rng, 100, d=1, m=9)
    idx = build_shannon(pts, 0.2)
    rect = QueryRect.interval(10.0, 90.0)
    assert idx.query(rect) == idx.query(rect)


def test_tiny_eps_needs_wide_exponents():
    # at eps = 0.002 the Shannon value ladders climb past the int16 range
    rng = np.random.default_rng(2002)
    pts = random_pointset(rng, 300, d=1, m=12, duplicate_frac=0.1)
    eps = 0.002
    sh = build_shannon(pts, eps)
    re2 = build_renyi(pts, eps, 2.0)
    assert int(sh.h_exp.max()) > 32767
    for _ in range(100):
        rect = rand_interval(rng)
        truth = brute_entropy(pts, rect, SHANNON).value
        assert shannon_bound_holds(truth, sh.query(rect).value, eps)
        truth = brute_entropy(pts, rect, renyi_kind(2.0)).value
        assert renyi_bound_holds(truth, re2.query(rect).value, eps, 2.0)


def log_fixup_exponents(values, base):
    """Reference ladder exponents: the vectorized log-and-fixup rule the
    value ladders use, applied to ``values`` in reverse order (numpy's pow,
    not Python's, decides at exact powers)."""
    values = values[::-1]
    e = np.ceil(np.log(values) / math.log(base) - 1e-12).astype(np.int64)
    np.maximum(e, 0, out=e)
    for _ in range(4):
        over = base ** e.astype(np.float64) < values
        if not over.any():
            break
        e[over] += 1
    for _ in range(4):
        under = (e > 0) & (base ** (e - 1.0) >= values)
        if not under.any():
            break
        e[under] -= 1
    return e[::-1]


@pytest.mark.parametrize("base", [
    2.0,                                  # powers of two are exact counts
    1.25,                                 # Renyi at eps = 0.5
    1.0 + _shrink_eps_shannon(0.002, 512),   # Shannon at eps = 0.002
    1.001,                                # Renyi at eps = 0.002
])
def test_exponent_lookup_matches_log_fixup_rule(base):
    log_base = math.log(base)
    n = 3000
    table = _count_exponents(n, base, log_base)
    counts = np.arange(1, n + 1)
    assert table.dtype == np.int64 and len(table) == n + 1
    assert np.array_equal(table[counts], log_fixup_exponents(counts.astype(float), base))
    assert table[1] == 0
    # values exactly at base**k and one ulp either side, and 1.0
    powers = base ** np.arange(0.0, math.log(1e7) / log_base)
    values = np.concatenate(([1.0], powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)))
    values = values[values > 0.0]
    want = log_fixup_exponents(values, base)
    assert np.array_equal(_exponents(values, base, log_base), want)
    assert (base ** want.astype(float) >= values).all()
    assert (base ** (want[want > 0] - 1.0) < values[want > 0]).all()


DEGENERATE = {
    "no points": ([], []),
    "one point": ([5.0], [3]),
    "all duplicates": ([5.0] * 12, [0, 1, 2, 0, 1, 0, 0, 2, 1, 1, 0, 3]),
    "single color": ([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 8.0], [4] * 8),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_inputs(name):
    coords, colors = DEGENERATE[name]
    pts = ColoredPointSet(np.array(coords, dtype=float), np.array(colors, dtype=np.int64))
    rects = [QueryRect.interval(a, b) for a, b in
             ((0.0, 10.0), (5.0, 5.0), (2.0, 2.0), (4.9, 5.1), (6.0, 7.0), (-1.0, 100.0))]
    for alpha in (None, 2.0, 3.0):
        idx = build_shannon(pts, 0.2) if alpha is None else build_renyi(pts, 0.2, alpha)
        for rect in rects:
            if alpha is None:
                truth = brute_entropy(pts, rect, SHANNON).value
                assert shannon_bound_holds(truth, idx.query(rect).value, 0.2)
            else:
                truth = brute_entropy(pts, rect, renyi_kind(alpha)).value
                assert renyi_bound_holds(truth, idx.query(rect).value, 0.2, alpha)
            nodes = idx.canonical_debug(rect)
            present = np.unique(pts.colors[(pts.coords[:, 0] >= rect.lo[0])
                                           & (pts.coords[:, 0] <= rect.hi[0])])
            assert sorted(c for info in nodes for c in info["colors"]) == present.tolist()


def test_canonical_debug_on_large_index():
    # node colors and x_v come from the index's own tables at any size
    rng = np.random.default_rng(6000)
    pts = random_pointset(rng, 6000, d=1, m=40)
    idx = build_shannon(pts, 0.5)
    coords = pts.coords[:, 0]
    for _ in range(5):
        rect = rand_interval(rng)
        nodes = idx.canonical_debug(rect)
        inside = (coords >= rect.lo[0]) & (coords <= rect.hi[0])
        got = sorted(c for info in nodes for c in info["colors"])
        assert got == np.unique(pts.colors[inside]).tolist()
        for info in nodes:
            assert rect.lo[0] <= info["x_v"] <= rect.hi[0]


def stack_walk(ilo, ihi, n):
    """Reference primary walk: a depth-first stack over the whole tree."""
    out, stack = [], [(0, n, 0)] if ilo < ihi else []
    while stack:
        lo, hi, depth = stack.pop()
        if hi <= ilo or ihi <= lo:
            continue
        if ilo <= lo and hi <= ihi:
            out.append((depth, lo, hi))
            continue
        mid = (lo + hi) // 2
        stack += [(mid, hi, depth + 1), (lo, mid, depth + 1)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 32, 37])
def test_primary_walk_matches_stack_walk(n):
    # same nodes, depths and left-to-right order as a full tree search, and
    # each node's cascaded cut equals a count over its row slice
    rng = np.random.default_rng(n)
    pts = random_pointset(rng, n, d=1, m=4, duplicate_frac=0.3)
    idx = build_shannon(pts, 0.3)
    y_rank = np.where(np.isneginf(idx.my), 0, idx.ucoords.searchsorted(idx.my) + 1)
    for r_a in range(len(idx.ucoords) + 2):
        for ilo in range(n + 1):
            for ihi in range(n + 1):
                got = idx._primary_nodes(ilo, ihi, r_a)
                assert [node[:3] for node in got] == stack_walk(ilo, ihi, n)
                for depth, lo, hi, cut in got:
                    assert cut == int((y_rank[idx.rows[depth, lo:hi]] < r_a).sum())


def test_gid_slots_hold_every_node_once(rng):
    # distinct slots: no node's gid overwrote another's
    for n in (1, 2, 7, 64, 300):
        pts = random_pointset(rng, n, d=1, m=6, duplicate_frac=0.2)
        idx = build_shannon(pts, 0.3)
        held = np.sort(idx.gid_slots[idx.gid_slots >= 0])
        assert np.array_equal(held, np.arange(len(idx.node_keys)))


def test_query_stats_count_nodes(rng):
    pts = random_pointset(rng, 300, d=1, m=20, duplicate_frac=0.1)
    for idx in (build_shannon(pts, 0.3), build_renyi(pts, 0.3, 2.0)):
        seen = 0
        for _ in range(100):
            rect = rand_interval(rng, -10.0, 110.0)
            stats = {}
            assert idx.query(rect, stats) == idx.query(rect)
            assert stats["canonical_nodes"] == len(idx.canonical_debug(rect))
            assert stats["primary_nodes"] <= 2 * math.ceil(math.log2(len(pts)))
            assert stats["primary_nodes"] > 0 or stats["canonical_nodes"] == 0
            seen += stats["canonical_nodes"]
        assert seen > 0


def numpy_fold(h_v, hi_w, lo_w):
    """Reference copy of the vectorised balanced pairwise Shannon fold."""
    while len(h_v) > 1:
        odd = len(h_v) % 2 == 1
        if odd:
            tail = (h_v[-1:], hi_w[-1:], lo_w[-1:])
            h_v, hi_w, lo_w = h_v[:-1], hi_w[:-1], lo_w[:-1]
        a_h, b_h = h_v[0::2], h_v[1::2]
        a_hi, b_hi = hi_w[0::2], hi_w[1::2]
        a_lo, b_lo = lo_w[0::2], lo_w[1::2]
        s_hi = a_hi + b_hi
        h_v = (
            a_hi * a_h + b_hi * b_h
            + a_hi * np.log2(s_hi / a_lo) + b_hi * np.log2(s_hi / b_lo)
        ) / (a_lo + b_lo)
        hi_w = s_hi
        lo_w = a_lo + b_lo
        if odd:
            h_v = np.concatenate([h_v, tail[0]])
            hi_w = np.concatenate([hi_w, tail[1]])
            lo_w = np.concatenate([lo_w, tail[2]])
    return float(hi_w[0]), float(h_v[0])


def test_fold_shape_matches_numpy_reference(rng):
    # same pairing order, hence the same ceil(log2 |V|) merge depth
    base = 1.0 + 0.05
    for size in range(1, 41):
        for _ in range(5):
            l_s = rng.integers(0, 60, size=size)
            hi = base ** l_s.astype(float)
            lo = base ** (l_s - 1.0)
            h = np.where(rng.random(size) < 0.3, 0.0, rng.uniform(0.0, 5.0, size=size))
            want = numpy_fold(h, hi, lo)
            got = fold_shannon(h.tolist(), hi.tolist(), lo.tolist())
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# adversarial inputs against brute force

_grid = st.integers(0, 12).map(float)
_endpoint = st.one_of(
    _grid,                                              # on a coordinate or not
    st.integers(-2, 13).map(lambda v: v + 0.5),         # between coordinates
    st.sampled_from([-1e9, 1e9, -math.inf, math.inf]),  # outside the data
)


@st.composite
def sweep_cases(draw):
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 40)))
    m = draw(st.sampled_from([1, 2, 6]))
    coords = draw(st.lists(_grid, min_size=n, max_size=n))  # dense duplicates
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    rects = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = sorted((draw(_endpoint), draw(_endpoint)))
        if draw(st.booleans()):
            b = a
        rects.append(QueryRect.interval(a, b))
    pts = ColoredPointSet(np.array(coords, dtype=float), np.array(colors, dtype=np.int64),
                          num_colors=m)
    return pts, rects


@pytest.mark.parametrize("alpha", [None, 2.0])
@settings(max_examples=60, deadline=None)
@given(case=sweep_cases())
def test_adversarial_sweep_against_brute(alpha, case):
    pts, rects = case
    eps = 0.3
    idx = build_shannon(pts, eps) if alpha is None else build_renyi(pts, eps, alpha)
    coords = pts.coords[:, 0]
    for rect in rects:
        got = idx.query(rect)
        if alpha is None:
            truth = brute_entropy(pts, rect, SHANNON)
            assert shannon_bound_holds(truth.value, got.value, eps), (rect, truth, got)
        else:
            truth = brute_entropy(pts, rect, renyi_kind(alpha))
            assert renyi_bound_holds(truth.value, got.value, eps, alpha), (rect, truth, got)
        assert truth.count <= got.count <= (1 + idx.eps_prime) * truth.count + 1e-9
        nodes = idx.canonical_debug(rect)
        assert got.count == pytest.approx(sum(info["count_hi"] for info in nodes), rel=1e-12)
        color_sets = [set(info["colors"]) for info in nodes]
        union = set().union(*color_sets)
        assert len(union) == sum(len(cs) for cs in color_sets)  # pairwise disjoint
        inside = (coords >= rect.lo[0]) & (coords <= rect.hi[0])
        assert union == set(pts.colors[inside].tolist())
