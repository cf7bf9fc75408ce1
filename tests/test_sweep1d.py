"""Deterministic sweep structures: mapping, ladders, and hard bounds."""

import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind
from entrange.errors import WeightsNotSupported
from entrange.oracle import brute_entropy
from entrange import sweep1d
from entrange.storage import load_index, save_index
from entrange.sweep1d import (
    Sweep1DIndex,
    _count_exponents,
    _exponents,
    _power_table,
    _shrink_eps_shannon,
    build_renyi,
    build_shannon,
    fold_shannon,
    renyi_bound_holds,
    shannon_bound_holds,
)

from conftest import profiled_calls, random_pointset


def rand_interval(rng, lo=0.0, hi=100.0):
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return QueryRect.interval(a, b)


COUNT, VALUE = 0, 1  # the ladder pools, in the order of ``ladder_first``'s pairs


def ladder_lengths(idx, pool):
    """Jumps per qualifying node in one ladder pool."""
    return np.diff(idx.ladder_first[pool::2].astype(np.int64))


def node_ranks(idx, pool, gid):
    """Ranks of node gid's run of jumps in one ladder pool."""
    first = idx.ladder_first
    return (idx.s_rank, idx.h_rank)[pool][first[2 * gid + pool]:first[2 * gid + 2 + pool]]


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
    assert not ladder_lengths(idx, VALUE).any()
    for _ in range(50):
        rect = rand_interval(rng)
        assert idx.query(rect).value == 0.0


def walk_values(pts, colors, x_v, alpha):
    """Per distinct coordinate x >= x_v, in order, of the points of
    ``colors``: x's rank, the count at or below x, and the ladder value
    (count * H under Shannon, the sum of count^alpha under Renyi)."""
    coords = pts.coords[:, 0]
    sel = np.isin(pts.colors, colors) & (coords >= x_v)
    order = np.argsort(coords[sel], kind="stable")
    xs, cs = coords[sel][order], pts.colors[sel][order]
    onehot = cs[:, None] == np.asarray(colors)[None, :]
    per_color = np.cumsum(onehot, axis=0)
    ends = np.append(xs[1:] != xs[:-1], True)
    counts = per_color[ends].astype(float)
    tot = counts.sum(axis=1)
    if alpha is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            clog = np.where(counts > 0, counts * np.log2(counts), 0.0)
        values = tot * np.log2(tot) - clog.sum(axis=1)
    else:
        values = (counts**alpha).sum(axis=1)
    ranks = np.unique(coords).searchsorted(xs[ends], side="right")
    return ranks, tot, values


def reference_ladders(idx, pts, gid, alpha):
    """Node gid's count and value ladders as a brute-force walk of its
    colors finds them: each (ranks, exponents) where its exponent rises."""
    colors, x_v = idx._node(gid)
    ranks, counts, values = walk_values(pts, colors, x_v, alpha)
    keep = values > 1e-9
    if alpha is None and len(colors) < 2:
        keep[:] = False
    out = []
    for r, v in ((ranks, counts), (ranks[keep], values[keep])):
        e = log_fixup_exponents(v, idx._base)
        rise = np.append(True, e[1:] > e[:-1])[:len(e)]
        out.append((r[rise], e[rise]))
    return out


LADDER_CASES = {
    "random": dict(n=120, dup=0.0, eps=0.25),
    "duplicates": dict(n=120, dup=0.3, eps=0.25),
    "tiny eps": dict(n=90, dup=0.1, eps=0.002),
}


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_stored_jumps_meet_query_powers_exactly(case):
    # no slack: at every stored jump, the power the query reads is at least
    # the jump's count or value, and the power one step lower is below it
    spec = LADDER_CASES[case]
    rng = np.random.default_rng(len(case))
    pts = random_pointset(rng, spec["n"], d=1, m=8, duplicate_frac=spec["dup"])
    for alpha in (None, 2.5):
        idx = (build_shannon(pts, spec["eps"]) if alpha is None
               else build_renyi(pts, spec["eps"], alpha))
        pw = idx._powers  # pw[e + 1] = base**e
        checked = 0
        for gid in range(len(idx.node_keys)):
            colors, x_v = idx._node(gid)
            ranks, counts, values = walk_values(pts, colors, x_v, alpha)
            for pool in (COUNT, VALUE):
                run = node_ranks(idx, pool, gid).astype(np.int64)
                # a rank repeats only in a count run, where one coordinate's
                # points make the count skip exponents
                strict = pool == VALUE or spec["dup"] == 0.0
                assert (np.diff(run) > 0).all() if strict else (np.diff(run) >= 0).all()
                for r in np.unique(run):
                    at = ranks.searchsorted(r)
                    assert ranks[at] == r  # every jump sits on a walk coordinate
                    l_s, l_h = idx._node_exponents([gid], float(idx.ucoords[r - 1]))
                    e, v = (l_s[0], counts[at]) if pool == COUNT else (l_h[0], values[at])
                    assert pw[e + 1] >= v, (gid, r, e, v)
                    assert e == 0 or pw[e] < v, (gid, r, e, v)
                    checked += 1
        assert checked > 0


def test_ladders_match_bruteforce_prefixes(rng):
    # runs of both pools hold every node's jumps in rank order, each count
    # jump and value jump where its exponent rises, as a brute-force walk
    # of the node's colors finds them
    pts = random_pointset(rng, 120, d=1, m=10, duplicate_frac=0.15)
    for make, alpha in ((lambda: build_shannon(pts, 0.25), None),
                        (lambda: build_renyi(pts, 0.25, 2.0), 2.0)):
        idx = make()
        assert len(idx.ladder_first) == 2 * len(idx.node_keys) + 2
        assert idx.ladder_first[-2] == len(idx.s_rank)
        assert idx.ladder_first[-1] == len(idx.h_rank)
        want_d = np.unique(log_fixup_exponents(np.arange(1.0, len(pts) + 1), idx._base))
        assert np.array_equal(idx.count_exps, want_d)
        for gid in range(len(idx.node_keys)):
            (s_ranks, s_exps), (h_ranks, h_exps) = reference_ladders(idx, pts, gid, alpha)
            # a count jump's rank, once per exponent its count reaches first
            place = want_d.searchsorted(s_exps)
            got = node_ranks(idx, COUNT, gid)
            assert np.array_equal(got, np.repeat(s_ranks, np.diff(place, prepend=-1)))
            assert (np.diff(got.astype(np.int64)) >= 0).all()
            got = node_ranks(idx, VALUE, gid)
            assert np.array_equal(got, h_ranks)
            assert (np.diff(got.astype(np.int64)) > 0).all()
            first = idx.ladder_first[2 * gid + 1]
            assert np.array_equal(idx.h_exp[first:first + len(got)], h_exps)


def key_pool_reference(idx, pts, alpha):
    """The former ladder layout, rebuilt by brute force: per pool, sorted
    int64 keys ``gid * (U + 1) + rank`` beside the jumps' exponents."""
    stride = len(idx.ucoords) + 1
    pools = [([], []), ([], [])]
    for gid in range(len(idx.node_keys)):
        for (keys, exps), (ranks, e) in zip(pools, reference_ladders(idx, pts, gid, alpha)):
            keys.append(gid * stride + ranks)
            exps.append(e)
    return stride, [tuple(np.concatenate(a).tolist() for a in pool) for pool in pools]


def key_pool_exponents(stride, pools, gids, rank):
    """The former lookup: a bisection of each pool's int64 keys, with
    ``key // stride == gid`` telling a node's jump from the next node's."""
    (s_keys, s_exp), (h_keys, h_exp) = pools
    l_s, l_h = [], []
    for gid in gids:
        key = gid * stride + rank
        i = bisect.bisect_right(s_keys, key)
        assert i > 0 and s_keys[i - 1] // stride == gid
        l_s.append(s_exp[i - 1])
        i = bisect.bisect_right(h_keys, key)
        l_h.append(h_exp[i - 1] if i > 0 and h_keys[i - 1] // stride == gid else None)
    return l_s, l_h


ORACLE_CASES = {
    "series-1d-like": dict(n=512, m=32, dup=0.0, eps=0.5),
    "15% duplicates": dict(n=400, m=20, dup=0.15, eps=0.3),
    "eps 0.002": dict(n=200, m=12, dup=0.1, eps=0.002),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_lookup_matches_key_pool_oracle(case):
    # rank runs, count_exps and h_exp give every canonical node the same
    # (count, value) exponents as the former int64 key pools
    spec = ORACLE_CASES[case]
    rng = np.random.default_rng(spec["n"])
    pts = random_pointset(rng, spec["n"], d=1, m=spec["m"], duplicate_frac=spec["dup"])
    for alpha in (None, 2.0):
        idx = (build_shannon(pts, spec["eps"]) if alpha is None
               else build_renyi(pts, spec["eps"], alpha))
        stride, pools = key_pool_reference(idx, pts, alpha)
        nodes = 0
        for _ in range(1500):
            a, b = sorted(rng.uniform(-5.0, 105.0, size=2))
            gids = idx._canonical_gids(a, b)
            rank = int(idx.ucoords.searchsorted(b, side="right"))
            assert idx._node_exponents(gids, b) == key_pool_exponents(stride, pools, gids, rank)
            nodes += len(gids)
        assert nodes > 1500


def test_layout_and_round_trip(tmp_path):
    # below 65,536 distinct coordinates a count jump is one 2-byte rank with
    # no exponent; bytes count every held array, the derived powers and
    # y-ranks included
    rng = np.random.default_rng(512)
    pts = random_pointset(rng, 512, d=1, m=32)
    for kind, idx in (("sweep-shannon", build_shannon(pts, 0.5)),
                      ("sweep-renyi", build_renyi(pts, 0.5, 2.0))):
        assert 256 <= len(idx.ucoords) < 65536
        assert idx.s_rank.dtype == idx.h_rank.dtype == np.uint16
        assert not any(hasattr(idx, name) for name in ("s_keys", "s_exp", "h_keys"))
        assert idx.h_exp.dtype == np.min_scalar_type(int(idx.h_exp.max()))
        held = [v for v in vars(idx).values() if isinstance(v, np.ndarray)]
        assert idx.space_stats()["bytes"] == sum(a.nbytes for a in held)
        assert idx.rows.dtype == np.uint16
        assert not any(hasattr(idx, name) for name in ("left_counts", "y_root"))
        assert tuple(idx.to_arrays()[0]) == idx.STORED
        assert not {"_powers", "y_rank"} & set(idx.STORED)
        path = tmp_path / f"{kind}.rqe"
        save_index(path, kind, idx)
        loaded = load_index(path, expect_kind=kind)[2]
        assert np.array_equal(loaded._powers, idx._powers)
        assert loaded.y_rank.dtype == idx.y_rank.dtype == np.uint16
        assert np.array_equal(loaded.y_rank, idx.y_rank)
        # the build chose exponents against a longer table with this prefix
        longer = _power_table(idx._base, len(idx._powers) + 100)
        assert np.array_equal(longer[:len(idx._powers)], idx._powers)
        assert loaded.space_stats() == idx.space_stats()
        for _ in range(200):
            rect = rand_interval(rng, -5.0, 105.0)
            got = idx.query(rect)
            assert loaded.query(rect) == got
            if kind == "sweep-renyi":  # the count is a plain sum of table reads
                nodes = idx.canonical_debug(rect)
                assert got.count == sum(idx._powers[info["l_s"] + 1] for info in nodes)


@pytest.mark.parametrize("batch", [1, 61])
def test_ladders_independent_of_batch_size(monkeypatch, batch):
    # a batch of one walk point puts every node in a batch of its own, each
    # larger than the bound; 61 cuts batches at odd places: either way every
    # stored array is the default build's, dtype included
    rng = np.random.default_rng(61)
    pts = random_pointset(rng, 200, d=1, m=12, duplicate_frac=0.3)
    builds = (lambda: build_shannon(pts, 0.4), lambda: build_renyi(pts, 0.4, 2.0))
    want = [build().to_arrays()[0] for build in builds]
    monkeypatch.setattr(sweep1d, "_BATCH", batch)
    for build, ref in zip(builds, want):
        got = build().to_arrays()[0]
        assert got.keys() == ref.keys()
        for name, a in got.items():
            assert a.dtype == ref[name].dtype and np.array_equal(a, ref[name]), name


def test_build_memory_bounded():
    """512 points, 32 colors at eps = 0.5: each build's traced peak is one
    batch of temporaries plus the index, far below the 37-41 MB the build
    took while it kept every batch's ladders on int64."""
    rng = np.random.default_rng(512)
    pts = random_pointset(rng, 512, d=1, m=32)
    for build in (lambda: build_shannon(pts, 0.5), lambda: build_renyi(pts, 0.5, 2.0)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024


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
    assert int(ladder_lengths(idx, COUNT).max()) <= cap_s
    assert int(ladder_lengths(idx, VALUE).max()) <= cap_h
    ridx = build_renyi(pts, 0.2, 3.0)
    cap_g = math.ceil(math.log(float(n) ** 4.0) / math.log(ridx._base)) + 2
    assert int(ladder_lengths(ridx, VALUE).max()) <= cap_g


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
    assert int(sh.h_exp.max()) > 32767 and sh.h_exp.itemsize == 4
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
    pw = _power_table(base, math.ceil(math.log(1e7) / log_base) + 6)
    table = _count_exponents(n, pw, log_base)
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
    assert np.array_equal(_exponents(values, pw, log_base), want)
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


def stack_walk(ilo, ihi, lo, hi):
    """Reference tiling of [ilo, ihi) by the mid-split tree over [lo, hi):
    (depth, start, stop) of its nodes, found by a depth-first stack search
    of the whole tree, left to right."""
    out, stack = [], [(lo, hi, 0)] if ilo < ihi else []
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
def test_canonical_gids_match_stack_walk(n):
    # every interval with ends on the distinct coordinates or in the gaps
    # between and around them: the primary nodes of a full tree search, in
    # each the secondary nodes tiling the prefix of row entries with
    # y-rank below r_a (a brute count), each mapped through gid_slots, in
    # the same left-to-right order
    rng = np.random.default_rng(n)
    pts = random_pointset(rng, n, d=1, m=4, duplicate_frac=0.3)
    idx = build_shannon(pts, 0.3)
    u = idx.ucoords
    y_rank = np.where(np.isneginf(idx.my), 0, u.searchsorted(idx.my) + 1)
    ends = np.concatenate(([u[0] - 1.0], u, (u[:-1] + u[1:]) / 2, [u[-1] + 1.0]))
    for a in ends.tolist():
        ilo, r_a = int(idx.mx.searchsorted(a)), int(u.searchsorted(a)) + 1
        for b in ends.tolist():
            prim = stack_walk(ilo, int(idx.mx.searchsorted(b, "right")), 0, n)
            want = []
            for depth, lo, hi in prim:
                cut = int((y_rank[idx.rows[depth, lo:hi]] < r_a).sum())
                for _, s, e in stack_walk(lo, lo + cut, lo, hi):
                    slot = lo + s if e - s == 1 else hi + (s + e) // 2
                    want.append(int(idx.gid_slots[2 * n * depth + slot]))
            stats = {}
            assert idx._canonical_gids(a, b, stats) == want, (a, b)
            assert stats["primary_nodes"] == len(prim)


def test_query_makes_no_numpy_call(rng):
    pts = random_pointset(rng, 300, d=1, m=20, duplicate_frac=0.1)
    rects = [rand_interval(rng, -10.0, 110.0) for _ in range(40)] + [QueryRect.full(1)]
    for idx in (build_shannon(pts, 0.3), build_renyi(pts, 0.3, 2.0)):
        stats = {}
        got, calls, numpy_calls = profiled_calls(
            lambda: [idx.query(rect, stats) for rect in rects])
        assert stats["canonical_nodes"] > 1
        assert any(getattr(c, "__name__", "") == "bisect_left" for c in calls)
        assert not numpy_calls
        assert got == [idx.query(rect) for rect in rects]


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
