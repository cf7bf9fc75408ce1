"""Deterministic sweep structures: mapping, ladders, and hard bounds."""

import bisect
import copy
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrange.core import (
    ColoredPointSet,
    EntropySummary,
    QueryRect,
    SHANNON,
    entropy_from_sums,
    renyi_kind,
)
from entrange.errors import InvalidWeight, WeightsNotSupported
from entrange.oracle import brute_entropy
from entrange import rangetree, sweep1d
from entrange.rangetree import depth_rows, refine_spans
from entrange.storage import load_index, save_index
from entrange.sweep1d import (
    Sweep1DIndex,
    _exponents,
    build_renyi,
    build_shannon,
    renyi_bound_holds,
    shannon_bound_holds,
)

from conftest import profiled_calls, random_pointset


def rand_interval(rng, lo=0.0, hi=100.0):
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return QueryRect.interval(a, b)


def ladder_lengths(idx):
    """Jumps per qualifying node."""
    return np.diff(idx.ladder_first.astype(np.int64))


def node_run(idx, gid):
    """Ranks and exponents of node gid's run of jumps."""
    lo, hi = idx.ladder_first[gid], idx.ladder_first[gid + 1]
    return idx.h_rank[lo:hi], idx.h_exp[lo:hi]


def node_exponent(idx, gid, b):
    """Exponent of node gid's rightmost jump at or below b, or None."""
    ranks, exps = node_run(idx, gid)
    i = int(ranks.searchsorted(idx.ucoords.searchsorted(b, side="right"), side="right"))
    return int(exps[i - 1]) if i else None


def node_colors(idx, gid):
    """Colors (in row order) and x_v of qualifying node gid."""
    depth, start, stop = idx._spans(gid)
    ids = idx.rows[depth, start:stop]
    return idx.mcolor[ids], float(idx.mx[ids].min())


def canonical_debug(idx, a, b):
    """Per canonical node of [a, b], left to right, from the brute
    ``descent``: its colors, x_v, gid through ``gid_slots`` (None for a
    one-point node) and the exponent of its rightmost jump at or below b
    (None if none, or for a one-point node)."""
    out = []
    for depth, start, stop in descent(idx, a, b):
        ids = idx.rows[depth, start:stop]
        gid = exp = None
        if stop - start >= 2:
            gid = int(idx.gid_slots[idx.n * depth + (start + stop) // 2])
            assert gid >= 0, (depth, start, stop)   # a stored node
            exp = node_exponent(idx, gid, b)
        out.append(dict(colors=tuple(idx.mcolor[ids].tolist()), x_v=float(idx.mx[ids].min()),
                        gid=gid, exp=exp))
    return out


def lower_power(idx, e):
    """The lower power (1+e')^(e-1) of exponent e, as ``np.power`` gives it."""
    return float(np.power(idx._base, e - 1.0))


def reference_answer(idx, pts, a, b):
    """The answer to [a, b] as the query gives it, and the brute descent's
    nodes. An interval of at most ``rangetree.FOLD_POINTS`` points is folded
    directly: f of each color's brute count, summed in the order the colors
    first occur among the mapped points. Any other is folded over the
    descent's nodes left to right, as the query adds them: a larger node's
    lower power at its rightmost jump at or below b (its run read with
    numpy, the power taken from the jump's exponent), or nothing if it has
    none; a one-point node's f(k) at a brute count k of its color's points
    in [x_v, b]."""
    coords = pts.coords[:, 0]
    inside = (coords >= a) & (coords <= b)
    count = int(inside.sum())
    nodes = canonical_debug(idx, a, b)
    if count <= rangetree.FOLD_POINTS:
        mapped = idx.mcolor[idx.mx.searchsorted(a):idx.mx.searchsorted(b, "right")]
        s = sum([float(idx._f[int((inside & (pts.colors == c)).sum())])
                 for c in dict.fromkeys(mapped.tolist())])
        return EntropySummary(idx.kind, float(count), entropy_from_sums(count, s, idx.kind)), nodes
    s_lo = 0.0
    for info in nodes:
        if info["gid"] is None:
            (color,) = info["colors"]
            k = int(((pts.colors == color) & (coords >= info["x_v"]) & (coords <= b)).sum())
            assert k >= 1
            s_lo += float(idx._f[k])
        elif info["exp"] is not None:
            s_lo += lower_power(idx, info["exp"])
    want = EntropySummary(idx.kind, float(count), entropy_from_sums(count, s_lo, idx.kind))
    return want, nodes


def test_weights_rejected(rng):
    pts = random_pointset(rng, 20, d=1, weighted=True)
    with pytest.raises(WeightsNotSupported):
        build_shannon(pts, 0.2)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 2.0])
def test_eps_outside_unit_interval_rejected(rng, eps):
    pts = random_pointset(rng, 20, d=1)
    for build in (build_shannon, lambda p, e: build_renyi(p, e, 2.0)):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            build(pts, eps)


def test_rect_of_another_dimension_rejected(rng):
    idx = build_shannon(random_pointset(rng, 20, d=1), 0.3)
    with pytest.raises(ValueError, match="query rect must be 1-D"):
        idx.query(QueryRect.full(2))


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


def test_single_repeated_color(rng, no_direct_fold):
    # no node of two or more points has distinct colors, so nothing holds a
    # ladder; a range's one canonical node is a one-point node, which adds
    # the exact f(W): the answer log2 W - f(W)/W is 0 up to rounding
    coords = rng.uniform(0, 100, size=50)
    pts = ColoredPointSet(coords, np.zeros(50, dtype=np.int64))
    idx = build_shannon(pts, 0.3)
    assert len(idx.node_keys) == 0 and len(idx.h_rank) == 0
    seen = 0
    for _ in range(50):
        rect = rand_interval(rng)
        stats = {}
        got = idx.query(rect, stats)
        assert got.count == ((coords >= rect.lo[0]) & (coords <= rect.hi[0])).sum()
        assert abs(got.value) <= 1e-12
        assert stats["canonical_nodes"] == (got.count > 0)
        seen += got.count > 1
    assert seen > 0


def walk_values(pts, colors, x_v, alpha):
    """Per distinct coordinate x >= x_v, in order, of the points of
    ``colors``: x's rank and the ladder value S_v at x, the sum over
    colors of count log2 count (Shannon) or count^alpha (Renyi)."""
    coords = pts.coords[:, 0]
    sel = np.isin(pts.colors, colors) & (coords >= x_v)
    order = np.argsort(coords[sel], kind="stable")
    xs, cs = coords[sel][order], pts.colors[sel][order]
    onehot = cs[:, None] == np.asarray(colors)[None, :]
    per_color = np.cumsum(onehot, axis=0)
    ends = np.append(xs[1:] != xs[:-1], True)
    counts = per_color[ends].astype(float)
    if alpha is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(counts > 0, counts * np.log2(counts), 0.0).sum(axis=1)
    else:
        values = (counts**alpha).sum(axis=1)
    ranks = np.unique(coords).searchsorted(xs[ends], side="right")
    return ranks, values


def reference_ladder(idx, pts, gid, alpha):
    """Node gid's ladder as a brute-force walk of its colors finds it: the
    (ranks, exponents) where the exponent of a positive S_v rises."""
    colors, x_v = node_colors(idx, gid)
    ranks, values = walk_values(pts, colors, x_v, alpha)
    keep = values > 1e-9
    r, e = ranks[keep], log_fixup_exponents(values[keep], idx._base)
    rise = np.append(True, e[1:] > e[:-1])[:len(e)]
    return r[rise], e[rise]


LADDER_CASES = {
    "random": dict(n=120, dup=0.0, eps=0.25),
    "duplicates": dict(n=120, dup=0.3, eps=0.25),
    "tiny eps": dict(n=90, dup=0.1, eps=0.002),
}


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_stored_jumps_meet_query_powers_exactly(case):
    # no slack: at every stored jump, the power one step above the lower
    # power the query reads is at least the jump's S_v, and the lower power
    # is below it; ``_lower`` holds that lower power for every jump
    spec = LADDER_CASES[case]
    rng = np.random.default_rng(len(case))
    pts = random_pointset(rng, spec["n"], d=1, m=8, duplicate_frac=spec["dup"])
    for alpha in (None, 2.5):
        idx = (build_shannon(pts, spec["eps"]) if alpha is None
               else build_renyi(pts, spec["eps"], alpha))
        checked = 0
        for gid in range(len(idx.node_keys)):
            colors, x_v = node_colors(idx, gid)
            ranks, values = walk_values(pts, colors, x_v, alpha)
            run, exps = (a.astype(np.int64) for a in node_run(idx, gid))
            assert (np.diff(run) > 0).all() and (np.diff(exps) > 0).all()
            lowers = idx._lower[idx.ladder_first[gid]:idx.ladder_first[gid + 1]]
            for r, lower in zip(run, lowers):
                at = ranks.searchsorted(r)
                assert ranks[at] == r  # every jump sits on a walk coordinate
                e, v = node_exponent(idx, gid, float(idx.ucoords[r - 1])), values[at]
                assert np.power(idx._base, float(e)) >= v, (gid, r, e, v)
                assert lower == lower_power(idx, e) < v, (gid, r, e, v)
                checked += 1
        assert checked > 0


def test_ladders_match_bruteforce_prefixes(rng):
    # one run per node, in gid order, holds the node's jumps in rank order
    # where the exponent of S_v rises, as a brute-force walk of the node's
    # colors finds them; every node with a run holds two or more colors
    pts = random_pointset(rng, 120, d=1, m=10, duplicate_frac=0.15)
    for make, alpha in ((lambda: build_shannon(pts, 0.25), None),
                        (lambda: build_renyi(pts, 0.25, 2.0), 2.0)):
        idx = make()
        assert len(idx.ladder_first) == len(idx.node_keys) + 1
        assert idx.ladder_first[0] == 0 and idx.ladder_first[-1] == len(idx.h_rank)
        for gid in range(len(idx.node_keys)):
            ranks, exps = reference_ladder(idx, pts, gid, alpha)
            got_ranks, got_exps = node_run(idx, gid)
            assert np.array_equal(got_ranks, ranks) and np.array_equal(got_exps, exps)
            assert len(node_colors(idx, gid)[0]) >= 2


def test_ladders_after_a_heavy_walk_at_high_alpha():
    # at alpha 10 one color of 800 points puts S_v near 1e29 on the walks
    # that hold it, and lighter walks share their batches: each walk's sum
    # starts from 0, so a light node's ladder carries no rounding of the
    # heavy walks before it (a running sum over the whole batch lost 1,338
    # nodes' jumps here)
    n = 2000
    rng = np.random.default_rng(n)
    colors = rng.integers(1, 200, n)
    colors[rng.random(n) < 0.4] = 0
    pts = ColoredPointSet(np.round(rng.uniform(0, n / 3, n)), colors)
    idx = build_renyi(pts, 0.5, 10.0)
    assert len(idx.node_keys) > 5000
    for gid in range(len(idx.node_keys)):
        ranks, exps = reference_ladder(idx, pts, gid, 10.0)
        got_ranks, got_exps = node_run(idx, gid)
        assert np.array_equal(got_ranks, ranks) and np.array_equal(got_exps, exps), gid


def test_build_refuses_an_alpha_whose_terms_overflow():
    # f(512) = 512^120 overflows a float: the build names alpha and n, with
    # no numpy warning (it once raised a bare OverflowError after one); an
    # alpha whose f(n) fits still builds. The refusal is an InvalidWeight, as
    # Exact1DIndex raises for the same hazard, and so a ValueError
    pts = ColoredPointSet(np.arange(512.0), np.arange(512) % 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidWeight, match="alpha 120.0 is too high for 512 points"):
            build_renyi(pts, 0.5, 120.0)
        idx = build_renyi(pts, 0.5, 100.0)
    assert renyi_bound_holds(brute_entropy(pts, QueryRect.full(1), renyi_kind(100.0)).value,
                             idx.query(QueryRect.full(1)).value, 0.5, 100.0)


def key_pool_reference(idx, pts, alpha):
    """A former ladder layout, rebuilt by brute force: sorted int64 keys
    ``gid * (U + 1) + rank`` beside the jumps' exponents."""
    stride = len(idx.ucoords) + 1
    keys, exps = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for gid in range(len(idx.node_keys)):
        ranks, e = reference_ladder(idx, pts, gid, alpha)
        keys.append(gid * stride + ranks)
        exps.append(e)
    return stride, tuple(np.concatenate(a).tolist() for a in (keys, exps))


def key_pool_exponents(stride, pool, gids, rank):
    """The former lookup: a bisection of the int64 keys, with
    ``key // stride == gid`` telling a node's jump from the next node's."""
    keys, exps = pool
    out = []
    for gid in gids:
        i = bisect.bisect_right(keys, gid * stride + rank)
        out.append(exps[i - 1] if i > 0 and keys[i - 1] // stride == gid else None)
    return out


def one_point_terms(idx, pts, points, b):
    """f(k) for each of the mapped points of one-point canonical nodes, with
    k the brute count of its color's points in [x_v, b]: at least 1, its own."""
    coords = pts.coords[:, 0]
    out = []
    for i in points:
        k = int(((pts.colors == idx.mcolor[i]) & (coords >= idx.mx[i]) & (coords <= b)).sum())
        assert k >= 1
        out.append(float(idx._f[k]))
    return out


ORACLE_CASES = {
    "series-1d-like": dict(n=512, m=32, dup=0.0, eps=0.5),
    "15% duplicates": dict(n=400, m=20, dup=0.15, eps=0.3),
    "eps 0.002": dict(n=200, m=12, dup=0.1, eps=0.002),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_lookup_matches_key_pool_oracle(case, no_direct_fold):
    # the query's bisection of each larger canonical node's run reads the
    # same exponents as the former int64 key pool: its answer is the one
    # folded left to right over the brute descent's nodes from those
    # exponents' lower powers and each one-point node's f(k) at a brute
    # count k, with the exact count, bit for bit
    spec = ORACLE_CASES[case]
    rng = np.random.default_rng(spec["n"])
    pts = random_pointset(rng, spec["n"], d=1, m=spec["m"], duplicate_frac=spec["dup"])
    coords = pts.coords[:, 0]
    for alpha in (None, 2.0):
        idx = (build_shannon(pts, spec["eps"]) if alpha is None
               else build_renyi(pts, spec["eps"], alpha))
        stride, pool = key_pool_reference(idx, pts, alpha)
        nodes = 0
        for _ in range(1500):
            a, b = sorted(rng.uniform(-5.0, 105.0, size=2))
            count = int(((coords >= a) & (coords <= b)).sum())
            canonical = descent(idx, a, b)
            gids, points = split_descent(idx, canonical)
            rank = int(idx.ucoords.searchsorted(b, side="right"))
            exps = key_pool_exponents(stride, pool, gids, rank)
            assert exps == [node_exponent(idx, gid, b) for gid in gids]
            larger, one_point = iter(exps), iter(one_point_terms(idx, pts, points, b))
            s_lo = 0.0
            for _, start, stop in canonical:
                if stop - start >= 2:
                    e = next(larger)
                    s_lo += 0.0 if e is None else lower_power(idx, e)
                else:
                    s_lo += next(one_point)
            want = EntropySummary(idx.kind, float(count), entropy_from_sums(count, s_lo, idx.kind))
            assert idx.query(QueryRect.interval(a, b)) == want
            nodes += len(gids)
        assert nodes > 1500


def test_layout_and_round_trip(tmp_path):
    # below 65,536 distinct coordinates a jump is one 2-byte rank beside
    # its exponent, with one run start per node; a file holds the points
    # and those three arrays; bytes count every held array, the derived
    # layout, lower powers and y-ranks included
    rng = np.random.default_rng(512)
    pts = random_pointset(rng, 512, d=1, m=32)
    coords = pts.coords[:, 0]
    for kind, idx in (("sweep-shannon", build_shannon(pts, 0.5)),
                      ("sweep-renyi", build_renyi(pts, 0.5, 2.0))):
        assert 256 <= len(idx.ucoords) < 65536
        assert idx.h_rank.dtype == np.uint16
        assert not any(hasattr(idx, name) for name in ("s_rank", "count_exps", "h_keys"))
        assert idx.h_exp.dtype == np.min_scalar_type(int(idx.h_exp.max()))
        assert len(idx.ladder_first) == len(idx.node_keys) + 1
        held = [v for v in vars(idx).values() if isinstance(v, np.ndarray)]
        assert idx.space_stats()["bytes"] == sum(a.nbytes for a in held)
        assert idx.rows.dtype == np.uint16
        assert not any(hasattr(idx, name) for name in ("left_counts", "y_root"))
        assert tuple(idx.to_arrays()[0]) == idx.STORED
        assert idx.STORED == ("coords", "colors", "h_rank", "h_exp", "ladder_first")
        path = tmp_path / f"{kind}.rqe"
        save_index(path, kind, idx)
        loaded = load_index(path, expect_kind=kind)[2]
        assert loaded._lower.dtype == np.float64 and len(loaded._lower) == len(idx.h_exp)
        assert np.array_equal(loaded._lower, idx._lower)
        assert loaded.y_rank.dtype == idx.y_rank.dtype == np.uint16
        assert np.array_equal(loaded.y_rank, idx.y_rank)
        assert loaded.space_stats() == idx.space_stats()
        for _ in range(200):
            rect = rand_interval(rng, -5.0, 105.0)
            got = idx.query(rect)
            assert loaded.query(rect) == got
            assert got.count == ((coords >= rect.lo[0]) & (coords <= rect.hi[0])).sum()


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


def traced_peak(fn):
    """``fn()`` and its traced peak in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_memory_bounded():
    """512 points, 32 colors at eps = 0.5: each build's traced peak is one
    batch of temporaries plus the index, far below the 37-41 MB the build
    took while it kept every batch's ladders on int64."""
    rng = np.random.default_rng(512)
    pts = random_pointset(rng, 512, d=1, m=32)
    for build in (lambda: build_shannon(pts, 0.5), lambda: build_renyi(pts, 0.5, 2.0)):
        assert traced_peak(build)[1] < 16 * 1024 * 1024


def test_small_eps_index_memory():
    """300 points on [0, 100] rounded to 0.1, 12 colors: nothing a build
    holds grows with 1/eps. A powers table over every exponent up to the
    largest made the Shannon index 4.76 MB at eps 1e-4 and 462 MB at 1e-6,
    with a traced build peak of 1,028 MB."""
    rng = np.random.default_rng(300)
    pts = ColoredPointSet(np.round(rng.uniform(0.0, 100.0, 300), 1), rng.integers(0, 12, 300))
    for eps in (1e-4, 1e-6):
        sh, peak = traced_peak(lambda: build_shannon(pts, eps))
        re2 = build_renyi(pts, eps, 2.0)
        sizes = [idx.space_stats()["bytes"] for idx in (sh, re2)]
        print(f"eps {eps:g}: Shannon {sizes[0]:,} B, Renyi-2 {sizes[1]:,} B, "
              f"Shannon build peak {peak:,} B")
        assert max(sizes) < 500_000
        assert peak < 5 * 1024 * 1024
        assert len(sh._lower) == len(sh.h_exp)


def test_small_eps_builds_and_meets_bounds():
    # at eps 1e-15 over 64 points 1 + e' is one float step above 1 and the
    # exponents reach about 2.7e16; a powers table over them asked for
    # 190 PiB
    rng = np.random.default_rng(64)
    pts = random_pointset(rng, 64, d=1, m=6, duplicate_frac=0.1)
    sh = build_shannon(pts, 1e-15)
    re2 = build_renyi(pts, 1e-15, 2.0)
    assert sh._base > 1.0 and int(sh.h_exp.max()) > 2**53
    assert sh.space_stats()["bytes"] < 100_000
    for _ in range(200):
        rect = rand_interval(rng, -5.0, 105.0)
        truth = brute_entropy(pts, rect, SHANNON).value
        assert shannon_bound_holds(truth, sh.query(rect).value, 1e-15)
        truth = brute_entropy(pts, rect, renyi_kind(2.0)).value
        assert renyi_bound_holds(truth, re2.query(rect).value, 1e-15, 2.0)


def test_small_eps_crafted_file_loads_small(tmp_path):
    """A 512-point Shannon file whose eps reads 1e-7 and whose last exponent
    is the largest a load accepts but one (about 7.6e8): a powers table up
    to it was about 6 GB, while the load now derives one float per jump."""
    rng = np.random.default_rng(201)
    idx = build_shannon(random_pointset(rng, 512, d=1, m=32), 0.5)
    path = tmp_path / "crafted.rqe"
    idx.eps = 1e-7
    save_index(path, "sweep-shannon", idx)
    top = load_index(path)[2]._top
    assert top > 7e8
    idx.h_exp = idx.h_exp.astype(np.uint32)
    idx.h_exp[-1] = top - 1
    save_index(path, "sweep-shannon", idx)
    loaded, peak = traced_peak(lambda: load_index(path, expect_kind="sweep-shannon")[2])
    print(f"crafted eps-1e-7 file: load peak {peak:,} B")
    assert int(loaded.h_exp[-1]) == top - 1
    assert peak < 5 * 1024 * 1024
    assert loaded._lower[-1] == np.power(loaded._base, top - 2.0)


def test_per_node_sandwich(rng, no_direct_fold):
    # each larger canonical node's lower power lies in [S_v / (1+eps'), S_v),
    # a node without a jump at or below b has S_v = 0, and a one-point
    # node's S_v is f of its one color's count; the query adds these terms
    pts = random_pointset(rng, 150, d=1, m=12, duplicate_frac=0.1)
    coords = pts.coords[:, 0]
    for alpha in (None, 2.0):
        idx = build_shannon(pts, 0.3) if alpha is None else build_renyi(pts, 0.3, alpha)
        for _ in range(60):
            rect = rand_interval(rng)
            want, nodes = reference_answer(idx, pts, rect.lo[0], rect.hi[0])
            assert idx.query(rect) == want
            for info in nodes:
                sel = (np.isin(pts.colors, info["colors"]) & (coords >= info["x_v"])
                       & (coords <= rect.hi[0]))
                counts = np.bincount(pts.colors[sel]).astype(float)
                counts = counts[counts > 0]
                s_v = (counts * np.log2(counts) if alpha is None else counts**alpha).sum()
                if info["gid"] is None:
                    assert len(counts) == 1
                    assert idx._f[int(counts[0])] == pytest.approx(s_v, rel=1e-12, abs=0.0)
                    continue
                if info["exp"] is None:
                    assert alpha is None and s_v == 0.0
                    continue
                lower = lower_power(idx, info["exp"])
                assert lower < s_v <= idx._base * lower * (1 + 1e-12)


def test_ladder_length_caps(rng):
    pts = random_pointset(rng, 300, d=1, m=25)
    idx = build_shannon(pts, 0.2)
    n = len(pts)
    cap_h = math.ceil(math.log(n * math.log2(n) + 2) / math.log(idx._base)) + 2
    assert int(ladder_lengths(idx).max()) <= cap_h
    ridx = build_renyi(pts, 0.2, 3.0)
    cap_g = math.ceil(math.log(float(n) ** 4.0) / math.log(ridx._base)) + 2
    assert int(ladder_lengths(ridx).max()) <= cap_g


def test_coarse_thresholds_dominate_fine(rng):
    # the count is exact at any eps; both answers lie above the truth by at
    # most their own e' log2 W, so each lies within the other's excess
    pts = random_pointset(rng, 200, d=1, m=15)
    coarse = build_shannon(pts, 0.5)
    fine = build_shannon(pts, 0.05)
    assert fine.eps_prime < coarse.eps_prime
    for _ in range(100):
        rect = rand_interval(rng)
        c = coarse.query(rect)
        f = fine.query(rect)
        assert c.count == f.count
        log_w = math.log2(max(c.count, 1.0))
        assert f.value <= c.value + fine.eps_prime * log_w + 1e-9
        assert c.value <= f.value + coarse.eps_prime * log_w + 1e-9


def test_query_deterministic(rng):
    pts = random_pointset(rng, 100, d=1, m=9)
    idx = build_shannon(pts, 0.2)
    rect = QueryRect.interval(10.0, 90.0)
    assert idx.query(rect) == idx.query(rect)


def test_tiny_eps_needs_wide_exponents():
    # at eps = 0.0005 the Shannon ladders climb past the uint16 range, at
    # eps = 0.002 both kinds past the uint8 range
    rng = np.random.default_rng(2002)
    pts = random_pointset(rng, 300, d=1, m=12, duplicate_frac=0.1)
    sh = build_shannon(pts, 0.0005)
    re2 = build_renyi(pts, 0.002, 2.0)
    assert int(sh.h_exp.max()) > 65535 and sh.h_exp.itemsize == 4
    assert int(re2.h_exp.max()) > 255 and re2.h_exp.itemsize == 2
    for _ in range(100):
        rect = rand_interval(rng)
        truth = brute_entropy(pts, rect, SHANNON).value
        assert shannon_bound_holds(truth, sh.query(rect).value, 0.0005)
        truth = brute_entropy(pts, rect, renyi_kind(2.0)).value
        assert renyi_bound_holds(truth, re2.query(rect).value, 0.002, 2.0)


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
    2.0,                                  # powers of two are exact S values
    1.25,                                 # Renyi at eps = 0.5
    1.0 + 0.5 / math.log2(512),           # Shannon at eps = 0.5, n = 512 (series-1d)
    1.0 + 0.002 / math.log2(512),         # Shannon at eps = 0.002, n = 512
    1.001,                                # Renyi at eps = 0.002
    1.0001,                               # Renyi at eps = 2e-4
    1.0 + 1e-6,                           # Renyi at eps = 2e-6
])
def test_exponent_lookup_matches_log_fixup_rule(base):
    """``_exponents`` checks only the log guesses within its margin of an
    integer; it gives the fix-up loop's exponents on every value, exact
    powers and their neighbours included."""
    log_base = math.log(base)
    k = np.arange(1.0, 3001.0)
    # the S values of single colors, k log2 k (Shannon) and k^2 (Renyi-2)
    for values in ((k * np.log2(k))[1:], k**2):
        got = _exponents(values, base, log_base)
        assert got.dtype == np.int64
        assert np.array_equal(got, log_fixup_exponents(values, base))
    assert _exponents(np.ones(1), base, log_base)[0] == 0
    # values exactly at base**k and one ulp either side, and 1.0
    top = math.log(1e7) / log_base   # about 100,000 exponents at most
    powers = np.power(base, np.arange(0.0, top, max(1.0, top // 100_000)))
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
def test_degenerate_inputs(name, monkeypatch):
    # on the direct fold and, with its rule set to 0, on the ladders
    coords, colors = DEGENERATE[name]
    pts = ColoredPointSet(np.array(coords, dtype=float), np.array(colors, dtype=np.int64))
    rects = [QueryRect.interval(a, b) for a, b in
             ((0.0, 10.0), (5.0, 5.0), (2.0, 2.0), (4.9, 5.1), (6.0, 7.0), (-1.0, 100.0))]
    for alpha, bound in itertools.product((None, 2.0, 3.0), (rangetree.FOLD_POINTS, 0)):
        monkeypatch.setattr(rangetree, "FOLD_POINTS", bound)
        idx = build_shannon(pts, 0.2) if alpha is None else build_renyi(pts, 0.2, alpha)
        for rect in rects:
            if alpha is None:
                truth = brute_entropy(pts, rect, SHANNON).value
                assert shannon_bound_holds(truth, idx.query(rect).value, 0.2)
            else:
                truth = brute_entropy(pts, rect, renyi_kind(alpha)).value
                assert renyi_bound_holds(truth, idx.query(rect).value, 0.2, alpha)
            want, nodes = reference_answer(idx, pts, rect.lo[0], rect.hi[0])
            assert idx.query(rect) == want
            present = np.unique(pts.colors[(pts.coords[:, 0] >= rect.lo[0])
                                           & (pts.coords[:, 0] <= rect.hi[0])])
            assert sorted(c for info in nodes for c in info["colors"]) == present.tolist()


def test_canonical_debug_on_large_index():
    # node colors and x_v come from the index's own tables at any size, and
    # the query's answer is their fold
    rng = np.random.default_rng(6000)
    pts = random_pointset(rng, 6000, d=1, m=40)
    idx = build_shannon(pts, 0.5)
    coords = pts.coords[:, 0]
    for _ in range(5):
        rect = rand_interval(rng)
        want, nodes = reference_answer(idx, pts, rect.lo[0], rect.hi[0])
        assert idx.query(rect) == want
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


def descent(idx, a, b):
    """(depth, start, stop) of the canonical secondary nodes of [a, b], left
    to right, by brute force: the primary nodes of a full tree search, in
    each the secondary nodes tiling the prefix of row entries with y-rank
    below r_a (a brute count)."""
    u, n = idx.ucoords, idx.n
    y_rank = np.where(np.isneginf(idx.my), 0, u.searchsorted(idx.my) + 1)
    ilo, r_a = int(idx.mx.searchsorted(a)), int(u.searchsorted(a)) + 1
    out = []
    for depth, lo, hi in stack_walk(ilo, int(idx.mx.searchsorted(b, "right")), 0, n):
        cut = int((y_rank[idx.rows[depth, lo:hi]] < r_a).sum())
        out += [(depth, s, e) for _, s, e in stack_walk(lo, lo + cut, lo, hi)]
    return out


def split_descent(idx, nodes):
    """The gids of the nodes of two or more points, through ``gid_slots`` at
    their split points, and the mapped points of the one-point nodes, each
    in the given order."""
    gids = [int(idx.gid_slots[idx.n * d + (s + e) // 2]) for d, s, e in nodes if e - s >= 2]
    points = [int(idx.rows[d, s]) for d, s, e in nodes if e - s == 1]
    return gids, points


def interval_ends(idx):
    """Interval ends on the distinct coordinates and in the gaps between and
    around them, in order."""
    u = idx.ucoords
    return np.sort(np.concatenate(([u[0] - 1.0], u, (u[:-1] + u[1:]) / 2, [u[-1] + 1.0])))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 32, 37])
def test_canonical_gids_match_stack_walk(n, no_direct_fold):
    # every interval with ends on the distinct coordinates or in the gaps
    # between and around them, under Shannon and Renyi-2 (where a one-point
    # node's f(1) is not 0): the query's answer is bit for bit the fold, left
    # to right, over the brute descent's nodes, the larger ones mapped
    # through gid_slots; it counts those nodes and the tree search's
    # primary nodes
    rng = np.random.default_rng(n)
    pts = random_pointset(rng, n, d=1, m=4, duplicate_frac=0.3)
    for idx in (build_shannon(pts, 0.3), build_renyi(pts, 0.3, 2.0)):
        ends = interval_ends(idx)
        for i, a in enumerate(ends.tolist()):
            for b in ends[i:].tolist():
                want, nodes = reference_answer(idx, pts, a, b)
                stats = {}
                assert idx.query(QueryRect.interval(a, b), stats) == want, (a, b)
                assert stats["canonical_nodes"] == len(nodes)
                ilo, ihi = idx.mx.searchsorted(a), idx.mx.searchsorted(b, "right")
                assert stats["primary_nodes"] == len(stack_walk(ilo, ihi, 0, n))


def reachable_nodes(idx):
    """(depth, start, stop) of every secondary node of two or more points a
    query's descent can take whole, by a brute walk of each primary span's
    secondary tree: the roots and left children with distinct colors that
    end within the span's reach, its start plus its row entries with y
    below its least x."""
    n, out = idx.n, set()
    prim = [(0, n, 0)] if n else []
    while prim:
        p, e, depth = prim.pop()
        ids = idx.rows[depth, p:e]
        reach = p + int((idx.my[ids] < idx.mx[p:e].min()).sum())
        sec = [(p, e, True)]
        while sec:
            lo, hi, takeable = sec.pop()
            colors = idx.mcolor[idx.rows[depth, lo:hi]]
            if (takeable and hi - lo >= 2 and hi <= reach
                    and len(set(colors.tolist())) == hi - lo):
                out.add((depth, lo, hi))
            if hi - lo >= 2:
                mid = (lo + hi) // 2
                sec += [(lo, mid, True), (mid, hi, False)]
        if e - p >= 2:
            mid = (p + e) // 2
            prim += [(p, mid, depth + 1), (mid, e, depth + 1)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 37, 120])
def test_ladders_only_for_reachable_nodes(n, no_direct_fold):
    # the stored nodes are exactly the brute walk's reachable ones of two or
    # more points, and every interval with ends on the distinct coordinates
    # or in the gaps between and around them takes only stored nodes as
    # canonical nodes of two or more points, under either kind: each maps
    # through gid_slots to a gid of its own span, and the query's answer is
    # the fold over them
    rng = np.random.default_rng(1000 + n)
    pts = random_pointset(rng, n, d=1, m=8, duplicate_frac=0.3)
    idx = build_shannon(pts, 0.3)
    stored = set(zip(*(a.tolist() for a in idx._spans(slice(None)))))
    assert stored == reachable_nodes(idx)
    renyi = build_renyi(pts, 0.3, 2.0)
    assert np.array_equal(renyi.node_keys, idx.node_keys)
    ends = interval_ends(idx)
    for i, a in enumerate(ends.tolist()):
        for b in ends[i:].tolist():
            canonical = descent(idx, a, b)
            larger = [node for node in canonical if node[2] - node[1] >= 2]
            assert set(larger) <= stored, (a, b)
            for index in (idx, renyi):
                gids = np.array(split_descent(index, canonical)[0], dtype=np.int64)
                assert list(zip(*(g.tolist() for g in index._spans(gids)))) == larger, (a, b)
                want, _ = reference_answer(index, pts, a, b)
                assert index.query(QueryRect.interval(a, b)) == want, (a, b)


@pytest.mark.parametrize("dup", [0.3, 0.6])
@pytest.mark.parametrize("n", list(range(1, 41)) + [64])
def test_exhaustive_interval_sweep(n, dup, no_direct_fold):
    # every interval with ends on or between the distinct coordinates,
    # under Shannon and Renyi 1.5, 2 and 3: the bound holds against brute
    # force, each one-point canonical node adds f(k) at a brute count k, and
    # each stored node's run is the brute walk's ladder
    rng = np.random.default_rng(3 * n + int(100 * dup))
    pts = random_pointset(rng, n, d=1, m=max(2, n // 5), duplicate_frac=dup)
    eps = 0.3
    one_point = 0
    for alpha in (None, 1.5, 2.0, 3.0):
        idx = build_shannon(pts, eps) if alpha is None else build_renyi(pts, eps, alpha)
        kind = SHANNON if alpha is None else renyi_kind(alpha)
        for gid in range(len(idx.node_keys)):
            ranks, exps = reference_ladder(idx, pts, gid, alpha)
            got_ranks, got_exps = node_run(idx, gid)
            assert np.array_equal(got_ranks, ranks) and np.array_equal(got_exps, exps)
        ends = interval_ends(idx)
        for i, a in enumerate(ends.tolist()):
            for b in ends[i:].tolist():
                rect = QueryRect.interval(a, b)
                got = idx.query(rect)
                truth = brute_entropy(pts, rect, kind)
                if alpha is None:
                    assert shannon_bound_holds(truth.value, got.value, eps), (a, b, truth, got)
                else:
                    assert renyi_bound_holds(truth.value, got.value, eps, alpha), (a, b, truth, got)
                want, nodes = reference_answer(idx, pts, a, b)
                assert got.count == truth.count
                assert got == want, (a, b)
                one_point += sum(info["gid"] is None for info in nodes)
    assert one_point > 0


def ladderless(pts, eps, alpha):
    """An index with everything but its ladders."""
    idx = Sweep1DIndex.__new__(Sweep1DIndex)
    idx._derive(pts, eps, alpha)
    return idx


def per_depth_qualifying_spans(idx, row, starts):
    """Row slices [lo, hi) of one depth's qualifying secondary nodes of two
    or more points, by a refinement of that depth's row alone."""
    n = idx.n
    colors = idx.mcolor[row]
    by_color = np.argsort(colors, kind="stable")
    same = colors[by_color[1:]] == colors[by_color[:-1]]
    nxt = np.full(n, n)
    nxt[by_color[:-1][same]] = by_color[1:][same]
    prim_starts, ends = starts, np.append(starts[1:], n)
    below = idx.my[row] < np.repeat(idx.mx[starts], ends - starts)
    reach = starts + np.add.reduceat(below, starts, dtype=np.int64)
    take, lo, hi = np.ones(len(starts), dtype=bool), [], []
    while True:
        split = ends - starts >= 2
        ok = take & split & (np.minimum.reduceat(nxt, starts) >= ends)
        lo.append(starts[ok])
        hi.append(ends[ok])
        if len(starts) == n:
            break
        starts = refine_spans(starts, n)
        ends = np.append(starts[1:], n)
        take = np.zeros(len(starts), dtype=bool)
        take[(np.arange(len(split)) + np.cumsum(split) - split)[split]] = True
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    keep = hi <= reach[prim_starts.searchsorted(lo, side="right") - 1]
    return lo[keep], hi[keep]


def per_depth_layout(idx):
    """node_keys, gid_slots, rows and y_rank by the per-depth rule: each
    depth's qualifying nodes from its own row, a node's slot at its split
    point."""
    n = idx.n
    depths = math.ceil(math.log2(n)) + 1 if n else 0
    rows, keys, slots = [], [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for depth, (row, starts) in enumerate(
            depth_rows(np.arange(n), idx.my, np.zeros(1, dtype=np.int64), depths)):
        rows.append(row)
        lo, hi = per_depth_qualifying_spans(idx, row, starts)
        keys.append(idx._node_key(depth, lo, hi))
        slots.append(n * depth + (lo + hi) // 2)
    rows = np.array(rows, dtype=np.min_scalar_type(max(n - 1, 0))).reshape(depths, n)
    node_keys, gids = np.unique(np.concatenate(keys), return_inverse=True)
    gid_slots = np.full(n * depths, -1, dtype=np.int32)
    gid_slots[np.concatenate(slots)] = gids
    y_rank = np.where(np.isneginf(idx.my), 0, idx.ucoords.searchsorted(idx.my) + 1)
    y_rank = y_rank.astype(np.min_scalar_type(len(idx.ucoords)))[rows.ravel()]
    return node_keys, gid_slots, rows, y_rank


@pytest.mark.parametrize("dup", [0.0, 0.3])
@pytest.mark.parametrize("n", list(range(1, 41)) + [255, 256, 257, 511, 512, 513])
def test_stacked_derive_matches_per_depth_rule(n, dup):
    # one refinement of every depth's row laid end to end finds each
    # depth's nodes and slots as a refinement of that row alone does; the
    # depth count changes at powers of two
    rng = np.random.default_rng(7 * n + int(10 * dup))
    pts = random_pointset(rng, n, d=1, m=max(2, n // 6), duplicate_frac=dup)
    idx = ladderless(pts, 0.3, None)
    want = per_depth_layout(idx)
    for name, w in zip(("node_keys", "gid_slots", "rows", "y_rank"), want):
        got = getattr(idx, name)
        assert got.dtype == w.dtype and np.array_equal(got, w), name


@pytest.mark.parametrize("alpha", [None, 2.0])
@pytest.mark.parametrize("eps", [1e-4, 0.2, 0.9])
def test_node_walk_is_its_entries_runs(eps, alpha):
    # the ladder build walks a qualifying node's entries' one-point runs:
    # each entry's y lies below x_v, so its color has no point in [x_v, x),
    # and the runs are exactly the node's colors' points from x_v on, in
    # (color, coordinate) order, as the x_v rule finds them
    rng = np.random.default_rng(int(1e4 * eps) + (0 if alpha is None else 1))
    nodes = 0
    for _ in range(40):
        n = int(rng.integers(1, 401))
        pts = ColoredPointSet(np.round(rng.uniform(0, 40, n)) / 4,
                              rng.integers(0, int(rng.integers(1, 13)), n))
        idx = ladderless(pts, eps, alpha)
        coords = pts.coords[:, 0]
        order = np.lexsort((np.arange(n), coords, pts.colors))
        cx, ccol = coords[order], pts.colors[order]
        for gid in range(len(idx.node_keys)):
            depth, start, stop = idx._spans(gid)
            ids = idx.rows[depth, start:stop]
            x_v = idx.mx[ids].min()
            assert (idx.my[ids] < x_v).all(), gid
            walk = np.flatnonzero(np.isin(ccol, idx.mcolor[ids]) & (cx >= x_v))
            runs = np.concatenate([np.arange(idx.run_lo[i], idx.run_end[i]) for i in ids])
            assert np.array_equal(np.sort(runs), walk), gid
            nodes += 1
    assert nodes > 1000


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


def test_query_refuses_a_slot_without_a_ladder(rng):
    # a larger canonical node whose slot names no qualifying node raises,
    # instead of reading another node's run
    pts = random_pointset(rng, 100, d=1, m=9)
    idx = build_shannon(pts, 0.3)
    rect = QueryRect.full(1)
    depth, start, stop = next(node for node in descent(idx, rect.lo[0], rect.hi[0])
                              if node[2] - node[1] >= 2)
    idx.query(rect)
    # a queried index holds its views; a copy makes its own on its first query
    tampered = copy.copy(idx)
    tampered.gid_slots = idx.gid_slots.copy()
    tampered.gid_slots[idx.n * depth + (start + stop) // 2] = -1
    with pytest.raises(AssertionError, match="without a ladder"):
        tampered.query(rect)


def test_query_stats_count_nodes(rng, no_direct_fold):
    pts = random_pointset(rng, 300, d=1, m=20, duplicate_frac=0.1)
    for idx in (build_shannon(pts, 0.3), build_renyi(pts, 0.3, 2.0)):
        seen = 0
        for _ in range(100):
            rect = rand_interval(rng, -10.0, 110.0)
            stats = {}
            assert idx.query(rect, stats) == idx.query(rect)
            assert stats["canonical_nodes"] == len(canonical_debug(idx, rect.lo[0], rect.hi[0]))
            assert stats["primary_nodes"] <= 2 * math.ceil(math.log2(len(pts)))
            assert stats["primary_nodes"] > 0 or stats["canonical_nodes"] == 0
            seen += stats["canonical_nodes"]
        assert seen > 0


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
    # on the direct fold and, with its rule set to 0, on the ladders
    pts, rects = case
    eps = 0.3
    idx = build_shannon(pts, eps) if alpha is None else build_renyi(pts, eps, alpha)
    coords = pts.coords[:, 0]
    for rect, bound in itertools.product(rects, (rangetree.FOLD_POINTS, 0)):
        with mock.patch.object(rangetree, "FOLD_POINTS", bound):
            check_adversarial_answer(idx, pts, rect, alpha, eps, coords)


def check_adversarial_answer(idx, pts, rect, alpha, eps, coords):
    """The sweep's answer to ``rect`` meets its bound and the excess of its
    e', counts exactly, is ``reference_answer``'s bit for bit, and the
    descent's nodes hold the range's colors once each."""
    got = idx.query(rect)
    if alpha is None:
        truth = brute_entropy(pts, rect, SHANNON)
        assert shannon_bound_holds(truth.value, got.value, eps), (rect, truth, got)
        excess = idx.eps_prime * math.log2(max(truth.count, 1.0))
    else:
        truth = brute_entropy(pts, rect, renyi_kind(alpha))
        assert renyi_bound_holds(truth.value, got.value, eps, alpha), (rect, truth, got)
        excess = math.log2(1.0 + idx.eps_prime) / (alpha - 1.0)
    assert got.value - truth.value <= excess + 1e-9, (rect, truth, got)
    assert got.count == truth.count
    want, nodes = reference_answer(idx, pts, rect.lo[0], rect.hi[0])
    assert got == want, rect
    color_sets = [set(info["colors"]) for info in nodes]
    union = set().union(*color_sets)
    assert len(union) == sum(len(cs) for cs in color_sets)  # pairwise disjoint
    inside = (coords >= rect.lo[0]) & (coords <= rect.hi[0])
    assert union == set(pts.colors[inside].tolist())


# ---------------------------------------------------------------------------
# the direct fold, either side of FOLD_POINTS


def rule_intervals(xs, sizes):
    """Intervals [a, b] with both ends on the sorted coordinates ``xs``
    (ties included) that hold exactly one of ``sizes`` points, one per left
    end and size where one exists."""
    out = []
    for a in np.unique(xs):
        lo = int(xs.searchsorted(a))
        for size in sizes:
            if lo + size <= len(xs) and (size == 0 or xs.searchsorted(xs[lo + size - 1], "right")
                                         == lo + size):
                b = xs[lo + size - 1] if size else a - 0.5
                out.append(QueryRect.interval(min(a, b), b))
    return out


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_direct_fold_on_both_sides_of_the_rule(alpha):
    # an interval of at most FOLD_POINTS points is answered exactly by the
    # direct fold, with no node visited; one of a point more takes the
    # ladders; both meet the bound and count exactly, with ties on the
    # interval's ends, and empty and one-point intervals. An index loaded
    # from every stored array in the other byte order answers alike
    fold = rangetree.FOLD_POINTS
    rng = np.random.default_rng(fold)
    n = 4 * fold
    pts = ColoredPointSet(rng.integers(0, 3 * fold, n).astype(float), rng.integers(0, 9, n))
    eps = 0.3
    idx = build_shannon(pts, eps) if alpha is None else build_renyi(pts, eps, alpha)
    kind = SHANNON if alpha is None else renyi_kind(alpha)
    arrays, scalars = idx.to_arrays()
    assert set(arrays) == set(Sweep1DIndex.STORED)
    swapped = Sweep1DIndex.from_arrays(
        {name: a.astype(a.dtype.newbyteorder(">")) for name, a in arrays.items()}, scalars)
    xs = np.sort(pts.coords[:, 0])
    rects = rule_intervals(xs, (0, 1, fold, fold + 1))
    seen = set()
    for rect in rects:
        stats = {}
        got = idx.query(rect, stats)
        truth = brute_entropy(pts, rect, kind)
        assert got.count == truth.count and swapped.query(rect) == got
        direct = truth.count <= fold
        assert stats["fold"] == ("direct" if direct else "ladders")
        if direct:
            assert stats["canonical_nodes"] == stats["primary_nodes"] == 0
            assert abs(got.value - truth.value) <= 1e-12, (rect, truth, got)
        else:
            assert stats["canonical_nodes"] > 0
        if alpha is None:
            assert shannon_bound_holds(truth.value, got.value, eps), (rect, truth, got)
        else:
            assert renyi_bound_holds(truth.value, got.value, eps, alpha), (rect, truth, got)
        assert got == reference_answer(idx, pts, rect.lo[0], rect.hi[0])[0]
        seen.add(int(truth.count))
    assert seen == {0, 1, fold, fold + 1}
