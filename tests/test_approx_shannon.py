"""Shannon estimators: oracle exactness, heavy detection, statistical bounds."""

import math

import numpy as np
import pytest

from entrange.approx_renyi import (
    _moment_mean,
    estimate_additive_renyi,
    estimate_multiplicative_renyi,
)
from entrange.approx_shannon import (
    DEFAULT_CONFIG,
    EstimatorConfig,
    EstimatorIndex,
    _plugin_mean,
    detect_heavy_color,
    estimate_additive,
    estimate_multiplicative,
    heavy_branch_combine,
)
from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind
from entrange.errors import EmptyRange
from entrange.oracle import brute_entropy

from conftest import random_pointset, random_rect

FAST = EstimatorConfig(c_add=0.05, c_mult=0.2)


def make_mix(rng, weights_by_color, n=None, jitter=100.0):
    """1-D points whose color masses follow weights_by_color."""
    coords, colors = [], []
    for color, count in enumerate(weights_by_color):
        for _ in range(count):
            coords.append(rng.uniform(0, jitter))
            colors.append(color)
    return ColoredPointSet(np.array(coords), np.array(colors))


FULL = QueryRect.interval(-1.0, 101.0)


def test_eval_is_exact(rng):
    pts = random_pointset(rng, 300, d=2, m=9, weighted=True)
    index = EstimatorIndex(pts)
    rect = QueryRect((10.0, 10.0), (80.0, 90.0))
    oracle = index.oracle(rect)
    if oracle.is_empty:
        pytest.skip("degenerate draw")
    mask = rect.mask(pts)
    total = pts.weights[mask].sum()
    for color in range(9):
        want = pts.weights[mask & (pts.colors == color)].sum() / total
        assert abs(oracle.eval_color(color) - want) < 1e-9


def test_sample_color_law(rng):
    pts = make_mix(rng, [10, 30, 60])
    index = EstimatorIndex(pts)
    oracle = index.oracle(FULL)
    draws = 30_000
    counts = np.zeros(3)
    for _ in range(draws):
        counts[oracle.sample_color(rng)] += 1
    for color, p in enumerate([0.1, 0.3, 0.6]):
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(counts[color] / draws - p) < 4 * sigma


def test_additive_single_color_is_zero(rng):
    pts = make_mix(rng, [50])
    index = EstimatorIndex(pts)
    s = estimate_additive(index, FULL, 0.3, FAST, rng)
    assert s.value == 0.0


def test_additive_statistical_bound(rng):
    pts = make_mix(rng, [16] * 8)  # uniform over 8 colors: truth 3 bits
    index = EstimatorIndex(pts)
    delta = 0.3
    hits = 0
    runs = 60
    for seed in range(runs):
        r = np.random.default_rng(1000 + seed)
        h = estimate_additive(index, FULL, delta, FAST, r).value
        hits += abs(h - 3.0) <= delta
    assert hits >= 0.9 * runs


def test_additive_nine_point_mix_tight_delta(rng):
    # the 2:3:4 three-color mix (scaled 20x so sampling actually runs),
    # delta=0.1: >= 95% of 200 seeds inside the band around 1.530493
    pts = make_mix(rng, [40, 60, 80])
    index = EstimatorIndex(pts)
    truth = 1.5304930567574824
    hits = 0
    for seed in range(200):
        stats = {}
        h = estimate_additive(index, FULL, 0.1, EstimatorConfig(c_add=0.01),
                              np.random.default_rng(seed), stats).value
        assert stats["mode"] == "sampled"
        hits += abs(h - truth) <= 0.1
    assert hits >= 190


def test_additive_exact_fallback(rng):
    pts = make_mix(rng, [4, 4])
    index = EstimatorIndex(pts)
    stats = {}
    s = estimate_additive(index, FULL, 0.05, EstimatorConfig(c_add=100.0), rng, stats)
    assert stats["mode"] == "exact-fallback"
    assert abs(s.value - 1.0) < 1e-12


def test_additive_empty_range(rng):
    pts = make_mix(rng, [5, 5])
    index = EstimatorIndex(pts)
    with pytest.raises(EmptyRange):
        estimate_additive(index, QueryRect.interval(500.0, 600.0), 0.2, FAST, rng)


def test_detect_heavy_color_present(rng):
    pts = make_mix(rng, [90, 4, 3, 3])
    index = EstimatorIndex(pts)
    found = 0
    for seed in range(200):
        r = np.random.default_rng(seed)
        heavy = detect_heavy_color(index, FULL, r)
        if heavy is not None and heavy.color == 0:
            found += 1
            assert abs(heavy.weight / heavy.total - 0.9) < 1e-9
    assert found >= 198  # misses at most ~1/(2n) of the time


def test_detect_heavy_never_reports_light(rng):
    pts = make_mix(rng, [10] * 10)
    index = EstimatorIndex(pts)
    for seed in range(50):
        heavy = detect_heavy_color(index, FULL, np.random.default_rng(seed))
        assert heavy is None  # verified ratios never exceed 2/3
    pts = make_mix(rng, [40, 20])
    index = EstimatorIndex(pts)
    for seed in range(50):
        heavy = detect_heavy_color(index, FULL, np.random.default_rng(seed))
        assert heavy is None or heavy.color == 0


def test_heavy_branch_exact_identity(rng):
    # with the exact reduced entropy substituted, the combination is exact
    pts = make_mix(rng, [80, 7, 6, 4, 3])
    index = EstimatorIndex(pts)
    truth = brute_entropy(pts, FULL, SHANNON).value
    reduced = index.oracle(FULL, excluded=0)
    h = heavy_branch_combine(100.0, 80.0, reduced.exact_entropy())
    assert abs(h - truth) < 1e-9


def test_multiplicative_single_color(rng):
    pts = make_mix(rng, [64])
    index = EstimatorIndex(pts)
    assert estimate_multiplicative(index, FULL, 0.4, FAST, rng).value == 0.0


def test_multiplicative_heavy_branch_bound(rng):
    pts = make_mix(rng, [160, 8, 8, 8, 8, 8])  # heavy 0.8 + 5 light
    index = EstimatorIndex(pts)
    truth = brute_entropy(pts, FULL, SHANNON).value
    eps = 0.25
    ok = 0
    runs = 60
    for seed in range(runs):
        r = np.random.default_rng(2000 + seed)
        h = estimate_multiplicative(index, FULL, eps, FAST, r).value
        ok += truth / (1 + eps) - 1e-12 <= h <= (1 + eps) * truth + 1e-12
    assert ok >= 0.9 * runs


def test_multiplicative_light_branch_bound(rng):
    pts = make_mix(rng, [8] * 32)  # near-uniform 32 colors, truth 5 bits
    index = EstimatorIndex(pts)
    eps = 0.2
    ok = 0
    runs = 60
    for seed in range(runs):
        r = np.random.default_rng(3000 + seed)
        h = estimate_multiplicative(index, FULL, eps, FAST, r).value
        ok += 5.0 / (1 + eps) <= h <= (1 + eps) * 5.0
    assert ok >= 0.9 * runs


def test_lemma_heavy_ratio_inequality():
    # (N-Ni)/Ni <= (Ni/N)log(N/Ni) + ((N-Ni)/N)log(N/(N-Ni)) on (2/3, 1)
    grid = np.linspace(2 / 3 + 1e-6, 1 - 1e-6, 10_000)
    lhs = (1 - grid) / grid
    rhs = grid * np.log2(1 / grid) + (1 - grid) * np.log2(1 / (1 - grid))
    assert np.all(lhs <= rhs + 1e-12)


def test_estimator_deterministic_given_seed(rng):
    pts = make_mix(rng, [30, 20, 10])
    index = EstimatorIndex(pts)
    a = estimate_additive(index, FULL, 0.2, FAST, np.random.default_rng(7)).value
    b = estimate_additive(index, FULL, 0.2, FAST, np.random.default_rng(7)).value
    assert a == b


def test_zero_weight_rest_is_single_color():
    # the only other color has zero weight: the entropy is 0, not a division by zero
    pts = ColoredPointSet(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 0, 1]),
                          np.array([1.0, 1.0, 1.0, 0.0]))
    index = EstimatorIndex(pts)
    rect = QueryRect.interval(0.0, 10.0)
    for estimate in (
        lambda r, st: estimate_multiplicative(index, rect, 0.3, FAST, r, st),
        lambda r, st: estimate_multiplicative_renyi(index, rect, 2.0, 0.3, FAST, r, st),
    ):
        stats: dict = {}
        s = estimate(np.random.default_rng(1), stats)
        assert (s.value, s.count) == (0.0, 3.0)
        assert stats["mode"] == "single-color" and stats["samples"] == 0


ESTIMATORS = (
    lambda ix, r, g, st: estimate_additive(ix, r, 0.25, EXTREME_CFG, g, st),
    lambda ix, r, g, st: estimate_multiplicative(ix, r, 0.25, EXTREME_CFG, g, st),
    lambda ix, r, g, st: estimate_additive_renyi(ix, r, 2.0, 0.25, EXTREME_CFG, g, st),
    lambda ix, r, g, st: estimate_multiplicative_renyi(ix, r, 2.0, 0.3, EXTREME_CFG, g, st),
)
EXTREME_CFG = EstimatorConfig(c_add=0.2, c_mult=2.0, c_mom=0.05, moment_c1=1.0, moment_c2=1.0)


def test_every_call_reports_mode_and_samples(rng):
    pts = random_pointset(rng, 300, d=2, m=6, weighted=True)
    index = EstimatorIndex(pts)
    for rect in [QueryRect.full(2)] + [random_rect(rng, d=2) for _ in range(20)]:
        if index.oracle(rect).is_empty:
            continue
        for estimate in ESTIMATORS:
            stats: dict = {}
            estimate(index, rect, rng, stats)
            assert isinstance(stats["mode"], str) and stats["samples"] >= 0


def test_every_call_reports_pieces_and_distinct_colors(rng):
    # pieces: the query's canonical pieces; distinct_colors: the colors EVAL'd
    # over the call's tallies (heavy detection included; at most three)
    pts = random_pointset(rng, 300, d=2, m=6, weighted=True)
    index = EstimatorIndex(pts)
    for rect in [QueryRect.full(2)] + [random_rect(rng, d=2) for _ in range(20)]:
        if index.oracle(rect).is_empty:
            continue
        pieces = len(index.tree.canonical_nodes(rect))
        for i, estimate in enumerate(ESTIMATORS):
            stats: dict = {}
            estimate(index, rect, rng, stats)
            assert stats["pieces"] == pieces
            assert 0 <= stats["distinct_colors"] <= 6 * 3
            if stats["samples"] or i % 2:   # multiplicative calls always tally
                assert stats["distinct_colors"] >= 1


def per_sample_reference(oracle, samples, seed):
    """EVAL of every draw on its own, over the draws a tally with the same
    seed makes (the public sampler shuffles only after drawing)."""
    return oracle.eval_color(oracle.sample_color(np.random.default_rng(seed), samples))


def heavy_reference(oracle, cfg, seed):
    """heavy_color as an np.unique over the drawn colors."""
    n = max(2, len(oracle.index))
    draws = math.ceil(cfg.c_heavy * math.log(2 * n) / math.log(3))
    seen = np.unique(oracle.sample_color(np.random.default_rng(seed), draws))
    weights = oracle.color_weight(seen)
    top = int(np.argmax(weights))
    if weights[top] > (2.0 / 3.0) * oracle.total_weight:
        return int(seen[top]), float(weights[top])
    return None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tally_estimates_match_per_sample_eval(seed):
    rng = np.random.default_rng(seed)
    pts = random_pointset(rng, 400, d=2, m=9, weighted=True)
    index = EstimatorIndex(pts)
    checked = 0
    for rect in [QueryRect.full(2)] + [random_rect(rng, d=2) for _ in range(8)]:
        plain = index.oracle(rect)
        if plain.is_empty:
            continue
        for oracle in (plain, plain.excluding(int(pts.colors[0])), plain.excluding(99)):
            if oracle.is_empty:
                continue
            for samples in (1, 7, 500):
                p = per_sample_reference(oracle, samples, seed)
                want = float(-np.log2(p).mean())
                got = _plugin_mean(oracle, samples, np.random.default_rng(seed))
                assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), (got, want)
                for alpha in (1.5, 2.0, 3.0):
                    want = float((p ** (alpha - 1.0)).mean())
                    got = _moment_mean(oracle, alpha, samples, np.random.default_rng(seed))
                    assert abs(got - want) <= 1e-12 * want
                checked += 1
            heavy = oracle.heavy_color(np.random.default_rng(seed), DEFAULT_CONFIG)
            want = heavy_reference(oracle, DEFAULT_CONFIG, seed)
            assert (None if heavy is None else (heavy.color, heavy.weight)) == want
    assert checked


def heavy_color_case(seed, heavy_lo, heavy_hi):
    """150 2-D points, 6 colors; every point of color 0 (whose mass precedes
    the others' in the color-sorted prefix) is heavy, log-uniform in
    [heavy_lo, heavy_hi]; light weights in [0.5, 2]; three zero weights."""
    rng = np.random.default_rng(seed)
    n = 150
    coords = rng.uniform(0, 100, size=(n, 2))
    colors = rng.integers(0, 6, size=n)
    weights = rng.uniform(0.5, 2.0, size=n)
    heavy = colors == 0
    weights[heavy] = np.exp(rng.uniform(np.log(heavy_lo), np.log(heavy_hi), size=heavy.sum()))
    weights[rng.choice(n, size=3, replace=False)] = 0.0
    pts = ColoredPointSet(coords, colors, weights, num_colors=6)
    rects = [QueryRect.full(2)] + [random_rect(rng, d=2) for _ in range(15)]
    return pts, rects


@pytest.mark.parametrize("heavy_lo, heavy_hi", [(1e2, 1e4), (1e4, 1e6), (1e6, 1e9)])
def test_extreme_weight_ratios(heavy_lo, heavy_hi):
    colors = np.arange(6)
    for seed in range(4):
        pts, rects = heavy_color_case(seed, heavy_lo, heavy_hi)
        index = EstimatorIndex(pts)
        rng = np.random.default_rng(seed)
        for rect in rects:
            mask = rect.mask(pts)
            for excluded in (None, 0):
                keep = mask if excluded is None else mask & (pts.colors != excluded)
                masses = np.bincount(pts.colors[keep], pts.weights[keep], minlength=6)
                oracle = index.oracle(rect, excluded)
                assert oracle.is_empty == (masses.sum() == 0.0)
                if oracle.is_empty:
                    continue
                want = masses / masses.sum()
                got = oracle.eval_color(colors)
                assert np.all(np.abs(got - want) <= 1e-6 * want), (seed, rect, excluded)
                drawn = oracle.sample_color(rng, 2000)
                assert np.all(want[drawn] > 0.0)
            if mask.any() and pts.weights[mask].sum() > 0.0:
                for estimate in ESTIMATORS:
                    assert math.isfinite(estimate(index, rect, rng, None).value)
