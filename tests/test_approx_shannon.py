"""Shannon estimators: oracle exactness, heavy detection, statistical bounds."""

import math

import numpy as np
import pytest

from entrange.approx import (
    DualAccessOracle,
    EstimatorConfig,
    EstimatorIndex,
    detect_heavy_color,
    draw_counts,
    estimate_additive,
    estimate_additive_renyi,
    estimate_moment,
    estimate_moment_excluding,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
    exact_statistic,
    tally_mean,
)
from entrange.core import (
    ColoredPointSet,
    EntropySummary,
    QueryRect,
    SHANNON,
    entropy_from_statistic,
    insert_color_shannon,
    renyi_kind,
)
from entrange.errors import EmptyRange
from entrange.exactnd import ExactNDIndex
from entrange.oracle import brute_entropy, brute_histogram
from entrange.storage import load_index, save_index

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
    oracle = DualAccessOracle(index, rect)
    if oracle.is_empty:
        pytest.skip("degenerate draw")
    mask = rect.mask(pts)
    total = pts.weights[mask].sum()
    for color in range(9):
        want = pts.weights[mask & (pts.colors == color)].sum() / total
        assert abs(oracle.color_weight(color) / oracle.total_weight - want) < 1e-9


def test_sample_color_law(rng):
    pts = make_mix(rng, [10, 30, 60])
    index = EstimatorIndex(pts)
    oracle = DualAccessOracle(index, FULL)
    draws = 30_000
    colors, counts, weights = oracle.tally(rng, draws)
    assert colors.tolist() == [0, 1, 2] and counts.sum() == draws
    assert np.allclose(weights, [10.0, 30.0, 60.0], rtol=1e-12)
    for color, p in enumerate([0.1, 0.3, 0.6]):
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(counts[color] / draws - p) < 4 * sigma


def test_additive_single_color_is_zero(rng):
    pts = make_mix(rng, [50])
    index = EstimatorIndex(pts)
    s = estimate_additive(index, FULL, 0.3, FAST, rng)
    assert s.value == 0.0


def test_additive_statistical_bound(rng, always_sample):
    pts = make_mix(rng, [16] * 8)  # uniform over 8 colors: truth 3 bits
    index = EstimatorIndex(pts)
    delta = 0.3
    hits = 0
    runs = 60
    for seed in range(runs):
        r = np.random.default_rng(1000 + seed)
        stats: dict = {}
        h = estimate_additive(index, FULL, delta, FAST, r, stats).value
        assert stats["mode"] == "sampled"
        hits += abs(h - 3.0) <= delta
    assert hits >= 0.9 * runs


def test_additive_nine_point_mix_tight_delta(rng, always_sample):
    # the 2:3:4 three-color mix (scaled 20x), sampled although its 180 points
    # are fewer than the 875 draws, delta=0.1: >= 95% of 200 seeds inside the
    # band around 1.530493
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


def test_additive_nine_point_mix_answers_exactly(rng):
    # the same mix and accuracy: 875 draws cost more than reading 180 points
    index = EstimatorIndex(make_mix(rng, [40, 60, 80]))
    stats: dict = {}
    s = estimate_additive(index, FULL, 0.1, EstimatorConfig(c_add=0.01), rng, stats)
    assert (stats["mode"], stats["samples"]) == ("exact-fallback", 0)
    assert abs(s.value - 1.5304930567574824) < 1e-12 and s.count == 180.0


def test_additive_exact_fallback(rng):
    pts = make_mix(rng, [4, 4])
    index = EstimatorIndex(pts)
    stats = {}
    s = estimate_additive(index, FULL, 0.05, EstimatorConfig(c_add=100.0), rng, stats)
    assert stats["mode"] == "exact-fallback"
    assert abs(s.value - 1.0) < 1e-12
    # a cross of two 300-point bands: the square where they meet holds about
    # 19 points, fewer than the 116 draws, while either slab holds about 309,
    # more; the pieces, not the slab, choose the exact answer
    cross = np.vstack((np.column_stack((rng.uniform(49, 51, 300), rng.uniform(0, 100, 300))),
                       np.column_stack((rng.uniform(0, 100, 300), rng.uniform(49, 51, 300)))))
    pts = ColoredPointSet(cross, rng.integers(0, 5, 600))
    square = QueryRect((49.0, 49.0), (51.0, 51.0))
    cfg = EstimatorConfig(c_add=0.03)
    oracle = DualAccessOracle(EstimatorIndex(pts), square)
    assert oracle.pieces.points < draw_counts(600, SHANNON, 0.5, cfg)[0] < oracle.slabs.points
    stats = {}
    s = estimate_additive(oracle.index, square, 0.5, cfg, rng, stats)
    assert (stats["mode"], stats["samples"]) == ("exact-fallback", 0) and stats["pieces"] > 0
    want = brute_entropy(pts, square, SHANNON)
    assert s.count == want.count and abs(s.value - want.value) < 1e-12


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
    reduced = DualAccessOracle(index, FULL, 0)
    h_rest = exact_statistic(SHANNON, reduced)
    h = insert_color_shannon(EntropySummary(SHANNON, 20.0, h_rest), 80.0).value
    assert abs(h - truth) < 1e-9


def test_multiplicative_single_color(rng):
    pts = make_mix(rng, [64])
    index = EstimatorIndex(pts)
    assert estimate_multiplicative(index, FULL, 0.4, FAST, rng).value == 0.0


def test_multiplicative_heavy_branch_bound(rng, always_sample):
    pts = make_mix(rng, [160, 8, 8, 8, 8, 8])  # heavy 0.8 + 5 light
    index = EstimatorIndex(pts)
    truth = brute_entropy(pts, FULL, SHANNON).value
    eps = 0.25
    ok = 0
    runs = 60
    for seed in range(runs):
        r = np.random.default_rng(2000 + seed)
        stats: dict = {}
        h = estimate_multiplicative(index, FULL, eps, FAST, r, stats).value
        assert stats["mode"] == "sampled+heavy"
        ok += truth / (1 + eps) - 1e-12 <= h <= (1 + eps) * truth + 1e-12
    assert ok >= 0.9 * runs


def test_multiplicative_heavy_branch_reduced_range_exact(rng):
    # the 40 light points are fewer than the reduced range's draws: 570,
    # more than the range holds, and 116 of a config with fewer additive
    # draws, fewer than the 1,040 points of a range, and of its pieces, with
    # the heavy color, so that the reduced count decides
    for counts, cfg in (([160, 8, 8, 8, 8, 8], FAST),
                        ([1000, 8, 8, 8, 8, 8], EstimatorConfig(c_add=0.005, c_mult=0.2))):
        pts = make_mix(rng, counts)
        index = EstimatorIndex(pts)
        truth = brute_entropy(pts, FULL, SHANNON).value
        stats: dict = {}
        h = estimate_multiplicative(index, FULL, 0.25, cfg, rng, stats).value
        assert (stats["mode"], stats["samples"]) == ("exact-fallback+heavy", 0)
        assert abs(h - truth) < 1e-9


def test_multiplicative_detects_by_sampling_then_answers_exactly(rng):
    # five even colors of 40 points: detection and the additive draws (6 +
    # 114) are fewer than the 200 points, so detection samples; no color is
    # heavy, and the 272 light draws are more, so the light statistic is exact
    pts = make_mix(rng, [40] * 5)
    cfg = EstimatorConfig(c_add=0.01, c_mult=2.0)
    *_, light, rest, _, heavy = draw_counts(200, SHANNON, 0.25, cfg)
    assert heavy + rest < 200 <= light
    stats: dict = {}
    h = estimate_multiplicative(EstimatorIndex(pts), FULL, 0.25, cfg, rng, stats).value
    assert (stats["mode"], stats["samples"]) == ("exact-fallback", 0)
    assert stats["distinct_colors"] > 0 and abs(h - math.log2(5)) < 1e-12


def test_multiplicative_light_branch_bound(rng):
    pts = make_mix(rng, [8] * 32)  # near-uniform 32 colors, truth 5 bits
    index = EstimatorIndex(pts)
    eps = 0.2
    ok = 0
    runs = 60
    for seed in range(runs):
        r = np.random.default_rng(3000 + seed)
        stats: dict = {}
        h = estimate_multiplicative(index, FULL, eps, FAST, r, stats).value
        assert stats["mode"] == "sampled-light"   # 256 points, 6 + 45 draws
        ok += 5.0 / (1 + eps) <= h <= (1 + eps) * 5.0
    assert ok >= 0.9 * runs


def test_lemma_heavy_ratio_inequality():
    # (N-Ni)/Ni <= (Ni/N)log(N/Ni) + ((N-Ni)/N)log(N/(N-Ni)) on (2/3, 1)
    grid = np.linspace(2 / 3 + 1e-6, 1 - 1e-6, 10_000)
    lhs = (1 - grid) / grid
    rhs = grid * np.log2(1 / grid) + (1 - grid) * np.log2(1 / (1 - grid))
    assert np.all(lhs <= rhs + 1e-12)


def test_estimator_deterministic_given_seed(rng, always_sample):
    pts = make_mix(rng, [30, 20, 10])
    index = EstimatorIndex(pts)
    a = estimate_additive(index, FULL, 0.2, FAST, np.random.default_rng(7)).value
    b = estimate_additive(index, FULL, 0.2, FAST, np.random.default_rng(7)).value
    assert a == b


def zero_weight_rest_modes():
    """(value, count, mode, samples) of both multiplicative estimators on three
    points of color 0 and one of color 1 with zero weight."""
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
        yield s.value, s.count, stats["mode"], stats["samples"]


def test_zero_weight_rest_is_single_color(always_sample):
    # the only other color has zero weight: the entropy is 0, not a division by zero
    for got in zero_weight_rest_modes():
        assert got == (0.0, 3.0, "single-color", 0)


def test_zero_weight_rest_answers_exactly():
    # three points: fewer than any branch's draws, so the pieces answer
    for got in zero_weight_rest_modes():
        assert got == (0.0, 3.0, "exact-fallback", 0)


ESTIMATORS = (
    lambda ix, r, g, st: estimate_additive(ix, r, 0.25, EXTREME_CFG, g, st),
    lambda ix, r, g, st: estimate_multiplicative(ix, r, 0.25, EXTREME_CFG, g, st),
    lambda ix, r, g, st: estimate_additive_renyi(ix, r, 2.0, 0.25, EXTREME_CFG, g, st),
    lambda ix, r, g, st: estimate_multiplicative_renyi(ix, r, 2.0, 0.3, EXTREME_CFG, g, st),
)
EXTREME_CFG = EstimatorConfig(c_add=0.2, c_mult=2.0, c_mom=0.05, moment_c1=1.0, moment_c2=1.0)


ADDITIVE_MODES = {"sampled", "exact-fallback"}
MULTIPLICATIVE_MODES = {"exact-fallback", "sampled-light", "sampled+heavy", "exact-fallback+heavy",
                        "single-color"}
MODES = (ADDITIVE_MODES, MULTIPLICATIVE_MODES) * 2


def every_call_stats(rng):
    """(estimator number, stats, canonical pieces, whether the range's slab
    can answer it directly) of each of ESTIMATORS on the full range and 20
    random rectangles over 300 weighted 2-D points."""
    pts = random_pointset(rng, 300, d=2, m=6, weighted=True)
    index = EstimatorIndex(pts)
    for rect in [QueryRect.full(2)] + [random_rect(rng, d=2) for _ in range(20)]:
        if DualAccessOracle(index, rect).is_empty:
            continue
        pieces = len(index.tree.canonical_nodes(rect))
        for i, estimate in enumerate(ESTIMATORS):
            stats: dict = {}
            estimate(index, rect, rng, stats)
            yield i, stats, pieces, index.tree.slabs(rect).direct


def test_every_call_reports_mode_and_samples(rng):
    for i, stats, *_ in every_call_stats(rng):
        assert stats["mode"] in MODES[i] and stats["samples"] >= 0
        assert (stats["samples"] == 0) == stats["mode"].startswith(("exact", "single"))


def test_every_call_reports_pieces_and_distinct_colors(rng):
    # pieces: the query's canonical pieces, 0 if none were built (a range
    # whose slab answers it, with no sampling in view); distinct_colors: the
    # colors EVAL'd over the call's tallies (heavy detection included; at
    # most three)
    scanned = 0
    for i, stats, pieces, direct in every_call_stats(rng):
        assert stats["pieces"] in (0, pieces)
        if stats["samples"] or not direct:
            assert stats["pieces"] == pieces
        scanned += stats["pieces"] == 0
        assert 0 <= stats["distinct_colors"] <= 6 * 3
        # multiplicative calls tally unless the pieces answered before heavy detection
        if stats["samples"] or (i % 2 and stats["mode"] != "exact-fallback"):
            assert stats["distinct_colors"] >= 1
        if stats["mode"] == "exact-fallback" and i % 2 == 0:
            assert stats["distinct_colors"] == 0
    assert scanned


def test_every_sampled_call_reports_pieces_and_distinct_colors(rng, always_sample):
    modes = set()
    for i, stats, pieces, _ in every_call_stats(rng):
        assert stats["pieces"] == pieces
        assert 0 <= stats["distinct_colors"] <= 6 * 3
        if stats["samples"] or i % 2:   # multiplicative calls always tally
            assert stats["distinct_colors"] >= 1
        assert stats["mode"] in MODES[i] and not stats["mode"].startswith("exact")
        modes.add((i, stats["mode"]))
    # both families take every sampled path
    assert {(0, "sampled"), (1, "sampled-light"), (1, "sampled+heavy"),
            (2, "sampled"), (3, "sampled-light"), (3, "sampled+heavy")} <= modes


def drawn_colors(oracle, samples, seed):
    """The color of each of the draws a tally with the same seed makes."""
    tree = oracle.index.tree
    pos = tree.draw(oracle.pieces, np.random.default_rng(seed), samples, oracle.exclusion)
    return tree.pts.colors[tree.pool_ids[pos]]


def per_sample_reference(oracle, samples, seed):
    """EVAL of every draw on its own, over the draws a tally with the same
    seed makes."""
    return oracle.color_weight(drawn_colors(oracle, samples, seed)) / oracle.total_weight


def heavy_reference(oracle, seed):
    """heavy_color as an np.unique over the drawn colors of ~log_3(2n) draws."""
    n = max(2, len(oracle.index))
    draws = math.ceil(math.log(2 * n) / math.log(3))
    seen = np.unique(drawn_colors(oracle, draws, seed))
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
        plain = DualAccessOracle(index, rect)
        if plain.is_empty:
            continue
        for oracle in (plain, plain.excluding(int(pts.colors[0])), plain.excluding(99)):
            if oracle.is_empty:
                continue
            for samples in (1, 7, 500):
                p = per_sample_reference(oracle, samples, seed)
                want = float(-np.log2(p).mean())
                got = tally_mean(SHANNON, oracle, samples, np.random.default_rng(seed))
                assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), (got, want)
                for alpha in (1.5, 2.0, 3.0):
                    want = float((p ** (alpha - 1.0)).mean())
                    got = tally_mean(renyi_kind(alpha), oracle, samples,
                                     np.random.default_rng(seed))
                    assert abs(got - want) <= 1e-12 * want
                checked += 1
            heavy = oracle.heavy_color(np.random.default_rng(seed))
            want = heavy_reference(oracle, seed)
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
def test_extreme_weight_ratios(heavy_lo, heavy_hi, always_sample):
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
                oracle = DualAccessOracle(index, rect, excluded)
                assert oracle.is_empty == (masses.sum() == 0.0)
                if oracle.is_empty:
                    continue
                want = masses / masses.sum()
                got = oracle.color_weight(colors) / oracle.total_weight
                keep = colors != excluded   # the reduced law gives it 0, color_weight its mass
                assert np.all(np.abs(got - want)[keep] <= 1e-6 * want[keep]), (seed, rect, excluded)
                drawn, _, weights = oracle.tally(rng, 2000)
                assert np.all(want[drawn] > 0.0)
                got = weights / oracle.total_weight
                assert np.all(np.abs(got - want[drawn]) <= 1e-6 * want[drawn])
            if mask.any() and pts.weights[mask].sum() > 0.0:
                for estimate in ESTIMATORS:
                    assert math.isfinite(estimate(index, rect, rng, None).value)


# ---------------------------------------------------------------------------
# exact answers from the canonical pieces


EXACT_KINDS = (SHANNON,) + tuple(renyi_kind(a) for a in (1.5, 2.0, 3.0))


def exact_case(seed, d):
    """Weighted d-D points, 7 colors, snapped to a grid so that many share a
    coordinate (on single axes and on all of them), a tenth of zero weight,
    color 6 never used, and three points of color 2 at one spot off the
    grid; the full range, 12 random rectangles, the degenerate boxes of
    three grid points and the single-color box of the off-grid spot."""
    rng = np.random.default_rng(seed)
    n = 160
    coords = np.round(rng.uniform(0, 100, size=(n, d)) / 5.0) * 5.0
    coords[:3] = 200.0
    colors = (rng.zipf(1.6, size=n) % 6).astype(np.int64)
    colors[:3] = 2
    weights = rng.uniform(0.5, 3.0, size=n)
    weights[rng.choice(np.arange(3, n), size=n // 10, replace=False)] = 0.0
    pts = ColoredPointSet(coords, colors, weights, num_colors=7)
    rects = [QueryRect.full(d)] + [random_rect(rng, d=d) for _ in range(12)]
    rects += [QueryRect(tuple(coords[i]), tuple(coords[i])) for i in rng.choice(n, 3)]
    rects.append(QueryRect((200.0,) * d, (200.0,) * d))
    return pts, rects


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_exact_from_pieces_matches_brute_force(seed, d):
    pts, rects = exact_case(seed, d)
    index = EstimatorIndex(pts)
    single = 0
    for rect in rects:
        hist = brute_histogram(pts, rect).entries
        present = sorted(hist)
        absent = next(c for c in range(8) if c not in hist)
        # none, each present color, a color absent from the range, the id one
        # past the range's largest color (the bincount's length) and far past it
        for excluded in [None, *present, absent, (present[-1] + 1 if present else 0), 99]:
            keep = pts.colors != (-1 if excluded is None else excluded)
            sub = ColoredPointSet(pts.coords[keep], pts.colors[keep], pts.weights[keep],
                                  num_colors=100)
            want = {c: w for c, w in hist.items() if c != excluded}
            oracle = DualAccessOracle(index, rect, excluded)
            assert oracle.is_empty == (not want)
            if oracle.is_empty:
                continue
            masses = index.tree.color_masses(oracle.pieces, excluded)
            assert len(masses) == len(want)
            assert np.allclose(masses, [want[c] for c in sorted(want)], rtol=1e-12, atol=0.0)
            single += len(want) == 1
            for kind in EXACT_KINDS:
                truth = brute_entropy(sub, rect, kind).value
                got = entropy_from_statistic(exact_statistic(kind, oracle), kind)
                assert abs(got - truth) <= 1e-9, (rect, excluded, kind)
    assert single


@pytest.mark.parametrize("sampled", [False, True])
def test_no_estimator_path_scans_every_point(monkeypatch, request, sampled):
    # every estimator, heavy detection included, answers from the pieces
    if sampled:
        request.getfixturevalue("always_sample")

    def refuse(rect, pts):
        raise AssertionError("an estimator scanned every point")

    monkeypatch.setattr(QueryRect, "mask", refuse)
    rng = np.random.default_rng(4)
    modes = set()
    for i, stats, *_ in every_call_stats(rng):
        modes.add(stats["mode"])
    index = EstimatorIndex(make_mix(rng, [90, 4, 3, 3]))
    assert detect_heavy_color(index, FULL, rng).color == 0
    assert ("exact-fallback" in modes) != sampled


def test_exact_answers_hold_no_sampling_arrays(tmp_path, request):
    # a loaded estimator index holds what an exact index over the same points
    # holds until a call samples: exact answers derive no sampling arrays
    rng = np.random.default_rng(5)
    pts = random_pointset(rng, 300, d=2, m=6, weighted=True)
    save_index(tmp_path / "e.rqe", "estimator", EstimatorIndex(pts))
    index = load_index(tmp_path / "e.rqe")[2]
    exact_bytes = ExactNDIndex(pts, t=0.5).space_stats()["bytes"]
    answered = 0
    for rect in [random_rect(rng, d=2) for _ in range(20)]:
        if DualAccessOracle(index, rect).is_empty:
            continue
        for estimate in ESTIMATORS:
            stats: dict = {}
            estimate(index, rect, rng, stats)
            assert stats["mode"] == "exact-fallback"
        answered += 1
    assert answered and index.space_stats()["bytes"] == exact_bytes
    request.getfixturevalue("always_sample")
    estimate_additive(index, QueryRect.full(2), 0.25, EXTREME_CFG, rng)
    assert index.space_stats()["bytes"] > exact_bytes


def exactly_routed_calls(rng):
    """An estimator index over 1,024 uniform 2-D points of 8 colors (color 7
    unused), and the calls of every entry point on a 10x10 rectangle it
    answers exactly: the four estimators, the moment, and the moment without
    each color in the range and without the unused one. Each call takes a generator (or
    None) and returns the draws it made."""
    pts = ColoredPointSet(rng.uniform(0, 100, (1024, 2)), rng.integers(0, 7, 1024), num_colors=8)
    index = EstimatorIndex(pts)
    rect = QueryRect((40.0, 40.0), (50.0, 50.0))

    def estimator(estimate):
        def call(g):
            stats: dict = {}
            estimate(index, rect, g, stats)
            return stats["samples"]
        return call

    calls = [estimator(estimate) for estimate in ESTIMATORS]
    calls.append(lambda g: estimate_moment(index, rect, 2.0, 0.3, rng=g).samples)
    calls += [lambda g, c=c: estimate_moment_excluding(index, rect, 3.0, 0.3, c, rng=g).samples
              for c in [*brute_histogram(pts, rect).entries, 7]]
    return index, calls


def test_exact_answers_derive_no_sampling_state():
    # an exactly answered call reads the pieces' point ids alone, also when
    # it excludes a color: the tree holds what its build left
    rng = np.random.default_rng(6)
    index, calls = exactly_routed_calls(rng)
    assert index.space_stats()["bytes"] == 61_440
    for i, call in enumerate(calls):
        assert call(rng) == 0, i
        assert "sampling" not in vars(index.tree), i
        assert index.space_stats()["bytes"] == 61_440, i


def test_rngless_exact_answers_make_no_generator(monkeypatch):
    # a generator is made only to draw: an exact answer without one makes none
    _, calls = exactly_routed_calls(np.random.default_rng(6))

    def refuse(*args, **kwargs):
        raise AssertionError("an exact answer made a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for call in calls:
        assert call(None) == 0


def test_rngless_sampled_call_makes_one_generator(monkeypatch, always_sample):
    # the heavy branch's three tallies draw from one generator; an additive
    # call's one tally makes its own
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or default_rng(*a))
    index = EstimatorIndex(make_mix(default_rng(8), [90, 4, 3, 3]))
    stats: dict = {}
    estimate_multiplicative_renyi(index, FULL, 2.0, 0.3, EXTREME_CFG, None, stats)
    assert stats["mode"] == "sampled+heavy" and len(made) == 1
    estimate_additive(index, FULL, 0.3, EXTREME_CFG, None, stats)
    assert stats["mode"] == "sampled" and len(made) == 2


def test_draw_count_cache_stays_bounded():
    # the draw counts are kept per (index size, kind, accuracy, config):
    # however many fresh accuracies arrive, at most maxsize of them are held
    index = EstimatorIndex(make_mix(np.random.default_rng(9), [5, 4, 3]))
    draw_counts.cache_clear()
    for eps in np.linspace(0.01, 0.99, 1000):
        estimate_additive(index, FULL, float(eps))
        estimate_multiplicative_renyi(index, FULL, 2.0, float(eps))
    info = draw_counts.cache_info()
    assert info.misses == 2000
    assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.mark.parametrize("accuracy", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_estimators_refuse_accuracy_outside_the_unit_interval(rng, accuracy):
    index = EstimatorIndex(random_pointset(rng, 30, d=2, m=3))
    rect = QueryRect.full(2)
    calls = (lambda a: estimate_additive(index, rect, a, FAST, rng),
             lambda a: estimate_multiplicative(index, rect, a, FAST, rng),
             lambda a: estimate_additive_renyi(index, rect, 2.0, a, FAST, rng),
             lambda a: estimate_multiplicative_renyi(index, rect, 2.0, a, FAST, rng),
             lambda a: estimate_moment(index, rect, 2.0, a, FAST, rng))
    for call in calls:
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            call(accuracy)
