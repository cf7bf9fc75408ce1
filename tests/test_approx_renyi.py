"""Renyi estimators: moment machinery, branch arithmetic, statistical bounds."""

import math

import numpy as np
import pytest

from entrange.approx import (
    DualAccessOracle,
    EstimatorConfig,
    EstimatorIndex,
    additive_branch_sample_counts,
    estimate_additive,
    estimate_additive_renyi,
    estimate_moment,
    estimate_moment_excluding,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
    heavy_combine_renyi,
    moment_sample_count,
    tally_mean,
)
from entrange.core import SHANNON, ColoredPointSet, QueryRect, renyi_kind
from entrange.errors import EmptyRange, InvalidOrder, Underflow
from entrange.exactnd import ExactNDIndex
from entrange.oracle import brute_entropy

from test_approx_shannon import FULL, make_mix

FAST = EstimatorConfig(c_mom=0.05, moment_c1=1.0, moment_c2=1.0)


def test_moment_single_color_is_one(rng):
    index = EstimatorIndex(make_mix(rng, [40]))
    est = estimate_moment(index, FULL, 2.0, 0.3, FAST, rng)
    assert est.value == 1.0


def test_moment_unbiased_uniform(rng, always_sample):
    # uniform m colors: truth m^(1-alpha); mean of many draws within 3 sigma
    index = EstimatorIndex(make_mix(rng, [8] * 16))
    truth = 16.0 ** (1 - 2.0)
    # per-draw variance of X = p^(alpha-1) is zero for uniform, so use skew
    est = estimate_moment(index, FULL, 2.0, 0.2, FAST, rng)
    assert abs(est.value - truth) < 1e-12


def test_moment_unbiased_skewed(rng):
    index = EstimatorIndex(make_mix(rng, [8, 4, 2, 1, 1]))
    truth = (8**2 + 4**2 + 2**2 + 1 + 1) / 16.0**2
    draws = []
    for seed in range(400):
        r = np.random.default_rng(seed)
        draws.append(estimate_moment(index, FULL, 2.0, 0.5,
                                     EstimatorConfig(c_mom=0.02), r).value)
    mean = np.mean(draws)
    sem = np.std(draws) / math.sqrt(len(draws))
    assert abs(mean - truth) < 4 * sem + 1e-6


def test_moment_mean_of_1e5_draws_within_3_sigma(rng):
    # one estimate over 1e5 samples: the mean lands within 3 sigma of truth
    index = EstimatorIndex(make_mix(rng, [32, 16, 8, 4, 2, 2]))
    alpha = 2.0
    p = np.array([32, 16, 8, 4, 2, 2]) / 64.0
    truth = float((p**alpha).sum())
    var = float((p * (p ** (alpha - 1)) ** 2).sum() - truth**2)
    draws = 100_000
    got = tally_mean(renyi_kind(alpha), DualAccessOracle(index, FULL), draws, np.random.default_rng(99))
    assert abs(got - truth) <= 3 * math.sqrt(var / draws)


def test_moment_excluding_matches_reduced_truth(rng, always_sample):
    # exclude the heavy color: remaining 2 uniform -> truth 2^(1-alpha)
    index = EstimatorIndex(make_mix(rng, [60, 10, 10]))
    for alpha in (1.5, 2.0, 3.0):
        est = estimate_moment_excluding(index, FULL, alpha, 0.2, 0, FAST, rng)
        assert abs(est.value - 2.0 ** (1 - alpha)) < 1e-12


def test_moment_excluding_absent_color(rng, always_sample):
    index = EstimatorIndex(make_mix(rng, [6, 6, 6]))
    a = estimate_moment(index, FULL, 2.0, 0.3, FAST, np.random.default_rng(5))
    b = estimate_moment_excluding(index, FULL, 2.0, 0.3, 99, FAST, np.random.default_rng(5))
    assert a.samples == b.samples > 0
    assert a.value == b.value


def test_moment_exact_from_pieces(rng):
    # 18 points, 20 draws: both moments are read off the range's pieces
    index = EstimatorIndex(make_mix(rng, [6, 6, 12]))
    a = estimate_moment(index, FULL, 2.0, 0.3, FAST, rng)
    b = estimate_moment_excluding(index, FULL, 2.0, 0.3, 2, FAST, rng)
    c = estimate_moment_excluding(index, FULL, 2.0, 0.3, 99, FAST, rng)
    assert a.samples == b.samples == c.samples == 0
    assert abs(a.value - 0.375) < 1e-12 and abs(b.value - 0.5) < 1e-12 and c.value == a.value


def test_branch_comparator_arithmetic():
    # the chosen branch mirrors the direct comparison of the two factors
    for alpha in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0):
        for delta in (0.05, 0.1, 0.2, 0.5, 0.9):
            so, dual, chosen = additive_branch_sample_counts(alpha, delta, 1024)
            so_factor = max(1.0, 1.0 / (alpha - 1.0) ** 2) * alpha / delta**2
            dual_factor = 1.0 / (1.0 - 2.0 ** ((1.0 - alpha) * delta)) ** 2
            assert (chosen == "samples-only") == (dual_factor >= so_factor)
            base = 1024 ** (1 - 1 / alpha) * math.log2(1024)
            assert so == math.ceil(so_factor * base)
            assert dual == math.ceil(dual_factor * base)


def test_additive_renyi_single_color(rng):
    index = EstimatorIndex(make_mix(rng, [30]))
    s = estimate_additive_renyi(index, FULL, 2.0, 0.3, FAST, rng)
    assert s.value == 0.0
    assert s.kind == renyi_kind(2.0)


def test_additive_renyi_rejects_bad_order(rng):
    index = EstimatorIndex(make_mix(rng, [5, 5]))
    with pytest.raises(InvalidOrder):
        estimate_additive_renyi(index, FULL, 1.0, 0.2, FAST, rng)
    with pytest.raises(EmptyRange):
        estimate_additive_renyi(index, QueryRect.interval(500.0, 501.0), 2.0, 0.2, FAST, rng)


def test_additive_renyi_nine_point_mix(rng, always_sample):
    # 2:3:4 mix scaled 20x, alpha=2, delta=0.15 around log2(81/29), sampled
    # although the 180 points are fewer than the 447 draws
    pts = make_mix(rng, [40, 60, 80])
    index = EstimatorIndex(pts)
    truth = 1.4818690077570527
    hits = 0
    for seed in range(200):
        stats: dict = {}
        h = estimate_additive_renyi(index, FULL, 2.0, 0.15,
                                    EstimatorConfig(c_mom=0.05),
                                    np.random.default_rng(seed), stats).value
        assert stats["mode"] == "sampled"
        hits += abs(h - truth) <= 0.15
    assert hits >= 190


def test_additive_renyi_statistical_bound(rng):
    index = EstimatorIndex(make_mix(rng, [12] * 32))  # truth 5 bits, all alpha
    delta = 0.25
    for alpha in (1.5, 3.0):
        ok = 0
        runs = 50
        for seed in range(runs):
            r = np.random.default_rng(4000 + seed)
            stats: dict = {}
            h = estimate_additive_renyi(index, FULL, alpha, delta, FAST, r, stats).value
            assert stats["mode"] == "sampled"   # 384 points, 300 or 265 draws
            ok += abs(h - 5.0) <= delta
        assert ok >= 0.9 * runs


def test_heavy_combine_identity(rng):
    # with oracle-exact moments substituted, the combination is exact
    pts = make_mix(rng, [75, 10, 8, 7])
    index = EstimatorIndex(pts)
    for alpha in (1.5, 2.0, 3.0):
        truth = brute_entropy(pts, FULL, renyi_kind(alpha)).value
        rho = 0.75
        h1 = 1.0 - rho**alpha
        light_exact = (10**alpha + 8**alpha + 7**alpha) / 25.0**alpha
        h2 = light_exact * 0.25**alpha
        full_exact = (75**alpha + 10**alpha + 8**alpha + 7**alpha) / 100.0**alpha
        h = heavy_combine_renyi(h1, h2, full_exact, alpha)
        assert abs(h - truth) < 1e-9


def test_heavy_split_algebra():
    # t - 1 = (1 - sum p^alpha)/sum p^alpha, exercised at a few points
    for power_sum in (0.2, 0.5, 0.9):
        t = 1.0 / power_sum
        assert abs((1 - power_sum) / power_sum - (t - 1)) < 1e-12


def test_multiplicative_renyi_single_color(rng):
    index = EstimatorIndex(make_mix(rng, [25]))
    s = estimate_multiplicative_renyi(index, FULL, 2.0, 0.3, FAST, rng)
    assert s.value == 0.0


def test_multiplicative_renyi_heavy_bound(rng):
    pts = make_mix(rng, [96, 11, 11, 10])  # heavy 0.75 + 3 light
    index = EstimatorIndex(pts)
    eps = 0.25
    truth = brute_entropy(pts, FULL, renyi_kind(2.0)).value
    ok = 0
    runs = 50
    for seed in range(runs):
        r = np.random.default_rng(5000 + seed)
        stats: dict = {}
        h = estimate_multiplicative_renyi(index, FULL, 2.0, eps, FAST, r, stats).value
        assert (stats["mode"], stats["samples"]) == ("exact-fallback", 0)   # 128 points
        ok += truth / (1 + eps) - 1e-9 <= h <= (1 + eps) * truth + 1e-9
    assert ok >= 0.9 * runs


def test_multiplicative_renyi_heavy_branch_counts_both_moments(rng, always_sample):
    # the sampled heavy branch draws the rest's moment and the full moment,
    # both at eps / 3 here (alpha 2, moment_c1 = moment_c2 = 1); samples
    # counts both, and not heavy detection's draws
    index = EstimatorIndex(make_mix(rng, [96, 11, 11, 10]))
    stats: dict = {}
    estimate_multiplicative_renyi(index, FULL, 2.0, 0.25, FAST, rng, stats)
    assert stats["mode"] == "sampled+heavy" and stats["heavy_color"] == 0
    assert stats["samples"] == 2 * moment_sample_count(len(index), 2.0, 0.25 / 3.0, FAST)


def test_multiplicative_renyi_light_bound(rng, always_sample):
    pts = make_mix(rng, [10] * 16)
    index = EstimatorIndex(pts)
    eps = 0.25
    ok = 0
    runs = 50
    for seed in range(runs):
        r = np.random.default_rng(6000 + seed)
        stats: dict = {}
        h = estimate_multiplicative_renyi(index, FULL, 2.0, eps, FAST, r, stats).value
        assert stats["mode"] == "sampled-light"
        ok += 4.0 / (1 + eps) <= h <= (1 + eps) * 4.0
    assert ok >= 0.9 * runs


# ---------------------------------------------------------------------------
# a Renyi moment that underflows to 0 is refused, not answered

FULL2 = QueryRect.full(2)


def six_colors(n):
    """``n`` unit-weight 2-D points in 6 colors taking turns: their Renyi
    moment, about 6^(1-alpha), underflows to 0 at alpha 1000 but not at 200."""
    return ColoredPointSet(np.random.default_rng(n).uniform(0, 100, (n, 2)), np.arange(n) % 6)


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("n", [60, 200])   # both sides of RangeTree.statistic's FOLD_POINTS
def test_underflowed_moment_is_refused(request, n, sampled):
    if sampled:
        request.getfixturevalue("always_sample")
    pts = six_colors(n)
    index = ExactNDIndex(pts, orders=(200.0, 1000.0))
    for alpha, refused in ((200.0, False), (1000.0, True)):
        kind, stats = renyi_kind(alpha), ({}, {})
        calls = [lambda: brute_entropy(pts, FULL2, kind).value,
                 lambda: index.query(FULL2, kind).value]
        calls += [lambda estimate=estimate, st=st: estimate(
            index, FULL2, alpha, 0.2, rng=np.random.default_rng(1), stats=st).value
            for estimate, st in zip((estimate_additive_renyi, estimate_multiplicative_renyi), stats)]
        for call in calls:
            if refused:
                with pytest.raises(Underflow, match="moment underflowed to 0"):
                    call()
            else:
                assert 2.5 < call() <= math.log2(6)
        # an estimate draws only when sampling is forced
        assert [st["distinct_colors"] > 0 for st in stats] == [sampled, sampled]
    # the Shannon estimators still answer the same range
    truth = brute_entropy(pts, FULL2, SHANNON).value
    for estimate in (estimate_additive, estimate_multiplicative):
        h = estimate(index, FULL2, 0.2, rng=np.random.default_rng(1)).value
        assert abs(h - truth) < (0.2 if sampled else 1e-12)


@pytest.mark.parametrize("sampled", [False, True])
def test_underflowed_moment_estimate_is_refused(request, sampled):
    # about 6^-999 over the range, and 5^-999 without one color, the moment
    # estimates refuse alpha 1000 instead of a relative-error estimate of 0;
    # at alpha 200 they answer (exactly, or up to the draws)
    if sampled:
        request.getfixturevalue("always_sample")
    index = ExactNDIndex(six_colors(200))
    counts = np.bincount(np.arange(200) % 6)
    for alpha, refused in ((200.0, False), (1000.0, True)):
        calls = ((lambda: estimate_moment(index, FULL2, alpha, 0.2, rng=np.random.default_rng(1)),
                  counts), (lambda: estimate_moment_excluding(index, FULL2, alpha, 0.2, 0,
                                                              rng=np.random.default_rng(1)),
                            counts[1:]))
        for call, kept in calls:
            if refused:
                with pytest.raises(Underflow, match="order-1000.0 moment underflowed to 0"):
                    call()
                continue
            moment = call()
            want = float(((kept / kept.sum()) ** alpha).sum())
            assert (moment.samples > 0) == sampled
            assert abs(math.log(moment.value / want)) < (10.0 if sampled else 1e-9)


@pytest.mark.parametrize("sampled", [False, True])
def test_underflowed_full_moment_is_refused(request, sampled):
    # 90% of 300 points in one color: at alpha 10^4 the heavy branch's full
    # moment, about 0.9^10^4, is 0 in floating point, whether the moment is
    # exact or tallied
    if sampled:
        request.getfixturevalue("always_sample")
    colors = np.where(np.arange(300) < 270, 0, 1 + np.arange(300) % 5)
    index = ExactNDIndex(ColoredPointSet(np.random.default_rng(3).uniform(0, 100, (300, 2)), colors))
    cfg = EstimatorConfig(c_mom=1e-6, moment_c1=1.0, moment_c2=1.0)   # a few thousand draws
    stats: dict = {}
    with pytest.raises(Underflow, match="full moment underflowed to 0"):
        estimate_multiplicative_renyi(index, FULL2, 1e4, 0.2, cfg, np.random.default_rng(2), stats)
    # heavy detection's few draws see at most 2 colors; the tallied moments see more
    assert (stats["distinct_colors"] > 2) == sampled
    with pytest.raises(Underflow):
        heavy_combine_renyi(1.0, 0.0, 0.0, 1e4)
