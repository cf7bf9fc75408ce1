"""Estimator answers at any weight scale: entropy does not change when every
weight is scaled by one factor, so each estimator must answer the same at
10^k for every k in [-300, 300]."""

import math

import numpy as np
import pytest

from entrange import (
    ColoredPointSet,
    EstimatorConfig,
    EstimatorIndex,
    QueryRect,
    SHANNON,
    brute_entropy,
    estimate_additive,
    estimate_additive_renyi,
    estimate_moment,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
    renyi_kind,
)

EXPONENTS = range(-300, 301, 10)
KINDS = (SHANNON,) + tuple(renyi_kind(a) for a in (1.5, 2.0, 3.0))
# color c's points lie in the band 20c <= x <= 20c + 10: the full range and
# two partial ones that each cover whole bands
RECTS = (QueryRect.full(2), QueryRect((-1.0, -1.0), (50.0, 101.0)),
         QueryRect((15.0, -1.0), (95.0, 101.0)))
# small leading constants keep the sampled tests' draws in the hundreds
FEW_DRAWS = EstimatorConfig(c_add=0.05, c_mult=0.2, c_mom=0.05, moment_c1=1.0, moment_c2=1.0)
by_exponent = pytest.mark.parametrize("k", EXPONENTS, ids=[f"1e{k}" for k in EXPONENTS])


def banded_points(seed, scale, per_color, equal=True, heavy=1.0):
    """5 colors of ``per_color`` points each, color c in its band, weights in
    [0.5, 1.5] times ``scale``. With ``equal``, each color's weights are one
    permutation of the same draws, so every color holds the same mass in
    each of ``RECTS``; color 0's weights are then multiplied by ``heavy``."""
    rng = np.random.default_rng(seed)
    colors = np.repeat(np.arange(5), per_color)
    x = 20.0 * colors + rng.uniform(0.0, 10.0, size=len(colors))
    coords = np.column_stack((x, rng.uniform(0.0, 100.0, size=len(colors))))
    if equal:
        base = rng.uniform(0.5, 1.5, size=per_color)
        weights = np.concatenate([rng.permutation(base) for _ in range(5)])
        weights[colors == 0] *= heavy
    else:
        weights = rng.uniform(0.5, 1.5, size=len(colors))
    return ColoredPointSet(coords, colors, weights * scale, num_colors=5)


def estimates(index, rect, kind, cfg, rng):
    """(name, entropy, count, stats) of the kind's additive and
    multiplicative estimators at accuracy 0.3, then for a Renyi kind the
    entropy of ``estimate_moment``'s moment (no count, no stats)."""
    for name in ("additive", "multiplicative"):
        stats: dict = {}
        if kind.alpha is None:
            fn = estimate_additive if name == "additive" else estimate_multiplicative
            s = fn(index, rect, 0.3, cfg, rng, stats)
        else:
            fn = estimate_additive_renyi if name == "additive" else estimate_multiplicative_renyi
            s = fn(index, rect, kind.alpha, 0.3, cfg, rng, stats)
        yield name, s.value, s.count, stats
    if kind.alpha is not None:
        m = estimate_moment(index, rect, kind.alpha, 0.3, cfg, rng)
        yield "moment", -math.log2(m.value) / (kind.alpha - 1.0), None, None


def check_against_brute(pts, cfg, modes):
    """Every estimate on each of ``RECTS`` and kind matches brute force to
    1e-6 bits (and its mass to 1e-9 relative), by a path named in ``modes``."""
    index = EstimatorIndex(pts)
    rng = np.random.default_rng(12)
    for rect in RECTS:
        for kind in KINDS:
            truth = brute_entropy(pts, rect, kind)
            for name, value, count, stats in estimates(index, rect, kind, cfg, rng):
                where = (rect, kind, name)
                assert abs(value - truth.value) <= 1e-6, (where, value, truth)
                if stats is not None:
                    assert abs(count - truth.count) <= 1e-9 * truth.count, (where, count, truth)
                    assert stats["mode"] == modes[name], (where, stats)


@by_exponent
def test_exact_answers_at_any_scale(k):
    # 65 points are fewer than any estimator's draws: every answer is exact
    check_against_brute(banded_points(9, 10.0 ** k, 13, equal=False), EstimatorConfig(),
                        {"additive": "exact-fallback", "multiplicative": "exact-fallback"})


@by_exponent
def test_sampled_answers_at_any_scale(k, always_sample):
    # every color holds the same mass in each range, so every draw's g(p) is
    # the same and each sampled statistic equals the exact one
    check_against_brute(banded_points(11, 10.0 ** k, 8), FEW_DRAWS,
                        {"additive": "sampled", "multiplicative": "sampled-light"})


@by_exponent
def test_sampled_heavy_branch_at_any_scale(k, always_sample):
    # color 0 holds 10/14 of the full range's mass and each light color the
    # same mass: the Shannon heavy branch samples only the uniform rest and
    # equals brute force; the Renyi one also samples the full moment, so it
    # must equal its own answer at scale 1 for the same seed
    def heavy_branch(scale, kind):
        pts = banded_points(13, scale, 8, heavy=10.0)
        index, rng, stats = EstimatorIndex(pts), np.random.default_rng(14), {}
        if kind.alpha is None:
            s = estimate_multiplicative(index, RECTS[0], 0.3, FEW_DRAWS, rng, stats)
        else:
            s = estimate_multiplicative_renyi(index, RECTS[0], kind.alpha, 0.3, FEW_DRAWS, rng,
                                              stats)
        assert stats["mode"] == "sampled+heavy", stats
        return pts, s.value

    for kind in KINDS:
        pts, value = heavy_branch(10.0 ** k, kind)
        want = (brute_entropy(pts, RECTS[0], kind).value if kind.alpha is None
                else heavy_branch(1.0, kind)[1])
        assert abs(value - want) <= 1e-6, (kind, value, want)


def test_masses_too_far_apart_for_one_scale():
    # beside 1e300, the probabilities of 1e-30 and 1e-40 underflow to 0; the
    # entropy is about 1e-327 bits, and no exact answer may read 0 * inf
    pts = ColoredPointSet(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), np.arange(3),
                          np.array([1e300, 1e-30, 1e-40]))
    index = EstimatorIndex(pts)
    for kind in KINDS:
        for name, value, _, stats in estimates(index, RECTS[0], kind, EstimatorConfig(),
                                               np.random.default_rng(15)):
            assert abs(value) <= 1e-300, (kind, name, value)
            assert stats is None or stats["mode"] == "exact-fallback", (kind, name, stats)
