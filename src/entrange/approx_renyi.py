"""Sampling-based Renyi entropy estimators over query rectangles.

The workhorse is a frequency-moment estimator: with the dual oracle of
:mod:`.approx_shannon`, X = EVAL(SAMP())^(alpha-1) has expectation exactly
sum_i p_i^alpha, so its sample mean estimates the alpha-th moment and the
entropy is -log2(moment)/(alpha-1).

The additive estimator chooses its sample count as the better of the
samples-only and dual-access complexities (both realized through the same
dual oracle, which is always available in the query setting). The
multiplicative estimator splits on a heavy color: without one the entropy
is at least log2(3/2) and an additive call suffices; with one it rewrites
t - 1 = (1 - sum p^alpha)/sum p^alpha, computes 1 - rho^alpha of the heavy
color exactly, and estimates only the light remainder's moment through the
color-excluding sampler.

As in :mod:`.approx_shannon`, a moment is sampled only when its sample
count is below the range's point count; otherwise it is computed exactly
from the range's canonical pieces. The multiplicative estimator answers
exactly before heavy detection when the range holds no more points than
the fewest draws any of its sampling branches would make.

``stats["mode"]`` names the path that answered: ``"sampled"`` or
``"exact-fallback"`` for the additive estimator; ``"exact-fallback"``,
``"additive-light"``, ``"heavy"``, ``"exact-fallback+heavy"`` or
``"single-color"`` for the multiplicative one. ``stats["samples"]`` is 0
on every exact answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .approx_shannon import (
    DEFAULT_CONFIG,
    DualAccessOracle,
    EstimatorConfig,
    EstimatorIndex,
    heavy_draws,
    prepare_query,
)
from .core import EntropySummary, QueryRect, renyi_kind
from .errors import EmptyRange


@dataclass(frozen=True)
class MomentEstimate:
    """Estimate of sum_i p_i^alpha over the range's color distribution."""

    alpha: float
    value: float
    rel_error: float          # requested relative error target
    samples: int              # 0 means the moment was computed exactly


def _moment_mean(oracle: DualAccessOracle, alpha: float, samples: int,
                 rng: np.random.Generator, stats: Optional[dict] = None) -> float:
    """Mean of EVAL(SAMP())^(alpha-1) over ``samples`` draws, from their tally."""
    _, counts, weights = oracle.tally(rng, samples, stats)
    return float((counts * (weights / oracle.total_weight) ** (alpha - 1.0)).sum() / samples)


def _exact_moment_value(oracle: DualAccessOracle, alpha: float) -> float:
    S = oracle.exact_power_sum(renyi_kind(alpha))
    return S / oracle.total_weight ** alpha


def moment_sample_count(index: EstimatorIndex, alpha: float, eps: float,
                        cfg: EstimatorConfig) -> int:
    n = max(2, len(index))
    return math.ceil(cfg.c_mom * alpha * n ** (1.0 - 1.0 / alpha) * math.log2(n) / eps**2)


def _estimate_moment_on(index: EstimatorIndex, oracle: DualAccessOracle, alpha: float,
                        eps: float, cfg: EstimatorConfig, rng: np.random.Generator,
                        samples: Optional[int] = None,
                        stats: Optional[dict] = None) -> MomentEstimate:
    if oracle.is_empty:
        raise EmptyRange("no mass in (reduced) query range")
    if samples is None:
        samples = moment_sample_count(index, alpha, eps, cfg)
    if oracle.use_sampling(samples):
        return MomentEstimate(alpha, _moment_mean(oracle, alpha, samples, rng, stats), eps,
                              samples)
    return MomentEstimate(alpha, _exact_moment_value(oracle, alpha), eps, 0)


def estimate_moment(index: EstimatorIndex, rect: QueryRect, alpha: float, eps: float,
                    cfg: EstimatorConfig = DEFAULT_CONFIG,
                    rng: Optional[np.random.Generator] = None) -> MomentEstimate:
    """Relative-error estimate of the alpha-th frequency moment in the range."""
    renyi_kind(alpha)   # raises InvalidOrder unless alpha > 1
    oracle, rng = prepare_query(index, rect, cfg, rng, eps=eps)
    return _estimate_moment_on(index, oracle, alpha, eps, cfg, rng)


def estimate_moment_excluding(index: EstimatorIndex, rect: QueryRect, alpha: float,
                              eps: float, excluded: int,
                              cfg: EstimatorConfig = DEFAULT_CONFIG,
                              rng: Optional[np.random.Generator] = None) -> MomentEstimate:
    """Moment of the range's distribution with one color removed, normalized
    by the reduced total mass."""
    renyi_kind(alpha)   # raises InvalidOrder unless alpha > 1
    oracle, rng = prepare_query(index, rect, cfg, rng, eps=eps)
    return _estimate_moment_on(index, oracle.excluding(excluded), alpha, eps, cfg, rng)


def additive_branch_sample_counts(alpha: float, delta: float, n: int,
                                  cfg: EstimatorConfig = DEFAULT_CONFIG) -> tuple[int, int, str]:
    """Sample counts of the two additive strategies and which one wins.

    The samples-only route needs ~ max(1, 1/(alpha-1)^2) * alpha / delta^2
    draws per n^(1-1/alpha); the dual-access route ~ 1/(1-2^((1-alpha)delta))^2.
    """
    n = max(2, n)
    base = n ** (1.0 - 1.0 / alpha) * math.log2(n)
    so_factor = max(1.0, 1.0 / (alpha - 1.0) ** 2) * alpha / delta**2
    dual_factor = 1.0 / (1.0 - 2.0 ** ((1.0 - alpha) * delta)) ** 2
    samples_only = math.ceil(cfg.c_mom * so_factor * base)
    dual = math.ceil(cfg.c_mom * dual_factor * base)
    chosen = "samples-only" if dual_factor >= so_factor else "dual-access"
    return samples_only, dual, chosen


def estimate_additive_renyi(index: EstimatorIndex, rect: QueryRect, alpha: float,
                            delta: float, cfg: EstimatorConfig = DEFAULT_CONFIG,
                            rng: Optional[np.random.Generator] = None,
                            stats: Optional[dict] = None) -> EntropySummary:
    """Renyi entropy within +-delta, with high probability."""
    renyi_kind(alpha)   # raises InvalidOrder unless alpha > 1
    oracle, rng = prepare_query(index, rect, cfg, rng, stats, delta=delta)
    return _additive_renyi_on(index, oracle, alpha, delta, cfg, rng, stats)


def _additive_renyi_on(index: EstimatorIndex, oracle: DualAccessOracle, alpha: float,
                       delta: float, cfg: EstimatorConfig, rng: np.random.Generator,
                       stats: Optional[dict]) -> EntropySummary:
    samples_only, dual, chosen = additive_branch_sample_counts(alpha, delta, len(index), cfg)
    est = _estimate_moment_on(index, oracle, alpha, delta, cfg, rng,
                              samples=min(samples_only, dual), stats=stats)
    if stats is not None:
        stats["mode"] = "sampled" if est.samples else "exact-fallback"
        stats["branch"] = chosen
        stats["samples"] = est.samples
    value = -math.log2(est.value) / (alpha - 1.0)
    return EntropySummary(renyi_kind(alpha), oracle.total_weight, value)


def heavy_combine_renyi(h1: float, h2: float, h_hat: float, alpha: float) -> float:
    """Entropy from the split t-1 = (1 - sum p^alpha)/sum p^alpha: h1 is the
    exact 1 - rho^alpha of the heavy color, h2 the rescaled light moment,
    h_hat the full-moment estimate. The log argument is clamped to the
    feasible t >= 1 (power sums never exceed one)."""
    arg = (h1 - h2) / h_hat + 1.0
    return math.log2(max(arg, 1.0)) / (alpha - 1.0)


def estimate_multiplicative_renyi(index: EstimatorIndex, rect: QueryRect, alpha: float,
                                  eps: float, cfg: EstimatorConfig = DEFAULT_CONFIG,
                                  rng: Optional[np.random.Generator] = None,
                                  stats: Optional[dict] = None) -> EntropySummary:
    """Renyi entropy within a (1+eps) factor, with high probability."""
    kind = renyi_kind(alpha)   # raises InvalidOrder unless alpha > 1
    oracle, rng = prepare_query(index, rect, cfg, rng, stats, eps=eps)
    delta = min(0.999, math.log2(1.5) * eps)
    eps0 = eps / cfg.moment_c1
    eps1 = eps0 / 3.0
    eps2 = (alpha - 1.0) * eps1 / cfg.moment_c2 if alpha <= 2.0 else eps1 / cfg.moment_c2
    eps1, eps2 = min(eps1, 0.999), min(eps2, 0.999)
    light = min(additive_branch_sample_counts(alpha, delta, len(index), cfg)[:2])
    split = (moment_sample_count(index, alpha, eps2, cfg)
             + moment_sample_count(index, alpha, eps1, cfg))
    if not oracle.use_sampling(heavy_draws(index, cfg) + min(light, split), stats):
        value = oracle.exact_entropy(kind)   # first: it sets total_weight from the masses
        return EntropySummary(kind, oracle.total_weight, value)
    heavy = oracle.heavy_color(rng, cfg, stats)

    if heavy is None:
        # entropy at least log2(3/2): an additive call gives the factor
        out = _additive_renyi_on(index, oracle, alpha, delta, cfg, rng, stats)
        if stats is not None and stats["samples"]:
            stats["mode"] = "additive-light"
        return out

    reduced = oracle.excluding(heavy.color)
    if reduced.is_empty:
        # the rest of the range has no mass: zero exactly
        if stats is not None:
            stats["mode"] = "single-color"
            stats["samples"] = 0
        return EntropySummary(kind, oracle.total_weight, 0.0)

    rho = heavy.weight / heavy.total
    h1 = 1.0 - rho**alpha
    rest = _estimate_moment_on(index, reduced, alpha, eps2, cfg, rng, stats=stats)
    h2 = rest.value * ((heavy.total - heavy.weight) / heavy.total) ** alpha
    full = _estimate_moment_on(index, oracle, alpha, eps1, cfg, rng, stats=stats)
    value = heavy_combine_renyi(h1, h2, full.value, alpha)
    if stats is not None:
        stats["samples"] = rest.samples + full.samples
        stats["mode"] = "heavy" if stats["samples"] else "exact-fallback+heavy"
        stats["heavy_color"] = heavy.color
    return EntropySummary(kind, oracle.total_weight, value)
