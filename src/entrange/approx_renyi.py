"""Renyi entropy and frequency-moment estimators over query rectangles.

With the per-draw value X = EVAL(SAMP())^(alpha-1), whose expectation is
the alpha-th moment sum_i p_i^alpha, the entropy estimators run on
:mod:`.approx_shannon`'s skeleton, beside which their draw counts and heavy
combine (:func:`.approx_shannon.heavy_combine_renyi`) live. The moment
estimators answer exactly when their draws are not fewer than the range's
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .approx_shannon import (
    DEFAULT_CONFIG,
    DualAccessOracle,
    EstimatorConfig,
    EstimatorIndex,
    additive,
    moment_sample_count,
    multiplicative,
    prepare_query,
    statistic,
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


def _moment(index: EstimatorIndex, oracle: DualAccessOracle, alpha: float, eps: float,
            cfg: EstimatorConfig, rng: np.random.Generator) -> MomentEstimate:
    if oracle.is_empty:
        raise EmptyRange("no mass in (reduced) query range")
    value, drawn = statistic(renyi_kind(alpha), oracle,
                             moment_sample_count(index, alpha, eps, cfg), rng)
    return MomentEstimate(alpha, value, eps, drawn)


def estimate_moment(index: EstimatorIndex, rect: QueryRect, alpha: float, eps: float,
                    cfg: EstimatorConfig = DEFAULT_CONFIG,
                    rng: Optional[np.random.Generator] = None) -> MomentEstimate:
    """Relative-error estimate of the alpha-th frequency moment in the range."""
    renyi_kind(alpha)   # raises InvalidOrder unless alpha > 1
    oracle, rng = prepare_query(index, rect, rng, eps=eps)
    return _moment(index, oracle, alpha, eps, cfg, rng)


def estimate_moment_excluding(index: EstimatorIndex, rect: QueryRect, alpha: float,
                              eps: float, excluded: int,
                              cfg: EstimatorConfig = DEFAULT_CONFIG,
                              rng: Optional[np.random.Generator] = None) -> MomentEstimate:
    """Moment of the range's distribution with one color removed, normalized
    by the reduced total mass."""
    renyi_kind(alpha)   # raises InvalidOrder unless alpha > 1
    oracle, rng = prepare_query(index, rect, rng, eps=eps)
    return _moment(index, oracle.excluding(excluded), alpha, eps, cfg, rng)


def estimate_additive_renyi(index: EstimatorIndex, rect: QueryRect, alpha: float,
                            delta: float, cfg: EstimatorConfig = DEFAULT_CONFIG,
                            rng: Optional[np.random.Generator] = None,
                            stats: Optional[dict] = None) -> EntropySummary:
    """Renyi entropy within +-delta, with high probability."""
    return additive(index, rect, renyi_kind(alpha), delta, cfg, rng, stats)


def estimate_multiplicative_renyi(index: EstimatorIndex, rect: QueryRect, alpha: float,
                                  eps: float, cfg: EstimatorConfig = DEFAULT_CONFIG,
                                  rng: Optional[np.random.Generator] = None,
                                  stats: Optional[dict] = None) -> EntropySummary:
    """Renyi entropy within a (1+eps) factor, with high probability."""
    return multiplicative(index, rect, renyi_kind(alpha), eps, cfg, rng, stats)
