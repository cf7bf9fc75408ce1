"""Sampling-based entropy estimators over query rectangles, for both families.

Estimation runs in the dual access model: SAMP draws a color c with
probability p_c, its share of the rectangle's mass, and EVAL returns p_c
exactly; both run on the pooled range tree of the one d-D index
(:class:`.exactnd.ExactNDIndex`, also built under the name ``EstimatorIndex``),
with the rectangle decomposed once per query. Every estimator estimates one
statistic E[g(p)] of the range's color law (:func:`~.core.g`): for
g(p) = -log2 p it is the Shannon entropy, for g(p) = p^(alpha-1) the
moment m = sum p^alpha, whose Renyi entropy is -log2(m)/(alpha-1). A
statistic is a tally mean (the draws made as one batch, counted by color,
each distinct color EVAL'd once) or exact: one fold of the range's color
masses, off its narrower slab (:meth:`.RangeTree.scan`) or its pieces
(:meth:`.RangeTree.statistic`), as :class:`.ExactNDIndex` answers. Both
work on probabilities, so they hold at any weight scale. One function
chooses between them (:meth:`DualAccessOracle.use_sampling`): a statistic
samples only when its draws are fewer than the range's points, since the
exact value reads each point once and meets every bound; the slab's count
bounds the range's, so the pieces are built only when sampling might win
or the slab is too wide to scan. The draw counts depend only on the
index size, the kind, the accuracy and the config: :func:`draw_counts`
computes them once per such key.

An additive estimator takes one statistic. A multiplicative one answers
exactly when the range holds no more points than the fewest draws any of
its sampling branches would make; otherwise it checks for a color holding
more than 2/3 of the mass. Without one the entropy is bounded below and one
statistic over the range gives the factor; with one, that color's exact
share is peeled off and the light remainder is estimated through the
color-excluding sampler (Shannon: :func:`.core.insert_color_shannon`;
Renyi: :func:`heavy_combine_renyi` with the full moment). The moment
estimators return the Renyi statistic itself, over the range or over the
range without one color.

``stats["mode"]`` names the path that answered: ``"sampled"`` or
``"exact-fallback"`` for an additive estimator; ``"exact-fallback"``,
``"sampled-light"``, ``"sampled+heavy"``, ``"exact-fallback+heavy"`` or
``"single-color"`` for a multiplicative one. ``stats["samples"]`` counts
the statistics' draws (not heavy detection's), 0 on every exact answer;
``stats["pieces"]`` the canonical pieces built, 0 if none; additive Renyi
also reports its ``branch``. Sample counts follow the
published complexities with configurable leading constants, so acceptance
is statistical (bounds hold for >= 95% of seeds).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (SHANNON, EntropyKind, EntropySummary, QueryRect,
                   entropy_from_statistic, g, insert_color_shannon, renyi_kind)
from .errors import EmptyRange, Underflow
from .exactnd import ExactNDIndex
from .rangetree import Exclusion, Pieces, Slabs


@dataclass(frozen=True)
class EstimatorConfig:
    """Leading constants for the sample-count formulas.

    The defaults are deliberately conservative; tests and callers may lower
    them, the statistical acceptance criteria are the contract. When a
    requested sample count is at least the range's point count the
    estimator answers exactly from the range's canonical pieces instead
    (cheaper than sampling at that point).
    """

    c_add: float = 1.0
    c_mult: float = 1.0
    c_mom: float = 1.0
    moment_c1: float = 8.0
    moment_c2: float = 8.0


DEFAULT_CONFIG = EstimatorConfig()


class HeavyColor(NamedTuple):
    color: int
    weight: float        # mass of the color inside the range
    total: float         # mass of the whole range


class DualAccessOracle:
    """SAMP/EVAL oracle pair bound to one query rectangle.

    The rectangle is located once (its ``slabs``) and decomposed at most
    once into canonical pieces; SAMP draws batches from them and EVAL is
    exact (color masses over the pieces). With ``excluded`` set, both
    operate on the sub-population without that color. The pieces and the
    rest are derived on their first read, so a range answered off its slab
    is never decomposed and an exact answer derives no sampling arrays.
    """

    def __init__(self, index: ExactNDIndex, rect: QueryRect,
                 excluded: Optional[int] = None, slabs: Optional[Slabs] = None,
                 pieces: Optional[Pieces] = None):
        self.index = index
        self.rect = rect
        self.excluded = excluded
        self.slabs = index.tree.slabs(rect) if slabs is None else slabs
        self._pieces = pieces

    @property
    def pieces(self) -> Pieces:
        """The range's canonical pieces, which carry their point count."""
        if self._pieces is None:
            self._pieces = self.index.tree.canonical_nodes(self.rect, self.slabs)
        return self._pieces

    @functools.cached_property
    def exclusion(self) -> Optional[Exclusion]:
        """The excluded color's points in the pieces, or None."""
        return None if self.excluded is None else self.index.tree.exclude(self.pieces, self.excluded)

    @functools.cached_property
    def total_count(self) -> int:
        """Points of the (reduced) range."""
        return self.pieces.points - (0 if self.exclusion is None else int(self.exclusion.count.sum()))

    @functools.cached_property
    def total_weight(self) -> float:
        """Mass of the (reduced) range, from the pieces' weight prefixes
        unless :func:`exact_statistic` has set it first."""
        weight = float(self.index.tree.pieces_weight(self.pieces).sum())
        return weight if self.exclusion is None else weight - float(self.exclusion.mass.sum())

    def excluding(self, color: int) -> "DualAccessOracle":
        """The same range without one color, on the same slabs and
        decomposition, if one was made."""
        return DualAccessOracle(self.index, self.rect, color, self.slabs, self._pieces)

    @property
    def is_empty(self) -> bool:
        """True when no point of positive weight remains (the pool holds only
        positive weights, so only a reduced range needs its mass checked)."""
        if self.excluded is None:
            return self.slabs.points == 0 or self.pieces.points == 0
        return self.total_count == 0 or self.total_weight <= 0.0

    def color_weight(self, color):
        """Mass inside the range of one color, or of each color of an array:
        EVAL, through the index's ``color_trees``."""
        return self.index.color_trees.weight(self.rect, color, pieces=self.pieces)

    def tally(self, rng: Optional[np.random.Generator], size: int,
              stats: Optional[dict] = None):
        """Draws ``size`` samples (from a fresh generator when ``rng`` is
        None) and counts them by color: returns the colors drawn
        (ascending), how often each was drawn and each one's mass in the
        range, EVAL'd once per color. Adds the number of colors to
        ``stats["distinct_colors"]``. Costs O(size + largest color drawn).
        Refuses an empty range before drawing: a reduced range with no points
        can keep a sliver of prefix-differenced mass, which would be drawn."""
        if self.is_empty:
            raise EmptyRange("no mass to sample in query range")
        rng = np.random.default_rng() if rng is None else rng
        tree = self.index.tree
        pos = tree.draw(self.pieces, rng, size, self.exclusion)
        counts = np.bincount(tree.pts.colors[tree.pool_ids[pos]])
        colors = np.flatnonzero(counts)
        if stats is not None:
            stats["distinct_colors"] += len(colors)
        return colors, counts[colors], self.color_weight(colors)

    def heavy_color(self, rng: Optional[np.random.Generator],
                    stats: Optional[dict] = None) -> Optional[HeavyColor]:
        """See :func:`detect_heavy_color`."""
        colors, _, weights = self.tally(rng, heavy_draws(len(self.index)), stats)
        top = int(np.argmax(weights))
        if weights[top] > (2.0 / 3.0) * self.total_weight:
            return HeavyColor(int(colors[top]), float(weights[top]), self.total_weight)
        return None

    def use_sampling(self, samples: int) -> bool:
        """The one choice between sampling and the exact answer: ``samples``
        draws cost less than the exact answer, which reads each of the
        (reduced) range's points once, when the range holds more points.
        Each count bounds the next: the narrower slab's (no decomposition),
        the pieces' (no sampling arrays), then the reduced one."""
        return (samples < self.slabs.points and samples < self.pieces.points
                and (self.excluded is None or samples < self.total_count))


# The estimators' name for the one d-D index, kept for callers that build it by that name.
EstimatorIndex = ExactNDIndex


def tally_mean(kind: EntropyKind, oracle: DualAccessOracle, samples: int,
               rng: Optional[np.random.Generator], stats: Optional[dict] = None) -> float:
    """Mean of g(EVAL(SAMP())) over ``samples`` draws, from their tally."""
    _, counts, weights = oracle.tally(rng, samples, stats)
    return float((counts * g(kind, weights / oracle.total_weight)).sum() / samples)


def exact_statistic(kind: EntropyKind, oracle: DualAccessOracle) -> float:
    """sum_c p_c g(p_c) over the (reduced) range's color probabilities: the
    direct fold of the points :meth:`.RangeTree.scan` reads off the narrower
    slab, or :meth:`.RangeTree.statistic` over the pieces. Sets the oracle's
    ``total_weight`` to the masses' sum, so an exact answer reads no weight
    prefix."""
    tree = oracle.index.tree
    if oracle.slabs.direct:
        value, oracle.total_weight = tree.fold((tree.scan(oracle.slabs),), kind, oracle.excluded)
    else:
        value, oracle.total_weight = tree.statistic(oracle.pieces, kind, oracle.excluded)
    if not oracle.total_weight > 0.0:
        raise EmptyRange("no mass in (reduced) query range")
    return value


def statistic(kind: EntropyKind, oracle: DualAccessOracle, samples: int,
              rng: Optional[np.random.Generator], stats: Optional[dict] = None) -> tuple[float, int]:
    """The kind's statistic over the oracle's law and the draws it took: a
    tally mean of ``samples`` draws where :meth:`DualAccessOracle.use_sampling`
    allows, otherwise exact, with 0 draws."""
    if oracle.use_sampling(samples):
        return tally_mean(kind, oracle, samples, rng, stats), samples
    return exact_statistic(kind, oracle), 0


def moment_sample_count(n: int, alpha: float, eps: float, cfg: EstimatorConfig) -> int:
    n = max(2, n)
    return math.ceil(cfg.c_mom * alpha * n ** (1.0 - 1.0 / alpha) * math.log2(n) / eps**2)


def additive_branch_sample_counts(alpha: float, delta: float, n: int,
                                  cfg: EstimatorConfig = DEFAULT_CONFIG) -> tuple[int, int, str]:
    """Sample counts of the two additive Renyi strategies and which one wins.

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


def heavy_draws(n: int) -> int:
    """Draws of heavy-color detection: ~log_3(2n)."""
    return math.ceil(math.log(2 * max(2, n)) / math.log(3))


@functools.lru_cache(maxsize=256)
def draw_counts(n: int, kind: EntropyKind, accuracy: float, cfg: EstimatorConfig) -> tuple:
    """The estimators' draws on ``n`` points at one accuracy (delta or eps),
    for at most 256 keys: the additive one and its Renyi branch (None for
    Shannon); the multiplicative ``light_draws``, ``rest_draws`` and
    ``full_draws``; heavy detection's."""
    heavy, alpha, n = heavy_draws(n), kind.alpha, max(2, n)
    if alpha is None:
        additive = math.ceil(cfg.c_add * math.log2(n / accuracy) ** 2 * math.log2(n) / accuracy**2)
        light = math.ceil(cfg.c_mult * math.log2(n) / (accuracy**2 * 0.9))
        return additive, None, light, additive, 0, heavy
    # both additive Renyi routes draw through the one dual oracle: take the cheaper
    *counts, branch = additive_branch_sample_counts(alpha, accuracy, n, cfg)
    # the additive route at delta gives the factor when the entropy is at least log2(3/2)
    delta = min(0.999, math.log2(1.5) * accuracy)
    eps1 = accuracy / cfg.moment_c1 / 3.0
    eps2 = (alpha - 1.0) * eps1 / cfg.moment_c2 if alpha <= 2.0 else eps1 / cfg.moment_c2
    return (min(counts), branch, min(additive_branch_sample_counts(alpha, delta, n, cfg)[:2]),
            moment_sample_count(n, alpha, min(eps2, 0.999), cfg),
            moment_sample_count(n, alpha, min(eps1, 0.999), cfg), heavy)


def heavy_combine_renyi(h1: float, h2: float, h_hat: float, alpha: float) -> float:
    """Entropy from the split t-1 = (1 - sum p^alpha)/sum p^alpha: h1 is the
    exact 1 - rho^alpha of the heavy color, h2 the rescaled light moment,
    h_hat the full-moment estimate (:class:`~.errors.Underflow` if it is 0).
    The log argument is clamped to the feasible t >= 1 (power sums never exceed one)."""
    if h_hat == 0.0:
        raise Underflow(f"the order-{alpha} full moment underflowed to 0")
    arg = (h1 - h2) / h_hat + 1.0
    return math.log2(max(arg, 1.0)) / (alpha - 1.0)


def heavy_combine(kind: EntropyKind, heavy: HeavyColor, rest: float,
                  full: Optional[float]) -> float:
    """The range's entropy from the heavy color's exact mass and the rest's
    statistic (and, for Renyi, the full moment)."""
    if kind.alpha is None:
        summary = EntropySummary(SHANNON, heavy.total - heavy.weight, rest)
        return insert_color_shannon(summary, heavy.weight).value
    alpha = kind.alpha
    rho = heavy.weight / heavy.total
    light = rest * ((heavy.total - heavy.weight) / heavy.total) ** alpha
    return heavy_combine_renyi(1.0 - rho**alpha, light, full, alpha)


def prepare_query(index: ExactNDIndex, rect: QueryRect, stats: Optional[dict] = None,
                  **accuracy: float) -> DualAccessOracle:
    """Checks each accuracy parameter lies in (0, 1), then returns the
    rectangle's oracle, whose slabs must hold points (the exact answer or
    the first tally refuses an empty range inside them). Starts ``stats``
    with a zero ``distinct_colors`` (colors EVAL'd over the call's tallies)."""
    for name, value in accuracy.items():
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {value}")
    oracle = DualAccessOracle(index, rect)
    if stats is not None:
        stats["distinct_colors"] = 0
    if not oracle.slabs.points:
        raise EmptyRange("query range holds no mass")
    return oracle


def additive(index: ExactNDIndex, rect: QueryRect, kind: EntropyKind, delta: float,
             cfg: EstimatorConfig = DEFAULT_CONFIG, rng: Optional[np.random.Generator] = None,
             stats: Optional[dict] = None) -> EntropySummary:
    """Entropy of the kind within +-delta, with high probability: one
    statistic, with the family's draw count."""
    oracle = prepare_query(index, rect, stats, delta=delta)
    samples, branch, *_ = draw_counts(len(index), kind, delta, cfg)
    if stats is not None and branch is not None:
        stats["branch"] = branch
    value, drawn = statistic(kind, oracle, samples, rng, stats)
    if stats is not None:   # pieces: those built, 0 if none
        stats.update(mode="sampled" if drawn else "exact-fallback", samples=drawn,
                     pieces=len(oracle._pieces or ()))
    return EntropySummary(kind, oracle.total_weight, entropy_from_statistic(value, kind))


def multiplicative(index: ExactNDIndex, rect: QueryRect, kind: EntropyKind, eps: float,
                   cfg: EstimatorConfig = DEFAULT_CONFIG,
                   rng: Optional[np.random.Generator] = None,
                   stats: Optional[dict] = None) -> EntropySummary:
    """Entropy of the kind within a (1+eps) factor, with high probability.

    The family's draw counts: ``light_draws`` over the range when no color
    is heavy; ``rest_draws`` over the range without the heavy color when
    one is, and beside them ``full_draws`` over the whole range (Renyi's
    full moment; 0, none, for Shannon)."""
    oracle = prepare_query(index, rect, stats, eps=eps)
    *_, light_draws, rest_draws, full_draws, heavy = draw_counts(len(index), kind, eps, cfg)
    mode, drawn = "exact-fallback", 0
    sample = oracle.use_sampling(heavy + min(light_draws, rest_draws + full_draws))
    if sample and rng is None:
        rng = np.random.default_rng()   # one generator for all of the call's tallies
    if not sample:
        value = entropy_from_statistic(exact_statistic(kind, oracle), kind)
    elif (heavy := oracle.heavy_color(rng, stats)) is None:
        # no dominant color: the entropy is bounded below, so one statistic
        # over the range gives the factor
        value, drawn = statistic(kind, oracle, light_draws, rng, stats)
        mode, value = "sampled-light" if drawn else mode, entropy_from_statistic(value, kind)
    elif (reduced := oracle.excluding(heavy.color)).is_empty:
        # the rest of the range has no mass: zero exactly
        mode, value = "single-color", 0.0
    else:
        rest, drawn = statistic(kind, reduced, rest_draws, rng, stats)
        full = None
        if full_draws:
            full, more = statistic(kind, oracle, full_draws, rng, stats)
            drawn += more
        mode = ("sampled" if drawn else mode) + "+heavy"
        value = heavy_combine(kind, heavy, rest, full)
        if stats is not None:
            stats["heavy_color"] = heavy.color
    if stats is not None:
        stats.update(mode=mode, samples=drawn, pieces=len(oracle._pieces or ()))
    return EntropySummary(kind, oracle.total_weight, value)


def estimate_additive(index: ExactNDIndex, rect: QueryRect, delta: float,
                      cfg: EstimatorConfig = DEFAULT_CONFIG,
                      rng: Optional[np.random.Generator] = None,
                      stats: Optional[dict] = None) -> EntropySummary:
    """Entropy within +-delta of truth, with high probability."""
    return additive(index, rect, SHANNON, delta, cfg, rng, stats)


def estimate_multiplicative(index: ExactNDIndex, rect: QueryRect, eps: float,
                            cfg: EstimatorConfig = DEFAULT_CONFIG,
                            rng: Optional[np.random.Generator] = None,
                            stats: Optional[dict] = None) -> EntropySummary:
    """Entropy within a (1+eps) multiplicative factor, with high probability."""
    return multiplicative(index, rect, SHANNON, eps, cfg, rng, stats)


def detect_heavy_color(index: ExactNDIndex, rect: QueryRect,
                       rng: Optional[np.random.Generator] = None) -> Optional[HeavyColor]:
    """Find a color holding more than 2/3 of the range's mass, if one exists.

    Draws ~log_3(2n) samples; a heavy color escapes all of them with
    probability at most 1/(2n). Any candidate is verified by exact
    counting, so a returned ratio is never a sampling artifact.
    """
    return prepare_query(index, rect).heavy_color(rng)


@dataclass(frozen=True)
class MomentEstimate:
    """Estimate of sum_i p_i^alpha over the range's color distribution.

    ``value`` is never 0: the moment of a nonempty range is positive, so a
    moment that underflows to 0 (exact or tallied; 6 even colors at alpha
    1000 do) raises :class:`~.errors.Underflow`, as the Renyi estimators do.
    """

    alpha: float
    value: float
    rel_error: float          # requested relative error target
    samples: int              # 0 means the moment was computed exactly


def _moment(index: ExactNDIndex, oracle: DualAccessOracle, alpha: float, eps: float,
            cfg: EstimatorConfig, rng: Optional[np.random.Generator]) -> MomentEstimate:
    value, drawn = statistic(renyi_kind(alpha), oracle,
                             moment_sample_count(len(index), alpha, eps, cfg), rng)
    if value == 0.0:
        raise Underflow(f"the order-{alpha} moment underflowed to 0")
    return MomentEstimate(alpha, value, eps, drawn)


def estimate_moment(index: ExactNDIndex, rect: QueryRect, alpha: float, eps: float,
                    cfg: EstimatorConfig = DEFAULT_CONFIG,
                    rng: Optional[np.random.Generator] = None) -> MomentEstimate:
    """Relative-error estimate of the alpha-th frequency moment in the range."""
    renyi_kind(alpha)   # raises InvalidOrder unless alpha > 1
    return _moment(index, prepare_query(index, rect, eps=eps), alpha, eps, cfg, rng)


def estimate_moment_excluding(index: ExactNDIndex, rect: QueryRect, alpha: float,
                              eps: float, excluded: int,
                              cfg: EstimatorConfig = DEFAULT_CONFIG,
                              rng: Optional[np.random.Generator] = None) -> MomentEstimate:
    """Moment of the range's distribution with one color removed, normalized
    by the reduced total mass."""
    renyi_kind(alpha)   # raises InvalidOrder unless alpha > 1
    oracle = prepare_query(index, rect, eps=eps)
    return _moment(index, oracle.excluding(excluded), alpha, eps, cfg, rng)


def estimate_additive_renyi(index: ExactNDIndex, rect: QueryRect, alpha: float,
                            delta: float, cfg: EstimatorConfig = DEFAULT_CONFIG,
                            rng: Optional[np.random.Generator] = None,
                            stats: Optional[dict] = None) -> EntropySummary:
    """Renyi entropy within +-delta, with high probability."""
    return additive(index, rect, renyi_kind(alpha), delta, cfg, rng, stats)


def estimate_multiplicative_renyi(index: ExactNDIndex, rect: QueryRect, alpha: float,
                                  eps: float, cfg: EstimatorConfig = DEFAULT_CONFIG,
                                  rng: Optional[np.random.Generator] = None,
                                  stats: Optional[dict] = None) -> EntropySummary:
    """Renyi entropy within a (1+eps) factor, with high probability."""
    return multiplicative(index, rect, renyi_kind(alpha), eps, cfg, rng, stats)
