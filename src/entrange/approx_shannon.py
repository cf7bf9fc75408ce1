"""Sampling-based Shannon entropy estimators over query rectangles.

Estimation runs in the dual access model: SAMP draws a color with
probability proportional to its mass inside the rectangle, EVAL returns
that mass ratio exactly; both run on one pooled range tree
(:mod:`.rangetree`), with the rectangle decomposed once per query. An
estimate is one tally: its samples are drawn as one batch, counted by
color, and EVAL runs once per distinct color drawn, so a query costs a
fixed number of numpy calls plus its draws. The
additive estimator is the plug-in mean of log2(1/EVAL(SAMP())); the
multiplicative estimator first decides whether some color holds more than
2/3 of the range's mass. If none does the range entropy exceeds 0.9 bits
and the plain plug-in mean concentrates multiplicatively; otherwise the
heavy color is peeled off exactly and only the light remainder is
estimated, through the color-excluding sampler.

An estimate samples only when that is cheaper than the exact answer. The
canonical pieces list the range's m points, and the exact answer is a
handful of numpy calls: one gather of their ids, one ``bincount`` by color
(:meth:`.RangeTree.color_masses`), one power-term pass. So any
estimate that would draw at least m samples answers exactly instead, which
meets every additive and multiplicative bound. The multiplicative
estimator makes that test before heavy detection, against the fewest draws
any of its sampling branches would make (detection included), and again
on the reduced range inside the heavy branch.

``stats["mode"]`` names the path that answered: ``"sampled"`` or
``"exact-fallback"`` for the additive estimator; ``"exact-fallback"``,
``"sampled-light"``, ``"sampled+heavy"``, ``"exact-fallback+heavy"`` or
``"single-color"`` for the multiplicative one. ``stats["samples"]`` is 0
on every exact answer.

Sample counts follow the published complexities with configurable leading
constants; the asymptotic constants themselves are not reproducible, so
acceptance is statistical (bounds hold for >= 95% of seeds).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (SHANNON, ColoredPointSet, EntropyKind, EntropySummary, QueryRect,
                   entropy_from_sums, insert_color_shannon, power_term)
from .errors import EmptyRange
from .rangetree import ColorAwareRangeTree, ColorTrees, Pieces


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
    c_heavy: float = 1.0
    c_mom: float = 1.0
    moment_c1: float = 8.0
    moment_c2: float = 8.0
    seed: Optional[int] = None


DEFAULT_CONFIG = EstimatorConfig()


class HeavyColor(NamedTuple):
    color: int
    weight: float        # mass of the color inside the range
    total: float         # mass of the whole range


class DualAccessOracle:
    """SAMP/EVAL oracle pair bound to one query rectangle.

    The rectangle is decomposed once into canonical pieces; SAMP draws
    batches from them and EVAL is exact (color masses over the pieces).
    With ``excluded`` set, both operate on the sub-population without that
    color.
    """

    def __init__(self, index: "EstimatorIndex", rect: QueryRect,
                 excluded: Optional[int] = None, pieces: Optional[Pieces] = None):
        self.index = index
        self.rect = rect
        self.excluded = excluded
        self.pieces = index.tree.canonical_nodes(rect) if pieces is None else pieces
        self.total_count = sum(self.pieces.stop) - sum(self.pieces.start)
        self.exclusion = None
        if excluded is not None:
            self.exclusion = index.tree.exclude(self.pieces, excluded)
            self.total_count -= int(self.exclusion.count.sum())

    @functools.cached_property
    def total_weight(self) -> float:
        """Mass of the (reduced) range, from the pieces' weight prefixes
        unless :meth:`color_masses` has set it first."""
        weight = float(self.index.tree.pieces_weight(self.pieces).sum())
        return weight if self.exclusion is None else weight - float(self.exclusion.mass.sum())

    def excluding(self, color: int) -> "DualAccessOracle":
        """The same range without one color, on the same decomposition."""
        return DualAccessOracle(self.index, self.rect, color, self.pieces)

    @property
    def is_empty(self) -> bool:
        """True when no point of positive weight remains (the pool holds only
        positive weights, so only a reduced range needs its mass checked)."""
        return self.total_count == 0 or (self.exclusion is not None and self.total_weight <= 0.0)

    def sample_point(self, rng: np.random.Generator, size: Optional[int] = None):
        """Point index drawn by weight; an array of ``size`` independent
        draws, in draw order, if given."""
        if self.is_empty:
            raise EmptyRange("no mass to sample in query range")
        return self.index.tree.sample_from(self.pieces, rng, size, self.exclusion)

    def sample_color(self, rng: np.random.Generator, size: Optional[int] = None):
        colors = self.index.pts.colors[self.sample_point(rng, size)]
        return int(colors) if size is None else colors

    def color_weight(self, color):
        """Mass inside the range of one color, or of each color of an array:
        EVAL, through the index's ``color_trees``."""
        return self.index.color_trees.weight(self.rect, color, pieces=self.pieces)

    def eval_color(self, color):
        """Probability mass of a color (or of each color of an array) under
        the (possibly reduced) range law."""
        p = np.where(np.asarray(color) == self.excluded, 0.0,
                     self.color_weight(color) / self.total_weight)
        return float(p) if p.ndim == 0 else p

    def tally(self, rng: np.random.Generator, size: int, stats: Optional[dict] = None):
        """Draws ``size`` samples and counts them by color: returns the colors
        drawn (ascending), how often each was drawn and each one's mass in
        the range, EVAL'd once per color. Adds the number of colors to
        ``stats["distinct_colors"]``. Costs O(size + largest color drawn)."""
        if self.is_empty:
            raise EmptyRange("no mass to sample in query range")
        tree = self.index.tree
        counts = np.bincount(tree.pool_colors[tree.draw(self.pieces, rng, size, self.exclusion)])
        colors = np.flatnonzero(counts)
        if stats is not None:
            stats["distinct_colors"] += len(colors)
        return colors, counts[colors], self.color_weight(colors)

    def heavy_color(self, rng: np.random.Generator, cfg: "EstimatorConfig",
                    stats: Optional[dict] = None) -> Optional[HeavyColor]:
        """See :func:`detect_heavy_color`."""
        colors, _, weights = self.tally(rng, heavy_draws(self.index, cfg), stats)
        top = int(np.argmax(weights))
        if weights[top] > (2.0 / 3.0) * self.total_weight:
            return HeavyColor(int(colors[top]), float(weights[top]), self.total_weight)
        return None

    def use_sampling(self, samples: int, stats: Optional[dict] = None,
                     mode: str = "sampled") -> bool:
        """Whether ``samples`` draws cost less than the exact answer, which
        reads each of the (reduced) range's points once: true when the range
        holds more points than that. Records the mode and the sample count
        (0 for an exact answer) in ``stats``."""
        sampled = samples < self.total_count
        if stats is not None:
            stats["mode"] = mode if sampled else "exact-fallback"
            stats["samples"] = samples if sampled else 0
        return sampled

    def color_masses(self) -> np.ndarray:
        """Positive color masses of the (reduced) range, from
        :meth:`.RangeTree.color_masses`. Sets ``total_weight`` to their sum,
        so an exact answer reads no weight prefix."""
        masses = self.index.tree.color_masses(self.pieces, self.excluded)
        self.total_weight = float(masses.sum())
        return masses

    def exact_power_sum(self, kind: EntropyKind) -> float:
        """S = sum_c f(w_c) over :meth:`color_masses` (which sets ``total_weight``)."""
        return float(power_term(self.color_masses(), kind).sum())

    def exact_entropy(self, kind: EntropyKind = SHANNON) -> float:
        """Exact entropy of the (reduced) range, from its color masses."""
        S = self.exact_power_sum(kind)
        return entropy_from_sums(self.total_weight, S, kind)


class EstimatorIndex:
    """The pooled color-aware range tree shared by every estimator: SAMP,
    and EVAL through ``color_trees`` (a view of the same pool)."""

    STORED = ColorAwareRangeTree.STORED

    def __init__(self, pts: ColoredPointSet):
        self.pts = pts
        self.tree = ColorAwareRangeTree.build(pts)
        self.color_trees = ColorTrees(pts, self.tree)

    def to_arrays(self) -> tuple[dict, dict]:
        """The tree's arrays and scalars: the points and the pool."""
        return self.tree.to_arrays()

    @classmethod
    def from_arrays(cls, arrays: dict, scalars: dict) -> "EstimatorIndex":
        index = cls.__new__(cls)
        index.tree = ColorAwareRangeTree.from_arrays(arrays, scalars)
        index.pts = index.tree.pts
        index.color_trees = ColorTrees(index.pts, index.tree)
        return index

    def __len__(self) -> int:
        return len(self.pts)

    def oracle(self, rect: QueryRect, excluded: Optional[int] = None) -> DualAccessOracle:
        return DualAccessOracle(self, rect, excluded)

    def space_stats(self) -> dict:
        return {"points": len(self.pts), "colors": self.pts.num_colors,
                "pool_entries": len(self.tree.pool_ids), "bytes": self.tree.nbytes()}


def _plugin_mean(oracle: DualAccessOracle, samples: int, rng: np.random.Generator,
                 stats: Optional[dict] = None) -> float:
    """Mean of -log2 EVAL(SAMP()) over ``samples`` draws, from their tally."""
    _, counts, weights = oracle.tally(rng, samples, stats)
    return float(-(counts * np.log2(weights / oracle.total_weight)).sum() / samples)


def additive_sample_count(index: EstimatorIndex, delta: float, cfg: EstimatorConfig) -> int:
    n = max(2, len(index))
    return math.ceil(cfg.c_add * math.log2(n / delta) ** 2 * math.log2(n) / delta**2)


def heavy_draws(index: EstimatorIndex, cfg: EstimatorConfig) -> int:
    """Draws of heavy-color detection: ~log_3(2n)."""
    return math.ceil(cfg.c_heavy * math.log(2 * max(2, len(index))) / math.log(3))


def prepare_query(index: EstimatorIndex, rect: QueryRect, cfg: EstimatorConfig,
                  rng: Optional[np.random.Generator], stats: Optional[dict] = None,
                  **accuracy: float):
    """Checks each accuracy parameter lies in (0, 1), then returns the
    rectangle's oracle, which must hold mass, and the generator to use.
    Starts ``stats`` with the query's canonical ``pieces`` and a zero
    ``distinct_colors`` (colors EVAL'd over the call's tallies)."""
    for name, value in accuracy.items():
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {value}")
    oracle = index.oracle(rect)
    if stats is not None:
        stats["pieces"] = len(oracle.pieces)
        stats["distinct_colors"] = 0
    if oracle.is_empty:
        raise EmptyRange("query range holds no mass")
    return oracle, rng if rng is not None else np.random.default_rng(cfg.seed)


def estimate_additive(index: EstimatorIndex, rect: QueryRect, delta: float,
                      cfg: EstimatorConfig = DEFAULT_CONFIG,
                      rng: Optional[np.random.Generator] = None,
                      stats: Optional[dict] = None) -> EntropySummary:
    """Entropy within +-delta of truth, with high probability."""
    oracle, rng = prepare_query(index, rect, cfg, rng, stats, delta=delta)
    value = _estimate_additive_on(index, oracle, delta, cfg, rng, stats)
    return EntropySummary(SHANNON, oracle.total_weight, value)


def _estimate_additive_on(index: EstimatorIndex, oracle: DualAccessOracle, delta: float,
                          cfg: EstimatorConfig, rng: np.random.Generator,
                          stats: Optional[dict] = None) -> float:
    samples = additive_sample_count(index, delta, cfg)
    if oracle.use_sampling(samples, stats):
        return _plugin_mean(oracle, samples, rng, stats)
    return oracle.exact_entropy()


def detect_heavy_color(index: EstimatorIndex, rect: QueryRect,
                       rng: Optional[np.random.Generator] = None,
                       cfg: EstimatorConfig = DEFAULT_CONFIG) -> Optional[HeavyColor]:
    """Find a color holding more than 2/3 of the range's mass, if one exists.

    Draws ~log_3(2n) samples; a heavy color escapes all of them with
    probability at most 1/(2n). Any candidate is verified by exact
    counting, so a returned ratio is never a sampling artifact.
    """
    oracle, rng = prepare_query(index, rect, cfg, rng)
    return oracle.heavy_color(rng, cfg)


def estimate_multiplicative(index: EstimatorIndex, rect: QueryRect, eps: float,
                            cfg: EstimatorConfig = DEFAULT_CONFIG,
                            rng: Optional[np.random.Generator] = None,
                            stats: Optional[dict] = None) -> EntropySummary:
    """Entropy within a (1+eps) multiplicative factor, with high probability."""
    oracle, rng = prepare_query(index, rect, cfg, rng, stats, eps=eps)
    light = math.ceil(cfg.c_mult * math.log2(max(2, len(index))) / (eps**2 * 0.9))
    fewest = heavy_draws(index, cfg) + min(light, additive_sample_count(index, eps, cfg))
    if not oracle.use_sampling(fewest, stats):
        value = oracle.exact_entropy()   # first: it sets total_weight from the masses
        return EntropySummary(SHANNON, oracle.total_weight, value)
    heavy = oracle.heavy_color(rng, cfg, stats)
    if heavy is None:
        # no dominant color: entropy > 0.9 bits, plug-in mean concentrates
        if oracle.use_sampling(light, stats, "sampled-light"):
            value = _plugin_mean(oracle, light, rng, stats)
        else:
            value = oracle.exact_entropy()
        return EntropySummary(SHANNON, oracle.total_weight, value)

    reduced = oracle.excluding(heavy.color)
    if reduced.is_empty:
        # the rest of the range has no mass: zero exactly
        if stats is not None:
            stats["mode"] = "single-color"
            stats["samples"] = 0
        return EntropySummary(SHANNON, oracle.total_weight, 0.0)

    h_prime = _estimate_additive_on(index, reduced, eps, cfg, rng, stats)
    # the heavy color's exact mass inserted into the rest's summary
    rest = EntropySummary(SHANNON, heavy.total - heavy.weight, h_prime)
    value = insert_color_shannon(rest, heavy.weight).value
    if stats is not None:
        stats["mode"] += "+heavy"
        stats["heavy_color"] = heavy.color
    return EntropySummary(SHANNON, oracle.total_weight, value)
