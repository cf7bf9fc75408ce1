"""Entropy-driven partitioning over a pluggable range-entropy backend.

Buckets are scored by expected entropy, (bucket mass / total mass) * H,
which is monotone under extending a bucket; that monotonicity powers every
algorithm here:

  * maxpart_dp       exact min-max (or max-min) DP over cut positions; the
                     inner optimum is a binary search over the crossing of
                     a nondecreasing and a nonincreasing sequence;
  * maxpart_approx   (1+eps) approximation: binary search over a geometric
                     value ladder, testing feasibility with a greedy
                     maximal-extension pass per value;
  * sumpart_approx   (1+eps) approximation of the minimum total score via a
                     DP whose candidate cut positions are sparsified to one
                     representative per geometric value band;
  * greedy_tree_split d-D: repeatedly split the extreme-score leaf at the
                     median of the cycling coordinate.

Backends score either a contiguous index range of the coordinate-sorted
sequence (1-D algorithms) or a rectangle (the tree splitter). Estimator
backends carry their accuracy parameters into the result metadata; their
scores inherit the estimator's error, which the partition guarantees then
inherit as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import approx_renyi, approx_shannon, core
from .core import (
    ColorHistogram,
    ColoredPointSet,
    EntropyKind,
    EntropySummary,
    QueryRect,
    SHANNON,
)
from .errors import TooManyBuckets
from .oracle import brute_entropy, expected_entropy


# ---------------------------------------------------------------------------
# backends


class OracleBackend:
    """Direct recomputation; the reference backend."""

    def __init__(self, pts: ColoredPointSet, kind: EntropyKind = SHANNON):
        self.pts = pts
        self.kind = kind
        self.order = np.lexsort((np.arange(len(pts)), pts.coords[:, 0]))
        self.total_weight = float(pts.weights.sum())

    def describe(self) -> dict:
        return {"backend": "oracle", "kind": self.kind.label()}

    def summary_range(self, i: int, j: int) -> EntropySummary:
        ids = self.order[i:j]
        entries: dict[int, float] = {}
        for c, w in zip(self.pts.colors[ids], self.pts.weights[ids]):
            entries[int(c)] = entries.get(int(c), 0.0) + float(w)
        return core.entropy_of(ColorHistogram(entries), self.kind)

    def expected_range(self, i: int, j: int) -> float:
        return expected_entropy(self.summary_range(i, j), self.total_weight)

    def summary_rect(self, rect: QueryRect) -> EntropySummary:
        return brute_entropy(self.pts, rect, self.kind)

    def expected_rect(self, rect: QueryRect) -> float:
        return expected_entropy(self.summary_rect(rect), self.total_weight)


class ExactIndexBackend:
    """Backed by an exact structure built over the same points.

    Index ranges go to the index's ``query_span`` (``Exact1DIndex``), which
    works in the same (coordinate, input index) order as the partitioners;
    rectangles go to ``query`` (1-D or d-D).
    """

    def __init__(self, index, kind: EntropyKind = SHANNON):
        self.index = index
        self.kind = kind
        self.total_weight = float(index.pts.weights.sum())

    def describe(self) -> dict:
        return {"backend": "exact", "kind": self.kind.label(),
                "index": type(self.index).__name__}

    def expected_range(self, i: int, j: int) -> float:
        return expected_entropy(self.index.query_span(i, j, self.kind), self.total_weight)

    def expected_rect(self, rect: QueryRect) -> float:
        return expected_entropy(self.index.query(rect, self.kind), self.total_weight)


class EstimateBackend:
    """Backed by the sampling estimators; scores carry sampling error.

    An index range becomes the coordinate interval from its first to its
    last point, so 1-D ranges require distinct coordinates.
    """

    def __init__(self, index: approx_shannon.EstimatorIndex, mode: str = "additive",
                 delta: float = 0.1, eps: float = 0.2, alpha: Optional[float] = None,
                 cfg: Optional[approx_shannon.EstimatorConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        if mode not in ("additive", "multiplicative"):
            raise ValueError(f"unknown estimator mode {mode!r}")
        self.index = index
        self.mode = mode
        self.delta = delta
        self.eps = eps
        self.alpha = alpha
        self.cfg = cfg if cfg is not None else approx_shannon.DEFAULT_CONFIG
        self.rng = rng if rng is not None else np.random.default_rng(self.cfg.seed)
        self.kind = SHANNON if alpha is None else core.renyi_kind(alpha)
        pts = index.pts
        self.pts = pts
        order = np.lexsort((np.arange(len(pts)), pts.coords[:, 0]))
        self.sorted_coords = pts.coords[order, 0]
        if len(pts) > 1 and np.any(np.diff(self.sorted_coords) == 0.0):
            raise ValueError(
                "index-range partitioning over this backend requires distinct coordinates"
            )
        self.total_weight = float(pts.weights.sum())

    def describe(self) -> dict:
        out = {"backend": "estimate", "mode": self.mode, "kind": self.kind.label()}
        out["delta" if self.mode == "additive" else "eps"] = (
            self.delta if self.mode == "additive" else self.eps)
        return out

    def summary_rect(self, rect: QueryRect) -> EntropySummary:
        if self.alpha is None:
            if self.mode == "additive":
                return approx_shannon.estimate_additive(
                    self.index, rect, self.delta, self.cfg, self.rng)
            return approx_shannon.estimate_multiplicative(
                self.index, rect, self.eps, self.cfg, self.rng)
        if self.mode == "additive":
            return approx_renyi.estimate_additive_renyi(
                self.index, rect, self.alpha, self.delta, self.cfg, self.rng)
        return approx_renyi.estimate_multiplicative_renyi(
            self.index, rect, self.alpha, self.eps, self.cfg, self.rng)

    def expected_range(self, i: int, j: int) -> float:
        if i >= j:
            return 0.0
        rect = QueryRect.interval(self.sorted_coords[i], self.sorted_coords[j - 1])
        return self.expected_rect(rect)

    def expected_rect(self, rect: QueryRect) -> float:
        return expected_entropy(self.summary_rect(rect), self.total_weight)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class Bucketing1D:
    k: int
    cuts: tuple[int, ...]          # 0 = c_0 < c_1 < ... < c_k = n, index space
    scores: tuple[float, ...]      # per-bucket expected entropy
    value: float                   # the objective value achieved
    backend_info: dict


@dataclass
class TreeNode:
    node_id: int
    rect: QueryRect
    point_ids: np.ndarray
    depth: int
    score: float
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class TreePartition:
    root: TreeNode
    leaves: list[TreeNode]
    trace: list[dict]              # one entry per split: chosen leaf + scores
    backend_info: dict

    @property
    def scores(self) -> list[float]:
        return [leaf.score for leaf in self.leaves]


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise TooManyBuckets(f"cannot split {n} items into {k} nonempty buckets")


# ---------------------------------------------------------------------------
# exact min-max / max-min DP


def maxpart_dp(pts: ColoredPointSet, k: int, backend, objective: str = "min",
               inner: str = "binary") -> Bucketing1D:
    """Optimal k-bucket split of the coordinate-sorted sequence.

    objective "min" minimizes the maximum bucket score; "max" maximizes the
    minimum. ``inner="linear"`` scans every split point instead of binary
    searching the crossing (a correctness guard used by the tests).
    """
    n = len(pts)
    _check_k(k, n)
    if objective not in ("min", "max"):
        raise ValueError(f"unknown objective {objective!r}")
    minimize = objective == "min"

    err = functools.cache(backend.expected_range)  # one backend call per (i, j)

    # dp[j][i]: best objective for the first i items in j buckets
    dp = [[math.inf if minimize else -math.inf] * (n + 1) for _ in range(k + 1)]
    arg = [[-1] * (n + 1) for _ in range(k + 1)]
    for i in range(1, n + 1):
        dp[1][i] = err(0, i)
        arg[1][i] = 0
    for j in range(2, k + 1):
        for i in range(j, n + 1):
            lo, hi = j - 1, i - 1
            if inner == "linear":
                candidates = range(lo, hi + 1)
            else:
                # dp[j-1][l] is monotone nondecreasing in l, err(l, i) is
                # nonincreasing; probe the crossing and its neighbors
                a, b = lo, hi
                while a < b:
                    mid = (a + b) // 2
                    if dp[j - 1][mid] >= err(mid, i):
                        b = mid
                    else:
                        a = mid + 1
                candidates = {c for c in (a - 1, a, a + 1) if lo <= c <= hi}
            best, best_l = (math.inf, -1) if minimize else (-math.inf, -1)
            for cut in candidates:
                cand = (max(dp[j - 1][cut], err(cut, i)) if minimize
                        else min(dp[j - 1][cut], err(cut, i)))
                if (cand < best) if minimize else (cand > best):
                    best, best_l = cand, cut
            dp[j][i] = best
            arg[j][i] = best_l

    cuts = [n]
    j, i = k, n
    while j > 1:
        i = arg[j][i]
        cuts.append(i)
        j -= 1
    cuts.append(0)
    cuts = tuple(sorted(set(cuts)))
    scores = tuple(err(a, b) for a, b in zip(cuts[:-1], cuts[1:]))
    return Bucketing1D(k, cuts, scores, dp[k][n], backend.describe())


# ---------------------------------------------------------------------------
# (1+eps) min-max via geometric value ladder


def _greedy_cover(n: int, k: int, threshold: float, err) -> Optional[list[int]]:
    """Greedy maximal buckets of score <= threshold; None if > k needed."""
    cuts = [0]
    while cuts[-1] < n:
        if len(cuts) > k:
            return None
        start = cuts[-1]
        # largest end with err(start, end) <= threshold; monotone in end
        lo, hi = start + 1, n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if err(start, mid) <= threshold:
                lo = mid
            else:
                hi = mid - 1
        if err(start, lo) > threshold:
            return None  # single item exceeds the threshold
        cuts.append(lo)
    return cuts if len(cuts) <= k + 1 else None


def smallest_nonzero_expected_entropy(pts: ColoredPointSet) -> float:
    """Analytic lower bound for any bucket's nonzero expected entropy.

    A bucket with positive entropy contains two points of distinct colors;
    the scaled entropy W*H is monotone, so the minimum over buckets is the
    minimum over two-point two-color mixtures, which is itself minimized at
    the per-color minimum weights (W*H of a pair grows in each weight).
    """
    per_color_min: dict[int, float] = {}
    for c, w in zip(pts.colors, pts.weights):
        c = int(c)
        if w > 0 and (c not in per_color_min or w < per_color_min[c]):
            per_color_min[c] = float(w)
    if len(per_color_min) < 2:
        return 0.0
    w1, w2 = sorted(per_color_min.values())[:2]
    pair = w1 * math.log2((w1 + w2) / w1) + w2 * math.log2((w1 + w2) / w2)
    total = float(pts.weights.sum())
    return pair / total


def maxpart_approx(pts: ColoredPointSet, k: int, eps: float, backend) -> Bucketing1D:
    """Max bucket score within (1+eps) of the optimal min-max value."""
    n = len(pts)
    _check_k(k, n)
    if eps <= 0:
        raise ValueError("eps must be positive")

    err = functools.cache(backend.expected_range)  # one backend call per (i, j)

    def finish(cuts: list[int]) -> Bucketing1D:
        while len(cuts) - 1 < k:  # pad with singleton splits of the last bucket
            for pos in range(len(cuts) - 1):
                if cuts[pos + 1] - cuts[pos] > 1:
                    cuts.insert(pos + 1, cuts[pos] + 1)
                    break
        scores = tuple(err(a, b) for a, b in zip(cuts[:-1], cuts[1:]))
        return Bucketing1D(k, tuple(cuts), scores, max(scores), backend.describe())

    zero = _greedy_cover(n, k, 0.0, err)
    if zero is not None:
        return finish(zero)

    lo_val = smallest_nonzero_expected_entropy(pts)
    hi_val = math.log2(max(2, n))
    if lo_val <= 0.0:
        lo_val = hi_val / (1 + eps) ** 60  # no two distinct colors: tiny floor
    rungs = max(1, math.ceil(math.log(hi_val / lo_val) / math.log1p(eps)))
    lo_r, hi_r = 0, rungs
    best: Optional[list[int]] = None
    while lo_r < hi_r:
        mid = (lo_r + hi_r) // 2
        cuts = _greedy_cover(n, k, lo_val * (1 + eps) ** mid, err)
        if cuts is not None:
            best = cuts
            hi_r = mid
        else:
            lo_r = mid + 1
    if best is None:
        best = _greedy_cover(n, k, lo_val * (1 + eps) ** rungs, err)
    if best is None:  # the top rung always covers: value <= log2 n
        best = list(range(0, n + 1))  # pragma: no cover
    return finish(best)


# ---------------------------------------------------------------------------
# (1+eps) sum via value-band sparsification


def sumpart_approx(pts: ColoredPointSet, k: int, eps: float, backend) -> Bucketing1D:
    """Total bucket score within (1+eps) of the optimal sum partition."""
    n = len(pts)
    _check_k(k, n)
    if eps <= 0:
        raise ValueError("eps must be positive")
    delta = eps / (2.0 * k)

    err = functools.cache(backend.expected_range)  # one backend call per (i, j)

    prev = [err(0, i) for i in range(n + 1)]
    prev[0] = 0.0
    parents = [[-1] * (n + 1)]
    for j in range(2, k + 1):
        # one candidate cut per geometric value band of the previous row
        candidates: list[int] = []
        band = None
        for i in range(j - 1, n):
            v = prev[i]
            b = -1 if v <= 0 else math.floor(math.log(v) / math.log1p(delta))
            if band is None or b != band:
                candidates.append(i)
                band = b
            else:
                candidates[-1] = i  # keep the largest position in the band
        cur = [math.inf] * (n + 1)
        par = [-1] * (n + 1)
        for i in range(j, n + 1):
            best, best_l = math.inf, -1
            for cut in candidates:
                if cut >= i:
                    break
                cand = prev[cut] + err(cut, i)
                if cand < best:
                    best, best_l = cand, cut
            # the immediate predecessor is always admissible
            cand = prev[i - 1] + err(i - 1, i)
            if cand < best:
                best, best_l = cand, i - 1
            cur[i] = best
            par[i] = best_l
        parents.append(par)
        prev = cur

    cuts = [n]
    j = k
    while j > 1:
        cuts.append(parents[j - 1][cuts[-1]])
        j -= 1
    cuts.append(0)
    cuts = tuple(sorted(set(cuts)))
    scores = tuple(err(a, b) for a, b in zip(cuts[:-1], cuts[1:]))
    return Bucketing1D(k, cuts, scores, sum(scores), backend.describe())


# ---------------------------------------------------------------------------
# greedy median-split tree for d >= 1


def greedy_tree_split(pts: ColoredPointSet, k: int, backend, objective: str = "min",
                      margin: float = 1.0) -> TreePartition:
    """Grow k leaves by repeatedly splitting the extreme-score leaf.

    objective "min" splits the current maximum-score leaf (driving all
    bucket entropies down); "max" splits the minimum-score leaf. Splits cut
    the cycling coordinate at the median point; ties in leaf choice go to
    the oldest leaf.
    """
    n = len(pts)
    _check_k(k, n)
    if objective not in ("min", "max"):
        raise ValueError(f"unknown objective {objective!r}")
    d = pts.dim

    mins = pts.coords.min(axis=0) if n else np.zeros(d)
    maxs = pts.coords.max(axis=0) if n else np.zeros(d)
    root_rect = QueryRect(tuple(mins - margin), tuple(maxs + margin))
    root = TreeNode(0, root_rect, np.arange(n), 0, backend.expected_rect(root_rect))
    leaves = [root]
    trace: list[dict] = []
    next_id = 1

    while len(leaves) < k:
        splittable = [leaf for leaf in leaves if len(leaf.point_ids) >= 2]
        extreme = (max if objective == "min" else min)(leaf.score for leaf in splittable)
        # leaves are kept in creation order, so this tie-breaks to the oldest
        pick = next(leaf for leaf in splittable if leaf.score == extreme)
        trace.append({
            "chosen": pick.node_id,
            "scores": {leaf.node_id: leaf.score for leaf in leaves},
            "splittable": [leaf.node_id for leaf in splittable],
        })
        dim = pick.depth % d
        ids = pick.point_ids
        order = np.lexsort((ids, pts.coords[ids, dim]))
        ids_sorted = ids[order]
        mid = len(ids_sorted) // 2
        left_ids, right_ids = ids_sorted[:mid], ids_sorted[mid:]
        left_hi = float(pts.coords[left_ids, dim].max())
        right_lo = float(pts.coords[right_ids, dim].min())
        boundary = (left_hi + right_lo) / 2.0
        lo_l, hi_l = list(pick.rect.lo), list(pick.rect.hi)
        lo_r, hi_r = list(pick.rect.lo), list(pick.rect.hi)
        hi_l[dim] = boundary
        lo_r[dim] = boundary if right_lo > left_hi else right_lo
        left_rect = QueryRect(tuple(lo_l), tuple(hi_l))
        right_rect = QueryRect(tuple(lo_r), tuple(hi_r))
        pick.left = TreeNode(next_id, left_rect, left_ids, pick.depth + 1,
                             backend.expected_rect(left_rect))
        pick.right = TreeNode(next_id + 1, right_rect, right_ids, pick.depth + 1,
                              backend.expected_rect(right_rect))
        next_id += 2
        leaves = [leaf for leaf in leaves if leaf is not pick] + [pick.left, pick.right]

    leaves.sort(key=lambda leaf: leaf.node_id)
    return TreePartition(root, leaves, trace, backend.describe())
