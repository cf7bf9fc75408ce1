"""Entropy-driven partitioning over a pluggable range-entropy backend.

Buckets are scored by expected entropy, (bucket mass / total mass) * H,
which is monotone under extending a bucket and 0 for a bucket of one
point. The 1-D jobs read scores a row at a time: ``rows(i)[j - i]`` is the
score of [i, j) for j = i..n, from the backend's ``expected_row(i)`` or,
for a backend without one, from n - i calls of its ``expected_range``:

  * maxpart_dp       exact min-max (or max-min) DP over cut positions, run
                     as a push: once the best values over the first l items
                     are final, one array update per bucket count applies
                     row l to every later end. Rows stream; none is kept;
  * maxpart_approx   (1+eps) approximation: binary search over a geometric
                     value ladder, testing feasibility with a greedy pass
                     that ends each bucket with one search of its start's
                     row (monotonicity);
  * sumpart_approx   (1+eps) approximation of the minimum total score via a
                     push DP whose cut positions are sparsified to one
                     representative per geometric value band;
  * greedy_tree_split d-D: repeatedly split the extreme-score leaf at the
                     median of the cycling coordinate.

Backends score contiguous index ranges of the coordinate-sorted sequence
(1-D algorithms) or rectangles (the tree splitter). Estimator backends
carry their accuracy parameters into the result metadata; their scores
inherit the estimator's error, which the partition guarantees then inherit
as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import approx, core
from .core import ColoredPointSet, EntropyKind, EntropySummary, QueryRect, SHANNON
from .errors import TooManyBuckets
from .oracle import OracleBackend, expected_entropy  # noqa: F401  (OracleBackend: re-exported)


# ---------------------------------------------------------------------------
# backends


class ExactIndexBackend:
    """Backed by an exact structure built over the same points.

    Index ranges go to an ``Exact1DIndex``, which works in the same
    (coordinate, input index) order as the partitioners: one span to
    ``query_span``, a row to ``row``. Rectangles go to ``query`` (1-D or d-D).
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

    def expected_row(self, i: int) -> np.ndarray:
        W, H = self.index.row(i, self.kind)
        return (W / self.total_weight) * H if self.total_weight else np.zeros_like(H)

    def expected_rect(self, rect: QueryRect) -> float:
        return expected_entropy(self.index.query(rect, self.kind), self.total_weight)


class EstimateBackend:
    """Backed by the sampling estimators; scores carry sampling error.

    An index range becomes the coordinate interval from its first to its
    last point, so 1-D ranges require distinct coordinates.
    """

    def __init__(self, index: approx.EstimatorIndex, mode: str = "additive",
                 delta: float = 0.1, eps: float = 0.2, alpha: Optional[float] = None,
                 cfg: Optional[approx.EstimatorConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        if mode not in ("additive", "multiplicative"):
            raise ValueError(f"unknown estimator mode {mode!r}")
        self.index = index
        self.mode = mode
        additive = mode == "additive"
        self.estimate = approx.additive if additive else approx.multiplicative
        self.accuracy = delta if additive else eps
        self.cfg = cfg if cfg is not None else approx.DEFAULT_CONFIG
        self.rng = rng if rng is not None else np.random.default_rng()
        self.kind = SHANNON if alpha is None else core.renyi_kind(alpha)
        pts = index.pts
        self.pts = pts
        self.sorted_coords = core.stable_order(pts.coords[:, 0])[1]
        if len(pts) > 1 and np.any(np.diff(self.sorted_coords) == 0.0):
            raise ValueError(
                "index-range partitioning over this backend requires distinct coordinates"
            )
        self.total_weight = float(pts.weights.sum())

    def describe(self) -> dict:
        out = {"backend": "estimate", "mode": self.mode, "kind": self.kind.label()}
        out["delta" if self.mode == "additive" else "eps"] = self.accuracy
        return out

    def summary_rect(self, rect: QueryRect) -> EntropySummary:
        return self.estimate(self.index, rect, self.kind, self.accuracy, self.cfg, self.rng)

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


def _rows(backend, n: int):
    """rows(i)[j - i]: the score of [i, j) for j = i..n."""
    if hasattr(backend, "expected_row"):
        return backend.expected_row
    return lambda i: np.array([0.0] + [backend.expected_range(i, j) for j in range(i + 1, n + 1)])


def _backtrack(arg: np.ndarray) -> list[int]:
    """The cuts of the best split into len(arg) buckets, from arg[b, j]: the
    start of the last of b + 1 buckets over the first j items."""
    cuts = [arg.shape[1] - 1]
    for b in range(len(arg) - 1, 0, -1):
        cuts.append(int(arg[b, cuts[-1]]))
    return [0] + cuts[::-1]


def _bucketing(k: int, cuts: list[int], rows, agg, backend) -> Bucketing1D:
    """The result for the given cuts, each bucket scored from its start's row."""
    scores = tuple(float(rows(a)[b - a]) for a, b in zip(cuts[:-1], cuts[1:]))
    return Bucketing1D(k, tuple(cuts), scores, agg(scores), backend.describe())


# ---------------------------------------------------------------------------
# exact min-max / max-min DP


def maxpart_dp(pts: ColoredPointSet, k: int, backend, objective: str = "min") -> Bucketing1D:
    """Optimal k-bucket split of the coordinate-sorted sequence.

    objective "min" minimizes the maximum bucket score; "max" maximizes the
    minimum. Reads each row once, in the order of its start, and keeps none.
    """
    n = len(pts)
    _check_k(k, n)
    if objective not in ("min", "max"):
        raise ValueError(f"unknown objective {objective!r}")
    worst, combine, better = ((math.inf, np.maximum, np.less) if objective == "min"
                              else (-math.inf, np.minimum, np.greater))
    rows = _rows(backend, n)

    # dp[b, j]: the best value of b + 1 buckets over the first j items
    dp = np.full((k, n + 1), worst)
    arg = np.zeros((k, n + 1), dtype=np.int64)
    dp[0, 1:] = rows(0)[1:]
    for l in range(1, n if k > 1 else 1):
        # dp[:, l] is final: only rows that start before l end there
        cand = combine(dp[:-1, l, None], rows(l)[1:])
        take = better(cand, dp[1:, l + 1:])
        np.copyto(dp[1:, l + 1:], cand, where=take)
        np.copyto(arg[1:, l + 1:], l, where=take)
    return _bucketing(k, _backtrack(arg), rows, max if objective == "min" else min, backend)


# ---------------------------------------------------------------------------
# (1+eps) min-max via geometric value ladder


def _greedy_cover(n: int, k: int, threshold: float, rows) -> Optional[list[int]]:
    """Greedy maximal buckets of score <= threshold; None if > k needed."""
    cuts = [0]
    while cuts[-1] < n:
        if len(cuts) > k:
            return None
        start = cuts[-1]
        # the largest end with score <= threshold: a row is monotone in the end
        end = start + int(np.searchsorted(rows(start), threshold, side="right")) - 1
        if end == start:
            return None  # single item exceeds the threshold
        cuts.append(end)
    return cuts


def smallest_nonzero_expected_entropy(pts: ColoredPointSet) -> float:
    """Analytic lower bound for any bucket's nonzero expected entropy.

    A bucket with positive entropy contains two points of distinct colors;
    the scaled entropy W*H is monotone, so the minimum over buckets is the
    minimum over two-point two-color mixtures, which is itself minimized at
    the per-color minimum weights (W*H of a pair grows in each weight).
    """
    positive = pts.weights > 0
    per_color_min = np.full(pts.num_colors, np.inf)
    np.minimum.at(per_color_min, pts.colors[positive], pts.weights[positive])
    per_color_min = np.sort(per_color_min[per_color_min < np.inf])
    if len(per_color_min) < 2:
        return 0.0
    w1, w2 = float(per_color_min[0]), float(per_color_min[1])
    pair = w1 * math.log2((w1 + w2) / w1) + w2 * math.log2((w1 + w2) / w2)
    total = float(pts.weights.sum())
    return pair / total


def maxpart_approx(pts: ColoredPointSet, k: int, eps: float, backend) -> Bucketing1D:
    """Max bucket score within (1+eps) of the optimal min-max value."""
    n = len(pts)
    _check_k(k, n)
    if eps <= 0:
        raise ValueError("eps must be positive")
    rows = _rows(backend, n)

    def finish(cuts: list[int]) -> Bucketing1D:
        while len(cuts) - 1 < k:  # pad with singleton splits of the last bucket
            for pos in range(len(cuts) - 1):
                if cuts[pos + 1] - cuts[pos] > 1:
                    cuts.insert(pos + 1, cuts[pos] + 1)
                    break
        return _bucketing(k, cuts, rows, max, backend)

    zero = _greedy_cover(n, k, 0.0, rows)
    if zero is not None:
        return finish(zero)

    lo_val = smallest_nonzero_expected_entropy(pts)
    hi_val = math.log2(max(2, n))
    if lo_val <= 0.0:
        lo_val = hi_val / (1 + eps) ** 60  # no two distinct colors: tiny floor
    rungs = max(1, math.ceil(math.log(hi_val / lo_val) / math.log1p(eps)))
    # the least rung in [0, rungs] that covers; the top one always does, as
    # its threshold is at least log2 n and no bucket scores above log2 n
    lo_r, hi_r = 0, rungs + 1
    best: Optional[list[int]] = None
    while lo_r < hi_r:
        mid = (lo_r + hi_r) // 2
        cuts = _greedy_cover(n, k, lo_val * (1 + eps) ** mid, rows)
        if cuts is not None:
            best = cuts
            hi_r = mid
        else:
            lo_r = mid + 1
    return finish(best)


# ---------------------------------------------------------------------------
# (1+eps) sum via value-band sparsification


def sumpart_approx(pts: ColoredPointSet, k: int, eps: float, backend) -> Bucketing1D:
    """Total bucket score within (1+eps) of the optimal sum partition."""
    n = len(pts)
    _check_k(k, n)
    if eps <= 0:
        raise ValueError("eps must be positive")
    log_band = math.log1p(eps / (2.0 * k))
    rows = _rows(backend, n)

    prev = rows(0)  # prev[j]: the least total of b buckets over the first j items
    arg = np.zeros((k, n + 1), dtype=np.int64)
    for b in range(1, k):
        # one candidate cut per geometric value band of prev over b..n-1:
        # the last position of each run of equal band
        v = prev[b:n]
        band = np.where(v > 0, np.floor(np.log(np.where(v > 0, v, 1.0)) / log_band), -1.0)
        cur = np.full(n + 1, math.inf)
        for c in b + np.flatnonzero(np.append(band[1:] != band[:-1], True)):
            cand = prev[c] + rows(c)[1:]
            take = cand < cur[c + 1:]
            np.copyto(cur[c + 1:], cand, where=take)
            np.copyto(arg[b, c + 1:], c, where=take)
        # the immediate predecessor is always admissible: one point scores 0
        take = v < cur[b + 1:]
        np.copyto(cur[b + 1:], v, where=take)
        np.copyto(arg[b, b + 1:], np.arange(b, n), where=take)
        prev = cur
    return _bucketing(k, _backtrack(arg), rows, sum, backend)


# ---------------------------------------------------------------------------
# greedy median-split tree for d >= 1


def greedy_tree_split(pts: ColoredPointSet, k: int, backend,
                      objective: str = "min") -> TreePartition:
    """Grow k leaves by repeatedly splitting the extreme-score leaf.

    objective "min" splits the current maximum-score leaf (driving all
    bucket entropies down); "max" splits the minimum-score leaf. Splits cut
    the cycling coordinate at the median point; ties in leaf choice go to
    the oldest leaf. The root's rectangle is the points' bounding box grown
    by 1 on every side.
    """
    n = len(pts)
    _check_k(k, n)
    if objective not in ("min", "max"):
        raise ValueError(f"unknown objective {objective!r}")
    d = pts.dim

    mins = pts.coords.min(axis=0) if n else np.zeros(d)
    maxs = pts.coords.max(axis=0) if n else np.zeros(d)
    root_rect = QueryRect(tuple(mins - 1.0), tuple(maxs + 1.0))
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
