"""Exact 1-D range entropy index with an n^t / n^(1-t) tradeoff.

The points are sorted by (coordinate, input index) and cut into buckets of
at most ceil(n^t) points. For every pair of cuts the entropy of the
enclosed slice is precomputed (Shannon always, plus any requested Renyi
orders), giving a table of O(n^(2-2t)) entries.

Both build and query work on power sums: a slice is the pair (W, S) of its
mass and S = sum_c f(w_c) over its color masses (``core.power_term``), and
adding mass to color c moves S by f(after) - f(before). No color's term is
ever subtracted from a total, so no update chain cancels.

  * Build: row i of the table is one vectorized pass over the points from
    cut i on. Each point's running color mass comes from a
    ``core.ColorPrefix`` over the sorted colors, the cumulative sum of
    f(after) - f(before) gives S at every later cut, and S turns into the
    stored entropy. Temporaries are O(n) per row.
  * Query: two ``searchsorted`` calls turn the interval into a span
    [lo, hi) of sorted positions for :meth:`Exact1DIndex.query_span`.
    Cuts are multiples of the bucket size, so integer division finds the
    maximal precomputed slice inside the span, whose S comes back from its
    stored entropy. The at most 2*ceil(n^t) fringe points fold in one batch:
    one sort of their colors, a ``reduceat`` of their weights per color,
    and each color's mass inside the slice from the color-prefix array.

Duplicate coordinates need no care: queries resolve ties through the
sorted order. Precision: masses inside a slice are prefix differences, so
they carry an absolute error of about 1e-16 times the largest prefix. With
weights up to 1e9 over light weights near 1 answers stay within 1e-6 of
brute force; beyond about 1e9 the cancellation exceeds that.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import core
from .core import (
    ColorHistogram,
    ColorPrefix,
    ColoredPointSet,
    EntropyKind,
    EntropySummary,
    QueryRect,
    SHANNON,
    renyi_kind,
)
from .errors import OrderNotIndexed


class Exact1DIndex:
    def __init__(self, pts: ColoredPointSet, t: float, orders: Sequence[float] = ()):
        if pts.dim != 1:
            raise ValueError("Exact1DIndex requires 1-D points")
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        self.pts = pts
        self.t = float(t)
        self.orders = tuple(sorted(set(float(a) for a in orders)))
        self.kinds = (SHANNON,) + tuple(renyi_kind(a) for a in self.orders)

        n = len(pts)
        order = np.lexsort((np.arange(n), pts.coords[:, 0]))
        self.coords_sorted = pts.coords[order, 0]
        self.colors_sorted = pts.colors[order]
        self.weights_sorted = pts.weights[order]
        self.weight_prefix = np.concatenate(([0.0], np.cumsum(self.weights_sorted)))
        self.color_prefix = ColorPrefix(self.colors_sorted, self.weights_sorted)

        self.bucket_size = max(1, math.ceil(n**self.t)) if n else 1
        self.cuts = np.arange(0, n + 1, self.bucket_size, dtype=np.int64)
        if n and self.cuts[-1] != n:
            self.cuts = np.append(self.cuts, n)

        self.tables = self._build_tables()

    # -- construction --------------------------------------------------------

    def _build_tables(self) -> dict[EntropyKind, np.ndarray]:
        k = len(self.cuts) - 1
        tables = {kind: np.zeros((k + 1, k + 1)) for kind in self.kinds}
        cp = self.color_prefix
        running = cp.running(self.colors_sorted)
        # the colors that occur and each position's number among them, read
        # off the color-sorted keys: a row costs O(n) however many are declared
        color = cp.keys // max(cp.n, 1)
        first = np.concatenate(([True], color[1:] != color[:-1]))[:cp.n]
        present = color[first]
        dense = np.empty(cp.n, dtype=np.int64)
        dense[cp.keys - color * cp.n] = np.cumsum(first) - 1
        for i in range(k):
            start = int(self.cuts[i])
            weights = self.weights_sorted[start:]
            # each point's color mass over [start, its position)
            skipped = cp.mass(present, 0, start)
            before = running[start:] - skipped[dense[start:]]
            after = before + weights
            ends = self.cuts[i + 1:] - start - 1  # last point of each slice, row-relative
            W = np.cumsum(weights)[ends]
            for kind in self.kinds:
                steps = core.power_term(after, kind) - core.power_term(before, kind)
                S = np.cumsum(steps)[ends]
                tables[kind][i, i + 1:] = core.entropy_from_power_sum(W, S, kind)
        return tables

    def _table_value_naive(self, i: int, j: int, kind: EntropyKind) -> float:
        """Direct recomputation of one table entry; build-correctness oracle."""
        a, b = int(self.cuts[i]), int(self.cuts[j])
        entries: dict[int, float] = {}
        for c, w in zip(self.colors_sorted[a:b], self.weights_sorted[a:b]):
            entries[int(c)] = entries.get(int(c), 0.0) + float(w)
        return core.entropy_of(ColorHistogram(entries), kind).value

    # -- queries --------------------------------------------------------------

    def query(self, rect: QueryRect, kind: EntropyKind = SHANNON,
              stats: Optional[dict] = None) -> EntropySummary:
        if rect.dim != 1:
            raise ValueError("query rect must be 1-D")
        lo = int(self.coords_sorted.searchsorted(rect.lo[0], side="left"))
        hi = int(self.coords_sorted.searchsorted(rect.hi[0], side="right"))
        return self.query_span(lo, hi, kind, stats)

    def query_span(self, i: int, j: int, kind: EntropyKind = SHANNON,
                   stats: Optional[dict] = None) -> EntropySummary:
        """Entropy of the points at sorted positions [i, j) (0 <= i, j <= n):
        the (coordinate, input index) order the 1-D partitioners use, so a
        partition backend calls this directly. ``stats`` receives
        ``points_in_range``, ``fringe_points`` and ``core_cuts`` (the
        precomputed slice's cut pair, or None)."""
        if not kind.is_shannon and kind.alpha not in self.orders:
            raise OrderNotIndexed(f"alpha={kind.alpha} not precomputed (have {self.orders})")
        n, size, last = len(self.colors_sorted), self.bucket_size, len(self.cuts) - 1
        a, b = min(-(-i // size), last), (last if j >= n else j // size)
        W, value, core_lo, core_hi = 0.0, 0.0, i, i
        if a < b:
            core_lo, core_hi = a * size, (n if b == last else b * size)
            W = float(self.weight_prefix[core_hi] - self.weight_prefix[core_lo])
            value = float(self.tables[kind][a, b])
        fringe_points = max(0, j - i) - (core_hi - core_lo)
        if stats is not None:
            stats.update(points_in_range=max(0, j - i), fringe_points=fringe_points,
                         core_cuts=(a, b) if a < b else None)
        if not fringe_points:
            return EntropySummary(kind, W, value)
        colors = np.concatenate((self.colors_sorted[i:core_lo], self.colors_sorted[core_hi:j]))
        weights = np.concatenate((self.weights_sorted[i:core_lo], self.weights_sorted[core_hi:j]))
        order = colors.argsort()
        colors = colors[order]
        starts = np.concatenate(([True], colors[1:] != colors[:-1])).nonzero()[0]
        added = np.add.reduceat(weights[order], starts)
        S = core.power_sum(EntropySummary(kind, W, value))
        W += float(weights.sum())
        if a < b:
            inside = self.color_prefix.mass(colors[starts], core_lo, core_hi)
            S += float((core.power_term(inside + added, kind) - core.power_term(inside, kind)).sum())
        else:
            S += float(core.power_term(added, kind).sum())
        return EntropySummary(kind, W, core.entropy_from_sums(W, S, kind))

    # -- reporting -------------------------------------------------------------

    def space_stats(self) -> dict:
        k = len(self.cuts) - 1
        arrays = (self.coords_sorted, self.colors_sorted, self.weights_sorted, self.weight_prefix,
                  self.color_prefix.keys, self.color_prefix.wpre, self.color_prefix.wlo,
                  self.cuts, *self.tables.values())
        return {
            "buckets": k,
            "bucket_size": self.bucket_size,
            "table_entries": (k + 1) * k // 2 * len(self.kinds),
            "orders": self.orders,
            "bytes": int(sum(a.nbytes for a in arrays)),
        }
