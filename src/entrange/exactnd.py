"""Exact d-dimensional range entropy index partitioned by color.

Points are sorted by color id (ascending, ties by coordinates then input
index) and cut into K = O(n^(1-t)) buckets of at most ceil(n^t) points, so
consecutive buckets share at most one color: the one whose run straddles
the cut. Per bucket, every combinatorially distinct rectangle (faces
snapped inward to point coordinates of the bucket, a product grid of
coordinate pairs per dimension) gets precomputed stats: entropy for each
configured kind, point count, total weight, and the extreme colors with
their masses.

A query visits every bucket in order, snaps the query rectangle to the
bucket's grid (the snapped cell's point set equals the query's intersection
with the bucket), and folds the bucket into a running entropy. Because only
the trailing color can recur in the next bucket, the fold either merges
color-disjoint summaries directly or re-bases the shared color: delete its
mass from both sides, merge, and re-insert the combined mass.

Grid tables are cubically large by design; when the estimated table size
exceeds ``table_cap`` the build switches to lazy evaluation with
memoization (same values, computed on first touch).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import core
from .core import (
    ColorHistogram,
    ColoredPointSet,
    EntropyKind,
    EntropySummary,
    QueryRect,
    SHANNON,
    renyi_kind,
)
from .errors import OrderNotIndexed


class RectStats(NamedTuple):
    count: int
    weight: float
    values: tuple            # one entropy per configured kind
    color_lo: int
    w_lo: float
    n_lo: int
    color_hi: int
    w_hi: float
    n_hi: int


class _Bucket:
    __slots__ = ("coords", "colors", "weights", "distinct", "ranks", "table", "eager")

    def __init__(self, coords: np.ndarray, colors: np.ndarray, weights: np.ndarray):
        self.coords = coords
        self.colors = colors
        self.weights = weights
        d = coords.shape[1]
        self.distinct = [np.unique(coords[:, k]) for k in range(d)]
        self.ranks = np.column_stack(
            [np.searchsorted(self.distinct[k], coords[:, k]) for k in range(d)]
        )
        self.table: dict[tuple, Optional[RectStats]] = {}
        self.eager = False

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def grid_cells(self) -> int:
        est = 1
        for u in self.distinct:
            est *= len(u) * (len(u) + 1) // 2
        return est

    def snap(self, rect: QueryRect) -> Optional[tuple]:
        key = []
        for k in range(self.dim):
            u = self.distinct[k]
            lo = int(np.searchsorted(u, rect.lo[k], side="left"))
            hi = int(np.searchsorted(u, rect.hi[k], side="right")) - 1
            if lo > hi:
                return None
            key.append((lo, hi))
        return tuple(key)

    def _member_mask(self, key: tuple) -> np.ndarray:
        mask = np.ones(len(self.colors), dtype=bool)
        for k, (lo, hi) in enumerate(key):
            mask &= (self.ranks[:, k] >= lo) & (self.ranks[:, k] <= hi)
        return mask

    def compute_stats(self, key: tuple, kinds: Sequence[EntropyKind]) -> Optional[RectStats]:
        """Direct evaluation of one cell (lazy path and cross-checks)."""
        mask = self._member_mask(key)
        count = int(mask.sum())
        if count == 0:
            return None
        colors = self.colors[mask]
        weights = self.weights[mask]
        agg: dict[int, list] = {}
        for c, w in zip(colors, weights):
            cell = agg.setdefault(int(c), [0.0, 0])
            cell[0] += float(w)
            cell[1] += 1
        hist = ColorHistogram({c: w for c, (w, _) in agg.items()})
        values = tuple(core.entropy_of(hist, kind).value for kind in kinds)
        c_lo, c_hi = min(agg), max(agg)
        return RectStats(
            count, float(weights.sum()), values,
            c_lo, agg[c_lo][0], agg[c_lo][1],
            c_hi, agg[c_hi][0], agg[c_hi][1],
        )

    def stats_for(self, key: tuple, kinds: Sequence[EntropyKind]) -> Optional[RectStats]:
        if self.eager:
            return self.table.get(key)
        if key not in self.table:
            # benign race under concurrent queries: the value is a pure
            # function of the key, so duplicate computes write identical
            # entries and CPython's dict assignment is atomic
            self.table[key] = self.compute_stats(key, kinds)
        return self.table[key]

    # -- eager construction --------------------------------------------------

    def build_eager(self, kinds: Sequence[EntropyKind]) -> None:
        """Fill the whole grid, extending each cell from its predecessor.

        Cells are swept along the last dimension, so the entropy of a cell
        with c points is derived from the cell with fewer points via the
        constant-time delete/insert updates, never recomputed from scratch.
        """
        d = self.dim
        last = d - 1
        order = np.argsort(self.ranks[:, last], kind="stable")
        self._sweep_prefixes(0, np.ones(len(self.colors), dtype=bool), (), order, kinds)
        self.eager = True

    def _sweep_prefixes(self, k: int, mask: np.ndarray, prefix: tuple,
                        order: np.ndarray, kinds: Sequence[EntropyKind]) -> None:
        if k == self.dim - 1:
            self._sweep_last(mask, prefix, order, kinds)
            return
        nu = len(self.distinct[k])
        for lo in range(nu):
            m_lo = mask & (self.ranks[:, k] >= lo)
            for hi in range(lo, nu):
                m = m_lo & (self.ranks[:, k] <= hi)
                if m.any():
                    self._sweep_prefixes(k + 1, m, prefix + ((lo, hi),), order, kinds)

    def _sweep_last(self, mask: np.ndarray, prefix: tuple, order: np.ndarray,
                    kinds: Sequence[EntropyKind]) -> None:
        last = self.dim - 1
        members = order[mask[order]]
        if len(members) == 0:
            return
        member_ranks = self.ranks[members, last]
        nu = len(self.distinct[last])
        for lo in range(nu):
            start = int(np.searchsorted(member_ranks, lo, side="left"))
            if start == len(members):
                break
            cur = {kind: EntropySummary.empty(kind) for kind in kinds}
            acc: dict[int, list] = {}
            cur_pts = 0
            c_min = c_max = -1
            pos = start
            first_rank = int(member_ranks[start])
            for hi in range(first_rank, nu):
                while pos < len(members) and member_ranks[pos] == hi:
                    i = members[pos]
                    color = int(self.colors[i])
                    w_p = float(self.weights[i])
                    cell = acc.get(color)
                    w_old, n_old = (cell[0], cell[1]) if cell else (0.0, 0)
                    for kind in kinds:
                        s = cur[kind]
                        if n_old:
                            if n_old == cur_pts:
                                s = EntropySummary.empty(kind)
                            else:
                                s = core.delete_color(s, w_old)
                        cur[kind] = core.insert_color(s, w_old + w_p)
                    if cell:
                        cell[0] += w_p
                        cell[1] += 1
                    else:
                        acc[color] = [w_p, 1]
                        c_min = color if c_min < 0 else min(c_min, color)
                        c_max = max(c_max, color)
                    cur_pts += 1
                    pos += 1
                if cur_pts:
                    self.table[prefix + ((lo, hi),)] = RectStats(
                        cur_pts,
                        cur[kinds[0]].count,
                        tuple(cur[kind].value for kind in kinds),
                        c_min, acc[c_min][0], acc[c_min][1],
                        c_max, acc[c_max][0], acc[c_max][1],
                    )


class ExactNDIndex:
    def __init__(self, pts: ColoredPointSet, t: float, orders: Sequence[float] = (),
                 table_cap: int = 200_000, total_cap: int = 2_000_000):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        self.pts = pts
        self.t = float(t)
        self.orders = tuple(sorted(set(float(a) for a in orders)))
        self.kinds = (SHANNON,) + tuple(renyi_kind(a) for a in self.orders)
        self._kind_index = {kind: i for i, kind in enumerate(self.kinds)}

        # zero-weight points carry no mass, and the insert rule refuses them
        ids = np.flatnonzero(pts.weights > 0.0)
        n = len(ids)
        d = pts.dim
        keys = [ids] + [pts.coords[ids, k] for k in reversed(range(d))] + [pts.colors[ids]]
        order = ids[np.lexsort(tuple(keys))]
        self.bucket_size = max(1, math.ceil(n**self.t)) if n else 1
        self.buckets: list[_Bucket] = []
        for a in range(0, n, self.bucket_size):
            b = min(n, a + self.bucket_size)
            ids = order[a:b]
            self.buckets.append(_Bucket(pts.coords[ids], pts.colors[ids], pts.weights[ids]))
        # precompute full grids while they fit; beyond the caps the tables
        # fill lazily (same values, computed and memoized on first touch)
        budget = total_cap
        for bucket in self.buckets:
            cells = bucket.grid_cells()
            if cells <= table_cap and cells <= budget:
                bucket.build_eager(self.kinds)
                budget -= cells

    # -- queries ---------------------------------------------------------------

    def _check_kind(self, kind: EntropyKind) -> None:
        if not kind.is_shannon and kind.alpha not in self.orders:
            raise OrderNotIndexed(f"alpha={kind.alpha} not precomputed (have {self.orders})")

    def query(self, rect: QueryRect, kind: EntropyKind = SHANNON,
              stats: Optional[dict] = None, trace: Optional[list] = None) -> EntropySummary:
        self._check_kind(kind)
        if rect.dim != self.pts.dim and len(self.pts):
            raise ValueError(f"rect dim {rect.dim} != data dim {self.pts.dim}")
        ki = self._kind_index[kind]

        acc = EntropySummary.empty(kind)
        acc_pts = 0
        trail_color = -1
        trail_w = 0.0
        trail_n = 0
        visits = 0
        for bi, bucket in enumerate(self.buckets):
            visits += 1
            key = bucket.snap(rect)
            st = bucket.stats_for(key, self.kinds) if key is not None else None
            if trace is not None:
                trace.append((bi, key, st))
            if st is None:
                continue
            b_summary = EntropySummary(kind, st.weight, st.values[ki])
            if acc_pts and st.color_lo == trail_color:
                # shared boundary color: re-base it across both sides
                combined_w = trail_w + st.w_lo
                if trail_n == acc_pts:
                    acc_minus = EntropySummary.empty(kind)
                else:
                    acc_minus = core.delete_color(acc, trail_w)
                if st.n_lo == st.count:
                    b_minus = EntropySummary.empty(kind)
                else:
                    b_minus = core.delete_color(b_summary, st.w_lo)
                acc = core.insert_color(core.merge(acc_minus, b_minus), combined_w)
            else:
                acc = core.merge(acc, b_summary)
            # the trailing (largest) color of the accumulated set
            if st.color_hi == trail_color:
                trail_w += st.w_hi
                trail_n += st.n_hi
            else:
                trail_color = st.color_hi
                trail_w = st.w_hi
                trail_n = st.n_hi
            acc_pts += st.count
        if stats is not None:
            stats["bucket_visits"] = visits
            stats["points_in_range"] = acc_pts
        return acc

    # -- reporting ---------------------------------------------------------------

    def space_stats(self) -> dict:
        return {
            "buckets": len(self.buckets),
            "bucket_size": self.bucket_size,
            "table_entries": sum(len(b.table) for b in self.buckets),
            "eager_buckets": sum(b.eager for b in self.buckets),
            "orders": self.orders,
        }


def build(pts: ColoredPointSet, t: float, orders: Sequence[float] = (),
          table_cap: int = 200_000) -> ExactNDIndex:
    return ExactNDIndex(pts, t, orders, table_cap)
