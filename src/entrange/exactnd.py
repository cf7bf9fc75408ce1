"""Exact d-dimensional range entropy index partitioned by color.

Points are sorted by color id (ascending, ties by coordinates then input
index) and cut into K = O(n^(1-t)) buckets of at most ceil(n^t) points, so
consecutive buckets share at most one color: the one whose run straddles
the cut. Per bucket, every combinatorially distinct rectangle (faces
snapped inward to point coordinates of the bucket, a product grid of
coordinate pairs per dimension) is a cell summarized by its power sums:
point count, total weight W, S = sum_c f(w_c) for each configured kind
(``core.power_term``), and the lowest and highest colors with their masses.

A query visits every bucket in order, snaps the query rectangle to the
bucket's grid (the snapped cell's point set equals the query's intersection
with the bucket), and adds up W and S over the cells. A color whose run
crosses a cut has masses a and b on the two sides and adds
f(a+b) - f(a) - f(b); S then turns into the entropy once. No step subtracts
one color's term from a total, so heavy weights cannot cancel.

Cells hold sums over their own points only. The lazy path sums each
color's run in the color-sorted bucket; the eager sweep grows each cell
along the last dimension, adding f(after) - f(before) per (rank, color)
group, where before is that color's mass in the cell's earlier ranks.
Grid tables are cubically large by design; a bucket whose grid exceeds
``table_cap``, or the ``total_cap`` left by earlier buckets, is lazy: its
cells are computed on first touch and memoized while the bucket holds
fewer than its equal share of the entries ``total_cap`` leaves after the
eager tables, so the index never holds more than ``total_cap`` cells.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import core
from .core import (
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
    sums: tuple              # S = sum_c f(w_c), one per configured kind
    color_lo: int
    w_lo: float
    color_hi: int
    w_hi: float


class _Bucket:
    __slots__ = ("coords", "colors", "weights", "distinct", "ranks", "table", "eager",
                 "memo_cap")

    def __init__(self, coords: np.ndarray, colors: np.ndarray, weights: np.ndarray):
        self.coords = coords
        self.colors = colors      # ascending
        self.weights = weights
        d = coords.shape[1]
        self.distinct = [np.unique(coords[:, k]) for k in range(d)]
        self.ranks = np.column_stack(
            [np.searchsorted(self.distinct[k], coords[:, k]) for k in range(d)]
        )
        self.table: dict[tuple, Optional[RectStats]] = {}
        self.eager = False
        self.memo_cap = 0

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
        lo, hi = np.array(key).T
        return ((self.ranks >= lo) & (self.ranks <= hi)).all(axis=1)

    def compute_stats(self, key: tuple, kinds: Sequence[EntropyKind]) -> Optional[RectStats]:
        """Direct evaluation of one cell (lazy path and cross-checks)."""
        mask = self._member_mask(key)
        colors = self.colors[mask]
        if len(colors) == 0:
            return None
        runs = np.flatnonzero(np.concatenate(([True], colors[1:] != colors[:-1])))
        masses = np.add.reduceat(self.weights[mask], runs)
        return RectStats(
            len(colors), float(masses.sum()),
            tuple(float(core.power_term(masses, kind).sum()) for kind in kinds),
            int(colors[0]), float(masses[0]), int(colors[-1]), float(masses[-1]),
        )

    def stats_for(self, key: tuple, kinds: Sequence[EntropyKind]) -> Optional[RectStats]:
        if self.eager:
            return self.table.get(key)
        if key in self.table:
            return self.table[key]
        st = self.compute_stats(key, kinds)
        # benign race under concurrent queries: the value is a pure function
        # of the key, and a race can overshoot the cap by one entry per thread
        if len(self.table) < self.memo_cap:
            self.table[key] = st
        return st

    # -- eager construction --------------------------------------------------

    def build_eager(self, kinds: Sequence[EntropyKind]) -> None:
        """Fill the whole grid: one vectorized sweep along the last dimension
        per distinct point set among the cells of the other dimensions."""
        palette, slots = np.unique(self.colors, return_inverse=True)
        swept: dict[bytes, tuple] = {}
        for prefix, mask in self._prefixes(0, np.ones(len(self.colors), dtype=bool), ()):
            cells = swept.get(mask.tobytes())
            if cells is None:
                cells = self._sweep_last(mask, palette, slots, kinds)
                swept[mask.tobytes()] = cells
            for key, st in zip(*cells):
                self.table[prefix + (key,)] = st
        self.eager = True

    def _prefixes(self, k: int, mask: np.ndarray, prefix: tuple):
        """(key, member mask) of every nonempty cell of the first d-1 dimensions."""
        if k == self.dim - 1:
            yield prefix, mask
            return
        nu = len(self.distinct[k])
        for lo in range(nu):
            m_lo = mask & (self.ranks[:, k] >= lo)
            for hi in range(lo, nu):
                m = m_lo & (self.ranks[:, k] <= hi)
                if m.any():
                    yield from self._prefixes(k + 1, m, prefix + ((lo, hi),))

    def _sweep_last(self, mask: np.ndarray, palette: np.ndarray, slots: np.ndarray,
                    kinds: Sequence[EntropyKind]) -> tuple[list, list]:
        """The cells (lo, hi) of the last dimension over the points in ``mask``,
        as (keys, stats). Keys that snap to the same points share one
        RectStats. Every sum runs over points of the cell it describes."""
        ncol = len(palette)
        ranks, group = np.unique(self.ranks[mask, -1], return_inverse=True)
        m = len(ranks)
        grid = np.bincount(group * ncol + slots[mask], weights=self.weights[mask],
                           minlength=m * ncol).reshape(m, ncol)   # [group, color]: mass
        pg, pc = np.nonzero(grid)        # the nonempty (group, color) pairs, by group
        g = np.arange(m)
        # before[p, i]: pair p's color mass over groups i .. pg[p]-1
        earlier = np.where(g < pg[:, None], grid[:, pc].T, 0.0)
        before = np.cumsum(earlier[:, ::-1], axis=1)[:, ::-1]
        after = before + grid[pg, pc][:, None]
        inside = g <= pg[:, None]        # pair p lies in spans that start at i <= pg[p]
        ends = np.searchsorted(pg, g, side="right") - 1   # the last pair of each group

        i, j = np.triu_indices(m)        # span (i, j): the points of groups i..j
        sums = [np.cumsum(np.where(inside, core.power_term(after, kind)
                                   - core.power_term(before, kind), 0.0), axis=0)[ends[j], i]
                for kind in kinds]
        upper = g >= g[:, None]          # [i, group]: group >= i
        count = np.cumsum(upper * np.bincount(group), axis=1)[i, j]
        weight = np.cumsum(upper * grid.sum(axis=1), axis=1)[i, j]
        present = grid > 0
        lowest = np.minimum.accumulate(
            np.where(upper, present.argmax(axis=1), ncol), axis=1)[i, j]
        highest = np.maximum.accumulate(
            np.where(upper, ncol - 1 - present[:, ::-1].argmax(axis=1), -1), axis=1)[i, j]
        last = np.full((m, ncol), -1)    # [group, color]: the color's last pair up to it
        last[pg, pc] = np.arange(len(pg))
        last = np.maximum.accumulate(last, axis=0)
        w_lo = after[last[j, lowest], i]
        w_hi = after[last[j, highest], i]
        stats = [RectStats(*cell) for cell in zip(
            count.tolist(), weight.tolist(), zip(*(s.tolist() for s in sums)),
            palette[lowest].tolist(), w_lo.tolist(), palette[highest].tolist(), w_hi.tolist())]

        # key (lo, hi) holds the groups first[lo] .. final[hi]
        nu = len(self.distinct[-1])
        first = np.searchsorted(ranks, np.arange(nu), side="left")
        final = np.searchsorted(ranks, np.arange(nu), side="right") - 1
        lo, hi = np.nonzero(np.triu(first[:, None] <= final))
        span = np.zeros((m, m), dtype=np.int64)
        span[i, j] = np.arange(len(i))
        return (list(zip(lo.tolist(), hi.tolist())),
                [stats[k] for k in span[first[lo], final[hi]].tolist()])


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

        # zero-weight points carry no mass; dropping them leaves every color
        # of a cell with positive mass
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
        # precompute full grids while their size bounds fit; the lazy buckets'
        # memos share what the eager tables leave of total_cap evenly
        budget = total_cap
        for bucket in self.buckets:
            cells = bucket.grid_cells()
            if cells <= table_cap and cells <= budget:
                bucket.build_eager(self.kinds)
                budget -= cells
        lazy = [bucket for bucket in self.buckets if not bucket.eager]
        room = total_cap - sum(len(bucket.table) for bucket in self.buckets)
        for bucket in lazy:
            bucket.memo_cap = room // len(lazy)

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

        W = S = 0.0
        points = 0
        trail_color = -1      # the largest color folded so far, and its mass
        trail_w = 0.0
        joins = []            # (a, b): one color's masses on both sides of a cut
        for bi, bucket in enumerate(self.buckets):
            key = bucket.snap(rect)
            st = bucket.stats_for(key, self.kinds) if key is not None else None
            if trace is not None:
                trace.append((bi, key, st))
            if st is None:
                continue
            W += st.weight
            S += st.sums[ki]
            points += st.count
            if st.color_lo == trail_color:
                joins.append((trail_w, st.w_lo))
            if st.color_hi == trail_color:    # the cell holds the trailing color only
                trail_w += st.w_hi
            else:
                trail_color, trail_w = st.color_hi, st.w_hi
        if joins:
            a, b = np.array(joins).T
            S += float(np.sum(core.power_term(a + b, kind) - core.power_term(a, kind)
                              - core.power_term(b, kind)))
        if stats is not None:
            stats["bucket_visits"] = len(self.buckets)
            stats["points_in_range"] = points
        return EntropySummary(kind, W, float(core.entropy_from_power_sum(W, S, kind)))

    # -- reporting ---------------------------------------------------------------

    def space_stats(self) -> dict:
        return {
            "buckets": len(self.buckets),
            "bucket_size": self.bucket_size,
            "table_entries": sum(len(b.table) for b in self.buckets),
            "eager_buckets": sum(b.eager for b in self.buckets),
            "orders": self.orders,
        }
