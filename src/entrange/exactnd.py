"""Exact d-dimensional range entropy index partitioned by color.

Points are sorted by color id (ascending, ties by coordinates then input
index) and cut into K = O(n^(1-t)) buckets of at most ceil(n^t) points, so
consecutive buckets share at most one color: the one whose run straddles
the cut. A cell of a bucket is a pair lo <= hi of its coordinate ranks per
dimension, and its row holds the power sums of its points: count, weight
W, S = sum_c f(w_c) per configured kind (``core.power_term``), and the
lowest and highest colors with their masses.

The index is a few index-wide arrays. One sorted array of tagged keys
``(dim * K + bucket) * (n + 1) + global rank`` lists every bucket's
distinct coordinates, so a query snaps in all buckets with one
``searchsorted``; the snapped cell's point set is the query's intersection
with the bucket. One routine sums batches of cells from their member
points. A bucket whose grid fits ``table_cap`` and what ``total_cap``
leaves is eager: each grid cell holds an int32 number of a table row, one
row per distinct point set (tightened box). In d >= 2 the boxes come from
one walk per fixed (lo, hi) of every dimension but the last and the last
one's lo: the bucket's points in last-rank order, whose running rank
minima and maxima give the box of every last-dimension hi at once; only
the distinct boxes are summed. Lazy buckets' cells are summed on first
touch and memoized in one dict keyed by the packed (bucket, lo, hi) until
grid and memo together hold ``total_cap`` entries.

A query adds the rows' W and S. A color whose run crosses cuts shows up as
edge pieces of consecutive cells; each run of equal edge colors adds
f(run total) - sum f(piece). No step subtracts one color's term from a
total, so heavy weights cannot cancel.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import core
from .core import ColoredPointSet, EntropyKind, EntropySummary, QueryRect, SHANNON, renyi_kind
from .errors import OrderNotIndexed

CHUNK = 1 << 19                       # bucket points examined per batch of cells
LO, W_LO, HI, W_HI = range(-4, 0)     # row: count, W, S per kind, then these


class ExactNDIndex:
    def __init__(self, pts: ColoredPointSet, t: float, orders: Sequence[float] = (),
                 table_cap: int = 200_000, total_cap: int = 2_000_000):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        self.pts = pts
        self.t = float(t)
        self.orders = tuple(sorted(set(float(a) for a in orders)))
        self.kinds = (SHANNON,) + tuple(renyi_kind(a) for a in self.orders)
        self.width = len(self.kinds) + 6

        # zero-weight points carry no mass; dropping them leaves every color
        # of a cell with positive mass
        ids = np.flatnonzero(pts.weights > 0.0)
        n, d = len(ids), pts.dim
        keys = [ids] + [pts.coords[ids, k] for k in reversed(range(d))] + [pts.colors[ids]]
        order = ids[np.lexsort(tuple(keys))]
        self.colors, self.weights = pts.colors[order], pts.weights[order]
        size = self.bucket_size = max(1, math.ceil(n**self.t)) if n else 1
        nb = -(-n // size)
        bucket = np.arange(n) // size

        # a point's rank in its bucket is its key's position past the bucket's
        # first key; ranks are [dim, point, bucket], padded with -1 (outside)
        self.axes = [np.unique(pts.coords[order, k]) for k in range(d)]
        tagged = (np.arange(d) * nb + bucket[:, None]) * (n + 1) + np.column_stack(
            [np.searchsorted(axis, pts.coords[order, k]) for k, axis in enumerate(self.axes)])
        self.keys = np.unique(tagged)
        self.base = (np.arange(d)[:, None] * nb + np.arange(nb)) * (n + 1)
        self.first = np.searchsorted(self.keys, self.base)
        ranks = np.full((nb * size, d), -1, dtype=np.int32)
        ranks[:n] = np.searchsorted(self.keys, tagged) - self.first.T[bucket]
        self.ranks = np.ascontiguousarray(ranks.reshape(nb, size, d).transpose(2, 1, 0))

        # cell (lo, hi) of a bucket is number sum_k tri_k * stride_k with
        # tri = hi(hi+1)/2 + lo; eager grids are laid out bucket by bucket
        u = np.diff(np.append(self.first, len(self.keys))).reshape(d, nb).T
        radix = u * (u + 1) // 2
        self.offsets = np.full(nb, -1, dtype=np.int64)
        cells = 0
        for b, row in enumerate(radix.tolist()):
            grid = math.prod(row)      # Python ints: a lazy grid may exceed int64
            if grid <= table_cap and cells + grid <= total_cap:
                self.offsets[b] = cells
                cells += grid
        eager = self.offsets >= 0
        self.eager_buckets = int(eager.sum())
        self.strides = np.zeros_like(radix)
        self.strides[eager] = np.cumprod(np.column_stack(
            (np.ones(self.eager_buckets, dtype=np.int64), radix[eager, :-1])), axis=1)
        self.grid, self.table = self._fill(cells, u)
        self.memo: dict[bytes, bytes] = {}
        self.memo_cap = total_cap - cells

    # -- cells -----------------------------------------------------------------

    def _inside(self, b, lo, hi) -> np.ndarray:
        """Whether each point of each cell's bucket lies in the cell, [point, cell]."""
        ranks = self.ranks[:, :, b]
        inside = np.ones(ranks.shape[1:], dtype=bool)
        for r, low, high in zip(ranks, lo.T, hi.T):
            inside &= (r >= low) & (r <= high)
        return inside

    def _evaluate(self, b, lo, hi) -> np.ndarray:
        """Rows of the cells (b, lo, hi), summed over their member points."""
        rows = np.zeros((len(b), self.width))
        step = max(1, CHUNK // self.bucket_size)
        for a in range(0, len(b), step):
            part = rows[a:a + step]
            cell, j = np.nonzero(self._inside(b[a:a + step], lo[a:a + step], hi[a:a + step]).T)
            if not len(cell):
                continue
            point = b[a + cell] * self.bucket_size + j
            colors = self.colors[point]
            runs = np.flatnonzero(np.concatenate(
                ([True], (cell[1:] != cell[:-1]) | (colors[1:] != colors[:-1]))))
            mass = np.add.reduceat(self.weights[point], runs)    # one (cell, color) each
            owner = cell[runs]
            part[:, 0] = np.bincount(cell, minlength=len(part))
            part[:, 1:LO] = np.column_stack([np.bincount(owner, v, minlength=len(part)) for v in
                                             [mass] + [core.power_term(mass, k) for k in self.kinds]])
            lowest = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
            highest = np.append(lowest[1:], len(runs)) - 1
            c = owner[lowest]
            part[c, LO], part[c, W_LO] = colors[runs[lowest]], mass[lowest]
            part[c, HI], part[c, W_HI] = colors[runs[highest]], mass[highest]
        return rows

    def _number(self, b, lo, hi) -> np.ndarray:
        """Grid positions of the cells (b, lo, hi) of eager buckets."""
        return ((hi * (hi + 1) // 2 + lo) * self.strides[b]).sum(axis=1) + self.offsets[b]

    def _fill(self, cells: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The eager grid of ``cells`` positions and its table of distinct
        rows: each cell holds the row of its tightened box. ``u`` counts each
        bucket's distinct ranks per dimension, [bucket, dim]."""
        eager = np.flatnonzero(self.offsets >= 0)
        radix = u * (u + 1) // 2

        def decode(g):
            b = eager[np.searchsorted(self.offsets[eager], g, side="right") - 1]
            tri = (g - self.offsets[b])[:, None] // self.strides[b] % radix[b]
            hi = ((np.sqrt(8 * tri + 1) - 1) // 2).astype(np.int64)
            return b, tri - hi * (hi + 1) // 2, hi

        if len(self.ranks) > 1 and cells:
            tight = self._tighten(eager, u[eager, -1], decode, cells)
        else:
            tight = np.arange(cells)   # a 1-D cell holds points at both end ranks: its own box
        boxes, grid = np.unique(np.append(-1, tight), return_inverse=True)
        table = np.vstack((np.zeros(self.width), self._evaluate(*decode(boxes[1:]))))
        return grid[1:].astype(np.int32), table

    def _tighten(self, eager, last_u, decode, cells: int) -> np.ndarray:
        """Grid position of each eager cell's tightened box, -1 if it is empty.

        A walk row fixes an eager bucket, every dimension's (lo, hi) but the
        last, and the last one's lo. Its members are the bucket's points in
        that slab, taken in last-rank order; running minima and maxima of
        each dimension's ranks over them give, at the last point of last
        rank <= hi, the tight box of the row's cell hi = lo..u-1. Rows are
        taken ``CHUNK // bucket_size`` at a time."""
        d, size, nbe = len(self.ranks), self.bucket_size, len(eager)
        ranks = self.ranks[:, :, eager].transpose(0, 2, 1)      # [dim, bucket, point]
        ranks = np.take_along_axis(ranks, np.argsort(ranks[-1], axis=1)[None], axis=2)
        # the padding (rank -1) sorts first; walks skip what all buckets have
        ranks = ranks[:, :, (ranks[-1] < 0).sum(axis=1).min():]
        width = ranks.shape[2]
        # upto[j, h]: how many walk points of eager bucket j have last rank <= h
        j = np.arange(nbe)[:, None]
        upto = (j * (width + 1) + ranks[-1] + 1).ravel().searchsorted(
            j * (width + 1) + np.arange(last_u.max()) + 1, side="right") - j * width
        slab = self.strides[eager, -1]                 # cells per last-dimension pair
        first = np.cumsum(slab * last_u) - slab * last_u
        rows = int((slab * last_u).sum())
        tight = np.full(cells, -1, dtype=np.int64)
        step = max(1, CHUNK // width)
        for a in range(0, rows, step):
            row = np.arange(a, min(a + step, rows))
            j = np.searchsorted(first, row, side="right") - 1
            low, rest = np.divmod(row - first[j], slab[j])
            b, lo, hi = decode(self.offsets[eager[j]] + rest)
            member = ranks[-1, j] >= low[:, None]
            for k in range(d - 1):
                member &= (ranks[k, j] >= lo[:, k, None]) & (ranks[k, j] <= hi[:, k, None])
            # the row's cells: last-dimension hi from the row's lo up to u - 1;
            # each reads the walk at its last point of last rank <= hi
            count = last_u[j] - low
            cell = np.repeat(np.arange(len(row)), count)
            top = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count) + low[cell]
            at = cell * width + upto[j[cell], top] - 1
            box = np.empty((2, len(cell), d), dtype=np.int64)
            for k in range(d):
                walk = ranks[k, j]
                box[0, :, k] = np.minimum.accumulate(np.where(member, walk, size), axis=1).take(at)
                box[1, :, k] = np.maximum.accumulate(np.where(member, walk, -1), axis=1).take(at)
            full = box[1, :, -1] >= 0
            cell, tri = cell[full], top[full] * (top[full] + 1) // 2 + low[cell[full]]
            tight[self.offsets[b[cell]] + rest[cell] + tri * slab[j[cell]]] = \
                self._number(b[cell], *box[:, full])
        return tight

    # -- queries ---------------------------------------------------------------

    def _snap(self, rect: QueryRect) -> tuple[np.ndarray, np.ndarray]:
        """Every bucket's snapped cell: its local ranks lo and hi, [bucket, dim]."""
        # global ranks of the faces: the rank past hi is that of the next float
        faces = [np.searchsorted(axis, (a, math.nextafter(b, math.inf)))
                 for a, b, axis in zip(rect.lo, rect.hi, self.axes)]
        ranks = np.searchsorted(self.keys, self.base[..., None] + np.reshape(faces, (-1, 1, 2)))
        ranks -= self.first[..., None]
        return ranks[..., 0].T, ranks[..., 1].T - 1

    def _rows(self, b, lo, hi) -> np.ndarray:
        """Rows of the cells (b, lo, hi): from the grid for eager buckets, from
        the memo or a fresh evaluation for lazy ones."""
        rows = np.empty((len(b), self.width))
        eager = self.offsets[b] >= 0
        if eager.any():
            rows[eager] = self.table[self.grid[self._number(b[eager], lo[eager], hi[eager])]]
        lazy = np.flatnonzero(~eager)
        if len(lazy):
            packed = np.concatenate((b[lazy, None], lo[lazy], hi[lazy]), axis=1, dtype=np.int32)
            keys = packed.view(np.dtype((np.void, packed.shape[1] * 4))).ravel().tolist()
            found = [self.memo.get(key) for key in keys]
            miss = [i for i, row in enumerate(found) if row is None]
            if miss:
                fresh = lazy[miss]
                for i, row in zip(miss, self._evaluate(b[fresh], lo[fresh], hi[fresh])):
                    found[i] = row.tobytes()
                    # benign race between concurrent queries: rows are pure
                    # functions of keys; each thread may pass the cap by one
                    if len(self.memo) < self.memo_cap:
                        self.memo[keys[i]] = found[i]
            rows[lazy] = np.frombuffer(b"".join(found)).reshape(-1, self.width)
        return rows

    def query(self, rect: QueryRect, kind: EntropyKind = SHANNON,
              stats: Optional[dict] = None, trace: Optional[list] = None) -> EntropySummary:
        """Entropy of the points in ``rect``. ``stats`` receives
        ``bucket_visits`` and ``points_in_range``. ``trace`` gets one entry
        per bucket: (bucket, snapped cell [lo per dim..., hi per dim...] or
        None, the cell's row [count, W, S per kind, lowest color and mass,
        highest color and mass] or None when the cell is empty)."""
        if not kind.is_shannon and kind.alpha not in self.orders:
            raise OrderNotIndexed(f"alpha={kind.alpha} not precomputed (have {self.orders})")
        if rect.dim != self.pts.dim and len(self.pts):
            raise ValueError(f"rect dim {rect.dim} != data dim {self.pts.dim}")
        lo, hi = self._snap(rect)
        hit = np.flatnonzero((lo <= hi).all(axis=1))
        rows = self._rows(hit, lo[hit], hi[hit])
        if trace is not None:
            cells, found = [None] * len(lo), [None] * len(lo)
            for b, cell, row in zip(hit.tolist(), np.hstack((lo, hi))[hit].tolist(), rows.tolist()):
                cells[b], found[b] = cell, (row if row[0] else None)
            trace.extend(zip(range(len(lo)), cells, found))
        total = rows.sum(axis=0)
        W, S = total[1], total[2 + self.kinds.index(kind)]
        # edge pieces (color, mass) in bucket order: each cell's lowest
        # color, then its highest unless the cell holds one color only
        pieces = rows[:, LO:].reshape(-1, 2)
        pieces[1::2, 1] *= rows[:, LO] != rows[:, HI]
        pieces = pieces[pieces[:, 1] > 0]
        colors = pieces[:, 0]
        runs = np.flatnonzero(np.concatenate(([True], colors[1:] != colors[:-1])))
        if len(runs) < len(pieces):
            S += (core.power_term(np.add.reduceat(pieces[:, 1], runs), kind)
                  - np.add.reduceat(core.power_term(pieces[:, 1], kind), runs)).sum()
        if stats is not None:
            stats["bucket_visits"] = len(lo)
            stats["points_in_range"] = int(total[0])
        return EntropySummary(kind, float(W), core.entropy_from_sums(float(W), float(S), kind))

    # -- reporting ---------------------------------------------------------------

    def space_stats(self) -> dict:
        """Sizes; ``table_entries`` counts grid cells plus memo entries, and
        ``bytes`` the index arrays plus the memo's packed keys and rows."""
        arrays = (self.colors, self.weights, self.keys, self.base, self.first, self.ranks,
                  self.offsets, self.strides, self.grid, self.table, *self.axes)
        memo_bytes = len(self.memo) * 4 * (1 + 2 * len(self.ranks) + 2 * self.width)
        return {"buckets": len(self.offsets), "bucket_size": self.bucket_size,
                "table_entries": len(self.grid) + len(self.memo),
                "eager_buckets": self.eager_buckets, "orders": self.orders,
                "bytes": int(sum(a.nbytes for a in arrays)) + memo_bytes}
