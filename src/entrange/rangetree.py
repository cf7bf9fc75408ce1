"""Multi-level range trees over colored point sets, held in pooled arrays.

Level k < d-1 is an implicit balanced binary tree over its points sorted by
coordinate k (ties by point index), split at ``(lo + hi) // 2``; each node
owns a level-(k+1) structure on its points. The last level is no tree: a
node's points sorted by the last coordinate, cut by two ``searchsorted``
calls into one contiguous slice.

Level k stores, for every depth path of the trees above it, one length-n
row in which each node's points fill its span in coordinate-k order, so
no node objects exist. The last level's rows form the pool,
n*(D+1)**(d-1) entries for D = ceil(log2 n), with the point ids, a weight
prefix and one :class:`~.core.ColorPrefix`. A rectangle becomes
O(log^(d-1) n) canonical pieces: disjoint pool slices whose points
partition the range.

Sampling is batched: one ``searchsorted`` over the pieces' weights picks a
piece per draw, one over the pool's weight prefix picks the point. The
color-excluding sampler bisects (weight prefix - excluded color's prefix)
for all draws at once. Zero-weight points carry no mass and are left out,
so counts are of positive-weight points.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import ColoredPointSet, ColorPrefix, Point, QueryRect, running_sum
from .errors import EmptyRange


def refine_spans(starts: np.ndarray, n: int) -> np.ndarray:
    """Span starts of the next tree depth: every span of two or more points
    splits at its midpoint."""
    ends = np.append(starts[1:], n)
    mids = (starts + ends) // 2
    return np.union1d(starts, mids[ends - starts >= 2])


def depth_rows(row: np.ndarray, key: np.ndarray, starts: np.ndarray, depths: int):
    """Rows of an implicit mid-split tree whose top spans start at ``starts``.

    Yields, for each of ``depths`` depths, ``row`` reordered so that every
    span of that depth holds its entries sorted by ``key[entry]`` (ties by
    entry), together with the depth's span starts.
    """
    n = len(row)
    for _ in range(depths):
        span = np.searchsorted(starts, np.arange(n), side="right")
        yield row[np.lexsort((row, key[row], span))], starts
        starts = refine_spans(starts, n)


class Pieces:
    """Canonical pieces of one query: pool slices [start, stop)."""

    __slots__ = ("start", "stop")

    def __init__(self, start: np.ndarray, stop: np.ndarray):
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return len(self.start)


class RangeTree:
    """Static d-level range tree; immutable after build, queries are pure."""

    def __init__(self, pts: ColoredPointSet):
        self.pts = pts
        self.dim = pts.dim
        ids = np.flatnonzero(pts.weights > 0.0)
        self.n = n = len(ids)
        self.rows = math.ceil(math.log2(n)) + 1 if n else 0   # depths per tree level
        ids = ids[np.lexsort((ids, pts.coords[ids, 0]))]
        rows, parts = [ids], [np.zeros(1, dtype=np.int64)]
        self.keys = [pts.coords[ids, 0]]   # per level: coordinate k of every row
        for k in range(1, self.dim if n else 1):
            next_rows, next_parts = [], []
            for row, starts in zip(rows, parts):
                for sorted_row, depth_starts in depth_rows(row, pts.coords[:, k], starts,
                                                           self.rows):
                    next_rows.append(sorted_row)
                    next_parts.append(depth_starts)
            rows, parts = next_rows, next_parts
            self.keys.append(pts.coords[np.concatenate(rows), k])
        self.pool_ids = np.concatenate(rows) if n else ids
        self.wpre, self.wlo = running_sum(pts.weights[self.pool_ids])

    @classmethod
    def build(cls, pts: ColoredPointSet) -> "RangeTree":
        return cls(pts)

    def nbytes(self) -> int:
        return sum(a.nbytes for a in (*self.keys, self.pool_ids, self.wpre, self.wlo))

    # -- canonical decomposition ------------------------------------------

    def canonical_nodes(self, rect: QueryRect) -> Pieces:
        if rect.dim != self.dim:
            raise ValueError(f"rect dim {rect.dim} != tree dim {self.dim}")
        start: list[int] = []
        stop: list[int] = []
        if self.n:
            self._cut(0, 0, 0, self.n, rect, start, stop)
        return Pieces(np.array(start, dtype=np.int64), np.array(stop, dtype=np.int64))

    def _cut(self, k: int, row: int, lo: int, hi: int, rect: QueryRect,
             start: list, stop: list) -> None:
        """Pieces of the node spanning [lo, hi) of level k's given row."""
        off = row * self.n
        keys = self.keys[k][off + lo: off + hi]
        a = lo + int(keys.searchsorted(rect.lo[k], "left"))
        b = lo + int(keys.searchsorted(rect.hi[k], "right"))
        if a >= b:
            return
        if k == self.dim - 1:
            start.append(off + a)
            stop.append(off + b)
            return
        stack = [(lo, hi, 0)]
        while stack:
            u, v, depth = stack.pop()
            if v <= a or b <= u:
                continue
            if a <= u and v <= b:
                self._cut(k + 1, row * self.rows + depth, u, v, rect, start, stop)
                continue
            mid = (u + v) // 2
            stack.append((mid, v, depth + 1))
            stack.append((u, mid, depth + 1))

    def pieces_weight(self, pieces: Pieces) -> np.ndarray:
        a, b = pieces.start, pieces.stop
        return (self.wpre[b] - self.wpre[a]) + (self.wlo[b] - self.wlo[a])

    # -- counting -----------------------------------------------------------

    def range_weight(self, rect: QueryRect) -> float:
        return float(self.pieces_weight(self.canonical_nodes(rect)).sum())

    def range_count(self, rect: QueryRect) -> int:
        pieces = self.canonical_nodes(rect)
        return int((pieces.stop - pieces.start).sum())

    # -- sampling -----------------------------------------------------------

    def sample_index(self, rect: QueryRect, rng: np.random.Generator,
                     size: Optional[int] = None):
        """Point index drawn by weight from the range; an array of ``size``
        independent draws when ``size`` is given."""
        out = self.draw(self.canonical_nodes(rect), rng, 1 if size is None else size)
        return int(out[0]) if size is None else out

    def sample(self, rect: QueryRect, rng: np.random.Generator) -> Point:
        return self.pts.point(self.sample_index(rect, rng))

    def draw(self, pieces: Pieces, rng: np.random.Generator, size: int,
             excluded: Optional[int] = None) -> np.ndarray:
        """``size`` point ids drawn by weight from the pieces' points, without
        the points of color ``excluded`` when given (color-aware trees only)."""
        a, b = pieces.start, pieces.stop

        def prefix(p):
            if excluded is None:
                return self.wpre[p]
            return self.wpre[p] - self.color_prefix.mass(excluded, 0, p)

        ga, gb = prefix(a), prefix(b)
        keep = gb > ga
        if not keep.any():
            raise EmptyRange("no sampleable mass in query range")
        a, b, ga, gb = a[keep], b[keep], ga[keep], gb[keep]
        cum = np.cumsum(gb - ga)
        before = np.concatenate(([0.0], cum[:-1]))
        out = np.empty(size, dtype=np.int64)
        todo = np.arange(size)
        for _ in range(64):
            u = rng.random(len(todo)) * cum[-1]
            k = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
            t = np.minimum(ga[k] + (u - before[k]).clip(0.0), np.nextafter(gb[k], -np.inf))
            if excluded is None:
                pos = np.searchsorted(self.wpre, t, side="right") - 1
            else:
                lo, hi = a[k], b[k]   # invariant: prefix(lo) <= t < prefix(hi)
                while (hi - lo > 1).any():
                    mid = (lo + hi) // 2
                    right = prefix(mid) <= t
                    lo = np.where(right, mid, lo)
                    hi = np.where(right, hi, mid)
                pos = lo
            out[todo] = self.pool_ids[pos]
            if excluded is None:
                return out
            # rounding in the differenced prefix can leave a sliver of mass
            # on an excluded point; redraw those
            bad = self.pts.colors[out[todo]] == excluded
            if not bad.any():
                return out
            todo = todo[bad]
        raise EmptyRange("remaining mass is below float resolution of the range")


class ColorAwareRangeTree(RangeTree):
    """Range tree whose pool also carries a :class:`~.core.ColorPrefix`.

    Any color's mass or count over a piece is two ``searchsorted`` calls,
    which gives EVAL and sampling that excludes one color.
    """

    def __init__(self, pts: ColoredPointSet):
        super().__init__(pts)
        self.color_prefix = ColorPrefix(pts.colors[self.pool_ids], pts.weights[self.pool_ids])

    def nbytes(self) -> int:
        cp = self.color_prefix
        return super().nbytes() + cp.keys.nbytes + cp.wpre.nbytes + cp.wlo.nbytes

    def sample_excluding_index(self, rect: QueryRect, excluded: int,
                               rng: np.random.Generator, size: Optional[int] = None):
        out = self.draw(self.canonical_nodes(rect), rng, 1 if size is None else size, excluded)
        return int(out[0]) if size is None else out

    def sample_excluding(self, rect: QueryRect, excluded: int,
                         rng: np.random.Generator) -> Point:
        return self.pts.point(self.sample_excluding_index(rect, excluded, rng))

    def color_weight_in(self, rect: QueryRect, color, pieces: Optional[Pieces] = None):
        """Mass inside the range of one color, or of each color of an array."""
        return self._per_color(self.color_prefix.mass, rect, color, pieces)

    def color_count_in(self, rect: QueryRect, color, pieces: Optional[Pieces] = None):
        """Points inside the range of one color, or of each color of an array."""
        return self._per_color(self.color_prefix.count, rect, color, pieces)

    def _per_color(self, over_span, rect: QueryRect, color, pieces: Optional[Pieces]):
        pieces = self.canonical_nodes(rect) if pieces is None else pieces
        total = over_span(np.asarray(color)[..., None], pieces.start, pieces.stop).sum(axis=-1)
        return total.item() if total.ndim == 0 else total


class ColorTrees:
    """Per-color counting (EVAL) over the pool of a color-aware tree.

    Shares the tree it is given (the estimators pass their own), so it adds
    no storage.
    """

    def __init__(self, pts: ColoredPointSet, tree: Optional[ColorAwareRangeTree] = None):
        self.pts = pts
        self.tree = ColorAwareRangeTree(pts) if tree is None else tree

    def weight(self, rect: QueryRect, color, pieces: Optional[Pieces] = None):
        return self.tree.color_weight_in(rect, color, pieces)

    def count(self, rect: QueryRect, color, pieces: Optional[Pieces] = None):
        return self.tree.color_count_in(rect, color, pieces)


def color_range_count(trees: ColorTrees, rect: QueryRect, color: int) -> float:
    return trees.weight(rect, color)
