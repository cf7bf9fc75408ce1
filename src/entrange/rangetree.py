"""Multi-level range trees over colored point sets, held in pooled arrays.

Level k < d-1 is an implicit balanced binary tree over its points sorted by
coordinate k (ties by point index), split at ``(lo + hi) // 2``; each node
owns a level-(k+1) structure on its points. The last level is no tree: a
node's points sorted by the last coordinate, cut into one contiguous slice.

Level k stores, for every depth path of the trees above it, one length-n
row in which each node's points fill its span in coordinate-k order, so
no node objects exist. The last level's rows form the pool of point ids,
n*(D+1)**(d-1) entries for D = ceil(log2 n), on the narrowest unsigned
type that holds a point id. A rectangle becomes O(log^(d-1) n) canonical
pieces: disjoint pool slices whose points partition the range. The walk
makes no numpy call: C ``bisect`` calls on the upper trees' coordinate
rows, then two per last-level node, as ``tile`` yields it, on ``last_rank``,
each pool entry's last-coordinate rank (on the narrowest unsigned type that
holds n), against the query's bounds ranked once. One fold of the pieces'
color masses answers a range exactly (:meth:`RangeTree.statistic`): up to
``FOLD_POINTS`` points, the one direct-fold loop (:func:`mass_by_color`)
sums them in a dict, reading each point's color and weight from lists made
with the memoryviews (40 B a point), and folds on Python floats; above, one
gather and one ``bincount``, then numpy.

Before any walk, :meth:`RangeTree.slabs` locates a rectangle by four
bisections: its y-slab, pool row 0's positions [r_lo, r_hi) (the ranks of
its last-coordinate bounds), and its x-slab, positions [x_lo, x_hi) of
``keys[0]`` (the pool's last row lists the points by first coordinate).
Each slab holds the range, so the narrower one's count bounds the range's.
In 1-D and 2-D a range whose narrower slab holds at most ``FOLD_POINTS``
points is not decomposed: :meth:`RangeTree.scan` keeps that slab's points
in range and the direct-fold loop folds them. A walk reuses the four
bisections. In 3-D and up every range is walked (a scan would test each
middle coordinate), and the slab count serves only as the bound.

What sampling and EVAL need, the pool's weight prefix and one
:class:`~.core.ColorPrefix`, is :attr:`RangeTree.sampling`, derived on a
tree's first draw or EVAL and never by an exact answer. Sampling is batched
and costs a fixed number of numpy calls plus the draws: one
``searchsorted`` over the pieces' masses picks a piece per draw (none for a
single piece), and uniforms generated in sorted order walk the pool's
weight prefix forward. The color-excluding sampler inverts the prefix of
everything but one color c without bisection: each pool entry of c knows
the mass of the other colors before it (``others_before``, nondecreasing
along c's run), so one ``searchsorted`` in c's run counts the c points
before a draw, and one in the pool prefix finds it. Zero-weight points
carry no mass and are left out, so counts are of positive-weight points.

An index file holds the points and the pool ids alone
(:meth:`RangeTree.to_arrays`). ``_derive``, run on build and on load,
rebuilds what the exact answer reads: the upper levels' coordinate keys,
the sorted last coordinates and ``last_rank``. The sampling arrays
(:class:`Sampling`) and the query memoryviews (``_views``, which no pickle or
copy holds; no array may be reassigned after them) are each made on first use
and assigned once: racing threads at worst derive one twice, never mixing two.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .core import (ColoredPointSet, ColorPrefix, EntropyKind, HeldViews, QueryRect,
                   fold_statistic, g, running_sum)
from .errors import EmptyRange

# the size rule of every direct fold: RangeTree.statistic's small side, a 2-D
# range's narrower slab (RangeTree.slabs) and a sweep interval (sweep1d)
FOLD_POINTS = 64


def mass_by_color(parts, colors, weights, zero=0.0) -> dict:
    """The mass of each color over the points of ``parts``, sequences of
    indexes into ``colors`` and ``weights``, summed from ``zero`` in order:
    the one loop of every direct fold. A sweep counts with integer weights
    from 0, so that its counts stay ints."""
    masses: dict = {}
    for part in parts:
        for i in part:
            c = colors[i]
            masses[c] = masses.get(c, zero) + weights[i]
    return masses


def refine_spans(starts: np.ndarray, n: int) -> np.ndarray:
    """Span starts of the next tree depth: every span of two or more points
    splits at its midpoint."""
    ends = np.append(starts[1:], n)
    mids = (starts + ends) // 2
    return np.sort(np.concatenate((starts, mids[ends - starts >= 2])))   # disjoint


def depth_rows(row: np.ndarray, key: np.ndarray, starts: np.ndarray, depths: int):
    """Rows of an implicit mid-split tree whose top spans start at ``starts``.

    Yields, for each of ``depths`` depths, ``row`` reordered so that every
    span of that depth holds its entries sorted by ``key[entry]`` (ties by
    entry), together with the depth's span starts. The row is sorted by
    (key, entry) once; each depth then sorts that order stably by span, on
    the narrowest unsigned type that holds the span numbers.
    """
    n = len(row)
    by_key = np.lexsort((row, key[row]))
    for _ in range(depths):
        span = np.searchsorted(starts, np.arange(n), side="right").astype(np.min_scalar_type(n))
        yield row[by_key[np.argsort(span[by_key], kind="stable")]], starts
        starts = refine_spans(starts, n)


def tile(lo: int, hi: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """(start, stop, depth) of the nodes of the mid-split tree over [lo, hi)
    that tile [a, b), left to right, for lo <= a < b <= hi: the path down to
    the first node that [a, b) splits, then that node's two boundary paths."""
    depth = 0
    while not (a <= lo and hi <= b):
        mid = (lo + hi) // 2
        depth += 1
        if b <= mid:
            hi = mid
        elif mid <= a:
            lo = mid
        else:
            break
    else:
        return [(lo, hi, depth)]
    out = []
    l, h, d = lo, mid, depth   # [a, mid) is a suffix of [lo, mid)
    while l < a:
        m = (l + h) // 2
        d += 1
        if a < m:
            out.append((m, h, d))
            h = m
        else:
            l = m
    out.append((l, h, d))
    out.reverse()
    l, h, d = mid, hi, depth   # [mid, b) is a prefix of [mid, hi)
    while b < h:
        m = (l + h) // 2
        d += 1
        if m < b:
            out.append((l, m, d))
            l = m
        else:
            h = m
    out.append((l, h, d))
    return out


class Pieces:
    """A query's canonical pieces: pool slices [start, stop) as lists, and their point count."""

    __slots__ = ("start", "stop", "points")

    def __init__(self, start: list, stop: list, points: int = 0):
        self.start = start
        self.stop = stop
        self.points = points

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The bounds as two int64 arrays."""
        return np.array(self.start, dtype=np.int64), np.array(self.stop, dtype=np.int64)


class Slabs(NamedTuple):
    """A rectangle's slabs (:meth:`RangeTree.slabs`; the x-slab is the
    y-slab again in 1-D), the narrower one's count ``points`` and whether
    :meth:`RangeTree.scan` answers it (``direct``)."""

    rect: QueryRect
    r_lo: int
    r_hi: int
    x_lo: int
    x_hi: int
    points: int
    direct: bool


class Exclusion(NamedTuple):
    """One color taken out of a query's pieces: per piece, the color's point
    count, its mass, and its mass in the pool before the piece's start; plus
    the color's run [first, stop) in the tree's ``ColorPrefix`` keys."""

    color: int
    first: int
    stop: int
    count: np.ndarray
    mass: np.ndarray
    before: np.ndarray


class Sampling(NamedTuple):
    """What draws and EVAL read: per pool entry, the weight prefix pair; the
    pool's ``ColorPrefix``; and for every key of it, the pool's mass before
    the key's position less its own color's (the prefix the excluding
    sampler inverts). A drawn entry's color is ``pts.colors[pool_ids[pos]]``."""

    wpre: np.ndarray
    wlo: np.ndarray
    color_prefix: ColorPrefix
    others_before: np.ndarray


class RangeTree(HeldViews):
    """Static d-level range tree; immutable after build but for :attr:`sampling`."""

    STORED = ("coords", "colors", "weights", "pool_ids")   # what a file holds; see to_arrays

    def __init__(self, pts: ColoredPointSet):
        self.pts = pts
        self.pool_ids = self._pool(pts)
        self._derive()

    @staticmethod
    def _pool(pts: ColoredPointSet) -> np.ndarray:
        """The last level's rows of point ids, one after another."""
        ids = np.flatnonzero(pts.weights > 0.0)
        n = len(ids)
        depths = math.ceil(math.log2(n)) + 1 if n else 0
        ids = ids[np.lexsort((ids, pts.coords[ids, 0]))]
        rows, parts = [ids], [np.zeros(1, dtype=np.int64)]
        for k in range(1, pts.dim if n else 1):
            next_rows, next_parts = [], []
            for row, starts in zip(rows, parts):
                for sorted_row, depth_starts in depth_rows(row, pts.coords[:, k], starts, depths):
                    next_rows.append(sorted_row)
                    next_parts.append(depth_starts)
            rows, parts = next_rows, next_parts
        pool = np.concatenate(rows) if n else ids
        return pool.astype(np.min_scalar_type(len(pts) - 1))

    def _derive(self) -> None:
        """Everything but the points and the pool, on build and on load.

        The coordinate-k keys of every level-k row (k < d-1) are read off
        the pool: each row's deepest child row is the row itself in its own
        order, since every deepest span holds one point. The last coordinate
        of every point, sorted, ranks a query's bounds (pool row 0 holds
        every point by last coordinate), and ``last_rank`` holds each pool
        entry's rank in it: how many points have a smaller one."""
        pts = self.pts
        self.dim = pts.dim
        self.n = n = int(np.count_nonzero(pts.weights > 0.0))
        self.rows = math.ceil(math.log2(n)) + 1 if n else 0   # depths per tree level
        if len(self.pool_ids) != n * self.rows ** (self.dim - 1):
            raise ValueError(f"a pool of {len(self.pool_ids)} ids does not fit {n} points")
        self.keys = []
        rows = self.pool_ids.reshape(-1, n) if n else self.pool_ids
        for k in reversed(range(self.dim - 1 if n else 0)):
            rows = rows.reshape(-1, self.rows, n)[:, -1]
            self.keys.insert(0, pts.coords[rows.ravel(), k])
        first = self.pool_ids[:n]
        self.last_sorted = pts.coords[first, -1]
        rank = np.zeros(len(pts), dtype=np.min_scalar_type(n))
        rank[first] = self.last_sorted.searchsorted(self.last_sorted)
        self.last_rank = rank[self.pool_ids]

    def to_arrays(self) -> tuple[dict, dict]:
        """The arrays and scalars an index file holds: the points and the
        pool (``STORED``); :meth:`from_arrays` derives the rest."""
        arrays, scalars = self.pts.to_arrays()
        return {**arrays, "pool_ids": self.pool_ids}, scalars

    @classmethod
    def from_arrays(cls, arrays: dict, scalars: dict) -> "RangeTree":
        tree = cls.__new__(cls)
        tree.pts = ColoredPointSet.from_arrays(arrays, scalars)
        ids = arrays["pool_ids"]   # in native byte order, which a memoryview needs
        tree.pool_ids = ids.astype(ids.dtype.newbyteorder("="), copy=False)
        tree._derive()
        return tree

    @functools.cached_property
    def sampling(self) -> Sampling:
        """Derived from the points and the pool on the first draw or EVAL."""
        weights = self.pts.weights[self.pool_ids]
        wpre, wlo = running_sum(weights)
        cp = ColorPrefix(self.pts.colors[self.pool_ids], weights)
        m = int(cp.keys[-1]) // cp.n + 1 if cp.n else 0
        firsts = cp.keys.searchsorted(np.arange(m + 1) * cp.n)   # each color's run
        runs = np.diff(firsts)
        first = np.repeat(firsts[:-1], runs)
        own = (cp.wpre[:-1] - cp.wpre[first]) + (cp.wlo[:-1] - cp.wlo[first])
        pos = cp.keys - np.repeat(np.arange(m) * cp.n, runs)
        return Sampling(wpre, wlo, cp, wpre[pos] - own)

    @functools.cached_property
    def _views(self) -> tuple:
        """Memoryviews of what an exact answer reads, made on the first
        query, and lists of each point's color and weight."""
        return (self.last_sorted.data, self.last_rank.data, [k.data for k in self.keys],
                self.pool_ids.data, list(self.pts.colors.data), list(self.pts.weights.data),
                self.pts.coords[:, 0].data)

    def nbytes(self) -> int:
        """Bytes of the tree's arrays, derived ones included, sampling ones once held."""
        arrays = [*self.keys, self.pool_ids, self.last_sorted, self.last_rank]
        if "sampling" in vars(self):
            s, cp = self.sampling, self.sampling.color_prefix
            arrays += [s.wpre, s.wlo, s.others_before, cp.keys, cp.wpre, cp.wlo]
        return sum(a.nbytes for a in arrays)

    # -- canonical decomposition ------------------------------------------

    def slabs(self, rect: QueryRect) -> Slabs:
        """The rectangle's two slabs, by two C bisections of the sorted last
        coordinates and, past 1-D (``keys`` is empty in 1-D and on no
        points), two of ``keys[0]``."""
        if rect.dim != self.dim:
            raise ValueError(f"rect dim {rect.dim} != tree dim {self.dim}")
        last_sorted, _, keys = self._views[:3]
        # the range's points have last-coordinate ranks in [r_lo, r_hi)
        r_lo = bisect.bisect_left(last_sorted, rect.lo[-1])
        r_hi = bisect.bisect_right(last_sorted, rect.hi[-1])
        x_lo, x_hi = r_lo, r_hi
        if keys:
            x_lo = bisect.bisect_left(keys[0], rect.lo[0])
            x_hi = bisect.bisect_right(keys[0], rect.hi[0])
        points = r_hi - r_lo if r_hi - r_lo < x_hi - x_lo else x_hi - x_lo
        return Slabs(rect, r_lo, r_hi, x_lo, x_hi, points,
                     points <= FOLD_POINTS and self.dim <= 2)

    def scan(self, slabs: Slabs) -> list:
        """The point ids of a 1-D or 2-D range, read off its narrower slab."""
        _, ranks, _, ids, _, _, xs = self._views
        r_lo, r_hi = slabs.r_lo, slabs.r_hi
        if r_hi - r_lo <= slabs.x_hi - slabs.x_lo:
            lo, hi = slabs.rect.lo[0], slabs.rect.hi[0]
            return [i for i in ids[r_lo:r_hi] if lo <= xs[i] <= hi]
        a = len(self.pool_ids) - self.n + slabs.x_lo   # the pool's last row: the points by x
        b = a + slabs.x_hi - slabs.x_lo
        return [i for i, r in zip(ids[a:b], ranks[a:b]) if r_lo <= r < r_hi]

    def canonical_nodes(self, rect: QueryRect, slabs: Optional[Slabs] = None) -> Pieces:
        """The range's pieces, found by C ``bisect`` calls on :attr:`_views`
        from its slabs (located here unless given)."""
        s = self.slabs(rect) if slabs is None else slabs
        if not s.points:
            return Pieces([], [])
        if self.dim == 1:   # one node, pool row 0: the points in last_sorted's order
            return Pieces([s.r_lo], [s.r_hi], s.r_hi - s.r_lo)
        pieces = Pieces([], [])
        self._walk(0, 0, 0, self.n, s.x_lo, s.x_hi, s, pieces)
        return pieces

    def _walk(self, k: int, row: int, lo: int, hi: int, a: int, b: int, s: Slabs,
              pieces: Pieces) -> None:
        """Adds to ``pieces`` the range's slices of the last-level nodes below
        the level-k node (k < d-1) spanning [lo, hi) of the given row, whose
        positions [a, b) (a < b) hold the range's coordinate-k slab: each
        cut by two bisections of ``last_rank`` as ``tile`` yields it."""
        n = self.n
        _, ranks, keys = self._views[:3]
        row *= self.rows   # child rows are row * rows + depth
        if k < self.dim - 2:
            key, key_lo, key_hi = keys[k + 1], s.rect.lo[k + 1], s.rect.hi[k + 1]
            for u, v, depth in tile(lo, hi, a, b):
                off = (row + depth) * n
                c = bisect.bisect_left(key, key_lo, off + u, off + v) - off
                e = bisect.bisect_right(key, key_hi, off + u, off + v) - off
                if c < e:
                    self._walk(k + 1, row + depth, u, v, c, e, s, pieces)
            return
        r_lo, r_hi = s.r_lo, s.r_hi
        for u, v, depth in tile(lo, hi, a, b):
            off = (row + depth) * n
            c = bisect.bisect_left(ranks, r_lo, off + u, off + v)
            e = bisect.bisect_left(ranks, r_hi, c, off + v)
            if c < e:
                pieces.start.append(c)
                pieces.stop.append(e)
                pieces.points += e - c

    def color_masses(self, pieces: Pieces, excluded: Optional[int] = None) -> np.ndarray:
        """Positive color masses of the pieces' m points, less the excluded
        color's: one gather and one ``bincount``, O(m + largest color)."""
        slices = [self.pool_ids[a:b] for a, b in zip(pieces.start, pieces.stop)]
        ids = slices[0] if len(slices) == 1 else np.concatenate(slices or [self.pool_ids[:0]])
        ids = ids.astype(np.intp)   # once, not inside each of the two gathers
        masses = np.bincount(self.pts.colors[ids], self.pts.weights[ids])
        if excluded is not None and excluded < len(masses):
            masses[excluded] = 0.0
        return masses[masses > 0.0]

    def statistic(self, pieces: Pieces, kind: EntropyKind,
                  excluded: Optional[int] = None) -> tuple[float, float]:
        """The kind's statistic (:func:`~.core.fold_statistic`) over the color
        masses of the pieces' points, less the excluded color's, and their
        total mass (0.0, with a statistic of 0, if none is left)."""
        if pieces.points > FOLD_POINTS:
            masses = self.color_masses(pieces, excluded)
            total = float(masses.sum())
            p = masses / total
            return float((p * g(kind, p)).sum()), total
        ids = self._views[3]
        return self.fold([ids[a:b] for a, b in zip(pieces.start, pieces.stop)], kind, excluded)

    def fold(self, parts, kind: EntropyKind,
             excluded: Optional[int] = None) -> tuple[float, float]:
        """:meth:`statistic` of the points of ``parts`` (sequences of point
        ids), by the direct-fold loop on Python floats."""
        views = self._views
        masses = mass_by_color(parts, views[4], views[5])
        masses.pop(excluded, None)
        total = sum(masses.values(), 0.0)
        return fold_statistic(masses.values(), total, kind), total

    def pieces_weight(self, pieces: Pieces) -> np.ndarray:
        a, b = pieces.arrays()
        s = self.sampling
        return (s.wpre[b] - s.wpre[a]) + (s.wlo[b] - s.wlo[a])

    # -- sampling -----------------------------------------------------------

    def draw(self, pieces: Pieces, rng: np.random.Generator, size: int,
             excluded: Optional[Exclusion] = None) -> np.ndarray:
        """Pool positions of ``size`` draws by weight from the pieces' points,
        without the points of the excluded color when given. The draws come
        grouped by piece, each group ascending: a multiset, not a sequence
        (a tally counts them by color, so their order does not matter)."""
        s = self.sampling
        a, b = pieces.arrays()
        lo = s.wpre[a]
        mass = s.wpre[b] - lo
        if excluded is not None:
            lo = lo - excluded.before
            mass = np.maximum(mass - excluded.mass, 0.0)
        cum = np.cumsum(mass)
        if not len(cum) or not cum[-1] > 0.0:
            raise EmptyRange("no sampleable mass in query range")
        total = cum[-1]
        shift = lo - (cum - mass)   # range coordinate -> the prefix sampled

        def positions(m: int) -> np.ndarray:
            u = rng.random(m)
            u.sort()   # sorted targets make the prefix searches walk forward
            u *= total
            if len(cum) > 1:
                k = cum[:-1].searchsorted(u, "right")
                u += shift[k]
                first, last = a[k], b[k] - 1
            else:
                u += shift[0]
                first, last = a[0], b[0] - 1
            if excluded is not None:
                u = _unexclude(s, u, excluded)
            pos = s.wpre.searchsorted(u, "right") - 1
            # rounding can put a target just outside its piece
            return np.minimum(np.maximum(pos, first, out=pos), last, out=pos)

        pos = positions(size)
        if excluded is None:
            return pos
        for _ in range(64):
            # rounding in the differenced prefix can leave a sliver of mass
            # on an excluded point; redraw those
            bad = np.flatnonzero(self.pts.colors[self.pool_ids[pos]] == excluded.color)
            if not len(bad):
                return pos
            pos[bad] = positions(len(bad))
        raise EmptyRange("remaining mass is below float resolution of the range")

    def exclude(self, pieces: Pieces, color: int) -> Exclusion:
        """The pieces' points of one color, as the excluding sampler and the
        reduced totals need them: one ``searchsorted`` call."""
        cp = self.sampling.color_prefix
        k = len(pieces)
        bounds = np.array(pieces.start + pieces.stop + [0, cp.n], dtype=np.int64)
        at = cp.keys.searchsorted(color * cp.n + bounds)
        i, j = at[:k], at[k:2 * k]
        first, stop = int(at[2 * k]), int(at[2 * k + 1])
        hi, lo = cp.wpre, cp.wlo
        return Exclusion(color, first, stop, j - i, (hi[j] - hi[i]) + (lo[j] - lo[i]),
                         (hi[i] - hi[first]) + (lo[i] - lo[first]))


def _unexclude(s: Sampling, t: np.ndarray, ex: Exclusion) -> np.ndarray:
    """Targets in the prefix without color ``ex.color`` mapped to the pool's
    weight prefix: adds the mass of the color's points before each target,
    found by one search in the color's run."""
    j = ex.first + s.others_before[ex.first:ex.stop].searchsorted(t, "right")
    hi, lo = s.color_prefix.wpre, s.color_prefix.wlo
    return t + ((hi[j] - hi[ex.first]) + (lo[j] - lo[ex.first]))


class ColorTrees:
    """Per-color counting (EVAL) over a tree's pool, through the
    ``ColorPrefix`` of its sampling arrays. Shares the tree it is given (each
    :class:`~.exactnd.ExactNDIndex` holds one over its own), so it adds no storage."""

    def __init__(self, tree: RangeTree):
        self.tree = tree

    def weight(self, rect: QueryRect, color, pieces: Optional[Pieces] = None):
        """Mass inside the range of one color, or of each color of an array."""
        return self._per_color(self.tree.sampling.color_prefix.mass, rect, color, pieces)

    def count(self, rect: QueryRect, color, pieces: Optional[Pieces] = None):
        """Points inside the range of one color, or of each color of an array."""
        return self._per_color(self.tree.sampling.color_prefix.count, rect, color, pieces)

    def _per_color(self, over_span, rect: QueryRect, color, pieces: Optional[Pieces]):
        pieces = self.tree.canonical_nodes(rect) if pieces is None else pieces
        total = over_span(np.asarray(color)[..., None], *pieces.arrays()).sum(axis=-1)
        return total.item() if total.ndim == 0 else total
