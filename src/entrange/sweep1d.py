"""Deterministic 1-D approximate entropy structures with polylog queries.

Each input point p_j of a color (taken in coordinate order within the
color) becomes the 2-D point (p_j, p_{j-1}), with -infinity standing in
for the missing predecessor. A query interval [a, b] becomes the box
[a, b] x (-inf, a), in which every color of the original range appears
exactly once, so the canonical nodes of a 2-level range tree over the
mapped points slice the range's colors into disjoint groups.

The range tree is implicit, as in :mod:`~.rangetree`. The primary tree
splits the mapped points, sorted by x, at ``(lo + hi) // 2``; for each of
its depths one row holds every node's points sorted by y, and a node's
secondary tree splits its span of that row the same way. A secondary node
is thus a row slice [start, stop) at a primary depth. A node of two or
more points qualifies when a query can take it as a canonical node: it is
the root of its primary span or a left child (a query's descent never
takes a right child whole), its colors are distinct, and it ends within
its span's reach, the span's start plus its row entries with y below the
span's least x (a query's cut never passes it). One refinement finds every
depth's qualifying nodes: the depth rows are laid end to end, at positions
depth * n + j, and every depth's spans start at 0, so no span crosses a
depth and about log2 n rounds serve all depths together. The sorted array
``node_keys`` of the qualifying nodes' (depth, start, stop) keys numbers
them: a node's gid is its position there. No node objects exist.
``gid_slots`` maps a secondary node of two or more points straight to its
gid (-1 if it does not qualify, so no query reaches it): a node [lo, hi)
has slot depth * n + (lo + hi) // 2, its split point, which no other node
of its depth shares.

A query tiles the mapped points with x in [a, b] by the primary nodes
:func:`~.rangetree.tile` yields, left to right, in integer arithmetic. In
each of them the points with y < a are a prefix of its row slice, the
node's cut, found by one bisection of that slice of ``y_rank``: each row
entry's y-rank (0 for -infinity, k for the k-th smallest distinct
coordinate), laid out depth after depth as in ``rows``. The secondary
descent over each prefix is integer Python too, and adds each canonical
node's term as soon as it reaches the node: it reads a larger node's gid
from ``gid_slots``, and a one-point node's mapped point from ``rows``.

A qualifying node v knows its color set U_v (its slice's colors) and the
smallest mapped x-coordinate x_v. For the original points of those colors
at coordinates in [x_v, b], with k_c points of color c, its power sum is
S_v = sum over c of f(k_c), where f(k) = k log2 k (Shannon) or k^alpha
(Renyi). S_v is a monotone step function of b, precomputed on a
(1+e')-geometric ladder: it is stored as jumps where the exponent, the
least e with (1+e')^e >= S_v, increases. Every jump sits on a point, so
its position is its rank alone, the number of distinct coordinates <= its
x, on the narrowest unsigned type that holds the U distinct coordinates
(uint16 below 65,536). ``h_rank`` holds every node's run of jump ranks in
gid order, ``h_exp`` their exponents on the narrowest type that holds the
largest, and ``ladder_first`` each node's run start (one per node, and
the pool's length last), so the rightmost jump <= b of a canonical node is
a bisection of its own run.

A one-point node holds one mapped point i, of one color c, so its S_v is
f(k) for the number k of color-c points in [x_v, b], and it stores no
ladder. In (color, coordinate) order, ``c_rank`` holds each point's
coordinate rank, and ``run_lo[i]`` and ``run_end[i]`` delimit the run of
c's points from x_v on. k is one bisection of that run of ``c_rank`` by
the rank of b, and ``_f`` holds f over the counts 0..n.

The points have unit weights, so the count W of [a, b] is exact: the
difference of the two bisections of the sorted coordinates the walk makes
anyway. A larger node whose rightmost jump <= b has exponent e holds S_v
in ((1+e')^(e-1), (1+e')^e], and the query adds the lower power, which
``_lower`` holds for every jump, in the order of ``h_exp``; one with
no jump at or below b (under Shannon, one whose colors each have one point
there) adds 0; a one-point node adds its exact f(k). The sum S_lo over the
canonical nodes thus has S_lo <= S <= (1+e') S_lo, and the answer is
:func:`~.core.entropy_from_sums` of (W, S_lo):

  * Shannon: h = log2 W - S_lo/W, so H <= h <= H + e' S/W <= H + e' log2 W
    up to rounding, since S/W = log2 W - H. With e' = eps / max(1, log2 n)
    the excess is at most eps. A range of one color has one canonical
    node, a one-point one, and answers log2 W - f(W)/W: 0 up to rounding.
  * Renyi: h - H_a lies in [0, log2(1+e')/(alpha-1)] with e' = eps/2.

The build chooses each exponent against ``np.power(1+e', e)`` and
``np.power(1+e', e - 1)``, and ``_lower`` is ``np.power(1+e', e - 1)``
over the stored exponents, so the build and the queries see the same
powers. Nothing an index holds has a length that depends on eps.

An index file holds the points' coordinates and colors (not their
weights, which are all 1) and the three ladder arrays. The mapped
points, the sorted distinct coordinates, the rows, ``node_keys``,
``gid_slots``, ``y_rank``, the one-point runs, f and ``_lower`` are
derived from the points by the same code on build and on load, and a
loaded ladder is checked before any query reads it: one run per qualifying
node, ranks in 1..U, ranks and exponents strictly rising within a run, and
no exponent above what a build of the same n and eps can reach.

A node's walk is its colors' points at or after x_v, in coordinate order.
Each entry's y lies below x_v (the node ends within its span's reach), so
its color has no point in [x_v, x): the walk is the union of the entries'
one-point runs, and its length a difference of one prefix sum of run
lengths over the rows. Along a run the counts are 1, 2, ..., so the steps
f(k) - f(k-1) are gathers from a table over 0..n, and S_v is their running
sum, restarted at 0 for each walk so that its rounding is relative to that
walk's own mass and not to the walks before it in a batch.
Ladders are built for batches of nodes whose walks total at most 2^15
points, so a build holds about 4 MB of temporaries besides the index it
writes. A batch puts its walks in order by one stable sort of the int64
keys ``node * (U + 1) + rank``, and its exponents take the log guess and
its fix-ups against ``np.power``.
Every batch keeps ranks and exponents on their narrow types (exponents on
one that holds the top exponent a build can reach), and the batches' runs,
in gid order, are laid end to end.

An interval of at most :data:`~.rangetree.FOLD_POINTS` points takes no
node: the direct-fold loop (:func:`~.rangetree.mass_by_color`) counts its
colors among its mapped points, a slice of ``mcolor``, and the exact answer
is :func:`~.core.entropy_from_sums` of W and the sum of f over the counts.
Up to that size, reading the points costs less than the descent when the
colors are skewed; with many equally likely colors the fold has more
colors to insert and sum, and the crossover falls nearer 48 points.

A query makes no numpy call at all: it is integer and float arithmetic
plus C bisections on memoryviews made on the first query (``_views``, in no
pickle or copy; no array may be reassigned after it), which cost no dispatch
and, past the first bisections of [a, b] among the coordinates, touch only a
few cache lines per node. The mapped points' x, colors and unit weights
are read from lists instead (48 B a point), whose reads cost least.

Guarantees are deterministic, not statistical: the Shannon answer h obeys
H <= h <= (1+eps)H + eps and the Renyi answer H_a <= h <= H_a +
eps*(alpha+1)/(alpha-1) for every query, up to rounding, and the count is
exact. An interval of at most ``FOLD_POINTS`` points is answered exactly,
so it meets both bounds with no excess. Only unit weights are supported: W
is a count of points.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Optional

import numpy as np

from .core import (
    ColoredPointSet,
    EntropyKind,
    EntropySummary,
    HeldViews,
    QueryRect,
    SHANNON,
    entropy_from_sums,
    power_term,
    renyi_kind,
)
from .errors import WeightsNotSupported
from . import rangetree
from .rangetree import depth_rows, mass_by_color, refine_spans, tile

_BATCH = 1 << 15  # walk points per ladder-building batch: about 4 MB of temporaries
_EXPONENT_MARGIN = 2.0**-40  # float error bound of a log guess, per exponent unit; see _exponents


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ranges [s, s + l) for each start s and length l."""
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def _batches(weights: np.ndarray):
    """Consecutive [g0, g1) whose weights sum to at most _BATCH, or one item."""
    cum = np.cumsum(weights)
    g0 = 0
    while g0 < len(weights):
        g1 = max(g0 + 1, int(cum.searchsorted(cum[g0] - weights[g0] + _BATCH, "right")))
        yield g0, g1
        g0 = g1


def _segment_cumsum(values: np.ndarray, first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of each segment values[f:f + l] on its own, bit for bit:
    segments of similar length are padded into the rows of one block."""
    out = np.empty_like(values)
    width = 1 << np.ceil(np.log2(np.maximum(lens, 1))).astype(np.int64)
    for w in np.unique(width[lens > 0]):
        sel = (width == w) & (lens > 0)
        valid = np.arange(w) < lens[sel, None]
        idx = (first[sel, None] + np.arange(w))[valid]
        block = np.zeros(valid.shape)
        block[valid] = values[idx]
        out[idx] = block.cumsum(axis=1)[valid]
    return out


def _exponents(values: np.ndarray, base: float, log_base: float) -> np.ndarray:
    """The least e >= 0 with ``np.power(base, e) >= v`` for each value v > 0
    (int64). That is ceil(g) for g = log(v) / log(base) unless g lies within
    ``_EXPONENT_MARGIN * (max |g| + 1 / log(base))`` of an integer. The
    computed g is off from the true one by at most a few ulps of g (the two
    logs and the division), and ``np.power`` by a few ulps of the power,
    which moves the boundary by that relative error over log(base)
    exponents: at 4 ulps (2^-50) each, the margin leaves a factor of 2^10
    over their sum. Only the values within it are checked against
    ``np.power``, from that guess, by at most four steps either way."""
    g = np.log(values)
    g /= log_base
    e = np.ceil(g)
    margin = _EXPONENT_MARGIN * (max(g.max(initial=0.0), -g.min(initial=0.0)) + 1.0 / log_base)
    g -= e
    g += 0.5
    near = np.flatnonzero(np.abs(g, out=g) >= 0.5 - margin)   # |g - ceil(g) + 1/2|
    e = np.maximum(e, 0.0).astype(np.int64)
    if len(near):
        v, f = values[near], e[near]
        for _ in range(4):
            over = np.power(base, f.astype(np.float64)) < v
            if not over.any():
                break
            f[over] += 1
        for _ in range(4):
            under = (f > 0) & (np.power(base, f - 1.0) >= v)
            if not under.any():
                break
            f[under] -= 1
        e[near] = f
    return e


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` (nonnegative integers) on the narrowest unsigned type that holds its largest."""
    return a.astype(np.min_scalar_type(int(a.max()) if len(a) else 0))


class Sweep1DIndex(HeldViews):
    """Shared engine for the Shannon and Renyi variants (see build_*)."""

    STORED = ("coords", "colors", "h_rank", "h_exp",
              "ladder_first")   # a file holds the points' arrays, then these; see to_arrays

    def __init__(self, pts: ColoredPointSet, eps: float, alpha: Optional[float] = None):
        self._derive(pts, eps, alpha)
        self._build_ladders()
        self._lower = np.power(self._base, self.h_exp - 1.0)

    def _derive(self, pts: ColoredPointSet, eps: float, alpha: Optional[float]) -> None:
        """Everything but the ladders, from the points, eps and alpha, on
        build and on load: the mapped points, the tree's rows, the
        qualifying nodes and their slots, each row entry's y-rank, the
        one-point runs and f."""
        if pts.dim != 1:
            raise ValueError("sweep index requires 1-D points")
        if len(pts) and not np.all(pts.weights == 1.0):
            raise WeightsNotSupported("sweep structures are count-based; weights must be 1")
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        self.pts = pts
        self.n = n = len(pts)
        self.eps = float(eps)
        self.alpha = None if alpha is None else float(alpha)
        self.kind: EntropyKind = SHANNON if alpha is None else renyi_kind(alpha)
        if alpha is None:
            self.eps_prime = self.eps / max(1.0, math.log2(max(n, 1)))
        else:
            self.eps_prime = self.eps / 2.0
        self._base = 1.0 + self.eps_prime
        if self._base == 1.0:
            raise ValueError(f"eps {eps} is too small for a ladder step above 1.0")
        self._log_base = math.log(self._base)
        self._f, self._top = self._terms()

        # each color's points in coordinate order, and the (p_j, p_{j-1}) mapping
        coords = pts.coords[:, 0]
        order = np.lexsort((np.arange(n), coords, pts.colors))
        cx, ccol = coords[order], pts.colors[order]
        first = np.ones(n, dtype=bool)
        first[1:] = ccol[1:] != ccol[:-1]
        my = np.empty(n)
        my[1:] = cx[:-1]
        my[first] = -np.inf
        m_order = np.lexsort((ccol, my, cx))
        self.mx = cx[m_order]
        self.my = my[m_order]
        self.mcolor = ccol[m_order]
        self.ucoords = np.unique(coords)
        rank_type = np.min_scalar_type(len(self.ucoords))

        # a one-point node's run: its color's points from its own coordinate on
        rank = self.ucoords.searchsorted(cx, side="right")
        key = ccol * self._stride + rank   # sorted: colors, then coordinates
        self.c_rank = rank.astype(rank_type)
        self.run_lo = key.searchsorted(key[m_order]).astype(np.min_scalar_type(n))
        self.run_end = ccol.searchsorted(self.mcolor, "right").astype(np.min_scalar_type(n))

        depths = math.ceil(math.log2(n)) + 1 if n else 0
        rows, prim = [], [np.zeros(0, dtype=np.int64)]
        for depth, (row, starts) in enumerate(
                depth_rows(np.arange(n), self.my, np.zeros(1, dtype=np.int64), depths)):
            rows.append(row)
            prim.append(depth * n + starts)
        self.rows = np.array(rows, dtype=np.min_scalar_type(max(n - 1, 0))).reshape(depths, n)
        lo, hi = self._qualifying_nodes(np.concatenate(prim))
        depth = lo // max(n, 1)
        self.node_keys, gids = np.unique(self._node_key(depth, lo - depth * n, hi - depth * n),
                                         return_inverse=True)
        self.gid_slots = np.full(n * depths, -1, dtype=np.int32)
        self.gid_slots[(lo + hi) // 2] = gids
        y_rank = np.where(np.isneginf(self.my), 0, self.ucoords.searchsorted(self.my) + 1)
        self.y_rank = y_rank.astype(rank_type)[self.rows.ravel()]

    def _terms(self) -> tuple[np.ndarray, int]:
        """f over the counts 0..n, k log2 k (Shannon) or k^alpha (Renyi), and
        a bound on the exponents a build writes: no S_v exceeds f(n), so no
        log guess exceeds top - 6. Refuses an alpha whose f(n) overflows."""
        with np.errstate(over="ignore"):
            f = power_term(np.arange(self.n + 1.0), self.kind)
        if not math.isfinite(f[-1]):
            raise ValueError(f"alpha {self.alpha} is too high for {self.n} points: f(n) overflows")
        return f, math.ceil(math.log(max(self.n, f[-1], 1.0)) / self._log_base) + 6

    def _check_ladders(self) -> None:
        """Refuses (ValueError) stored ladders that no build of these points,
        eps and alpha writes, before a query reads them."""
        first, rank, exp = self.ladder_first, self.h_rank, self.h_exp
        if any(a.ndim != 1 or a.dtype.kind not in "ui" for a in (first, rank, exp)):
            raise ValueError("ladder arrays must be 1-D integer arrays")
        first = first.astype(np.int64)
        if (len(first) != len(self.node_keys) + 1 or first[0] != 0
                or first[-1] != len(rank) or len(exp) != len(rank) or (np.diff(first) < 0).any()):
            raise ValueError("ladder_first does not delimit one run per qualifying node")
        if len(rank) and not (1 <= rank.min() and rank.max() <= len(self.ucoords)
                              and 0 <= exp.min() and exp.max() <= self._top):
            raise ValueError("ladder rank or exponent out of range")
        rises = (rank[1:] > rank[:-1]) & (exp[1:] > exp[:-1])   # jump i + 1 over jump i
        starts = first[1:-1]
        rises[starts[(starts > 0) & (starts < len(rank))] - 1] = True   # i + 1 starts a run
        if not rises.all():
            raise ValueError("ladder ranks and exponents must rise within each run")

    def to_arrays(self) -> tuple[dict, dict]:
        """The arrays and scalars an index file holds: the points'
        coordinates and colors, not their weights (all 1), and the ladders
        (``STORED``), eps and alpha; :meth:`from_arrays` derives the rest."""
        arrays, scalars = self.pts.to_arrays()
        del arrays["weights"]
        arrays.update((name, getattr(self, name)) for name in self.STORED[2:])
        return arrays, {**scalars, "eps": self.eps, "alpha": self.alpha}

    @classmethod
    def from_arrays(cls, arrays: dict, scalars: dict) -> "Sweep1DIndex":
        index = cls.__new__(cls)
        index._derive(ColoredPointSet.from_arrays(arrays, scalars),
                      scalars["eps"], scalars["alpha"])
        for name in cls.STORED[2:]:   # in native byte order, which a memoryview needs
            setattr(index, name, arrays[name].astype(arrays[name].dtype.newbyteorder("="),
                                                     copy=False))
        index._check_ladders()
        index._lower = np.power(index._base, index.h_exp - 1.0)
        return index

    # -- construction ---------------------------------------------------------

    @property
    def _stride(self) -> int:
        """Stride of the build's (color, coordinate rank) keys."""
        return len(self.ucoords) + 1

    def _node_key(self, depth, start, stop):
        return (depth * (self.n + 1) + start) * (self.n + 1) + stop

    def _spans(self, gids):
        """Primary depth and row slice [start, stop) of the given nodes."""
        rest, stop = np.divmod(self.node_keys[gids], self.n + 1)
        depth, start = np.divmod(rest, self.n + 1)
        return depth, start, stop

    def _qualifying_nodes(self, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row slices [lo, hi) of the secondary nodes of two or more points a
        query can take as canonical nodes, as positions depth * n + j of the
        depth rows laid end to end: ``starts`` holds every depth's primary
        span starts so placed. The nodes are the spans' roots and the left
        children, of distinct colors and ending within their span's reach.
        Every depth's starts include 0, so no span crosses a depth, and one
        refinement serves all depths at once.

        A prefix descent over [p, c) takes a root only when c is its end and
        a left child [lo, mid) of [lo, hi) only when mid <= c < hi, never a
        right child. The cut c counts the entries with y < a, and every x
        of a tiled span is at least a, so c is at most the reach: p plus the
        entries with y below the span's least x."""
        n, size = self.n, self.rows.size
        ids = self.rows.ravel()
        colors = self.mcolor[ids]
        by_color = np.argsort(colors, kind="stable")
        same = colors[by_color[1:]] == colors[by_color[:-1]]
        # next position of the same color; one at a later depth lies past every span of this one
        nxt = np.full(size, size)
        nxt[by_color[:-1][same]] = by_color[1:][same]
        prim, ends = starts, np.append(starts[1:], size)
        least_x = self.mx[starts % max(n, 1)]   # x-sorted: a span's first x is its least
        below = self.my[ids] < np.repeat(least_x, ends - starts)
        reach = starts + np.add.reduceat(below, starts, dtype=np.int64)
        take = np.ones(len(starts), dtype=bool)
        lo, hi = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        while len(starts) < size:
            split = ends - starts >= 2
            ok = take & split & (np.minimum.reduceat(nxt, starts) >= ends)
            lo.append(starts[ok])
            hi.append(ends[ok])
            starts = refine_spans(starts, size)
            ends = np.append(starts[1:], size)
            # a left child keeps its parent's start, which the mids inserted before it shift
            take = np.zeros(len(starts), dtype=bool)
            take[(np.arange(len(split)) + np.cumsum(split) - split)[split]] = True
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        keep = hi <= reach[prim.searchsorted(lo, side="right") - 1]
        return lo[keep], hi[keep]

    def _build_ladders(self) -> None:
        """The ladder of every qualifying node, in gid order, built for
        batches of nodes whose walks total at most ``_BATCH`` points."""
        # a node's walk is its entries' runs, laid out as the rows are, less each
        # run's first point under Shannon, where f(1) - f(0) = 0 steps nothing
        ids = self.rows.ravel()
        skip = int(self.kind.is_shannon)
        walked = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(self.run_end[ids] - self.run_lo[ids].astype(np.int64) - skip, out=walked[1:])
        depth, start, stop = self._spans(slice(None))
        walk_len = walked[depth * self.n + stop] - walked[depth * self.n + start]
        f_step, exp_type = np.diff(self._f, prepend=0.0), np.min_scalar_type(self._top)
        parts = [(np.zeros(0, dtype=self.c_rank.dtype), np.zeros(0, dtype=np.int64),
                  np.zeros(0, dtype=exp_type))]
        parts += [self._ladders(np.arange(g0, g1), walk_len[g0:g1], f_step, exp_type, skip)
                  for g0, g1 in _batches(walk_len)]
        ranks, lens, exps = (np.concatenate(part) for part in zip(*parts))
        self.h_rank, self.h_exp = ranks, _narrow(exps)
        self.ladder_first = _narrow(np.concatenate(([0], np.cumsum(lens))))

    def _ladders(self, gids: np.ndarray, walk_len: np.ndarray, f_step: np.ndarray,
                 exp_type: np.dtype, skip: int):
        """Ladders of the nodes ``gids``, whose walks have ``walk_len``
        points: their jumps' ranks, run lengths and exponents.

        A node's walk is its entries' runs [run_lo + skip, run_end), merged
        in coordinate order (ties in row order), and S_v along it is the
        walk's own running sum of the steps ``f_step``. The ladder steps at
        the last point of each coordinate where S_v is positive and its
        exponent rises."""
        depth, start, stop = self._spans(gids)
        sizes = stop - start
        ids = self.rows.ravel()[_ranges(depth * self.n + start, sizes)]
        lo = self.run_lo[ids].astype(np.int64) + skip
        lens = self.run_end[ids] - lo
        idx = _ranges(lo, lens)
        wseg = np.repeat(np.repeat(np.arange(len(gids)), sizes), lens)
        order = np.argsort(wseg * self._stride + self.c_rank[idx], kind="stable")
        # a point's occurrence rank within its color is its place in its run
        nc = _ranges(np.full_like(lens, 1 + skip), lens)[order]
        idx, wseg = idx[order], wseg[order]
        walk_x = self.c_rank[idx]
        t_pref = _segment_cumsum(f_step[nc], np.cumsum(walk_len) - walk_len, walk_len)
        group_end = np.ones(len(idx), dtype=bool)
        group_end[:-1] = (walk_x[1:] != walk_x[:-1]) | (wseg[1:] != wseg[:-1])
        g_val = t_pref[group_end]
        positive = g_val > 0.0
        segs, xs = wseg[group_end][positive], walk_x[group_end][positive]
        e = _exponents(g_val[positive], self._base, self._log_base)
        keep = np.ones(len(e), dtype=bool)
        keep[1:] = (e[1:] > e[:-1]) | (segs[1:] != segs[:-1])
        return (xs[keep], np.bincount(segs[keep], minlength=len(gids)),
                e[keep].astype(exp_type))

    # -- queries -------------------------------------------------------------------

    @functools.cached_property
    def _views(self) -> tuple:
        """Memoryviews of the arrays a query reads, made on the first query,
        and the lists of the mapped points' x, colors and unit weights (ints,
        so that a direct fold's counts index ``_f``)."""
        return (list(self.mx.data),) + tuple(a.data for a in (
            self.ucoords, self.y_rank, self.gid_slots, self.rows, self.h_rank,
            self.ladder_first, self._lower, self.c_rank, self.run_lo, self.run_end, self._f)) + (
            list(self.mcolor.data), [1] * self.n)

    def query(self, rect: QueryRect, stats: Optional[dict] = None) -> EntropySummary:
        """Estimate of the entropy of the points in ``rect``, with their
        exact count. ``stats`` receives ``fold`` (``"direct"`` for an
        interval of at most ``FOLD_POINTS`` points, answered exactly, else
        ``"ladders"``), ``primary_nodes`` and ``canonical_nodes`` (both 0
        for a direct fold)."""
        if rect.dim != 1:
            raise ValueError("query rect must be 1-D")
        a, b, n = rect.lo[0], rect.hi[0], self.n
        (mx, ucoords, y_rank, slots, rows, h_rank, first, lower,
         c_rank, run_lo, run_end, f, mcolor, ones) = self._views
        ilo, ihi = bisect.bisect_left(mx, a), bisect.bisect_right(mx, b)
        count = ihi - ilo   # mx holds every point once, so a <= b gives count >= 0
        if count <= rangetree.FOLD_POINTS:
            # exact: f over each color's count among the interval's mapped points
            counts = mass_by_color((range(ilo, ihi),), mcolor, ones, 0).values()
            if stats is not None:
                stats.update(fold="direct", primary_nodes=0, canonical_nodes=0)
            s = sum([f[k] for k in counts])
            return EntropySummary(self.kind, float(count), entropy_from_sums(count, s, self.kind))
        r_a = bisect.bisect_left(ucoords, a) + 1  # y < a iff y-rank < r_a
        rank = bisect.bisect_right(ucoords, b)
        prim = tile(0, n, ilo, ihi)
        s_lo, nodes = 0.0, 0
        for p, e, depth in prim:
            # the secondary nodes covering the node's points with y < a
            off = depth * n
            c = bisect.bisect_left(y_rank, r_a, off + p, off + e) - off
            lo, hi = p, e
            while lo < c:
                mid = (lo + hi) // 2
                if hi <= c:
                    stop = hi
                elif mid <= c:
                    stop = mid
                else:
                    hi = mid
                    continue
                if stop - lo == 1:
                    # f of the count of the point's color in [x_v, b]
                    i = rows[depth, lo]
                    j = run_lo[i]
                    s_lo += f[bisect.bisect_right(c_rank, rank, j, run_end[i]) - j]
                else:
                    # the lower power of the node's rightmost jump at or below b
                    gid = slots[off + (lo + stop) // 2]
                    if gid < 0:
                        raise AssertionError("canonical node without a ladder")
                    j = first[gid]
                    i = bisect.bisect_right(h_rank, rank, j, first[gid + 1])
                    if i > j:
                        s_lo += lower[i - 1]
                nodes += 1
                lo = stop
        if stats is not None:
            stats.update(fold="ladders", primary_nodes=len(prim), canonical_nodes=nodes)
        return EntropySummary(self.kind, float(count), entropy_from_sums(count, s_lo, self.kind))

    def space_stats(self) -> dict:
        arrays = (self.mx, self.my, self.mcolor, self.ucoords, self.rows, self.y_rank,
                  self.gid_slots, self.node_keys, self.h_rank, self.h_exp,
                  self.ladder_first, self._lower, self.c_rank, self.run_lo,
                  self.run_end, self._f)
        return {
            "points": self.n,
            "eps": self.eps,
            "eps_prime": self.eps_prime,
            "ladder_entries": len(self.h_rank),
            "qualifying_nodes": len(self.node_keys),
            "bytes": int(sum(a.nbytes for a in arrays)),
        }


def build_shannon(pts: ColoredPointSet, eps: float) -> Sweep1DIndex:
    """Deterministic (1+eps)-multiplicative plus eps-additive Shannon index."""
    return Sweep1DIndex(pts, eps, alpha=None)


def build_renyi(pts: ColoredPointSet, eps: float, alpha: float) -> Sweep1DIndex:
    """Deterministic eps*(alpha+1)/(alpha-1)-additive Renyi index."""
    return Sweep1DIndex(pts, eps, alpha=alpha)


def shannon_bound_holds(truth: float, estimate: float, eps: float, slack: float = 1e-9) -> bool:
    return truth - slack <= estimate <= (1.0 + eps) * truth + eps + slack


def renyi_bound_holds(truth: float, estimate: float, eps: float, alpha: float,
                      slack: float = 1e-9) -> bool:
    return truth - slack <= estimate <= truth + eps * (alpha + 1.0) / (alpha - 1.0) + slack
