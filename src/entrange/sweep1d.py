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
is thus a row slice [start, stop) at a primary depth. It qualifies when its
colors are distinct, and the sorted array ``node_keys`` of the qualifying
nodes' (depth, start, stop) keys numbers them: a node's gid is its
position there. No node objects exist. ``gid_slots`` maps a secondary node
straight to its gid (-1 if it does not qualify): within the primary span
[p, e) of a depth, a one-point node [lo, lo + 1) has slot p + lo and a
larger node slot e + its split point, all in the 2(e - p) slots from 2p.

A query tiles the mapped points with x in [a, b] by the primary nodes
:func:`~.rangetree.tile` yields, left to right, in integer arithmetic. In
each of them the points with y < a are a prefix of its row slice, the
node's cut, found by one bisection of that slice of ``y_rank``: each row
entry's y-rank (0 for -infinity, k for the k-th smallest distinct
coordinate), laid out depth after depth as in ``rows`` and derived from
them on build and on load. The secondary descent over each prefix is
integer Python too, and reads each canonical node's gid from
``gid_slots``.

A qualifying node v knows its color set U_v (its slice's colors) and the
smallest mapped x-coordinate x_v. For the original points of those colors
at coordinates >= x_v, two monotone step functions of the right endpoint b
are precomputed on a (1+e')-geometric ladder:

  * the running point count |P(U_v) cap [x_v, b]|, and
  * F = count * H (Shannon) or G = sum of per-color count^alpha (Renyi),

stored as jumps where the exponent, the least e with (1+e')^e >= value,
increases. Every jump sits on a point, so it is stored as its rank alone,
the number of distinct coordinates <= its x, on the narrowest unsigned
type that holds the U distinct coordinates (uint16 below 65,536). The two
pools ``s_rank`` (counts) and ``h_rank`` (values) hold every node's run of
jumps in gid order, and ``ladder_first`` where each node's runs start, so
the rightmost jump <= b of a canonical node is a bisection of its own run.

Value jumps keep their exponents in ``h_exp``, again on the narrowest type
that holds the largest. Count jumps need none: with unit weights a walk's
count rises one point at a time, so the exponents it takes on are a prefix
of ``count_exps``, the distinct exponents of the counts 1..n, and a node's
i-th count jump carries ``count_exps[i]``. Where a group of points on one
coordinate makes the count skip exponents, the group's rank is repeated
once per exponent reached, so that a bisection lands past all of them.

``_powers`` holds (1+e')^e for e in -1 up to the largest stored exponent,
at index e + 1. The build chooses exponents against this table and the
queries read bounds from it, so both see the same powers; it is derived on
build and on load, and not stored.

Ladders are built for batches of nodes whose walks total at most 2^15
points, so a build holds about 4 MB of temporaries besides the index it
writes. A batch's walks are put in order by one stable sort of the int64
keys ``node * (U + 1) + rank``. The counts along a walk are integers in
1..n, so the count exponents, the Shannon terms k log2 k or Renyi terms
k^alpha, and their steps f(k) - f(k-1) are gathers from tables over 0..n
built once per index; a walk's value is the running sum of its steps.
Value exponents take the log guess and its fix-ups against the powers
table. A node's count run length follows from its walk length alone, so
``s_rank`` is allocated once on the rank type and each batch fills its
own slice in place; a batch's value ranks and exponents are narrowed
before they are kept (exponents to a type that holds the table's top),
and joined once at the end.

A query gets a count estimate within one (1+e') factor and a value
estimate within another. Shannon results are folded pairwise on Python
floats with the disjoint-union rule (balanced, so the per-merge inflation
stays within the shrunken e'), Renyi results close over the power-sum ratio
directly. A query makes no numpy call at all: it is integer and float
arithmetic plus C bisections on the arrays' memoryviews, which cost no
dispatch and, past the first bisections of [a, b] among the coordinates,
touch only a few cache lines per node. ``canonical_debug`` shares the walk
and reads each node's colors and x_v back from the rows, on any index.

Guarantees are deterministic, not statistical: the Shannon answer h obeys
H <= h <= (1+eps)H + eps and the Renyi answer H_a <= h <= H_a +
eps*(alpha+1)/(alpha-1) for every query. Only unit weights are supported;
the count ladders are integer-based.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional

import numpy as np

from .core import (
    ColoredPointSet,
    EntropyKind,
    EntropySummary,
    QueryRect,
    SHANNON,
    renyi_kind,
)
from .errors import WeightsNotSupported
from .rangetree import depth_rows, refine_spans, tile

MERGE_DEPTH_C = 4  # constant in the Shannon eps shrink: eps / (4*c*loglog n)
_BATCH = 1 << 15  # walk points per ladder-building batch: about 4 MB of temporaries


def _shrink_eps_shannon(eps: float, n: int) -> float:
    loglog = math.log2(max(2.0, math.log2(max(4, n))))
    return eps / (4.0 * MERGE_DEPTH_C * max(1.0, loglog))


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


def _power_table(base: float, top: int) -> np.ndarray:
    """base**e for e in -1..top, at index e + 1."""
    return base ** np.arange(-1.0, top + 1)


def _exponents(values: np.ndarray, powers: np.ndarray, log_base: float) -> np.ndarray:
    """The least e >= 0 with powers[e + 1] >= v for each value v > 0 (int64):
    a log guess, fixed up by at most four steps either way against the
    table, which must reach past the largest guess by five steps."""
    e = np.ceil(np.log(values) / log_base - 1e-12).astype(np.int64)
    np.maximum(e, 0, out=e)
    for _ in range(4):
        over = powers[e + 1] < values
        if not over.any():
            break
        e[over] += 1
    for _ in range(4):
        under = (e > 0) & (powers[e] >= values)
        if not under.any():
            break
        e[under] -= 1
    return e


def _count_exponents(n: int, powers: np.ndarray, log_base: float) -> np.ndarray:
    """``_exponents`` of the counts 0..n as a table (entry 0 unused)."""
    return np.concatenate(([0], _exponents(np.arange(1.0, n + 1), powers, log_base)))


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` (nonnegative integers) on the narrowest unsigned type that holds its largest."""
    return a.astype(np.min_scalar_type(int(a.max()) if len(a) else 0))


class Sweep1DIndex:
    """Shared engine for the Shannon and Renyi variants (see build_*)."""

    STORED = ("coords", "colors", "weights", "mx", "my", "mcolor", "ucoords", "rows",
              "node_keys", "gid_slots", "s_rank", "count_exps", "h_rank", "h_exp",
              "ladder_first")   # a file holds the points' arrays, then these; see to_arrays

    def __init__(self, pts: ColoredPointSet, eps: float, alpha: Optional[float] = None):
        if pts.dim != 1:
            raise ValueError("sweep index requires 1-D points")
        if len(pts) and not np.all(pts.weights == 1.0):
            raise WeightsNotSupported("sweep structures are count-based; weights must be 1")
        self.pts = pts
        self._set_params(eps, alpha)
        n = self.n

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

        depths = math.ceil(math.log2(n)) + 1 if n else 0
        rows = []
        keys, slots = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        stale = np.zeros(0, dtype=np.int64)
        for depth, (row, starts) in enumerate(
                depth_rows(np.arange(n), self.my, np.zeros(1, dtype=np.int64), depths)):
            rows.append(row)
            ends = np.append(starts[1:], n)
            lo, hi = self._qualifying_spans(row, starts, stale)
            keys.append(self._node_key(depth, lo, hi))
            span = starts.searchsorted(lo, side="right") - 1  # each node's primary span [p, e)
            p, e = starts[span], ends[span]
            slots.append(2 * n * depth + np.where(hi - lo == 1, p + lo, e + (lo + hi) // 2))
            stale = starts[ends - starts == 1]
        self.rows = np.array(rows, dtype=np.min_scalar_type(max(n - 1, 0))).reshape(depths, n)
        self.node_keys, gids = np.unique(np.concatenate(keys), return_inverse=True)
        self.gid_slots = np.full(2 * n * depths, -1, dtype=np.int32)
        self.gid_slots[np.concatenate(slots)] = gids
        self._build_ladders(cx, ccol)
        self._derive()

    def _set_params(self, eps: float, alpha: Optional[float]) -> None:
        """eps and alpha, and the scalars that follow from them and n."""
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        self.eps = float(eps)
        self.alpha = None if alpha is None else float(alpha)
        self.kind: EntropyKind = SHANNON if alpha is None else renyi_kind(alpha)
        self.n = len(self.pts)
        if alpha is None:
            self.eps_prime = _shrink_eps_shannon(eps, self.n)
        else:
            self.eps_prime = eps / 2.0
        self._base = 1.0 + self.eps_prime
        self._log_base = math.log(self._base)

    def _derive(self) -> None:
        """The powers table, up to the largest stored exponent, and the
        y-rank of every row entry, on the narrowest type that holds U: on
        build and on load."""
        top = max((int(a.max()) for a in (self.count_exps, self.h_exp) if len(a)), default=0)
        self._powers = _power_table(self._base, top)
        y_rank = np.where(np.isneginf(self.my), 0, self.ucoords.searchsorted(self.my) + 1)
        self.y_rank = y_rank.astype(np.min_scalar_type(len(self.ucoords)))[self.rows.ravel()]

    def to_arrays(self) -> tuple[dict, dict]:
        """The arrays and scalars an index file holds: the points, the
        mapped points, the tree and the ladders (``STORED``), eps and
        alpha; :meth:`from_arrays` derives the rest."""
        arrays, scalars = self.pts.to_arrays()
        arrays.update((name, getattr(self, name)) for name in self.STORED[3:])
        return arrays, {**scalars, "eps": self.eps, "alpha": self.alpha}

    @classmethod
    def from_arrays(cls, arrays: dict, scalars: dict) -> "Sweep1DIndex":
        index = cls.__new__(cls)
        index.pts = ColoredPointSet.from_arrays(arrays, scalars)
        index._set_params(scalars["eps"], scalars["alpha"])
        for name in cls.STORED[3:]:
            setattr(index, name, arrays[name])
        index._derive()
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

    def _qualifying_spans(self, row: np.ndarray, starts: np.ndarray,
                          stale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row slices [lo, hi) of the secondary nodes in one depth's row
        whose colors are distinct, leaving out the one-point primary spans
        in ``stale``, which are nodes of an earlier depth."""
        n = self.n
        colors = self.mcolor[row]
        by_color = np.argsort(colors, kind="stable")
        same = colors[by_color[1:]] == colors[by_color[:-1]]
        nxt = np.full(n, n)  # next position of the same color in the row
        nxt[by_color[:-1][same]] = by_color[1:][same]
        lo, hi = [], []
        while True:
            ends = np.append(starts[1:], n)
            ok = np.minimum.reduceat(nxt, starts) >= ends
            lo.append(starts[ok])
            hi.append(ends[ok])
            if len(starts) == n:
                break
            starts = refine_spans(starts, n)
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        keep = (hi - lo > 1) | ~np.isin(lo, stale)
        return lo[keep], hi[keep]

    def _node(self, gid: int) -> tuple[np.ndarray, float]:
        """Colors (in row order) and x_v of qualifying node ``gid``."""
        depth, start, stop = self._spans(gid)
        ids = self.rows[depth, start:stop]
        return self.mcolor[ids], float(self.mx[ids].min())

    def _build_ladders(self, cx: np.ndarray, ccol: np.ndarray) -> None:
        """Both ladders of every qualifying node, in gid order, built for
        batches of nodes whose walks total at most ``_BATCH`` points."""
        crank = self.ucoords.searchsorted(cx, side="right")
        ckey = ccol * self._stride + crank  # sorted: colors, then coordinates
        _, start, stop = self._spans(slice(None))
        walk_len = [np.zeros(0, dtype=np.int64)]
        for g0, g1 in _batches(stop - start):
            seg, lo, hi, _ = self._walk_runs(g0, g1, ckey)
            walk_len.append(np.bincount(seg, hi - lo, minlength=g1 - g0).astype(np.int64))
        walk_len = np.concatenate(walk_len)
        # tables over the integer counts 0..n that walks look up: each
        # count's place in count_exps, k log2 k (Shannon) or k^alpha (Renyi),
        # and the latter's steps f(k) - f(k-1)
        n = self.n
        k = np.arange(n + 1, dtype=np.float64)
        if self.alpha is None:
            f = np.zeros(n + 1)
            f[1:] = k[1:] * np.log2(k[1:])
        else:
            f = k**self.alpha
        # no count or value exceeds max(n, f(n)), so neither does a log guess
        top = math.ceil(math.log(max(n, f[-1], 1.0)) / self._log_base) + 6
        powers = _power_table(self._base, top)
        # count 0's entry is unused, and equal to count 1's
        count_exps, count_place = np.unique(_count_exponents(n, powers, self._log_base),
                                            return_inverse=True)
        exp_type = np.min_scalar_type(top)
        tables = (count_place, f, np.diff(f, prepend=0.0), powers, exp_type)
        # the count pool is allocated once, and each batch fills its slice
        s_len = count_place[walk_len] + 1
        s_first = np.concatenate(([0], np.cumsum(s_len)))
        rank_type = np.min_scalar_type(len(self.ucoords))
        self.s_rank = np.empty(s_first[-1], dtype=rank_type)
        parts = [(np.zeros(0, dtype=rank_type), np.zeros(0, dtype=np.int64),
                  np.zeros(0, dtype=exp_type))]
        parts += [self._ladders(g0, g1, ckey, crank, tables,
                                self.s_rank[s_first[g0]:s_first[g1]])
                  for g0, g1 in _batches(walk_len)]
        h_rank, h_len, h_exp = map(np.concatenate, zip(*parts))
        self.count_exps = _narrow(count_exps)
        self.h_rank, self.h_exp = h_rank, _narrow(h_exp)
        # where each node's run starts in the count pool (even entries) and
        # the value pool (odd entries), side by side so that one cache line
        # serves both lookups of a node
        first = np.zeros((len(s_len) + 1, 2), dtype=np.int64)
        np.cumsum(np.stack([s_len, h_len], axis=1), axis=0, out=first[1:])
        self.ladder_first = _narrow(first.ravel())

    def _walk_runs(self, g0: int, g1: int, ckey: np.ndarray):
        """Walk runs of nodes g0..g1-1. For each (node, color), in gid and
        then row order: the node's offset in the batch, and the run [lo, hi)
        of that color's points at or after x_v in the color-sorted order.
        Also each node's number of colors."""
        stride = self._stride
        depth, start, stop = self._spans(slice(g0, g1))
        sizes = stop - start
        seg = np.repeat(np.arange(g1 - g0), sizes)
        ids = self.rows[depth[seg], _ranges(start, sizes)]
        colors = self.mcolor[ids]
        x_v = np.minimum.reduceat(self.mx[ids], np.cumsum(sizes) - sizes)
        lo = ckey.searchsorted(colors * stride + self.ucoords.searchsorted(x_v, "right")[seg])
        hi = ckey.searchsorted((colors + 1) * stride)
        return seg, lo, hi, sizes

    def _ladders(self, g0: int, g1: int, ckey: np.ndarray, crank: np.ndarray, tables,
                 s_rank: np.ndarray):
        """Ladders of nodes g0..g1-1: writes their count jumps' ranks into
        ``s_rank``, their slice of the count pool, and returns the value
        pool's ranks (on the pool's type), run lengths and exponents.

        A node's walk is its colors' points at or after x_v, in coordinate
        order (ties in row order). Both ladders step at the last point of
        each coordinate: the count ladder at every one, the value ladder
        where the value is positive, for nodes of two or more colors under
        Shannon. ``tables`` holds each count's place in ``count_exps``, f
        (k log2 k or k^alpha) and f's steps f(k) - f(k-1), each over the
        counts 0..n, the powers table and a type that holds every exponent."""
        count_place, f, f_step, powers, exp_type = tables
        seg, lo, hi, sizes = self._walk_runs(g0, g1, ckey)
        lens = hi - lo
        idx = _ranges(lo, lens)
        wseg = np.repeat(seg, lens)
        stride = self._stride
        order = np.argsort(wseg * stride + crank[idx], kind="stable")
        # a point's occurrence rank within its color is its place in its run
        nc = _ranges(np.ones_like(lens), lens)[order]
        idx, wseg = idx[order], wseg[order]
        walk_x = crank[idx]
        m = len(idx)
        walk_len = np.bincount(seg, lens, minlength=g1 - g0).astype(np.int64)
        first = np.cumsum(walk_len) - walk_len
        t_pref = _segment_cumsum(f_step[nc], first, walk_len)
        totals = np.arange(m) - np.repeat(first, walk_len) + 1
        group_end = np.ones(m, dtype=bool)
        group_end[:-1] = (walk_x[1:] != walk_x[:-1]) | (wseg[1:] != wseg[:-1])
        g_seg, g_x, g_tot = wseg[group_end], walk_x[group_end], totals[group_end]
        if self.alpha is None:
            g_val = f[g_tot] - t_pref[group_end]
            positive = (g_val > 0.0) & (sizes[g_seg] > 1)
        else:
            g_val = t_pref[group_end]
            positive = g_val > 0.0
        # a group's rank, once per count exponent it reaches first
        place = count_place[g_tot]
        before = np.roll(place, 1)
        before[np.diff(g_seg, prepend=-1) != 0] = -1
        s_rank[:] = np.repeat(g_x, place - before)
        # a value jump where the exponent rises within the node
        segs, xs = g_seg[positive], g_x[positive]
        e = _exponents(g_val[positive], powers, self._log_base)
        keep = np.ones(len(e), dtype=bool)
        keep[1:] = (e[1:] > e[:-1]) | (segs[1:] != segs[:-1])
        return (xs[keep].astype(s_rank.dtype), np.bincount(segs[keep], minlength=g1 - g0),
                e[keep].astype(exp_type))

    # -- canonical node collection ---------------------------------------------

    def _canonical_gids(self, a: float, b: float, stats: Optional[dict] = None) -> list[int]:
        """Gids of the canonical nodes of [a, b], left to right."""
        n, mx = self.n, self.mx.data
        ilo, ihi = bisect.bisect_left(mx, a), bisect.bisect_right(mx, b)
        r_a = bisect.bisect_left(self.ucoords.data, a) + 1  # y < a iff y-rank < r_a
        prim = tile(0, n, ilo, ihi) if ilo < ihi else []
        y_rank, slots = self.y_rank.data, self.gid_slots.data
        gids: list[int] = []
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
                slot = p + lo if stop - lo == 1 else e + (lo + stop) // 2
                gids.append(slots[2 * off + slot])
                lo = stop
        if stats is not None:
            stats["primary_nodes"] = len(prim)
            stats["canonical_nodes"] = len(gids)
        if -1 in gids:
            raise AssertionError("canonical node with duplicated colors")
        return gids

    # -- ladder lookups ----------------------------------------------------------

    def _node_exponents(self, gids: list[int], b: float):
        """Per node: the exponents of the rightmost count and value jumps at
        or below b (None for a value ladder without one), each bisected
        within the node's own run of its pool."""
        s_rank, h_rank, h_exp, count_exps, first = (a.data for a in (
            self.s_rank, self.h_rank, self.h_exp, self.count_exps, self.ladder_first))
        rank = bisect.bisect_right(self.ucoords.data, b)
        l_s, l_h = [], []
        for gid in gids:
            j = 2 * gid
            lo = first[j]
            i = bisect.bisect_right(s_rank, rank, lo, first[j + 2])
            if i == lo:
                raise AssertionError("ladder probed before its first jump")
            l_s.append(count_exps[i - lo - 1])
            lo = first[j + 1]
            i = bisect.bisect_right(h_rank, rank, lo, first[j + 3])
            l_h.append(h_exp[i - 1] if i > lo else None)
        return l_s, l_h

    # -- queries -------------------------------------------------------------------

    def query(self, rect: QueryRect, stats: Optional[dict] = None) -> EntropySummary:
        """Estimate of the entropy of the points in ``rect``. ``stats``
        receives ``primary_nodes`` and ``canonical_nodes``."""
        if rect.dim != 1:
            raise ValueError("query rect must be 1-D")
        a, b = rect.lo[0], rect.hi[0]
        gids = self._canonical_gids(a, b, stats)
        if not gids:
            return EntropySummary.empty(self.kind)
        l_s, l_h = self._node_exponents(gids, b)
        pw = self._powers.data  # pw[e + 1] = base**e
        hi_w = [pw[l + 1] for l in l_s]
        if self.alpha is None:
            lo_w = [pw[l] for l in l_s]
            h_v = [0.0 if l is None else pw[l + 1] / lo for l, lo in zip(l_h, lo_w)]
            count, value = fold_shannon(h_v, hi_w, lo_w)
            return EntropySummary(SHANNON, count, value)
        if None in l_h:
            raise AssertionError("value ladder probed before its first jump")
        count = sum(hi_w)
        den = sum(pw[l] for l in l_h)
        value = math.log2(count**self.alpha / den) / (self.alpha - 1.0)
        return EntropySummary(self.kind, count, value)

    # -- introspection ----------------------------------------------------------

    def canonical_debug(self, rect: QueryRect) -> list[dict]:
        """Per-canonical-node view of a query, for invariant checks."""
        a, b = rect.lo[0], rect.hi[0]
        gids = self._canonical_gids(a, b)
        if not gids:
            return []
        l_s, l_h = self._node_exponents(gids, b)
        pw = self._powers.data
        out = []
        for gid, ls, lh in zip(gids, l_s, l_h):
            colors, x_v = self._node(gid)
            out.append(dict(
                colors=tuple(colors.tolist()), x_v=x_v, gid=gid, l_s=ls, l_h=lh,
                count_hi=pw[ls + 1], count_lo=pw[ls],
                estimate=0.0 if lh is None else pw[lh + 1] / pw[ls],
            ))
        return out

    def space_stats(self) -> dict:
        arrays = (self.mx, self.my, self.mcolor, self.ucoords, self.rows, self.y_rank,
                  self.gid_slots, self.node_keys, self.s_rank, self.h_rank, self.h_exp,
                  self.count_exps, self.ladder_first, self._powers)
        return {
            "points": self.n,
            "eps": self.eps,
            "eps_prime": self.eps_prime,
            "ladder_entries": int(len(self.s_rank) + len(self.h_rank)),
            "qualifying_nodes": len(self.node_keys),
            "bytes": int(sum(a.nbytes for a in arrays)),
        }


def fold_shannon(h: list[float], hi: list[float], lo: list[float]) -> tuple[float, float]:
    """(count, entropy) of disjoint parts with count estimates in [lo, hi]
    and entropy estimates h, merged pairwise with the disjoint-union rule.
    Each round pairs neighbours left to right and carries an odd last part
    over, so the merge depth is ceil(log2 |V|), as the eps budget assumes."""
    log2 = math.log2
    while len(h) > 1:
        nh, nhi, nlo = [], [], []
        for i in range(1, len(h), 2):
            a_h, b_h, a_hi, b_hi, a_lo, b_lo = h[i - 1], h[i], hi[i - 1], hi[i], lo[i - 1], lo[i]
            s_hi = a_hi + b_hi
            nh.append((a_hi * a_h + b_hi * b_h
                       + a_hi * log2(s_hi / a_lo) + b_hi * log2(s_hi / b_lo)) / (a_lo + b_lo))
            nhi.append(s_hi)
            nlo.append(a_lo + b_lo)
        if len(h) % 2:
            nh.append(h[-1])
            nhi.append(hi[-1])
            nlo.append(lo[-1])
        h, hi, lo = nh, nhi, nlo
    return hi[0], h[0]


def build_shannon(pts: ColoredPointSet, eps: float) -> Sweep1DIndex:
    """Deterministic (1+eps)-multiplicative plus eps-additive Shannon index."""
    return Sweep1DIndex(pts, eps, alpha=None)


def build_renyi(pts: ColoredPointSet, eps: float, alpha: float) -> Sweep1DIndex:
    """Deterministic eps*(alpha+1)/(alpha-1)-additive Renyi index."""
    kind = renyi_kind(alpha)  # validates alpha > 1
    assert kind.alpha is not None
    return Sweep1DIndex(pts, eps, alpha=alpha)


def shannon_bound_holds(truth: float, estimate: float, eps: float, slack: float = 1e-9) -> bool:
    return truth - slack <= estimate <= (1.0 + eps) * truth + eps + slack


def renyi_bound_holds(truth: float, estimate: float, eps: float, alpha: float,
                      slack: float = 1e-9) -> bool:
    return truth - slack <= estimate <= truth + eps * (alpha + 1.0) / (alpha - 1.0) + slack
