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
position there. No node objects exist; the canonical walk is iterative.

A qualifying node v knows its color set U_v (its slice's colors) and the
smallest mapped x-coordinate x_v. For the original points of those colors
at coordinates >= x_v, two monotone step functions of the right endpoint b
are precomputed on a (1+e')-geometric ladder:

  * the running point count |P(U_v) cap [x_v, b]|, and
  * F = count * H (Shannon) or G = sum of per-color count^alpha (Renyi),

stored as jumps (x, exponent): the int32 exponent is minimal with
(1+e')^exponent >= value, and a jump appears only where it increases. Tiny
eps needs the width: n = 300 at eps = 0.002 reaches exponents above 10^5.
Every jump sits on a point, so its x is stored as its rank, the number of
distinct coordinates <= x. Each ladder pool is one sorted int64 key array
``gid * (U + 1) + rank`` over the U distinct coordinates, beside its
exponents, so the rightmost jump <= b of every canonical node is one
``searchsorted`` call per pool.

A query gets a count estimate within one (1+e') factor and a value
estimate within another; Shannon results are folded pairwise with the
disjoint-union rule (balanced, so the per-merge inflation stays within the
shrunken e'), Renyi results close over the power-sum ratio directly.
``canonical_debug`` reads each node's colors and x_v back from the rows,
on any index.

Guarantees are deterministic, not statistical: the Shannon answer h obeys
H <= h <= (1+eps)H + eps and the Renyi answer H_a <= h <= H_a +
eps*(alpha+1)/(alpha-1) for every query. Only unit weights are supported;
the count ladders are integer-based.
"""

from __future__ import annotations

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
from .rangetree import depth_rows, refine_spans

MERGE_DEPTH_C = 4  # constant in the Shannon eps shrink: eps / (4*c*loglog n)
_BATCH = 1 << 18  # walk points per ladder-building batch, to bound its memory


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


class Sweep1DIndex:
    """Shared engine for the Shannon and Renyi variants (see build_*)."""

    def __init__(self, pts: ColoredPointSet, eps: float, alpha: Optional[float] = None):
        if pts.dim != 1:
            raise ValueError("sweep index requires 1-D points")
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        if len(pts) and not np.all(pts.weights == 1.0):
            raise WeightsNotSupported("sweep structures are count-based; weights must be 1")
        self.pts = pts
        self.eps = float(eps)
        self.alpha = None if alpha is None else float(alpha)
        self.kind: EntropyKind = SHANNON if alpha is None else renyi_kind(alpha)
        n = len(pts)
        self.n = n
        if alpha is None:
            self.eps_prime = _shrink_eps_shannon(eps, n)
        else:
            self.eps_prime = eps / 2.0
        self._base = 1.0 + self.eps_prime
        self._log_base = math.log(self._base)

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
        self._stride = len(self.ucoords) + 1

        depths = math.ceil(math.log2(n)) + 1 if n else 0
        rows, keys = [], [np.zeros(0, dtype=np.int64)]
        stale = np.zeros(0, dtype=np.int64)
        for depth, (row, starts) in enumerate(
                depth_rows(np.arange(n), self.my, np.zeros(1, dtype=np.int64), depths)):
            rows.append(row)
            keys.append(self._qualifying_keys(depth, row, starts, stale))
            stale = starts[np.diff(np.append(starts, n)) == 1]
        self.rows = np.array(rows, dtype=np.int64).reshape(depths, n)
        self.ys = self.my[self.rows]
        self.node_keys = np.unique(np.concatenate(keys))
        self._build_ladders(cx, ccol)

    # -- construction ---------------------------------------------------------

    def _node_key(self, depth, start, stop):
        return (depth * (self.n + 1) + start) * (self.n + 1) + stop

    def _spans(self, gids):
        """Primary depth and row slice [start, stop) of the given nodes."""
        rest, stop = np.divmod(self.node_keys[gids], self.n + 1)
        depth, start = np.divmod(rest, self.n + 1)
        return depth, start, stop

    def _qualifying_keys(self, depth: int, row: np.ndarray, starts: np.ndarray,
                         stale: np.ndarray) -> np.ndarray:
        """Keys of the secondary nodes in one depth's row whose colors are
        distinct, leaving out the one-point primary spans in ``stale``,
        which are nodes of an earlier depth."""
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
        return self._node_key(depth, lo[keep], hi[keep])

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
        parts = [self._ladders(g0, g1, ckey, crank)
                 for g0, g1 in _batches(np.concatenate(walk_len))]
        if not parts:
            parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32)) * 2]
        self.s_keys, self.s_exp, self.h_keys, self.h_exp = map(np.concatenate, zip(*parts))

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

    def _ladders(self, g0: int, g1: int, ckey: np.ndarray, crank: np.ndarray):
        """Count and value ladders (keys, exponents) of nodes g0..g1-1.

        A node's walk is its colors' points at or after x_v, in coordinate
        order (ties in row order). Both ladders step at the last point of
        each coordinate: the count ladder at every one, the value ladder
        where the value is positive, for nodes of two or more colors under
        Shannon."""
        seg, lo, hi, sizes = self._walk_runs(g0, g1, ckey)
        lens = hi - lo
        idx = _ranges(lo, lens)
        wseg = np.repeat(seg, lens)
        order = np.lexsort((crank[idx], wseg))
        # a point's occurrence rank within its color is its place in its run
        nc = _ranges(np.ones_like(lens), lens)[order].astype(np.float64)
        idx, wseg = idx[order], wseg[order]
        walk_x = crank[idx]
        m = len(idx)
        walk_len = np.bincount(seg, lens, minlength=g1 - g0).astype(np.int64)
        first = np.cumsum(walk_len) - walk_len
        shannon = self.alpha is None
        if shannon:
            inc = nc * np.log2(nc)
            repeat = nc > 1.0
            prev = nc[repeat] - 1.0
            inc[repeat] -= prev * np.log2(prev)
        else:
            inc = nc**self.alpha - (nc - 1.0) ** self.alpha
        t_pref = _segment_cumsum(inc, first, walk_len)
        totals = np.arange(m) - np.repeat(first, walk_len) + 1.0
        group_end = np.ones(m, dtype=bool)
        group_end[:-1] = (walk_x[1:] != walk_x[:-1]) | (wseg[1:] != wseg[:-1])
        g_seg, g_x, g_tot = wseg[group_end], walk_x[group_end], totals[group_end]
        if shannon:
            g_val = g_tot * np.log2(g_tot) - t_pref[group_end]
            g_val[g_tot <= 1] = 0.0
            positive = (g_val > 0.0) & (sizes[g_seg] > 1)
        else:
            g_val = t_pref[group_end]
            positive = g_val > 0.0
        base, log_base, stride = self._base, self._log_base, self._stride

        def ladder(segs: np.ndarray, xs: np.ndarray, values: np.ndarray):
            e = np.ceil(np.log(values) / log_base - 1e-12).astype(np.int64)
            np.maximum(e, 0, out=e)
            for _ in range(4):
                over = base ** e.astype(np.float64) < values
                if not over.any():
                    break
                e[over] += 1
            for _ in range(4):
                under = (e > 0) & (base ** (e - 1.0) >= values)
                if not under.any():
                    break
                e[under] -= 1
            keep = np.ones(len(e), dtype=bool)
            keep[1:] = (e[1:] > e[:-1]) | (segs[1:] != segs[:-1])
            return (g0 + segs[keep]) * stride + xs[keep], e[keep].astype(np.int32)

        return (*ladder(g_seg, g_x, g_tot),
                *ladder(g_seg[positive], g_x[positive], g_val[positive]))

    # -- canonical node collection ---------------------------------------------

    def _canonical_gids(self, a: float, b: float) -> np.ndarray:
        """Gids of the canonical nodes of [a, b], left to right."""
        ilo = int(self.mx.searchsorted(a, side="left"))
        ihi = int(self.mx.searchsorted(b, side="right"))
        keys: list[int] = []
        stack = [(0, self.n, 0)] if ilo < ihi else []
        while stack:
            lo, hi, depth = stack.pop()
            if hi <= ilo or ihi <= lo:
                continue
            if ilo <= lo and hi <= ihi:
                # the secondary nodes covering the node's points with y < a
                c = lo + int(self.ys[depth, lo:hi].searchsorted(a, side="left"))
                while lo < c:
                    mid = (lo + hi) // 2
                    if hi <= c:
                        keys.append(self._node_key(depth, lo, hi))
                        break
                    if mid <= c:
                        keys.append(self._node_key(depth, lo, mid))
                        lo = mid
                    else:
                        hi = mid
                continue
            mid = (lo + hi) // 2
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
        probe = np.array(keys, dtype=np.int64)
        gids = self.node_keys.searchsorted(probe)
        if (gids >= len(self.node_keys)).any() or (self.node_keys[gids] != probe).any():
            raise AssertionError("canonical node with duplicated colors")
        return gids

    # -- ladder lookups ----------------------------------------------------------

    def _rightmost_jumps(self, keys: np.ndarray, exps: np.ndarray, probe: np.ndarray):
        """Per probe ``gid * (U + 1) + rank``: whether node gid has a jump at
        or below the rank, and the exponent of the rightmost one (0 if none)."""
        if not len(keys):
            return np.zeros(len(probe), dtype=bool), np.zeros(len(probe), dtype=np.int32)
        i = keys.searchsorted(probe, side="right") - 1
        hit = (i >= 0) & (keys[i] // self._stride == probe // self._stride)
        return hit, np.where(hit, exps[i], 0)

    # -- queries -------------------------------------------------------------------

    def query(self, rect: QueryRect) -> EntropySummary:
        if rect.dim != 1:
            raise ValueError("query rect must be 1-D")
        a, b = rect.lo[0], rect.hi[0]
        gids = self._canonical_gids(a, b)
        if len(gids) == 0:
            return EntropySummary.empty(self.kind)
        if self.alpha is None:
            return self._query_shannon(gids, b)
        return self._query_renyi(gids, b)

    def _node_estimates(self, gids: np.ndarray, b: float):
        probe = gids * self._stride + int(self.ucoords.searchsorted(b, side="right"))
        has_s, l_s = self._rightmost_jumps(self.s_keys, self.s_exp, probe)
        if not has_s.all():
            raise AssertionError("ladder probed before its first jump")
        has_h, l_h = self._rightmost_jumps(self.h_keys, self.h_exp, probe)
        hi_w = self._base**l_s
        lo_w = self._base ** (l_s - 1)
        return l_s, l_h, has_h, hi_w, lo_w

    def _query_shannon(self, gids: np.ndarray, b: float) -> EntropySummary:
        l_s, l_h, has_h, hi_w, lo_w = self._node_estimates(gids, b)
        h_v = np.where(has_h, self._base**l_h / lo_w, 0.0)
        # balanced pairwise folds: depth log2 |V|, matching the eps budget
        while len(h_v) > 1:
            odd = len(h_v) % 2 == 1
            if odd:
                tail = (h_v[-1:], hi_w[-1:], lo_w[-1:])
                h_v, hi_w, lo_w = h_v[:-1], hi_w[:-1], lo_w[:-1]
            a_h, b_h = h_v[0::2], h_v[1::2]
            a_hi, b_hi = hi_w[0::2], hi_w[1::2]
            a_lo, b_lo = lo_w[0::2], lo_w[1::2]
            s_hi = a_hi + b_hi
            h_v = (
                a_hi * a_h + b_hi * b_h
                + a_hi * np.log2(s_hi / a_lo) + b_hi * np.log2(s_hi / b_lo)
            ) / (a_lo + b_lo)
            hi_w = s_hi
            lo_w = a_lo + b_lo
            if odd:
                h_v = np.concatenate([h_v, tail[0]])
                hi_w = np.concatenate([hi_w, tail[1]])
                lo_w = np.concatenate([lo_w, tail[2]])
        return EntropySummary(SHANNON, float(hi_w[0]), float(h_v[0]))

    def _query_renyi(self, gids: np.ndarray, b: float) -> EntropySummary:
        assert self.alpha is not None
        l_s, l_h, has_h, hi_w, _ = self._node_estimates(gids, b)
        num = float(hi_w.sum()) ** self.alpha
        den = float((self._base ** (l_h - 1)).sum())
        value = math.log2(num / den) / (self.alpha - 1.0)
        return EntropySummary(self.kind, float(hi_w.sum()), value)

    # -- introspection ----------------------------------------------------------

    def canonical_debug(self, rect: QueryRect) -> list[dict]:
        """Per-canonical-node view of a query, for invariant checks."""
        a, b = rect.lo[0], rect.hi[0]
        gids = self._canonical_gids(a, b)
        if len(gids) == 0:
            return []
        l_s, l_h, has_h, hi_w, lo_w = self._node_estimates(gids, b)
        out = []
        for i, gid in enumerate(gids.tolist()):
            colors, x_v = self._node(gid)
            out.append(dict(
                colors=tuple(colors.tolist()), x_v=x_v,
                gid=gid, l_s=int(l_s[i]), l_h=int(l_h[i]) if has_h[i] else None,
                count_hi=float(hi_w[i]), count_lo=float(lo_w[i]),
                estimate=(self._base ** int(l_h[i]) / float(lo_w[i])) if has_h[i] else 0.0,
            ))
        return out

    def space_stats(self) -> dict:
        arrays = (self.mx, self.my, self.mcolor, self.ucoords, self.rows, self.ys,
                  self.node_keys, self.s_keys, self.s_exp, self.h_keys, self.h_exp)
        return {
            "points": self.n,
            "eps": self.eps,
            "eps_prime": self.eps_prime,
            "ladder_entries": int(len(self.s_keys) + len(self.h_keys)),
            "qualifying_nodes": len(self.node_keys),
            "bytes": int(sum(a.nbytes for a in arrays)),
        }


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
