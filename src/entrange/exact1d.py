"""Exact 1-D range entropy index with an n^t / n^(1-t) tradeoff.

The points are sorted by (coordinate, input index) and cut into buckets of
at most ceil(n^t) points. For every pair of cuts the entropy of the
enclosed slice is precomputed (Shannon always, plus any requested Renyi
orders), giving a table of O(n^(2-2t)) entries.

Both build and query work on power sums: a slice is the pair (W, S) of its
mass and S = sum_c f(w_c) over its color masses (``core.power_term``), and
adding mass to color c moves S by f(after) - f(before). No color's term is
ever subtracted from a total, so no update chain cancels.

  * Build: an entry depends on the points only through each bucket's
    color masses, so row i of the table is one vectorized pass over the
    (bucket, color) groups from bucket i on: the runs of equal color and
    bucket in the ``core.ColorPrefix`` keys. A group's color mass since
    cut i after it is a difference of compensated prefix pairs, and each
    row evaluates one power term f(after) per group and kind: f(before) is
    the f(after) of the color's previous group in the row (the same float,
    as that group ends where this one starts), or 0 for the color's first
    group since cut i. The cumulative sum of f(after) - f(before) read at
    each bucket's last group gives S at every later cut, and S with W from
    the weight prefix pair turns into the stored entropy. Temporaries are
    O(groups) per row. :meth:`Exact1DIndex.row`, the entropy of every span
    from one start, runs the same pass over groups of one point.
  * Query: two ``searchsorted`` calls turn the interval into a span
    [lo, hi) of sorted positions for :meth:`Exact1DIndex.query_span`.
    Cuts are multiples of the bucket size, so integer division finds the
    maximal precomputed slice inside the span, whose S comes back from its
    stored entropy. The at most 2*ceil(n^t) fringe points fold in one batch
    into color masses, and each fringe color's mass inside the slice comes
    from the color-prefix array. Each sorted position holds its color's id
    among the D colors that occur (``ids_sorted``, narrowest unsigned type),
    the index's one color array; ``present`` maps an id back to its color.
    While D <= ``BINCOUNT_BUCKETS`` bucket sizes, at most twice the largest
    fringe, the fold is one ``bincount`` of the ids per side of the slice,
    so a span with no slice costs one ``bincount`` and one power-term sum.
    Past that bound it sorts the fringe's ids and ``reduceat``s their
    weights, at a cost that follows the fringe alone; both keep the query
    O(n^t). On a 2-vCPU host over 32,768 points (bucket size 182, bound
    728), spans of log-uniform width took a median 12.0 us by ``bincount``
    against 20.3 by sort at 256 colors, 14.7 against 21.2 at 728, 19.6
    against 20.3 at 2,048, 26.3 against 20.8 at 4,096 and 128 against 22
    at 32,768.

Duplicate coordinates need no care: queries resolve ties through the
sorted order. Precision: every mass is a difference of two compensated
prefixes (a ``core.running_sum`` pair, for the sorted weights and inside
the ``ColorPrefix``): a slice's W, each group's color mass since a row's
cut, and each fringe color's mass inside the slice. Such a difference is
accurate relative to the span's own mass, so heavy points outside a range
do not swamp the light ones in it: with 1-5 heavy points up to 1e15 over
light weights near 1, and with weights log-uniform in [1, 1e12], answers
stay within 1e-6 of brute force. A Renyi power sum over a set of positive
mass lies in [w_min^alpha * D^(1 - alpha), W^alpha] (w_min the least
positive weight, W the total), so an order for which either end leaves
the normal floats is refused: ``InvalidWeight`` on build, and the same
rule refuses such a file on load.

A table holds only its entries above the diagonal: the entry of cut pair
(a, b), a < b, with k buckets, is at a*(2k - a - 1)//2 + b - 1 of its
row-major upper triangle (``_slot``). An index file holds the points and
the tables in that layout (:meth:`Exact1DIndex.to_arrays`), and a load
keeps them as views of the file's payload, after checking that every
entry lies in [0, log2 D]. One ``_derive``, run on build and on load,
rebuilds the sorted coordinates and weights, their prefix pair, the
``ColorPrefix``, the colors that occur and the ids (from the prefix's
keys) and the cuts, and applies the Renyi rule. The coordinate order comes
from an unstable sort with ties repaired (``core.stable_order``), which
equals the stable (coordinate, input index) order.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from . import core
from .core import (
    ColorPrefix,
    ColoredPointSet,
    EntropyKind,
    EntropySummary,
    QueryRect,
    SHANNON,
    renyi_kind,
)
from .errors import InvalidWeight, OrderNotIndexed

BINCOUNT_BUCKETS = 4   # the bincount fold's bound on D, in bucket sizes; see the module docstring
TABLE_SLACK = 1e-9     # bits a loaded table entry may lie outside [0, log2 D]


class Exact1DIndex:
    STORED = ("coords", "colors", "weights", "tables")   # what a file holds; see to_arrays

    def __init__(self, pts: ColoredPointSet, t: float, orders: Sequence[float] = ()):
        self.pts = pts
        self.t = float(t)
        self.orders = tuple(sorted(set(float(a) for a in orders)))
        self._derive()
        self.tables = self._build_tables()

    def _derive(self) -> None:
        """Everything but the points and the tables, on build and on load:
        the points sorted by (coordinate, input index), their weight prefix
        pair and ``ColorPrefix``, each one's id among the colors that occur
        (read off the prefix's color-sorted keys), the cuts and the fold."""
        pts = self.pts
        if pts.dim != 1:
            raise ValueError("Exact1DIndex requires 1-D points")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {self.t}")
        self.kinds = (SHANNON,) + tuple(renyi_kind(a) for a in self.orders)
        n = len(pts)
        order = core.stable_order(pts.coords[:, 0])
        self.coords_sorted = pts.coords[order, 0]
        self.weights_sorted = pts.weights[order]
        self.wpre, self.wlo = core.running_sum(self.weights_sorted)
        self.color_prefix = ColorPrefix(pts.colors[order], self.weights_sorted)
        self.bucket_size = max(1, math.ceil(n**self.t)) if n else 1
        self.cuts = np.arange(0, n + 1, self.bucket_size, dtype=np.int64)
        if n and self.cuts[-1] != n:
            self.cuts = np.append(self.cuts, n)
        color, position = np.divmod(self.color_prefix.keys, max(n, 1))
        first = np.concatenate(([True], color[1:] != color[:-1]))[:n]
        self.present = color[first]   # the colors that occur, ascending
        D = len(self.present)
        self.ids_sorted = np.empty(n, core.color_type(D))
        self.ids_sorted[position] = np.cumsum(first) - 1
        self.fold = "bincount" if D <= BINCOUNT_BUCKETS * self.bucket_size else "sort"
        # the Renyi rule of the module docstring: both ends of the power sums'
        # range must be normal floats (2^-1022 to 2^1023)
        w_min = self.weights_sorted.min(where=self.weights_sorted > 0.0, initial=math.inf)
        for alpha in self.orders if w_min < math.inf else ():
            top = alpha * math.log2(self.wpre[-1] + self.wlo[-1])
            low = alpha * math.log2(w_min) + (1.0 - alpha) * math.log2(D)
            if top > 1023 or low < -1022:
                raise InvalidWeight(f"Renyi order {alpha} takes power sums out of float range: "
                                    f"2^{low:.0f} to 2^{top:.0f} over {D} colors")

    def to_arrays(self) -> tuple[dict, dict]:
        """The arrays and scalars an index file holds (``STORED``): the
        points, and the tables, one row per kind; :meth:`from_arrays`
        derives the rest."""
        arrays, scalars = self.pts.to_arrays()
        arrays["tables"] = np.stack(list(self.tables.values()))
        return arrays, {**scalars, "t": self.t, "orders": list(self.orders)}

    @classmethod
    def from_arrays(cls, arrays: dict, scalars: dict) -> "Exact1DIndex":
        index = cls.__new__(cls)
        index.pts = ColoredPointSet.from_arrays(arrays, scalars)
        index.t = float(scalars["t"])
        index.orders = tuple(map(float, scalars["orders"]))
        index._derive()
        k = len(index.cuts) - 1
        tables = arrays["tables"]
        if tables.dtype != np.float64 or tables.shape != (len(index.kinds), k * (k + 1) // 2):
            raise ValueError(f"tables of {tables.dtype} {tables.shape} do not fit "
                             f"{len(index.kinds)} kinds over {k} buckets")
        # no entropy of D colors lies outside [0, log2 D]; NaN fails both tests
        low, high = (tables.min(), tables.max()) if tables.size else (0.0, 0.0)
        top = math.log2(max(len(index.present), 1))
        if not (-TABLE_SLACK <= low and high <= top + TABLE_SLACK):
            raise ValueError(f"tables span [{low}, {high}] bits, outside [0, log2 "
                             f"{len(index.present)} = {top}] for the colors that occur")
        index.tables = dict(zip(index.kinds, tables))
        return index

    # -- construction --------------------------------------------------------

    def _slot(self, a: int, b: int) -> int:
        """The place of cut pair (a, b), a < b, in a table."""
        k = len(self.cuts) - 1
        return a * (2 * k - a - 1) // 2 + b - 1

    def _build_tables(self) -> dict[EntropyKind, np.ndarray]:
        k = len(self.cuts) - 1
        tables = np.empty((len(self.kinds), k * (k + 1) // 2))
        groups = _ColorGroups(self, self.bucket_size)
        bucket_first = groups.bucket.searchsorted(np.arange(k + 1))  # each bucket's first group
        for i in range(k):
            first = int(bucket_first[i])
            S = groups.power_sums(first, int(self.cuts[i]), self.kinds)
            ends = bucket_first[i + 1:] - first - 1  # each later cut's last group, row-relative
            at = self._slot(i, i + 1)
            tables[:, at:at + k - i] = S[:, ends]   # S, turned into entropy below
        lo, hi = self.cuts[np.array(np.triu_indices(k + 1, 1))]
        W = (self.wpre[hi] - self.wpre[lo]) + (self.wlo[hi] - self.wlo[lo])
        for kind, table in zip(self.kinds, tables):
            table[:] = core.entropy_from_power_sum(W, table, kind)
        return dict(zip(self.kinds, tables))

    @functools.cached_property
    def _points(self) -> "_ColorGroups":
        return _ColorGroups(self, 1)   # group p is sorted position p

    # -- queries --------------------------------------------------------------

    def row(self, i: int, kind: EntropyKind = SHANNON) -> tuple[np.ndarray, np.ndarray]:
        """Mass and entropy of the points at sorted positions [i, j) for
        j = i..n, as two arrays indexed by j - i: the table build's pass from
        position i, over groups of one point. The 1-D partitioners read span
        scores this way."""
        self._require(kind)
        W = (self.wpre[i:] - self.wpre[i]) + (self.wlo[i:] - self.wlo[i])
        S = np.concatenate(([0.0], self._points.power_sums(i, i, (kind,))[0]))
        return W, core.entropy_from_power_sum(W, S, kind)

    def query(self, rect: QueryRect, kind: EntropyKind = SHANNON,
              stats: Optional[dict] = None) -> EntropySummary:
        if rect.dim != 1:
            raise ValueError("query rect must be 1-D")
        lo = int(self.coords_sorted.searchsorted(rect.lo[0], side="left"))
        hi = int(self.coords_sorted.searchsorted(rect.hi[0], side="right"))
        return self.query_span(lo, hi, kind, stats)

    def query_span(self, i: int, j: int, kind: EntropyKind = SHANNON,
                   stats: Optional[dict] = None) -> EntropySummary:
        """Entropy of the points at sorted positions [i, j) (0 <= i, j <= n),
        the order of :meth:`row`. A partition backend scores one span here
        and every span from one start with :meth:`row`. ``stats`` receives
        ``points_in_range``, ``fringe_points``, ``core_cuts`` (the
        precomputed slice's cut pair, or None) and ``fold`` (``"bincount"``
        or ``"sort"``, or None when no fringe point was folded)."""
        self._require(kind)
        n, size, last = len(self.ids_sorted), self.bucket_size, len(self.cuts) - 1
        a, b = min(-(-i // size), last), (last if j >= n else j // size)
        W, value, core_lo, core_hi = 0.0, 0.0, i, i
        if a < b:
            core_lo, core_hi = a * size, (n if b == last else b * size)
            W = float((self.wpre[core_hi] - self.wpre[core_lo])
                      + (self.wlo[core_hi] - self.wlo[core_lo]))
            value = float(self.tables[kind][self._slot(a, b)])
        fringe_points = max(0, j - i) - (core_hi - core_lo)
        if stats is not None:
            stats.update(points_in_range=max(0, j - i), fringe_points=fringe_points,
                         core_cuts=(a, b) if a < b else None,
                         fold=self.fold if fringe_points else None)
        if not fringe_points:
            return EntropySummary(kind, W, value)
        ids, weights = self.ids_sorted, self.weights_sorted
        if self.fold == "sort":
            ids = np.concatenate((ids[i:core_lo], ids[core_hi:j]))
            weights = np.concatenate((weights[i:core_lo], weights[core_hi:j]))
            order = ids.argsort(kind="stable")   # a radix sort on uint8 and uint16
            ids = ids[order]
            starts = np.concatenate(([True], ids[1:] != ids[:-1])).nonzero()[0]
            folded, added = ids[starts], np.add.reduceat(weights[order], starts)
        elif a < b:
            # (an empty side counts on int64, so the sum is not made in place)
            added = (np.bincount(ids[i:core_lo], weights[i:core_lo], len(self.present))
                     + np.bincount(ids[core_hi:j], weights[core_hi:j], len(self.present)))
            folded = added.nonzero()[0]
            added = added[folded]
        else:
            added = np.bincount(ids[i:j], weights[i:j])   # f(0) = 0 for every absent id
        S = core.power_sum(EntropySummary(kind, W, value))
        W += float(added.sum())
        if a < b:
            inside = self.color_prefix.mass(self.present[folded], core_lo, core_hi)
            S += float((core.power_term(inside + added, kind) - core.power_term(inside, kind)).sum())
        else:
            S += float(core.power_term(added, kind).sum())
        return EntropySummary(kind, W, core.entropy_from_sums(W, S, kind))

    def _require(self, kind: EntropyKind) -> None:
        if not kind.is_shannon and kind.alpha not in self.orders:
            raise OrderNotIndexed(f"alpha={kind.alpha} not precomputed (have {self.orders})")

    # -- reporting -------------------------------------------------------------

    def space_stats(self) -> dict:
        k = len(self.cuts) - 1
        arrays = (self.coords_sorted, self.weights_sorted, self.wpre, self.wlo,
                  self.color_prefix.keys, self.color_prefix.wpre, self.color_prefix.wlo,
                  self.cuts, self.ids_sorted, self.present, *self.tables.values())
        return {
            "buckets": k,
            "bucket_size": self.bucket_size,
            "table_entries": (k + 1) * k // 2 * len(self.kinds),
            "orders": self.orders,
            "bytes": int(sum(a.nbytes for a in arrays)),
        }


class _ColorGroups:
    """The (bucket, color) groups of an index's ``ColorPrefix``: the runs of
    its keys with equal (color, position // size), in bucket-major order and
    by color within a bucket. A group keeps its bucket, its color's id (the
    index's ``ids_sorted``), the prefix pair past its last key and the place
    of its color's previous group (-1 for none). With size 1 every group is
    one point."""

    __slots__ = ("cp", "present", "bucket", "dense", "end_hi", "end_lo", "prev")

    def __init__(self, index: Exact1DIndex, size: int):
        cp = self.cp = index.color_prefix
        self.present = index.present
        position = cp.keys % max(cp.n, 1)
        dense, bucket = index.ids_sorted[position], position // size
        change = (dense[1:] != dense[:-1]) | (bucket[1:] != bucket[:-1])
        starts = np.concatenate(([True], change))[:cp.n].nonzero()[0]
        dense, bucket = dense[starts], bucket[starts]
        new_color = np.concatenate(([True], dense[1:] != dense[:-1]))[:len(starts)]
        order = np.argsort(bucket, kind="stable")
        self.bucket = bucket[order]
        self.dense = dense[order].astype(np.intp)   # each row gathers by it
        ends = np.append(starts[1:], cp.n)[order]
        self.end_hi, self.end_lo = cp.wpre[ends], cp.wlo[ends]
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        self.prev = np.where(new_color, -1, np.roll(place, 1))[order]

    def power_sums(self, first: int, start: int, kinds: Sequence[EntropyKind]) -> np.ndarray:
        """S over [start, the end of each group), one row per kind, for the
        groups from ``first`` on, which must lie at or after ``start``: the
        running sum of the groups' f(after) - f(before).

        A group's color mass since start after it is a pair difference from
        the prefix pair at the color's first key at or after start. Its mass
        before it is the mass after the color's previous group, bit for bit
        (that group ends where it starts), or exactly 0 when there is no such
        group since start; so f(before) is read from f(after), held over all
        groups with zeros before ``first`` and in one last slot."""
        cp = self.cp
        at = cp.keys.searchsorted(self.present * cp.n + start)
        dense = self.dense[first:]
        after = ((self.end_hi[first:] - cp.wpre[at][dense])
                 + (self.end_lo[first:] - cp.wlo[at][dense]))
        prev = self.prev[first:]
        f = np.zeros(len(self.prev) + 1)
        steps = np.empty((len(kinds), len(after)))
        for step, kind in zip(steps, kinds):
            f[first:-1] = core.power_term(after, kind)
            np.subtract(f[first:-1], f[prev], out=step)
        return np.cumsum(steps, axis=1)
