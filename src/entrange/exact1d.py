"""Exact 1-D range entropy index with an n^t / n^(1-t) tradeoff.

The points are sorted by (coordinate, input index) and cut into buckets of
at most ceil(n^t) points. Each sorted position holds its color's id among
the D colors that occur (``ids_sorted``, narrowest unsigned type), the
index's one color array; ``present`` maps an id back to its color. A set
of points is the pair (W, S) of its mass and S = sum_c f(w_c) over its
color masses (``core.power_term``); no color's term is ever subtracted
from a total, so no update chain cancels.

A query's two C ``bisect`` calls on the sorted coordinates give a span
[lo, hi) of sorted positions for :meth:`Exact1DIndex.query_span`, which
reads its scalars as Python floats through memoryviews made on the first
query (``_views``, in no pickle or copy): W is one difference of the weight
prefix pair. Cuts are multiples of the bucket size, so integer division
finds the maximal slice between cuts inside the span, around which lie at
most 2*ceil(n^t) fringe points. Two regimes (``fold``) keep it O(n^t):

  * bincount, while D <= ``BINCOUNT_BUCKETS`` bucket sizes: S is
    ``core.power_total`` over the span's D color masses, one ``bincount`` of
    the ids per side of the slice plus, inside it, one difference of two
    rows of ``cut_prefix`` (the ``ColorPrefix`` pair at every cut for every
    color, derived on the first span with a slice and never stored, in
    (k+1) * 2 * D * 8 <= 64n + 128*ceil(n^t) bytes). A span that is exactly
    a slice takes the same fold, so such an index holds no tables.
  * sort, past that bound: the entropy of every pair of cuts is
    precomputed for Shannon and each requested Renyi order, O(n^(2-2t))
    entries per kind, and a span that is exactly a slice is one table
    read. Otherwise the fringe's ids are sorted and its weights summed by
    ``reduceat``, ``ColorPrefix.mass`` finds their colors' masses inside
    the slice, and the slice's S, rebuilt from its entry, moves by each
    one's f(after) - f(before), at a cost that follows the fringe.

A table's row i is one vectorized pass over the (bucket, color) groups from
bucket i on (the runs of equal color and bucket in the ``ColorPrefix``
keys): a group's color mass since cut i is a difference of compensated
prefix pairs, its f(before) is the f(after) of its color's previous group
in the row (the same float) or 0, and the cumulative sum of f(after) -
f(before) at each bucket's last group is S at every later cut.
:meth:`Exact1DIndex.row`, every span from one start, runs the same pass
over groups of one point. A table holds only its entries above the
diagonal, row-major: cut pair (a, b), a < b, of k buckets is at
a*(2k - a - 1)//2 + b - 1 (``_slot``). An index file holds the points and
the tables (:meth:`Exact1DIndex.to_arrays`; of no entries in the bincount
regime), and a load keeps the tables as views of its payload, after
checking that every entry lies in [0, log2 D]. One ``_derive``, on build
and load, rebuilds the rest: the sorted coordinates (by an unstable sort
with ties repaired, ``core.stable_order``) and weights, their prefix pair,
the colors that occur (one ``bincount``) and the ids (one lookup-table
gather), the cuts and the regime. The ``ColorPrefix`` of the sorted colors
(``color_prefix``) is derived on first use, by ``row`` and the sort
regime's build and fold: a bincount-regime build or load makes none, and
its ``cut_prefix`` is read off a prefix made for it and dropped.

Duplicate coordinates need no care: queries resolve ties through the
sorted order. Every mass is a difference of two compensated prefixes (a
``core.running_sum`` pair), accurate relative to the span's own mass: with
1-5 heavy points up to 1e15 over light weights near 1, and with weights
log-uniform in [1, 1e12], answers stay within 1e-6 of brute force. A Renyi
power sum over a set of positive mass lies in [w_min^alpha * D^(1 - alpha),
W^alpha] (w_min the least positive weight, W the total), so an order for
which either end leaves the normal floats is refused: ``InvalidWeight`` on
build, and the same rule refuses such a file on load.
"""

from __future__ import annotations

import bisect
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
    HeldViews,
    QueryRect,
    SHANNON,
    renyi_kind,
)
from .errors import InvalidWeight, OrderNotIndexed

BINCOUNT_BUCKETS = 4   # the bincount fold's bound on D, in bucket sizes; see the module docstring
TABLE_SLACK = 1e-9     # bits a loaded table entry may lie outside [0, log2 D]


class Exact1DIndex(HeldViews):
    STORED = ("coords", "colors", "weights", "tables")   # what a file holds; see to_arrays

    def __init__(self, pts: ColoredPointSet, t: float, orders: Sequence[float] = ()):
        self.pts = pts
        self.t = float(t)
        self.orders = tuple(sorted(set(float(a) for a in orders)))
        self._derive()
        # the bincount fold reads no table entry, so it holds tables of none
        self.tables = (self._build_tables() if self.fold == "sort"
                       else dict.fromkeys(self.kinds, np.empty(0)))

    def _derive(self) -> None:
        """Everything but the points and the tables, on build and on load:
        the points sorted by (coordinate, input index), their weight prefix
        pair, the colors that occur and each one's id among them, the cuts
        and the fold."""
        pts = self.pts
        if pts.dim != 1:
            raise ValueError("Exact1DIndex requires 1-D points")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {self.t}")
        self.kinds = (SHANNON,) + tuple(renyi_kind(a) for a in self.orders)
        n = len(pts)
        order, self.coords_sorted = core.stable_order(pts.coords[:, 0])
        self.weights_sorted = pts.weights[order]
        self.wpre, self.wlo = core.running_sum(self.weights_sorted)
        self.bucket_size = max(1, math.ceil(n**self.t)) if n else 1
        self.cuts = np.arange(0, n + 1, self.bucket_size, dtype=np.int64)
        if n and self.cuts[-1] != n:
            self.cuts = np.append(self.cuts, n)
        self.present, ids = _color_ids(pts.colors, pts.num_colors)
        self.ids_sorted = ids[order]
        D = len(self.present)
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
        points, and the tables, one row per kind (of no entries in the
        bincount regime); :meth:`from_arrays` derives the rest."""
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
        entries = k * (k + 1) // 2 if index.fold == "sort" else 0
        if (tables.dtype.newbyteorder("=") != np.float64
                or tables.shape != (len(index.kinds), entries)):
            raise ValueError(f"tables of {tables.dtype} {tables.shape} do not fit "
                             f"{len(index.kinds)} kinds over {k} buckets in the "
                             f"{index.fold} regime")
        tables = tables.astype(np.float64, copy=False)   # native, as a memoryview needs
        if index.fold == "sort":
            # no entropy of D colors lies outside [0, log2 D]; NaN fails both tests
            low, high, top = tables.min(), tables.max(), math.log2(len(index.present))
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
    def color_prefix(self) -> ColorPrefix:
        """The ``ColorPrefix`` of the sorted points' colors, derived on first
        use: by :meth:`row` and by the sort regime's build and fold."""
        return ColorPrefix(self.present[self.ids_sorted], self.weights_sorted)

    @functools.cached_property
    def _points(self) -> "_ColorGroups":
        return _ColorGroups(self, 1)   # group p is sorted position p

    @functools.cached_property
    def cut_prefix(self) -> np.ndarray:
        """The ``ColorPrefix`` pair at every cut for every color that occurs,
        as one (k+1) x 2 x D array: entry [a, :, d] is the pair at the first
        key of color ``present[d]`` at or after cut a, where
        ``ColorPrefix.mass`` searches. Derived on the first ``bincount`` fold
        of a span with a slice, off ``color_prefix`` if the index holds it
        and otherwise off one made for it and dropped: the regime's queries
        read these pairs alone, and need not hold the prefix's 24n bytes."""
        # the property's function makes a prefix without storing it
        cp = vars(self).get("color_prefix") or Exact1DIndex.color_prefix.func(self)
        at = cp.keys.searchsorted(self.present * cp.n + self.cuts[:, None])
        return np.stack((cp.wpre[at], cp.wlo[at]), axis=1)

    @functools.cached_property
    def _views(self) -> tuple:
        """Memoryviews of what a query reads as Python scalars, made on the
        first query: the sorted coordinates, the weight prefix pair and each
        kind's table."""
        return (self.coords_sorted.data, self.wpre.data, self.wlo.data,
                {kind: table.data for kind, table in self.tables.items()})

    # -- queries --------------------------------------------------------------

    def row(self, i: int, kind: EntropyKind = SHANNON) -> tuple[np.ndarray, np.ndarray]:
        """Mass and entropy of the points at sorted positions [i, j) for
        j = i..n, as two arrays indexed by j - i: a table row's grouped pass
        from position i, over groups of one point. The 1-D partitioners read
        span scores this way."""
        self._require(kind)
        W = (self.wpre[i:] - self.wpre[i]) + (self.wlo[i:] - self.wlo[i])
        S = np.concatenate(([0.0], self._points.power_sums(i, i, (kind,))[0]))
        return W, core.entropy_from_power_sum(W, S, kind)

    def query(self, rect: QueryRect, kind: EntropyKind = SHANNON,
              stats: Optional[dict] = None) -> EntropySummary:
        if rect.dim != 1:
            raise ValueError("query rect must be 1-D")
        coords = self._views[0]
        return self.query_span(bisect.bisect_left(coords, rect.lo[0]),
                               bisect.bisect_right(coords, rect.hi[0]), kind, stats)

    def query_span(self, i: int, j: int, kind: EntropyKind = SHANNON,
                   stats: Optional[dict] = None) -> EntropySummary:
        """Entropy of the points at sorted positions [i, j) (0 <= i, j <= n),
        the order of :meth:`row`. A partition backend scores one span here
        and every span from one start with :meth:`row`. ``stats`` receives
        ``points_in_range``, ``fringe_points``, ``core_cuts`` (the slice's
        cut pair, or None) and ``fold``: ``"bincount"`` for every non-empty
        span in that regime, exact slices included; in the sort regime
        ``"sort"`` when a fringe point was folded, and None otherwise."""
        self._require(kind)
        _, wpre, wlo, tables = self._views
        n, size, last = len(self.ids_sorted), self.bucket_size, len(self.cuts) - 1
        a, b = min(-(-i // size), last), (last if j >= n else j // size)
        W = (wpre[j] - wpre[i]) + (wlo[j] - wlo[i]) if i < j else 0.0
        core_lo = core_hi = i
        if a < b:
            core_lo, core_hi = a * size, (n if b == last else b * size)
        fringe_points = max(0, j - i) - (core_hi - core_lo)
        if stats is not None:
            stats.update(points_in_range=max(0, j - i), fringe_points=fringe_points,
                         core_cuts=(a, b) if a < b else None,
                         fold=self.fold if fringe_points or (i < j and self.fold == "bincount")
                         else None)
        if not fringe_points and (a >= b or self.fold == "sort"):
            return EntropySummary(kind, W, tables[kind][self._slot(a, b)] if a < b else 0.0)
        ids, weights = self.ids_sorted, self.weights_sorted
        if self.fold == "bincount":
            # every color's mass in [i, j): one bincount per fringe side, plus
            # two cut_prefix rows in a slice (an empty side counts on int64);
            # a span that is exactly a slice takes this fold too
            D = len(self.present)
            masses = np.bincount(ids[core_hi:j], weights[core_hi:j], D)
            if a < b:
                hi, lo = self.cut_prefix[b] - self.cut_prefix[a]
                masses = (hi + lo) + (np.bincount(ids[i:core_lo], weights[i:core_lo], D) + masses)
            S = core.power_total(masses, kind)
        elif a >= b:
            S = core.power_total(self._sorted_fringe(i, core_lo, core_hi, j)[1], kind)
        else:
            # the slice's S from its entry, moved by f(inside + added) -
            # f(inside) for each fringe color
            folded, added = self._sorted_fringe(i, core_lo, core_hi, j)
            inside = self.color_prefix.mass(self.present[folded], core_lo, core_hi)
            terms = core.power_term(np.concatenate((inside + added, inside)).reshape(2, -1), kind)
            core_W = (wpre[core_hi] - wpre[core_lo]) + (wlo[core_hi] - wlo[core_lo])
            S = core.power_sum(EntropySummary(kind, core_W, tables[kind][self._slot(a, b)]))
            S += float(np.subtract(terms[0], terms[1]).sum())
        return EntropySummary(kind, W, core.entropy_from_sums(W, S, kind))

    def _sorted_fringe(self, i: int, core_lo: int, core_hi: int, j: int) -> tuple:
        """The ids of the colors at positions [i, core_lo) and [core_hi, j),
        ascending, and each one's mass there: the ``sort`` fold."""
        ids = np.concatenate((self.ids_sorted[i:core_lo], self.ids_sorted[core_hi:j]))
        weights = np.concatenate((self.weights_sorted[i:core_lo],
                                  self.weights_sorted[core_hi:j]))
        order = ids.argsort(kind="stable")   # a radix sort on uint8 and uint16
        ids = ids[order]
        starts = np.concatenate(([True], ids[1:] != ids[:-1])).nonzero()[0]
        return ids[starts], np.add.reduceat(weights[order], starts)

    def _require(self, kind: EntropyKind) -> None:
        if not kind.is_shannon and kind.alpha not in self.orders:
            raise OrderNotIndexed(f"alpha={kind.alpha} not precomputed (have {self.orders})")

    # -- reporting -------------------------------------------------------------

    def space_stats(self) -> dict:
        return {
            "buckets": len(self.cuts) - 1,
            "bucket_size": self.bucket_size,
            "table_entries": sum(table.size for table in self.tables.values()),
            "orders": self.orders,
            "bytes": self.nbytes(),
        }


def _color_ids(colors: np.ndarray, num_colors: int) -> tuple[np.ndarray, np.ndarray]:
    """The colors that occur, ascending, and each point's id among them, on
    ``core.color_type``: one ``bincount`` and one gather from a table indexed
    by color while the declared colors number at most 8n + 256 (both are as
    long as the largest color id), one ``np.unique`` sort past that."""
    if num_colors > 8 * len(colors) + 256:
        present, ids = np.unique(colors, return_inverse=True)
        return present, ids.astype(core.color_type(len(present)))
    present = np.flatnonzero(np.bincount(colors))
    table = np.empty(len(present) and int(present[-1]) + 1, core.color_type(len(present)))
    table[present] = np.arange(len(present))
    return present, table[colors]


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
