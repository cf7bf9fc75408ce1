"""Exact d-dimensional range entropy index on a range tree's canonical pieces.

A :class:`~.rangetree.RangeTree` over the points decomposes a rectangle
into O(log^(d-1) n) canonical pieces: disjoint slices of the tree's pool
whose points partition the range. One fold of the pieces' color masses
(:meth:`~.rangetree.RangeTree.statistic`, as in the estimators' exact
answer) gives sum_c p_c g(p_c) over the color probabilities p_c = w_c / W,
and ``core.entropy_from_statistic`` the entropy. Every color's mass is
summed from its own points, and no step subtracts one color's term from a
total, so heavy weights cannot cancel; the fold reads probabilities, so
the answer holds at any weight scale whose total is finite (10^-300 to
10^300 per point). A query costs O(log^d n + m) for the m points in range;
the index holds nothing beyond the tree and does not grow with queries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import core
from .core import ColoredPointSet, EntropyKind, EntropySummary, QueryRect, SHANNON
from .errors import OrderNotIndexed
from .rangetree import RangeTree


class ExactNDIndex:
    """Exact Shannon and Renyi entropy of the points in any rectangle.

    ``t`` must lie in [0, 1] and has no effect on this index: it is the
    bucket exponent of :class:`~.exact1d.Exact1DIndex`, accepted here so
    that both exact indexes are built the same way. ``orders`` lists the
    Renyi orders that :meth:`query` answers; any other order raises
    :class:`~.errors.OrderNotIndexed`.
    """

    STORED = RangeTree.STORED

    def __init__(self, pts: ColoredPointSet, t: float, orders: Sequence[float] = ()):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        self.pts = pts
        self.orders = tuple(sorted(set(float(a) for a in orders)))
        self.tree = RangeTree(pts)

    def to_arrays(self) -> tuple[dict, dict]:
        """The tree's arrays (the points and the pool) and scalars, and the orders."""
        arrays, scalars = self.tree.to_arrays()
        return arrays, {**scalars, "orders": list(self.orders)}

    @classmethod
    def from_arrays(cls, arrays: dict, scalars: dict) -> "ExactNDIndex":
        index = cls.__new__(cls)
        index.tree = RangeTree.from_arrays(arrays, scalars)
        index.pts = index.tree.pts
        index.orders = tuple(map(float, scalars["orders"]))
        return index

    def query(self, rect: QueryRect, kind: EntropyKind = SHANNON,
              stats: Optional[dict] = None, trace: Optional[list] = None) -> EntropySummary:
        """Entropy of the points in ``rect``. ``stats`` receives
        ``bucket_visits`` (the number of canonical pieces) and
        ``points_in_range``. ``trace`` gets one entry per piece: (piece
        number, its pool slice [start, stop], None)."""
        if not kind.is_shannon and kind.alpha not in self.orders:
            raise OrderNotIndexed(f"alpha={kind.alpha} not precomputed (have {self.orders})")
        pieces = self.tree.canonical_nodes(rect)
        value, W = self.tree.statistic(pieces, kind)
        value = core.entropy_from_statistic(value, kind) if W else 0.0
        if stats is not None:
            stats["bucket_visits"] = len(pieces)
            stats["points_in_range"] = pieces.points
        if trace is not None:
            trace.extend((i, [a, b], None)
                         for i, (a, b) in enumerate(zip(pieces.start, pieces.stop)))
        return EntropySummary(kind, W, value)

    def space_stats(self) -> dict:
        """Sizes: ``bytes`` of the tree's arrays and its ``pool_entries``;
        ``table_entries`` is 0, since nothing is precomputed per cell."""
        return {"pool_entries": len(self.tree.pool_ids), "table_entries": 0,
                "orders": self.orders, "bytes": self.tree.nbytes()}
