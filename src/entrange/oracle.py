"""Ground truth: brute-force range entropy, the reference partition backend,
exhaustive partitioning, and the hardness-reduction point-set generators
used as lemma-level tests.

Everything here recomputes from the points with no preprocessing; the rest
of the package is tested against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    ColorHistogram,
    ColoredPointSet,
    EntropyKind,
    EntropySummary,
    QueryRect,
    SHANNON,
    entropy_of,
    stable_order,
)


def brute_histogram(pts: ColoredPointSet, rect: QueryRect) -> ColorHistogram:
    return ColorHistogram.from_points(pts, rect.mask(pts))


def brute_entropy(pts: ColoredPointSet, rect: QueryRect, kind: EntropyKind = SHANNON) -> EntropySummary:
    """Reference range entropy: linear scan, direct formula."""
    return entropy_of(brute_histogram(pts, rect), kind)


# ---------------------------------------------------------------------------
# exhaustive 1-D partitioning (reference for the DP / approximation tests)


def expected_entropy(summary: EntropySummary, total_weight: float) -> float:
    """Expected entropy of a bucket: (bucket mass / total mass) * H(bucket)."""
    if total_weight == 0.0:
        return 0.0
    return (summary.count / total_weight) * summary.value


def iter_cut_sets(n: int, k: int) -> Iterable[tuple[int, ...]]:
    """All ways to cut a length-n sequence into k nonempty contiguous buckets."""
    for inner in combinations(range(1, n), k - 1):
        yield (0, *inner, n)


def exhaustive_partition(
    pts: ColoredPointSet,
    k: int,
    kind: EntropyKind = SHANNON,
    objective: str = "max",
    minimize: bool = True,
) -> tuple[float, tuple[int, ...]]:
    """Enumerate every k-bucket cut of the coordinate-sorted sequence.

    objective "max" scores a partition by its largest per-bucket expected
    entropy, "min" by its smallest, "sum" by the total; buckets are scored
    by :meth:`OracleBackend.expected_range`. Returns (best score, best
    cuts). Intended for tiny n only.
    """
    backend = OracleBackend(pts, kind)
    agg = {"max": max, "min": min, "sum": sum}[objective]
    best: Optional[tuple[float, tuple[int, ...]]] = None
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)
    for cuts in iter_cut_sets(len(pts), k):
        value = agg(backend.expected_range(a, b) for a, b in zip(cuts[:-1], cuts[1:]))
        if best is None or better(value, best[0]):
            best = (value, cuts)
    assert best is not None
    return best


class OracleBackend:
    """Partition backend by direct recomputation; the reference backend.

    Index ranges are positions of the (coordinate, input index) order.
    """

    def __init__(self, pts: ColoredPointSet, kind: EntropyKind = SHANNON):
        self.pts = pts
        self.kind = kind
        self.order = stable_order(pts.coords[:, 0])[0]
        self.total_weight = float(pts.weights.sum())

    def describe(self) -> dict:
        return {"backend": "oracle", "kind": self.kind.label()}

    def _grow(self, i: int, j: int) -> Iterator[dict[int, float]]:
        """The color masses of [i, i+1), ..., [i, j): one dict, grown by
        adding the points in order."""
        entries: dict[int, float] = {}
        ids = self.order[i:j]
        for c, w in zip(self.pts.colors[ids], self.pts.weights[ids]):
            entries[int(c)] = entries.get(int(c), 0.0) + float(w)
            yield entries

    def summary_range(self, i: int, j: int) -> EntropySummary:
        entries: dict[int, float] = {}
        for entries in self._grow(i, j):
            pass
        return entropy_of(ColorHistogram(entries), self.kind)

    def expected_range(self, i: int, j: int) -> float:
        return expected_entropy(self.summary_range(i, j), self.total_weight)

    def expected_row(self, i: int) -> np.ndarray:
        """``expected_row(i)[j - i] == expected_range(i, j)`` for j = i..n, bit for bit."""
        return np.array([0.0] + [
            expected_entropy(entropy_of(ColorHistogram(entries), self.kind), self.total_weight)
            for entries in self._grow(i, len(self.pts))])

    def summary_rect(self, rect: QueryRect) -> EntropySummary:
        return brute_entropy(self.pts, rect, self.kind)

    def expected_rect(self, rect: QueryRect) -> float:
        return expected_entropy(self.summary_rect(rect), self.total_weight)


# ---------------------------------------------------------------------------
# boolean matrix-product gadget
#
# Two s x s boolean matrices A, B become 2*s*s collinear points using s
# colors; one interval query per entry (i, j) decides the product bit by
# comparing the range entropy against a closed form that assumes the bit
# is 0. Point coordinates are the integers 1..2n as in the worked example.


@dataclass(frozen=True)
class MatrixGadget:
    a: np.ndarray
    b: np.ndarray
    points: ColoredPointSet
    intervals: dict[tuple[int, int], QueryRect]

    @property
    def size(self) -> int:
        return self.a.shape[0]

    def product_bit(self, i: int, j: int) -> int:
        return int(np.any(self.a[i] & self.b[:, j]))

    def _block_params(self, i: int, j: int) -> tuple[int, int, int, int]:
        s = self.size
        ones_row = int(self.a[i].sum())          # |P1|: included tail of block A_i
        ones_col = int(self.b[:, j].sum())       # |P2|: included head of block B_j
        blocks_inside = (s - 1 - i) + j          # full blocks strictly between
        n_range = blocks_inside * s + ones_row + ones_col
        return ones_row, ones_col, blocks_inside, n_range

    def shannon_reference(self, i: int, j: int) -> float:
        """Entropy the query range would have if entry (i, j) were 0.

        With t full blocks inside, |P1|+|P2| colors hold t+1 points each and
        the remaining s-|P1|-|P2| colors hold t points each.
        """
        p1, p2, t, n = self._block_params(i, j)
        if n == 0:
            return 0.0
        value = 0.0
        if p1 + p2 > 0:
            value += (p1 + p2) * ((t + 1) / n) * math.log2(n / (t + 1))
        rest = self.size - p1 - p2
        # rest may be negative when the one-sets overlap; the literal form
        # (not a distribution then) is what makes the decision predicate strict
        if rest != 0 and t > 0:
            value += rest * (t / n) * math.log2(n / t)
        return value

    def renyi_reference(self, i: int, j: int, alpha: float) -> float:
        p1, p2, t, n = self._block_params(i, j)
        if n == 0:
            return 0.0
        power = (p1 + p2) * ((t + 1) / n) ** alpha
        rest = self.size - p1 - p2
        if rest != 0 and t > 0:
            power += rest * (t / n) ** alpha
        return math.log2(1.0 / power) / (alpha - 1.0)


def build_matrix_gadget(a: np.ndarray, b: np.ndarray) -> MatrixGadget:
    """Encode boolean matrices A (by rows) and B (by columns) as 1-D points.

    Block A_i lists row i's zero-column colors first, then its one-columns;
    block B_j lists column j's one-row colors first, then its zero-rows. The
    query interval for entry (i, j) starts at the (|Z_i|+1)-th point of A_i
    and ends at the |O_j|-th point of B_j.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    s = a.shape[0]
    if a.shape != (s, s) or b.shape != (s, s):
        raise ValueError("matrices must be square and same size")
    coords: list[float] = []
    colors: list[int] = []
    pos = 1
    a_starts = []
    for i in range(s):
        zeros = [c for c in range(s) if a[i, c] == 0]
        ones = [c for c in range(s) if a[i, c] == 1]
        a_starts.append((pos, len(zeros)))
        for c in zeros + ones:
            coords.append(float(pos))
            colors.append(c)
            pos += 1
    b_starts = []
    for j in range(s):
        ones = [r for r in range(s) if b[r, j] == 1]
        zeros = [r for r in range(s) if b[r, j] == 0]
        b_starts.append((pos, len(ones)))
        for c in ones + zeros:
            coords.append(float(pos))
            colors.append(c)
            pos += 1
    pts = ColoredPointSet(np.array(coords), np.array(colors), num_colors=s)
    intervals = {}
    for i in range(s):
        start_pos, nzeros = a_starts[i]
        # one-past-the-zeros point; an all-zero row starts past the block
        lo = start_pos + nzeros if nzeros < s else start_pos + s - 0.5
        for j in range(s):
            bstart, nones = b_starts[j]
            hi = bstart + nones - 1 if nones > 0 else bstart - 0.5
            intervals[(i, j)] = QueryRect.interval(lo, hi)
    return MatrixGadget(a, b, pts, intervals)


# ---------------------------------------------------------------------------
# set-intersection gadget
#
# Sets S_1..S_g over a universe become 2n points on the lines y = x + n and
# y = x - n; a rectangle per pair (i, j) captures exactly P_i (upper line)
# and P'_j (lower line). Disjointness holds iff the range entropy is the
# maximum log2 |P_i u P'_j|.


@dataclass(frozen=True)
class SetIntersectionGadget:
    sets: tuple[frozenset, ...]
    points: ColoredPointSet
    _prefix: tuple[int, ...]

    @property
    def total_items(self) -> int:
        return self._prefix[-1]

    def query_rect(self, i: int, j: int) -> QueryRect:
        n = self.total_items
        n_i0, n_i1 = self._prefix[i], self._prefix[i + 1]
        n_j0, n_j1 = self._prefix[j], self._prefix[j + 1]
        return QueryRect(
            (float(-n_i1), float(n_j0 + 1 - n)),
            (float(n_j1), float(n - n_i0 - 1)),
        )

    def pair_count(self, i: int, j: int) -> int:
        return len(self.sets[i]) + len(self.sets[j])

    def disjoint(self, i: int, j: int) -> bool:
        return not (self.sets[i] & self.sets[j])


def build_set_intersection_gadget(sets: Sequence[Iterable]) -> SetIntersectionGadget:
    families = tuple(frozenset(s) for s in sets)
    if any(not s for s in families):
        raise ValueError("sets must be nonempty")
    universe: dict = {}
    for s in families:
        for item in sorted(s, key=repr):
            if item not in universe:
                universe[item] = len(universe)
    prefix = [0]
    for s in families:
        prefix.append(prefix[-1] + len(s))
    n = prefix[-1]
    coords: list[tuple[float, float]] = []
    colors: list[int] = []
    for i, s in enumerate(families):
        for k, item in enumerate(sorted(s, key=repr), start=1):
            x = k + prefix[i]
            coords.append((float(-x), float(-x + n)))   # on y = x + n
            colors.append(universe[item])
            coords.append((float(x), float(x - n)))     # on y = x - n
            colors.append(universe[item])
    m = len(universe)
    pts = ColoredPointSet(np.array(coords).reshape(-1, 2), np.array(colors), num_colors=m)
    return SetIntersectionGadget(families, pts, tuple(prefix))
