"""Entropy algebra over color histograms.

Shannon entropy of a histogram with per-color masses w_i (total W) is
``sum_i (w_i/W) * log2(W/w_i)``; the Renyi entropy of order alpha > 1 is
``(1/(alpha-1)) * log2(1 / sum_i (w_i/W)**alpha)``. Both are in bits.

Besides direct evaluation, this module provides the constant-time update
rules for color-disjoint unions, single-color insertions and single-color
deletions, for both entropy families. Every update recomputes from the
stored (count, value) pair of its inputs, so chains of updates do not
accumulate incremental-log drift beyond ordinary float rounding. Delete
rules subtract a color's share from a total and cancel at extreme mass
ratios. These named rules are public reference API; no index uses them.
The indexes fold sets with the power-sum helpers and ``ColorPrefix`` below,
which only ever add terms.

All values are weighted: "count" always means total weight. Unweighted
data is the weight-1 special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidOrder, InvalidWeight, Underflow

ColorId = int


# ---------------------------------------------------------------------------
# entropy kinds and summaries


@dataclass(frozen=True)
class EntropyKind:
    """Shannon (``alpha is None``) or Renyi of a fixed order ``alpha > 1``."""

    alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.alpha is not None and not self.alpha > 1.0:
            raise InvalidOrder(f"Renyi order must be > 1, got {self.alpha}")

    @property
    def is_shannon(self) -> bool:
        return self.alpha is None

    def label(self) -> str:
        return "shannon" if self.alpha is None else f"renyi({self.alpha:g})"


SHANNON = EntropyKind()


def renyi_kind(alpha: float) -> EntropyKind:
    return EntropyKind(float(alpha))


@dataclass(frozen=True, init=False)
class EntropySummary:
    """An entropy value (bits) together with the total mass it describes.

    The pair (count, value) is exactly the state the update formulas need;
    no histogram is retained.
    """

    kind: EntropyKind
    count: float  # total weight of the summarized set
    value: float  # entropy in bits

    def __init__(self, kind: EntropyKind, count: float, value: float) -> None:
        # every answer of every index is built here: writing the instance
        # dict directly takes about half the time of the generated frozen
        # __init__, which sets each field through object.__setattr__
        fields = self.__dict__
        fields["kind"], fields["count"], fields["value"] = kind, count, value

    @classmethod
    def empty(cls, kind: EntropyKind = SHANNON) -> "EntropySummary":
        return cls(kind, 0.0, 0.0)


# ---------------------------------------------------------------------------
# points and histograms


def color_type(num_colors: int) -> np.dtype:
    """The narrowest unsigned type that holds every id of ``num_colors``
    colors: uint8 up to 256 colors, uint16 up to 65,536, and so on."""
    return np.min_scalar_type(max(num_colors - 1, 0))


def frozen(array, dtype) -> np.ndarray:
    """``array`` on ``dtype`` and read-only. A view of immutable ``bytes``
    (an index file's payload, as :func:`.storage.load_index` hands it over)
    already is, and is kept; anything else is copied and the copy frozen, so
    a caller's array stays writeable and its later writes change no set."""
    if isinstance(array, np.ndarray) and array.dtype == dtype and isinstance(array.base, bytes):
        return array
    array = np.array(array, dtype=dtype)
    array.setflags(write=False)
    return array


class ColoredPointSet:
    """Immutable set of colored, weighted points in R^d.

    Color ids are dense integers 0..m-1. Use :meth:`from_labeled` to intern
    arbitrary labels in first-appearance order. The backing numpy arrays are
    read-only: views of a loaded file's payload, or frozen copies of what
    the caller passed (:func:`frozen`).
    """

    __slots__ = ("coords", "colors", "weights", "labels", "_num_colors")

    def __init__(
        self,
        coords: np.ndarray,
        colors: np.ndarray,
        weights: Optional[np.ndarray] = None,
        labels: Optional[tuple] = None,
        num_colors: Optional[int] = None,
    ):
        coords = frozen(coords, np.float64)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)  # flat input means 1-D points
        colors = frozen(colors, np.int64)
        n = coords.shape[0]
        if colors.shape != (n,):
            raise ValueError("colors must be one id per point")
        weights = frozen(np.ones(n) if weights is None else weights, np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must be one value per point")
        if n and not np.all(np.isfinite(coords)):
            raise InvalidWeight("coordinates must be finite")
        if n and not np.all(np.isfinite(weights)):
            raise InvalidWeight("weights must be finite")
        if n and (weights < 0).any():
            raise InvalidWeight("weights must be nonnegative")
        if n and (colors < 0).any():
            raise ValueError("color id out of range")
        m = int(colors.max()) + 1 if n else 0
        if num_colors is not None:
            if m > num_colors:
                raise ValueError("color id out of range")
            m = num_colors
        if labels is not None and len(labels) != m:
            raise ValueError("labels must cover all color ids")
        self.coords = coords
        self.colors = colors
        self.weights = weights
        self.labels = labels
        self._num_colors = m

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def num_colors(self) -> int:
        return self._num_colors

    def __len__(self) -> int:
        return self.coords.shape[0]

    def to_arrays(self) -> tuple[dict, dict]:
        """The arrays and the scalars (color count, labels) that
        :meth:`from_arrays` rebuilds the set from; the colors on the
        narrowest type that holds every id, :func:`color_type`."""
        colors = self.colors.astype(color_type(self._num_colors))
        arrays = {"coords": self.coords, "colors": colors, "weights": self.weights}
        labels = None if self.labels is None else list(self.labels)
        return arrays, {"num_colors": self._num_colors, "labels": labels}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray], scalars: Mapping) -> "ColoredPointSet":
        """The set :meth:`to_arrays` gave these arrays for; ``weights`` may
        be absent (unit weights). Refuses (ValueError) any array on another
        dtype than :meth:`to_arrays` writes, in either byte order, since a
        cast would truncate float colors or read booleans as ids."""
        labels, m = scalars["labels"], scalars["num_colors"]
        weights = arrays.get("weights")
        for name, array, dtype in (("coords", arrays["coords"], np.float64),
                                   ("colors", arrays["colors"], color_type(m)),
                                   ("weights", weights, np.float64)):
            if array is not None and array.dtype.newbyteorder("=") != dtype:
                raise ValueError(f"{name} are stored as {array.dtype.str}, "
                                 f"not {np.dtype(dtype).str}")
        return cls(arrays["coords"], arrays["colors"], weights,
                   None if labels is None else tuple(labels), m)

    @classmethod
    def from_labeled(
        cls,
        coords: Iterable[Sequence[float]],
        labels: Iterable,
        weights: Optional[Iterable[float]] = None,
    ) -> "ColoredPointSet":
        """Intern arbitrary color labels to dense ids in first-appearance order."""
        table: dict = {}
        ids = []
        for lab in labels:
            if lab not in table:
                table[lab] = len(table)
            ids.append(table[lab])
        w = None if weights is None else list(weights)
        return cls(list(coords), ids, w, labels=tuple(table))


class ColorHistogram:
    """Mapping color id -> total weight; zero-weight colors are absent."""

    __slots__ = ("entries", "total")

    def __init__(self, entries: Mapping[ColorId, float]):
        self.entries = {c: float(w) for c, w in entries.items() if w != 0.0}
        for c, w in self.entries.items():
            if w < 0:
                raise InvalidWeight(f"negative mass for color {c}")
        self.total = float(sum(self.entries.values()))

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, ColorHistogram) and self.entries == other.entries

    @classmethod
    def from_counts(cls, counts: Iterable[float]) -> "ColorHistogram":
        return cls({i: float(c) for i, c in enumerate(counts)})

    @classmethod
    def from_points(cls, pts: ColoredPointSet, mask: Optional[np.ndarray] = None) -> "ColorHistogram":
        colors = pts.colors if mask is None else pts.colors[mask]
        weights = pts.weights if mask is None else pts.weights[mask]
        if len(colors) == 0:
            return cls({})
        sums = np.bincount(colors, weights=weights, minlength=pts.num_colors)
        return cls({int(c): float(sums[c]) for c in np.nonzero(sums)[0]})

    def union(self, other: "ColorHistogram") -> "ColorHistogram":
        merged = dict(self.entries)
        for c, w in other.entries.items():
            merged[c] = merged.get(c, 0.0) + w
        return ColorHistogram(merged)


# ---------------------------------------------------------------------------
# direct evaluation


# the smallest normal float: a p below it reads as this in -log2 p, where an
# underflowed p of 0 would make 0 * inf
TINY = float(np.finfo(np.float64).tiny)


def fold_statistic(masses: Iterable[float], total: float, kind: EntropyKind) -> float:
    """The kind's statistic sum_c p_c g(p_c) over positive masses w_c of sum
    ``total``, p_c = w_c / total, on Python floats: the Shannon entropy (p
    clamped at ``TINY`` in the log) or the Renyi moment. It reads
    probabilities, so it holds at any weight scale whose total is finite."""
    if kind.alpha is None:
        value = 0.0
        for w in masses:
            p = w / total
            value -= p * math.log2(p if p > TINY else TINY)
        return value
    return sum([(w / total) ** kind.alpha for w in masses])


def entropy_of(h: ColorHistogram, kind: EntropyKind) -> EntropySummary:
    """Entropy of a histogram, from :func:`fold_statistic` over its color
    probabilities; empty and single-color are exactly 0."""
    if h.total == 0.0:
        return EntropySummary.empty(kind)
    value = fold_statistic(h.entries.values(), h.total, kind)
    return EntropySummary(kind, h.total, entropy_from_statistic(value, kind))


def shannon_entropy(h: ColorHistogram) -> EntropySummary:
    return entropy_of(h, SHANNON)


def renyi_entropy(h: ColorHistogram, alpha: float) -> EntropySummary:
    """Renyi entropy of order alpha > 1."""
    return entropy_of(h, renyi_kind(alpha))


# ---------------------------------------------------------------------------
# Shannon updates

def _require_kind(s: EntropySummary, kind: EntropyKind, what: str) -> None:
    if s.kind != kind:
        raise ValueError(f"{what}: expected {kind.label()} summary, got {s.kind.label()}")


def merge_shannon(h1: EntropySummary, h2: EntropySummary) -> EntropySummary:
    """Entropy of the union of two color-disjoint sets (caller's contract).

    H = (N1*H1 + N2*H2 + N1*log2(N/N1) + N2*log2(N/N2)) / N  with N = N1+N2.
    A zero-count argument returns the other unchanged.
    """
    _require_kind(h1, SHANNON, "merge_shannon")
    _require_kind(h2, SHANNON, "merge_shannon")
    if h1.count == 0.0:
        return h2
    if h2.count == 0.0:
        return h1
    n1, n2 = h1.count, h2.count
    n = n1 + n2
    value = (
        n1 * h1.value
        + n2 * h2.value
        + n1 * math.log2(n / n1)
        + n2 * math.log2(n / n2)
    ) / n
    return EntropySummary(SHANNON, n, value)


def insert_color_shannon(h: EntropySummary, added_weight: float) -> EntropySummary:
    """Add one brand-new color of the given mass.

    Equivalent to merging with a zero-entropy block of that mass.
    """
    _require_kind(h, SHANNON, "insert_color_shannon")
    if added_weight <= 0.0:
        raise InvalidWeight(f"added weight must be positive, got {added_weight}")
    if h.count == 0.0:
        return EntropySummary(SHANNON, added_weight, 0.0)
    n1, n2 = h.count, added_weight
    n = n1 + n2
    value = (n1 * h.value) / n + (n1 / n) * math.log2(n / n1) + (n2 / n) * math.log2(n / n2)
    return EntropySummary(SHANNON, n, value)


def delete_color_shannon(h: EntropySummary, removed_weight: float) -> EntropySummary:
    """Remove ALL mass of one color (the color had exactly this mass in h).

    Inverse of :func:`insert_color_shannon`:
    H' = N/(N-N3) * (H - (N3/N)*log2(N/N3) - ((N-N3)/N)*log2(N/(N-N3))).
    """
    _require_kind(h, SHANNON, "delete_color_shannon")
    if removed_weight <= 0.0:
        raise InvalidWeight(f"removed weight must be positive, got {removed_weight}")
    n1 = h.count
    if removed_weight >= n1:
        raise Underflow(f"cannot remove {removed_weight} from total {n1}")
    n3 = removed_weight
    rest = n1 - n3
    value = (n1 / rest) * (
        h.value - (n3 / n1) * math.log2(n1 / n3) - (rest / n1) * math.log2(n1 / rest)
    )
    return EntropySummary(SHANNON, rest, value)


# ---------------------------------------------------------------------------
# Renyi updates
#
# The three updates below are the power-sum identity (see power_sum) applied
# to union / single-color insert / single-color delete.


def merge_renyi(h1: EntropySummary, h2: EntropySummary, alpha: float) -> EntropySummary:
    """Renyi entropy of a color-disjoint union."""
    kind = renyi_kind(alpha)
    _require_kind(h1, kind, "merge_renyi")
    _require_kind(h2, kind, "merge_renyi")
    if h1.count == 0.0:
        return h2
    if h2.count == 0.0:
        return h1
    n = h1.count + h2.count
    denom = power_sum(h1) + power_sum(h2)
    value = math.log2(n**alpha / denom) / (alpha - 1.0)
    return EntropySummary(kind, n, value)


def insert_color_renyi(h: EntropySummary, added_weight: float, alpha: float) -> EntropySummary:
    """Add one brand-new color of the given mass (Renyi analogue)."""
    kind = renyi_kind(alpha)
    _require_kind(h, kind, "insert_color_renyi")
    if added_weight <= 0.0:
        raise InvalidWeight(f"added weight must be positive, got {added_weight}")
    if h.count == 0.0:
        return EntropySummary(kind, added_weight, 0.0)
    w, c = added_weight, _renyi_scale(alpha)
    n = h.count + w
    # y = ln(S / w**alpha); the new power sum is w**alpha * (1 + e**y)
    y = alpha * math.log(h.count / w) - c * h.value
    softplus = y + math.log1p(math.exp(-y)) if y > 0.0 else math.log1p(math.exp(y))
    value = (Fraction(_log_ratio(n, w, alpha)) - Fraction(softplus)) / Fraction(c)
    return EntropySummary(kind, n, float(value))


def delete_color_renyi(h: EntropySummary, removed_weight: float, alpha: float) -> EntropySummary:
    """Remove ALL mass of one color (Renyi analogue); inverts the insert."""
    kind = renyi_kind(alpha)
    _require_kind(h, kind, "delete_color_renyi")
    if removed_weight <= 0.0:
        raise InvalidWeight(f"removed weight must be positive, got {removed_weight}")
    n1 = h.count
    if removed_weight >= n1:
        raise Underflow(f"cannot remove {removed_weight} from total {n1}")
    w, c = removed_weight, _renyi_scale(alpha)
    rest = n1 - w
    # x = ln(S / w**alpha); the remaining power sum is w**alpha * (e**x - 1)
    x = float(Fraction(_log_ratio(n1, w, alpha)) - Fraction(h.value) * Fraction(c))
    if x <= 0.0:
        # mathematically impossible under the precondition; float cancellation
        raise Underflow("remaining power sum vanished (extreme mass ratio)")
    log_expm1 = x + math.log1p(-math.exp(-x)) if x > 1.0 else math.log(math.expm1(x))
    value = (alpha * math.log(rest / w) - log_expm1) / c
    return EntropySummary(kind, rest, value)


def _renyi_scale(alpha: float) -> float:
    """(alpha - 1) * ln 2: a Renyi value in bits times this is -ln(S / W**alpha)."""
    return (alpha - 1.0) * math.log(2.0)


def _log_ratio(n: float, w: float, alpha: float) -> float:
    """alpha * ln(n / w) for a total n that holds one color of mass w.

    Insert and delete evaluate this on the same stored total, so it cancels
    bit for bit across a round trip. Together with the exact (Fraction)
    subtraction around it, the single color's power sum is recovered to
    about one rounding of the stored value instead of one rounding of
    ``n**alpha``, which cancels badly when w dominates the total.
    """
    return alpha * math.log1p((n - w) / w)


# ---------------------------------------------------------------------------
# power sums
#
# A set with per-color masses w_c and total W is described by the pair
# (W, S) with S = sum_c f(w_c), where f(w) = w*log2(w) for Shannon and
# f(w) = w**alpha for Renyi:  H = log2(W) - S/W  and
# H_alpha = (alpha*log2(W) - log2(S)) / (alpha - 1).  S is additive over
# colors, so growing color c from mass a to b adds f(b) - f(a): no update
# ever subtracts one color's term from a total.


def power_term(w, kind: EntropyKind) -> np.ndarray:
    """f(w) elementwise, with f(0) = 0."""
    w = np.asarray(w, dtype=np.float64)
    if kind.is_shannon:
        return w * np.log2(np.where(w > 0.0, w, 1.0))
    return w**kind.alpha


def power_total(w: np.ndarray, kind: EntropyKind) -> float:
    """sum_c f(w_c) over a float64 array as a Python float, with f(0) = 0: no
    positive float lies below ``math.ulp(0.0)``, so the clamp moves no other term."""
    if kind.is_shannon:
        return float(w @ np.log2(np.maximum(w, math.ulp(0.0))))
    return float(np.add.reduce(w**kind.alpha))


def entropy_from_power_sum(W, S, kind: EntropyKind) -> np.ndarray:
    """Entropy (bits) of the sets described by (W, S), elementwise.

    An empty set has W = S = 0; reading its W and S as 1 gives it entropy 0.
    """
    W = np.where(W > 0.0, W, 1.0)
    if kind.is_shannon:
        return np.log2(W) - S / W
    S = np.where(S > 0.0, S, 1.0)
    return (kind.alpha * np.log2(W) - np.log2(S)) / (kind.alpha - 1.0)


def entropy_from_sums(W: float, S: float, kind: EntropyKind) -> float:
    """:func:`entropy_from_power_sum` of one set, on Python floats."""
    W = W if W > 0.0 else 1.0
    if kind.is_shannon:
        return math.log2(W) - S / W
    return (kind.alpha * math.log2(W) - math.log2(S if S > 0.0 else 1.0)) / (kind.alpha - 1.0)


def g(kind: EntropyKind, p: np.ndarray) -> np.ndarray:
    """The per-draw value whose mean over the color law is the kind's
    statistic: -log2 p for Shannon, p^(alpha-1) for Renyi."""
    if kind.alpha is None:
        return -np.log2(np.maximum(p, TINY))
    return p ** (kind.alpha - 1.0)


def entropy_from_statistic(value: float, kind: EntropyKind) -> float:
    """Entropy (bits) from the statistic: itself for Shannon,
    -log2(m)/(alpha-1) of the moment m for Renyi (:class:`Underflow` if m is 0)."""
    if kind.alpha is not None and value == 0.0:
        raise Underflow(f"the order-{kind.alpha} moment underflowed to 0")
    return value if kind.alpha is None else -math.log2(value) / (kind.alpha - 1.0)


def power_sum(s: EntropySummary) -> float:
    """S recovered from a summary's (W, H): W*(log2 W - H), or W**alpha * 2**((1-alpha)*H)."""
    count, alpha = s.count, s.kind.alpha
    if alpha is None:
        return count * (math.log2(count) - s.value) if count else 0.0
    return count**alpha * 2.0 ** ((1.0 - alpha) * s.value)


def running_sum(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of ``w`` (length n+1, from 0) as a pair (hi, lo): the plain
    running sum and the running sum of each addition's rounding error (exact
    by the two-sum identity). ``(hi[j] - hi[i]) + (lo[j] - lo[i])`` is then
    accurate relative to the span's own mass, not to the whole prefix.
    Written into the two outputs and one scratch array."""
    hi, lo = np.zeros(len(w) + 1), np.zeros(len(w) + 1)
    np.cumsum(w, out=hi[1:])
    added = np.subtract(hi[1:], hi[:-1], out=lo[1:])
    lost = np.subtract(hi[1:], added)
    np.subtract(hi[:-1], lost, out=lost)     # what the running sum dropped
    np.subtract(w, added, out=added)         # what the addend lost
    np.add(lost, added, out=added)
    np.cumsum(added, out=added)
    return hi, lo


def stable_order(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(x, kind="stable")``, element for element, from numpy's
    default (unstable, faster) sort, and ``x`` in that order: only when
    equal values exist is the order re-sorted by the integer key (rank of
    the value) * n + index, and ``x`` gathered again (equal values may
    differ in their bits, as -0.0 and 0.0 do)."""
    order = np.argsort(x)
    sorted_x = x[order]
    tied = sorted_x[1:] == sorted_x[:-1]
    if tied.any():
        n = len(x)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(~tied)))
        order = np.argsort(rank * n + np.arange(n))
        sorted_x = x[order]
    return order, sorted_x


class ColorPrefix:
    """Per-color weight prefixes of a sequence, held as one sorted key array.

    Position p of color c gets the key ``c*n + p``. Sorted, the keys list
    each color's positions as one ascending run, and ``wpre`` / ``wlo`` is
    the running weight along that order (a :func:`running_sum` pair), so the
    mass of color c over positions [lo, hi) is the prefix at key
    ``c*n + hi`` minus the prefix at key ``c*n + lo``: two ``searchsorted``
    calls for any batch of colors, accurate relative to that mass.
    """

    __slots__ = ("n", "keys", "wpre", "wlo")

    def __init__(self, colors: np.ndarray, weights: np.ndarray):
        self.n = len(colors)
        # a stable sort gives one order at any width, and radix-sorts uint8/uint16
        narrow = colors.astype(np.min_scalar_type(int(colors.max(initial=0))))
        order = np.argsort(narrow, kind="stable")
        self.keys = colors[order] * self.n + order
        self.wpre, self.wlo = running_sum(weights[order])

    def mass(self, colors, lo, hi) -> np.ndarray:
        """Mass of each given color over positions [lo, hi) (broadcast)."""
        base = colors * self.n
        j = np.searchsorted(self.keys, base + hi)
        i = np.searchsorted(self.keys, base + lo)
        return (self.wpre[j] - self.wpre[i]) + (self.wlo[j] - self.wlo[i])

    def count(self, colors, lo, hi) -> np.ndarray:
        """Positions of each given color in [lo, hi) (broadcast)."""
        base = colors * self.n
        return np.searchsorted(self.keys, base + hi) - np.searchsorted(self.keys, base + lo)


class HeldViews:
    """Base of an index whose query memoryviews (``_views``) no pickle or copy holds."""

    def __getstate__(self) -> dict:
        return {name: value for name, value in vars(self).items() if name != "_views"}


# ---------------------------------------------------------------------------
# axis-aligned query rectangles (shared by every index structure)


@dataclass(frozen=True)
class QueryRect:
    """Closed axis-aligned hyper-rectangle; membership is lo <= x <= hi."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        # Python floats: the range tree's bisections then compare them
        # without going through numpy scalars
        object.__setattr__(self, "lo", tuple(map(float, self.lo)))
        object.__setattr__(self, "hi", tuple(map(float, self.hi)))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimension")
        if not all(l <= h for l, h in zip(self.lo, self.hi)):
            if any(math.isnan(x) for x in self.lo + self.hi):
                raise ValueError(f"NaN bound in rectangle lo {self.lo}, hi {self.hi}")
            raise ValueError(f"empty rectangle: lo {self.lo} exceeds hi {self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "QueryRect":
        return cls((float(lo),), (float(hi),))

    @classmethod
    def full(cls, dim: int) -> "QueryRect":
        import sys

        big = sys.float_info.max
        return cls((-big,) * dim, (big,) * dim)

    def mask(self, pts: ColoredPointSet) -> np.ndarray:
        """Boolean membership mask over a point set (vectorized)."""
        if len(pts) == 0:
            return np.zeros(0, dtype=bool)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts.coords >= lo) & (pts.coords <= hi), axis=1)
