"""Entropy algebra: direct formulas, update rules, and their invariants."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrange import core
from entrange.core import (
    SHANNON,
    ColorHistogram,
    EntropySummary,
    QueryRect,
    renyi_kind,
)
from entrange.errors import InvalidOrder, InvalidWeight, Underflow


def test_entropy_summary_stays_a_frozen_value():
    # the explicit __init__ writes the instance dict; the dataclass still
    # refuses assignment and compares, hashes, prints, pickles and copies
    # by its three fields
    s = EntropySummary(renyi_kind(2.0), 3.0, 1.5)
    for name, value in (("kind", SHANNON), ("count", 1.0), ("value", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del s.count
    assert vars(s) == {"kind": renyi_kind(2.0), "count": 3.0, "value": 1.5}
    assert s == EntropySummary(renyi_kind(2.0), 3.0, 1.5) == EntropySummary(
        kind=renyi_kind(2.0), count=3.0, value=1.5)
    assert s != EntropySummary(SHANNON, 3.0, 1.5) and s != (renyi_kind(2.0), 3.0, 1.5)
    assert hash(s) == hash((renyi_kind(2.0), 3.0, 1.5))
    assert repr(s) == "EntropySummary(kind=EntropyKind(alpha=2.0), count=3.0, value=1.5)"
    assert [f.name for f in dataclasses.fields(s)] == ["kind", "count", "value"]
    assert dataclasses.replace(s, value=0.5) == EntropySummary(renyi_kind(2.0), 3.0, 0.5)
    assert pickle.loads(pickle.dumps(s)) == s == copy.copy(s)


@pytest.mark.parametrize("lo, hi", [
    ((math.nan,), (1.0,)),
    ((0.0,), (math.nan,)),
    ((math.nan,), (math.nan,)),
    ((0.0, math.nan), (1.0, 2.0)),
    ((0.0, 0.0), (1.0, math.nan)),
])
def test_query_rect_refuses_nan_bounds(lo, hi):
    with pytest.raises(ValueError, match="NaN"):
        QueryRect(lo, hi)


def test_query_rect_stores_python_floats():
    rect = QueryRect(tuple(np.array([1.0, 2.0])), [np.float32(3.0), np.int64(4)])
    assert rect.lo == (1.0, 2.0) and rect.hi == (3.0, 4.0)
    assert all(type(x) is float for x in rect.lo + rect.hi)


def test_point_set_freezes_copies_not_the_callers_arrays():
    # the set's arrays are read-only copies; the caller's stay writeable, and
    # writes to them do not reach the set
    x, c, w = np.zeros((3, 2)), np.array([0, 1, 1]), np.ones(3)
    pts = core.ColoredPointSet(x, c, w)
    assert x.flags.writeable and c.flags.writeable and w.flags.writeable
    x[:], c[:], w[:] = 5.0, 0, 2.0
    assert not pts.coords.any() and pts.colors.tolist() == [0, 1, 1] and (pts.weights == 1.0).all()
    assert not any(a.flags.writeable for a in (pts.coords, pts.colors, pts.weights))


@pytest.mark.parametrize("args, kwargs, error, match", [
    (([[0.0], [1.0]], [[0, 1]]), {}, ValueError, "one id per point"),
    (([[0.0], [math.inf]], [0, 1]), {}, InvalidWeight, "coordinates must be finite"),
    (([[0.0], [1.0]], [0, 1], [1.0, -0.5]), {}, InvalidWeight, "nonnegative"),
    (([[0.0], [1.0]], [0, -1]), {}, ValueError, "color id out of range"),
    (([[0.0], [1.0]], [0, 2]), {"num_colors": 2}, ValueError, "color id out of range"),
    (([[0.0], [1.0]], [0, 1]), {"labels": ("a",)}, ValueError, "labels must cover"),
])
def test_point_set_refuses_malformed_input(args, kwargs, error, match):
    with pytest.raises(error, match=match):
        core.ColoredPointSet(*args, **kwargs)


def test_point_set_from_labeled_flat_coordinates():
    # flat coordinates are 1-D points, as for the constructor
    pts = core.ColoredPointSet.from_labeled([2.0, 0.5, 1.0], ["b", "a", "b"], [1.0, 2.0, 3.0])
    assert pts.coords.shape == (3, 1) and pts.labels == ("b", "a")
    assert pts.colors.tolist() == [0, 1, 0] and pts.weights.tolist() == [1.0, 2.0, 3.0]


def test_color_histogram_refuses_negative_mass_and_compares_by_masses():
    with pytest.raises(InvalidWeight, match="negative mass for color 1"):
        ColorHistogram({0: 1.0, 1: -2.0})
    assert ColorHistogram({0: 1.0, 2: 0.0, 1: 3.0}) == hist(1, 3) != hist(3, 1)
    assert hist(1, 3) != {0: 1.0, 1: 3.0}


@pytest.mark.parametrize("lo, hi, match", [
    ((0.0,), (1.0, 2.0), "same dimension"),
    ((0.0, 3.0), (1.0, 2.0), "empty rectangle"),
])
def test_query_rect_refuses_mismatched_or_inverted_bounds(lo, hi, match):
    with pytest.raises(ValueError, match=match):
        QueryRect(lo, hi)


def direct_shannon(masses):
    """Independent reference: plain evaluation of the defining sum."""
    masses = [m for m in masses if m > 0]
    total = sum(masses)
    if total == 0 or len(masses) <= 1:
        return 0.0
    return sum((m / total) * math.log2(total / m) for m in masses)


def direct_renyi(masses, alpha):
    masses = [m for m in masses if m > 0]
    total = sum(masses)
    if total == 0 or len(masses) <= 1:
        return 0.0
    return math.log2(1.0 / sum((m / total) ** alpha for m in masses)) / (alpha - 1.0)


def hist(*masses):
    return ColorHistogram.from_counts(masses)


# ---------------------------------------------------------------------------
# direct evaluation


def test_shannon_nine_point_histogram():
    # 2 red, 3 green, 4 blue: the canonical nine-point mix, ~1.53 bits
    s = core.shannon_entropy(hist(2, 3, 4))
    assert s.count == 9
    assert abs(s.value - direct_shannon([2, 3, 4])) < 1e-12
    assert round(s.value, 2) == 1.53
    assert abs(s.value - 1.5304930567574824) < 1e-9


def test_shannon_trivial_cases():
    assert core.shannon_entropy(hist(7)).value == 0.0
    assert core.shannon_entropy(hist()).value == 0.0
    assert core.shannon_entropy(hist(1, 1, 1, 1)).value == 2.0


def test_renyi_nine_point_histogram():
    s = core.renyi_entropy(hist(2, 3, 4), 2.0)
    # -log2((2/9)^2 + (3/9)^2 + (4/9)^2) = log2(81/29)
    assert abs(s.value - math.log2(81 / 29)) < 1e-12
    assert round(s.value, 2) == 1.48
    assert abs(s.value - 1.4818690077570527) < 1e-9


def test_renyi_uniform_and_skewed():
    assert abs(core.renyi_entropy(hist(1, 1), 3.0).value - 1.0) < 1e-12
    # power sum of {3,1} at alpha=2 is (3/4)^2 + (1/4)^2 = 10/16
    s = core.renyi_entropy(hist(3, 1), 2.0)
    assert abs(s.value - (-math.log2(0.625))) < 1e-9
    assert abs(s.value - 0.6780719051126377) < 1e-9


def test_renyi_rejects_small_order():
    with pytest.raises(InvalidOrder):
        core.renyi_entropy(hist(1, 2), 1.0)
    with pytest.raises(InvalidOrder):
        core.renyi_entropy(hist(1, 2), 0.5)


# ---------------------------------------------------------------------------
# Shannon updates


def test_merge_shannon_example():
    a = EntropySummary(SHANNON, 2.0, 1.0)   # {1,1}
    b = EntropySummary(SHANNON, 2.0, 0.0)   # {2}
    merged = core.merge_shannon(a, b)
    assert merged.count == 4.0
    assert abs(merged.value - direct_shannon([1, 1, 2])) < 1e-12
    assert abs(merged.value - 1.5) < 1e-12


def test_merge_shannon_two_blocks():
    a = EntropySummary(SHANNON, 3.0, 0.0)
    b = EntropySummary(SHANNON, 3.0, 0.0)
    assert abs(core.merge_shannon(a, b).value - 1.0) < 1e-12


def test_merge_shannon_commutative_and_degenerate():
    a = EntropySummary(SHANNON, 5.0, 1.2)
    b = EntropySummary(SHANNON, 3.0, 0.4)
    ab = core.merge_shannon(a, b)
    ba = core.merge_shannon(b, a)
    assert abs(ab.value - ba.value) < 1e-12
    empty = EntropySummary.empty(SHANNON)
    assert core.merge_shannon(a, empty) == a
    assert core.merge_shannon(empty, a) == a


def test_insert_color_shannon_examples():
    s = core.insert_color_shannon(EntropySummary(SHANNON, 1.0, 0.0), 1.0)
    assert (s.count, round(s.value, 12)) == (2.0, 1.0)
    s = core.insert_color_shannon(EntropySummary(SHANNON, 4.0, 1.5), 4.0)
    assert abs(s.value - direct_shannon([1, 1, 2, 4])) < 1e-12
    assert abs(s.value - 1.75) < 1e-12
    s = core.insert_color_shannon(EntropySummary.empty(SHANNON), 5.0)
    assert (s.count, s.value) == (5.0, 0.0)
    with pytest.raises(InvalidWeight):
        core.insert_color_shannon(EntropySummary(SHANNON, 1.0, 0.0), 0.0)


def test_delete_color_shannon_examples():
    s = core.delete_color_shannon(EntropySummary(SHANNON, 2.0, 1.0), 1.0)
    assert (s.count, round(s.value, 12)) == (1.0, 0.0)
    s = core.delete_color_shannon(EntropySummary(SHANNON, 8.0, 1.75), 4.0)
    assert abs(s.value - 1.5) < 1e-9
    with pytest.raises(Underflow):
        core.delete_color_shannon(EntropySummary(SHANNON, 2.0, 1.0), 2.0)


# ---------------------------------------------------------------------------
# Renyi updates


def test_merge_renyi_example():
    a = EntropySummary(renyi_kind(2.0), 2.0, 1.0)
    b = EntropySummary(renyi_kind(2.0), 2.0, 0.0)
    merged = core.merge_renyi(a, b, 2.0)
    assert abs(merged.value - math.log2(16 / 6)) < 1e-12
    assert abs(merged.value - direct_renyi([1, 1, 2], 2.0)) < 1e-12


def test_merge_renyi_equal_blocks():
    for alpha in (1.5, 2.0, 3.0):
        a = EntropySummary(renyi_kind(alpha), 4.0, 0.0)
        b = EntropySummary(renyi_kind(alpha), 4.0, 0.0)
        assert abs(core.merge_renyi(a, b, alpha).value - 1.0) < 1e-12


def test_insert_color_renyi_examples():
    k2 = renyi_kind(2.0)
    s = core.insert_color_renyi(EntropySummary(k2, 1.0, 0.0), 1.0, 2.0)
    assert abs(s.value - 1.0) < 1e-12
    base = core.renyi_entropy(hist(1, 1, 2), 2.0)
    s = core.insert_color_renyi(base, 4.0, 2.0)
    assert abs(s.value - math.log2(64 / 22)) < 1e-9


def test_delete_color_renyi_inverts_insert():
    base = core.renyi_entropy(hist(2, 5, 1), 1.7)
    grown = core.insert_color_renyi(base, 3.5, 1.7)
    back = core.delete_color_renyi(grown, 3.5, 1.7)
    assert abs(back.value - base.value) < 1e-9
    assert abs(back.count - base.count) < 1e-12


def test_updates_refuse_bad_weights_and_merge_renyi_keeps_a_side_with_an_empty_other():
    k2 = renyi_kind(2.0)
    shannon, renyi = EntropySummary(SHANNON, 3.0, 0.9), EntropySummary(k2, 3.0, 0.8)
    updates = [(lambda w: core.insert_color_shannon(shannon, w), None),
               (lambda w: core.delete_color_shannon(shannon, w), 3.0),
               (lambda w: core.insert_color_renyi(renyi, w, 2.0), None),
               (lambda w: core.delete_color_renyi(renyi, w, 2.0), 3.0)]
    for update, whole in updates:
        for w in (0.0, -1.0):
            with pytest.raises(InvalidWeight, match="must be positive"):
                update(w)
        if whole is not None:   # removing the whole mass, or more
            for w in (whole, whole + 1.0):
                with pytest.raises(Underflow, match="cannot remove"):
                    update(w)
    # two bits over a mass of 2 put the whole power sum, 1, on the removed
    # color of mass 1: nothing remains, as when cancellation eats the
    # remainder at an extreme mass ratio, and the delete refuses
    with pytest.raises(Underflow, match="remaining power sum vanished"):
        core.delete_color_renyi(EntropySummary(k2, 2.0, 2.0), 1.0, 2.0)
    empty = EntropySummary.empty(k2)
    assert core.merge_renyi(renyi, empty, 2.0) is renyi
    assert core.merge_renyi(empty, renyi, 2.0) is renyi
    assert core.insert_color_renyi(empty, 2.5, 2.0) == EntropySummary(k2, 2.5, 0.0)


# ---------------------------------------------------------------------------
# randomized agreement with direct evaluation

_mass = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_mass, min_size=1, max_size=8),
    st.lists(_mass, min_size=1, max_size=8),
    st.sampled_from([None, 1.5, 2.0, 3.0]),
)
def test_merge_matches_direct(m1, m2, alpha):
    # color-disjoint by construction: separate id spaces
    if alpha is None:
        a = core.shannon_entropy(hist(*m1))
        b = core.shannon_entropy(hist(*m2))
        merged = core.merge_shannon(a, b)
        want = direct_shannon(m1 + m2)
    else:
        a = core.renyi_entropy(hist(*m1), alpha)
        b = core.renyi_entropy(hist(*m2), alpha)
        merged = core.merge_renyi(a, b, alpha)
        want = direct_renyi(m1 + m2, alpha)
    assert abs(merged.value - want) < 1e-9
    assert abs(merged.count - (sum(m1) + sum(m2))) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_mass, min_size=1, max_size=8),
    _mass,
    st.sampled_from([None, 1.5, 2.0, 3.0]),
)
def test_delete_inverts_insert(masses, w, alpha):
    if alpha is None:
        base = core.shannon_entropy(hist(*masses))
        round_trip = core.delete_color_shannon(core.insert_color_shannon(base, w), w)
    else:
        base = core.renyi_entropy(hist(*masses), alpha)
        round_trip = core.delete_color_renyi(core.insert_color_renyi(base, w, alpha), w, alpha)
    assert abs(round_trip.value - base.value) < 1e-9
    assert abs(round_trip.count - base.count) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(_mass, min_size=1, max_size=10), _mass)
def test_insert_equals_direct(masses, w):
    base = core.shannon_entropy(hist(*masses))
    got = core.insert_color_shannon(base, w)
    assert abs(got.value - direct_shannon(masses + [w])) < 1e-9


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=150, deadline=None)
@given(st.lists(_mass, min_size=1, max_size=12))
def test_entropy_bounds_and_alpha_monotonicity(masses):
    h = hist(*masses)
    s = core.shannon_entropy(h).value
    assert -1e-12 <= s <= math.log2(len(h)) + 1e-9 if len(h) else s == 0.0
    prev = s
    for alpha in (1.2, 1.5, 2.0, 3.0, 6.0):
        r = core.renyi_entropy(h, alpha).value
        assert r <= prev + 1e-9  # nonincreasing in the order
        assert r >= -1e-12
        prev = r


def test_expected_entropy_monotone_under_nesting(rng):
    for _ in range(300):
        n = int(rng.integers(2, 40))
        colors = rng.integers(0, max(2, n // 3), size=n)
        big = list(colors)
        keep = rng.random(n) < 0.6
        small = list(colors[keep])
        def expected(sub):
            if not sub:
                return 0.0
            counts = {}
            for c in sub:
                counts[c] = counts.get(c, 0) + 1
            return (len(sub) / n) * direct_shannon(list(counts.values()))
        assert expected(small) <= expected(big) + 1e-9


def _partitions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _partitions(total - first, parts - 1):
            yield (first,) + rest


def test_min_entropy_configuration_exhaustive():
    # among histograms with N points and c colors, {1,...,1,N-c+1} minimizes H
    for n in range(3, 13):
        for c in range(2, n + 1):
            claimed = direct_shannon([1] * (c - 1) + [n - c + 1])
            best = min(direct_shannon(list(p)) for p in _partitions(n, c))
            assert claimed <= best + 1e-12


def test_scaled_entropy_monotone_under_insertion(rng):
    # F = N * H grows when any point is added
    for _ in range(400):
        m = int(rng.integers(1, 10))
        counts = rng.integers(0, 6, size=m)
        counts[rng.integers(0, m)] += 1  # nonempty
        f0 = counts.sum() * direct_shannon(list(counts))
        c = int(rng.integers(0, m))
        counts2 = counts.copy()
        counts2[c] += 1
        f1 = counts2.sum() * direct_shannon(list(counts2))
        assert f1 >= f0 - 1e-9


def test_power_sum_monotone_under_insertion(rng):
    # G = sum N_i^alpha grows when any point is added
    for alpha in (1.5, 2.0, 3.0):
        for _ in range(150):
            m = int(rng.integers(1, 10))
            counts = rng.integers(0, 6, size=m)
            counts[rng.integers(0, m)] += 1
            g0 = float(sum(int(c) ** alpha for c in counts if c))
            c = int(rng.integers(0, m))
            counts[c] += 1
            g1 = float(sum(int(c) ** alpha for c in counts if c))
            assert g1 >= g0 + min(1.0, alpha - 1)  # strictly increasing


@pytest.mark.parametrize("kind", [SHANNON, renyi_kind(1.5), renyi_kind(2.0), renyi_kind(3.0)])
def test_entropy_from_sums_matches_array_form(rng, kind):
    # random histograms (one color included), plus the empty set (W = S = 0)
    pairs = [(0.0, 0.0)]
    for m in rng.integers(1, 12, size=200):
        masses = rng.uniform(0.01, 50.0, size=m) * 10.0 ** rng.integers(-3, 4, size=m)
        pairs.append((float(masses.sum()), float(core.power_term(masses, kind).sum())))
    W, S = np.array(pairs).T
    want = core.entropy_from_power_sum(W, S, kind)
    for (w, s), value in zip(pairs, want):
        got = core.entropy_from_sums(w, s, kind)
        assert type(got) is float
        assert got == pytest.approx(float(value), rel=1e-12, abs=1e-12)
    assert core.entropy_from_sums(0.0, 0.0, kind) == 0.0


def power_total_cases():
    """Masses of 0 up to many colors: zeros, one color, exact zeros among
    positive masses, and log-uniform masses from 1e-300 to 1e300."""
    rng = np.random.default_rng(5)
    spread = 10.0 ** rng.uniform(-300.0, 300.0, 256)
    spread[::9] = 0.0
    return [np.zeros(0), np.zeros(7), np.array([3.5]), np.array([0.0, 2.0, 0.0]),
            rng.uniform(0.5, 2.0, 256), spread, np.array([1e-300, 1.0, 1e300])]


@pytest.mark.parametrize("alpha", [None, 1.5, 2.0, 3.0, 60.0])
def test_power_total_matches_fsum(alpha):
    """``power_total`` against ``math.fsum`` of f over the masses, within
    1e-13 of the sum of |f|, with f(0) = 0, over every case's masses at which
    f stays finite."""
    kind = SHANNON if alpha is None else renyi_kind(alpha)
    for masses in power_total_cases():
        if alpha is not None:   # keep w**alpha inside the float range
            masses = masses[np.log10(np.maximum(masses, 1e-300)) * alpha <= 300.0]
        f = [w * math.log2(w) if alpha is None else w**alpha for w in masses.tolist() if w > 0]
        got = core.power_total(masses, kind)
        assert type(got) is float
        assert abs(got - math.fsum(f)) <= 1e-13 * math.fsum(map(abs, f)), (alpha, masses)
        if not f:
            assert got == 0.0


def test_kind_mismatch_rejected():
    a = EntropySummary(SHANNON, 2.0, 1.0)
    b = EntropySummary(renyi_kind(2.0), 2.0, 1.0)
    with pytest.raises(ValueError):
        core.merge_shannon(a, b)
    with pytest.raises(ValueError):
        core.merge_renyi(a, b, 2.0)


def test_running_sum_matches_formula(rng):
    """Bit for bit the pair from fresh arrays: the plain running sum and the
    running sum of each addition's two-sum error, both from 0."""
    cases = [np.zeros(0), np.array([3.5]), rng.uniform(0.5, 2.0, 1000),
             10.0 ** rng.uniform(0.0, 15.0, 1000),
             np.where(rng.random(1000) < 0.3, 0.0, rng.uniform(0.0, 1e12, 1000)),
             rng.uniform(0.0, 1.0, 2000)[::2]]
    for w in cases:
        hi = np.concatenate(([0.0], np.cumsum(w)))
        added = hi[1:] - hi[:-1]
        err = (hi[:-1] - (hi[1:] - added)) + (w - added)
        lo = np.concatenate(([0.0], np.cumsum(err)))
        got_hi, got_lo = core.running_sum(w)
        assert got_hi.dtype == got_lo.dtype == np.float64
        assert np.array_equal(got_hi, hi) and np.array_equal(got_lo, lo)


@pytest.mark.parametrize("case", ["no ties", "many ties", "all equal", "signed zeros", "empty",
                                  "one", "sorted", "reversed"])
def test_stable_order_matches_stable_argsort(rng, case):
    """The unstable sort with its tie repair gives numpy's stable order, and
    the values in that order bit for bit (signed zeros included)."""
    x = {
        "no ties": rng.uniform(-1e6, 1e6, 5000),
        "many ties": rng.integers(0, 40, 5000).astype(float),
        "all equal": np.full(3000, 2.5),
        "signed zeros": rng.choice([-0.0, 0.0, -1.0, 1.0], 2000),
        "empty": np.zeros(0),
        "one": np.array([7.0]),
        "sorted": np.sort(rng.integers(0, 300, 4000).astype(float)),
        "reversed": np.sort(rng.integers(0, 300, 4000).astype(float))[::-1],
    }[case]
    got, sorted_x = core.stable_order(x)
    want = np.argsort(x, kind="stable")
    assert got.dtype == np.intp and sorted_x.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(sorted_x.view(np.int64), x[want].view(np.int64))
