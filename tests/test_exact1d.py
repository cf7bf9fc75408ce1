"""Exact 1-D index: table correctness, query equality with brute force."""

import bisect
import copy
import pickle
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrange import core, storage
from entrange.core import ColoredPointSet, ColorHistogram, QueryRect, SHANNON, renyi_kind
from entrange.errors import InvalidWeight, OrderNotIndexed
from entrange.exact1d import BINCOUNT_BUCKETS, Exact1DIndex, _color_ids
from entrange.exactnd import ExactNDIndex
from entrange.oracle import brute_entropy
from entrange.partition import OracleBackend

from conftest import random_pointset


def rand_interval(rng, lo=0.0, hi=100.0):
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return QueryRect.interval(a, b)


KINDS = (SHANNON, renyi_kind(1.5), renyi_kind(2.0), renyi_kind(3.0))


def full_table(idx, kind):
    """The table of ``kind`` as a (k+1) x (k+1) array indexed by cut pair:
    the upper triangle, row-major, above the diagonal, zeros below. A
    sort-regime index holds it; for a bincount-regime one, which holds no
    tables, it is the table ``_build_tables`` gives its points."""
    k = len(idx.cuts)
    table = np.zeros((k, k))
    table[np.triu_indices(k, 1)] = (idx.tables if idx.fold == "sort" else idx._build_tables())[kind]
    return table


def many_colors_case(seed, n, colors):
    """n weighted points on integer coordinates (so ties straddle the cuts)
    in ``colors`` colors that all occur: past the bincount fold's bound,
    into the sort regime, when colors > 4 ceil(n^t)."""
    rng = np.random.default_rng(seed)
    return ColoredPointSet(rng.integers(0, n // 2, size=n).astype(float),
                           rng.permutation(np.arange(n) % colors), rng.uniform(0.5, 2.0, size=n),
                           num_colors=colors)


def sorted_colors(idx):
    """Each sorted position's color, read from the points in (coordinate,
    input index) order."""
    return idx.pts.colors[np.argsort(idx.pts.coords[:, 0], kind="stable")]


def table_value_naive(idx, i, j, kind):
    """Direct recomputation of one table entry; build-correctness oracle."""
    a, b = int(idx.cuts[i]), int(idx.cuts[j])
    entries: dict[int, float] = {}
    for c, w in zip(sorted_colors(idx)[a:b], idx.weights_sorted[a:b]):
        entries[int(c)] = entries.get(int(c), 0.0) + float(w)
    return core.entropy_of(ColorHistogram(entries), kind).value


def test_table_matches_naive_recomputation():
    # 100 colors over 200 points: past the bound of 60 (bucket size 15)
    pts = many_colors_case(5, 200, 100)
    idx = Exact1DIndex(pts, t=0.5, orders=(1.5, 2.0, 3.0))
    assert idx.fold == "sort"
    k = len(idx.cuts) - 1
    for kind in KINDS:
        table = full_table(idx, kind)
        for i in range(k):
            for j in range(i + 1, k + 1):
                want = table_value_naive(idx, i, j, kind)
                assert abs(table[i, j] - want) < 1e-6, (kind, i, j)


def palette_tables(idx):
    """The tables from a per-point build: every row passes over each point
    from its cut on, and looks up the first key at or after the row's start
    of every declared color."""
    k = len(idx.cuts) - 1
    tables = {kind: np.zeros((k + 1, k + 1)) for kind in idx.kinds}
    cp, n, colors = idx.color_prefix, len(idx.pts), sorted_colors(idx)
    # each position's own key
    key = cp.keys.searchsorted(colors * n + np.arange(n))
    palette = np.arange(idx.pts.num_colors)
    for i in range(k):
        start = int(idx.cuts[i])
        weights = idx.weights_sorted[start:]
        at = cp.keys.searchsorted(palette * n + start)[colors[start:]]
        before = ((cp.wpre[key[start:]] - cp.wpre[at])
                  + (cp.wlo[key[start:]] - cp.wlo[at]))
        after = before + weights
        ends = idx.cuts[i + 1:] - start - 1
        W = np.cumsum(weights)[ends]
        for kind in idx.kinds:
            steps = core.power_term(after, kind) - core.power_term(before, kind)
            tables[kind][i, i + 1:] = core.entropy_from_power_sum(W, np.cumsum(steps)[ends], kind)
    return tables


def sparse_colors_case(seed, n, declared):
    """n weighted points over 40 colors spread across ``declared`` ids."""
    rng = np.random.default_rng(seed)
    colors = rng.choice(declared, size=40, replace=False)[rng.integers(0, 40, size=n)]
    return ColoredPointSet(rng.uniform(0, 100, size=n), colors, rng.uniform(0.5, 2.0, size=n),
                           num_colors=declared)


def grouped_tables(idx):
    """The tables from a plain loop over the build's (bucket, color) groups:
    each group's color mass since the row's cut before and after it, as the
    same prefix-pair differences, its steps summed in bucket-major order
    and by color within a bucket, and W as a pair difference at the cuts."""
    cp, size, n = idx.color_prefix, idx.bucket_size, len(idx.pts)
    k = len(idx.cuts) - 1
    keys, wpre, wlo = cp.keys.tolist(), cp.wpre.tolist(), cp.wlo.tolist()
    bounds: dict[tuple[int, int], list[int]] = {}  # (bucket, color) -> [first key, past last key]
    for place, key in enumerate(keys):
        color, position = divmod(key, n)
        bounds.setdefault((position // size, color), [place, place])[1] = place + 1
    groups = sorted(bounds.items())
    S = {kind: np.zeros((k + 1, k + 1)) for kind in idx.kinds}
    for i in range(k):
        start = int(idx.cuts[i])
        masses, ends = [], []
        for j in range(i + 1, k + 1):
            for (bucket, color), (first, end) in groups:
                if bucket == j - 1:
                    at = bisect.bisect_left(keys, color * n + start)
                    masses.append(((wpre[first] - wpre[at]) + (wlo[first] - wlo[at]),
                                   (wpre[end] - wpre[at]) + (wlo[end] - wlo[at])))
            ends.append(len(masses) - 1)
        for kind in idx.kinds:
            f = core.power_term(np.array(masses), kind)
            running, total = [], 0.0
            for step in (f[:, 1] - f[:, 0]).tolist():
                total += step
                running.append(total)
            S[kind][i, i + 1:] = [running[e] for e in ends]
    upper = np.triu_indices(k + 1, 1)
    a, b = idx.cuts[upper[0]], idx.cuts[upper[1]]
    W = (idx.wpre[b] - idx.wpre[a]) + (idx.wlo[b] - idx.wlo[a])
    tables = {kind: np.zeros((k + 1, k + 1)) for kind in idx.kinds}
    for kind in idx.kinds:
        tables[kind][upper] = core.entropy_from_power_sum(W, S[kind][upper], kind)
    return tables


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_tables_match_palette_build(t):
    """Bit for bit the plain-loop grouped build; within 1e-12 of the
    per-point build, whose in-bucket sums round differently. Below t = 1 the
    first case is in the sort regime (100 colors, bound 60 at t = 0.5), and
    at t = 0 all but the empty one; at t = 1 no index is (D <= n < 4n)."""
    cases = [many_colors_case(5, 200, 100), span_case(3, 50), sparse_colors_case(7, 300, 2**12),
             ColoredPointSet(np.zeros((0, 1)), np.zeros(0, dtype=np.int64))]
    folds = []
    for pts in cases:
        idx = Exact1DIndex(pts, t=t, orders=(1.5, 2.0, 3.0))
        folds.append(idx.fold)
        grouped, per_point = grouped_tables(idx), palette_tables(idx)
        for kind in idx.kinds:
            table = full_table(idx, kind)
            assert np.array_equal(table, grouped[kind]), (t, kind)
            assert np.allclose(table, per_point[kind], rtol=0.0, atol=1e-12), (t, kind)
    assert folds == {0.0: ["sort"] * 3 + ["bincount"], 0.5: ["sort"] + ["bincount"] * 3,
                     1.0: ["bincount"] * 4}[t]


def grouped_case(shape, seed, n):
    """n points on integer coordinates in runs of 1-9 equal ones, so ties
    straddle the cuts, with weights near 1 and four colors, except: "one
    color" (one group per bucket), "own color" (one group per point) and
    "heavy" (1-5 points of weight 1e15)."""
    rng = np.random.default_rng(seed)
    coords = np.repeat(np.arange(n), rng.integers(1, 10, size=n))[:n].astype(float)
    weights = rng.uniform(0.9, 1.1, size=n)
    colors = rng.integers(0, 4, size=n)
    if shape == "one color":
        colors[:] = 0
    elif shape == "own color":
        colors = rng.permutation(n)
    elif shape == "heavy":
        weights[rng.choice(n, size=min(n, int(rng.integers(1, 6))), replace=False)] = 1e15
    return ColoredPointSet(coords, colors, weights, num_colors=max(4, n))


@pytest.mark.parametrize("shape", ["one color", "own color", "ties", "heavy"])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), t=st.sampled_from([0.0, 0.5, 1.0]))
def test_grouped_build_matches_brute_force(shape, seed, n, t):
    """Every interval with integer ends and every span of sorted positions
    answers within 1e-6 of a linear scan (``brute_entropy``, and
    ``OracleBackend`` for spans), for Shannon and Renyi 1.5, 2 and 3."""
    pts = grouped_case(shape, seed, n)
    idx = Exact1DIndex(pts, t=t, orders=(1.5, 2.0, 3.0))
    top = int(pts.coords.max()) + 2
    rects = [QueryRect.interval(a, b) for a in range(-1, top) for b in range(a, top)]
    for kind in KINDS:
        for rect in rects:
            want, got = brute_entropy(pts, rect, kind), idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-6, (shape, t, rect, kind)
            assert got.count == pytest.approx(want.count, rel=1e-6), (shape, t, rect, kind)
        oracle = OracleBackend(pts, kind)
        for i in range(n + 1):
            for j in range(i, n + 1):
                want, got = oracle.summary_range(i, j), idx.query_span(i, j, kind)
                assert abs(got.value - want.value) < 1e-6, (shape, t, i, j, kind)


def test_grouped_build_work(monkeypatch):
    """On 32,768 points with 256 zipf(1.6) colors the build passes
    ``core.power_term`` under an eighth of the elements a per-point build
    would (two arrays per row and kind of the points from the row's cut on):
    one term per (bucket, color) group, row and kind reads about 0.09 of
    them, and two terms per group about 0.18."""
    rng = np.random.default_rng(201)
    n, m = 32768, 256
    p = 1.0 / np.arange(1, m + 1) ** 1.6
    counts = np.floor(p / p.sum() * n).astype(np.int64)
    counts[:n - counts.sum()] += 1
    pts = ColoredPointSet(rng.uniform(0.0, 1e6, n), rng.permutation(np.repeat(np.arange(m), counts)),
                          rng.uniform(0.5, 2.0, n), num_colors=m)
    passed = []
    power_term = core.power_term

    def counted(w, kind):
        passed.append(np.size(w))
        return power_term(w, kind)

    monkeypatch.setattr(core, "power_term", counted)
    idx = Exact1DIndex(pts, t=0.5, orders=(2.0,))
    per_point = 2 * len(idx.kinds) * int((n - idx.cuts[:-1]).sum())
    assert sum(passed) < per_point / 8, sum(passed) / per_point


def cut_case(shape, seed):
    """60 weighted points on integer coordinates (so ties straddle the
    cuts), except: "zero bucket" (distinct coordinates, and positions 12-23
    weighing 0, a whole bucket at 8 and at 12 points per bucket), "one
    color" (a single color throughout) and "one point per group" (more
    colors than points per bucket). All but "one color" draw from 500
    colors, so below t = 1 their indexes are in the sort regime."""
    rng = np.random.default_rng(seed)
    n = 60
    coords = rng.integers(0, 45, size=n).astype(float)
    colors = rng.integers(0, 500, size=n)
    weights = rng.uniform(0.5, 2.0, size=n)
    if shape == "zero bucket":
        coords = np.arange(n, dtype=float)
        weights[12:24] = 0.0
    elif shape == "one color":
        colors[:] = 0
    return ColoredPointSet(coords, colors, weights, num_colors=500)


@pytest.mark.parametrize("shape", ["zero bucket", "one color", "one point per group"])
@pytest.mark.parametrize("t", [0.0, 0.5, 0.6, 1.0])
def test_grouped_build_at_every_cut_pair(shape, t):
    """Each table entry is the linear scan of its cut pair, and ``row`` from
    a cut agrees with the table at every later cut, within 1e-9."""
    pts = cut_case(shape, 11)
    idx = Exact1DIndex(pts, t=t, orders=(1.5, 2.0, 3.0))
    if shape == "zero bucket" and 0.0 < t < 1.0:
        assert idx.bucket_size in (8, 12)
        # [11, 25)'s slice is a zero-weight bucket between weighed fringe
        # points: the sort fold rebuilds the slice's S from a summary of mass 0
        stats = {}
        idx.query_span(11, 25, stats=stats)
        a, b = stats["core_cuts"]
        assert not pts.weights[a * idx.bucket_size:b * idx.bucket_size].any()
        for kind in KINDS:
            want = brute_entropy(pts, QueryRect.interval(11.0, 24.0), kind).value
            assert abs(idx.query_span(11, 25, kind).value - want) < 1e-9, kind
    assert idx.fold == ("sort" if shape != "one color" and t < 1.0 else "bincount")
    cuts = idx.cuts.tolist()
    for kind in KINDS:
        oracle, tables = OracleBackend(pts, kind), full_table(idx, kind)
        for i, lo in enumerate(cuts[:-1]):
            _, row = idx.row(lo, kind)
            for j in range(i + 1, len(cuts)):
                table = tables[i, j]
                assert abs(table - oracle.summary_range(lo, cuts[j]).value) < 1e-9, (kind, i, j)
                assert abs(row[cuts[j] - lo] - table) < 1e-9, (kind, i, j)


def test_brute_shannon_finite_past_overflowing_mass_ratios():
    """Weights 1e300, 1e-30 and 1e-40: brute force answers a finite Shannon
    value, that of both exact indexes."""
    pts = ColoredPointSet(np.array([0.0, 1.0, 2.0]), [0, 1, 2], [1e300, 1e-30, 1e-40])
    rect = QueryRect.interval(-1.0, 3.0)
    want = brute_entropy(pts, rect, SHANNON).value
    assert np.isfinite(want)
    for index in (Exact1DIndex(pts, 0.5), ExactNDIndex(pts, 0.5)):
        assert abs(index.query(rect, SHANNON).value - want) < 1e-9, type(index).__name__


def test_build_memory_independent_of_declared_colors():
    """2**18 declared colors over 300 points: a build allocates far less than
    one dense per-color array (2 MB), and each sorted position's id is its
    color's rank among the colors that occur."""
    pts = sparse_colors_case(7, 300, 2**18)
    tracemalloc.start()
    try:
        idx = Exact1DIndex(pts, t=0.5, orders=(2.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    present, rank = np.unique(sorted_colors(idx), return_inverse=True)
    assert len(present) == 40 and idx.ids_sorted.dtype == np.uint8
    assert np.array_equal(idx.present, present) and np.array_equal(idx.ids_sorted, rank)


def test_t_one_single_bucket(rng):
    """One bucket holds every point, so D <= n < 4 bucket sizes: the index
    folds by ``bincount`` and holds no table; the one entry its points'
    table would hold and the full span's answer are the full range's."""
    pts = random_pointset(rng, 64, d=1, m=5)
    idx = Exact1DIndex(pts, t=1.0)
    assert len(idx.cuts) == 2 and idx.fold == "bincount"  # one bucket
    full = brute_entropy(pts, QueryRect.interval(-1e9, 1e9))
    assert idx.tables[SHANNON].shape == (0,) and idx._build_tables()[SHANNON].shape == (1,)
    assert abs(full_table(idx, SHANNON)[0, 1] - full.value) < 1e-9
    assert abs(idx.query_span(0, 64).value - full.value) < 1e-9


def test_t_zero_unit_buckets(rng):
    pts = random_pointset(rng, 60, d=1, m=6, weighted=True)
    idx = Exact1DIndex(pts, t=0.0, orders=(2.0,))
    assert idx.bucket_size == 1 and idx.fold == "sort"   # 6 colors against a bound of 4
    k = len(idx.cuts) - 1
    assert k == 60
    for kind in (SHANNON, renyi_kind(2.0)):
        table = full_table(idx, kind)
        for i in range(0, k, 7):
            for j in range(i + 1, k + 1, 11):
                assert abs(table[i, j] - table_value_naive(idx, i, j, kind)) < 1e-6


def test_query_empty_range(rng):
    pts = random_pointset(rng, 100, d=1)
    idx = Exact1DIndex(pts, t=0.5)
    s = idx.query(QueryRect.interval(200.0, 300.0))
    assert s.count == 0.0 and s.value == 0.0


def test_query_matches_oracle_random_sweep(rng):
    pts = random_pointset(rng, 400, d=1, m=17, weighted=True, duplicate_frac=0.2)
    idx = Exact1DIndex(pts, t=0.5, orders=(1.5, 2.0, 3.0))
    for _ in range(250):
        rect = rand_interval(rng)
        for kind in KINDS:
            want = brute_entropy(pts, rect, kind)
            got = idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-6
            assert abs(got.count - want.count) < 1e-6


def test_query_independent_of_t(rng):
    pts = random_pointset(rng, 300, d=1, m=9, duplicate_frac=0.1)
    idxs = [Exact1DIndex(pts, t=t, orders=(2.0,)) for t in (0.25, 0.5, 0.75)]
    for _ in range(100):
        rect = rand_interval(rng)
        vals = [idx.query(rect, renyi_kind(2.0)).value for idx in idxs]
        assert max(vals) - min(vals) < 1e-9


def test_fringe_size_bound(rng):
    pts = random_pointset(rng, 500, d=1, m=23)
    for t in (0.25, 0.5, 0.75):
        idx = Exact1DIndex(pts, t=t)
        cap = 2 * idx.bucket_size
        for _ in range(100):
            stats = {}
            idx.query(rand_interval(rng), SHANNON, stats=stats)
            assert stats["fringe_points"] <= cap


def test_unknown_order_rejected(rng):
    pts = random_pointset(rng, 50, d=1)
    idx = Exact1DIndex(pts, t=0.5, orders=(2.0,))
    with pytest.raises(OrderNotIndexed):
        idx.query(QueryRect.interval(0.0, 1.0), renyi_kind(2.5))


def test_refuses_points_t_and_rects_outside_1d(rng):
    pts = random_pointset(rng, 20, d=1)
    with pytest.raises(ValueError, match="requires 1-D points"):
        Exact1DIndex(random_pointset(rng, 20, d=2), 0.5)
    for t in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            Exact1DIndex(pts, t)
    with pytest.raises(ValueError, match="query rect must be 1-D"):
        Exact1DIndex(pts, 0.5).query(QueryRect.full(2), SHANNON)


def test_space_stats_bytes():
    """Four arrays of about one float per point, and each point's color id
    on one byte (its one color array) with the colors that occur; then, in
    the sort regime (150 colors over 500 points, bound 92), two tables of
    k(k+1)/2 entries and the ``ColorPrefix`` (three more such arrays) their
    build reads, and in the bincount regime (20 colors) none, but the
    per-cut color prefixes once a query derives them: a pair of floats per
    cut and color. ``table_entries`` counts the entries held."""
    n = 500
    for colors, fold in ((150, "sort"), (20, "bincount")):
        idx = Exact1DIndex(many_colors_case(1, n, colors), t=0.5, orders=(2.0,))
        assert idx.fold == fold and idx.ids_sorted.dtype == np.uint8
        space = idx.space_stats()
        k = space["buckets"]
        entries = 2 * k * (k + 1) // 2 if fold == "sort" else 0
        tables = sum(table.nbytes for table in idx.tables.values())
        assert space["table_entries"] == entries and tables == entries * 8
        ids = n + 8 * len(idx.present)
        floats = 7 if fold == "sort" else 4
        assert tables + ids + floats * 8 * n <= space["bytes"] <= tables + ids + floats * 8 * 510
        idx.query_span(1, 499, renyi_kind(2.0))
        prefix = (k + 1) * 2 * len(idx.present) * 8 if fold == "bincount" else 0
        assert idx.space_stats()["bytes"] == space["bytes"] + prefix


def query_state(idx):
    """Which of the query's lazily derived attributes the index holds."""
    return {name for name in ("_views", "color_prefix", "cut_prefix") if name in vars(idx)}


def test_query_state_is_derived_on_first_use(tmp_path, rng):
    """Neither a build nor a load in the bincount regime derives the query's
    memoryviews, the ``ColorPrefix`` or the per-cut color prefixes. The
    first query makes the views, the first ``bincount`` fold of a span with
    a slice the per-cut prefixes, which ``space_stats`` then counts, off a
    ``ColorPrefix`` the index does not keep; copies and pickles hold no
    views and answer bit for bit alike. A sort-regime build holds the
    ``ColorPrefix``, since its tables read it, and its load does not, until
    the first folded span with a slice."""
    pts = random_pointset(rng, 400, d=1, m=17, weighted=True)
    built = Exact1DIndex(pts, t=0.5, orders=(2.0,))
    path = tmp_path / "x.rqe"
    storage.save_index(path, "exact1d", built)
    loaded = storage.load_index(path, expect_kind="exact1d")[2]
    spans = [(0, 400), (3, 10), (3, 390), (20, 40), (21, 399), (400, 400)]
    for idx in (built, loaded):
        assert idx.fold == "bincount" and query_state(idx) == set()
        before = idx.space_stats()["bytes"]
        idx.query_span(3, 10)   # no slice
        assert query_state(idx) == {"_views"}
        stats = {}
        idx.query_span(3, 390, stats=stats)
        assert stats["core_cuts"] == (1, 19) and stats["fold"] == "bincount"
        assert query_state(idx) == {"_views", "cut_prefix"}
        k, D = len(idx.cuts) - 1, len(idx.present)
        assert idx.cut_prefix.shape == (k + 1, 2, D)
        assert idx.space_stats()["bytes"] == before + (k + 1) * 2 * D * 8
        want = [idx.query_span(i, j, kind) for i, j in spans for kind in (SHANNON, renyi_kind(2.0))]
        for other in (pickle.loads(pickle.dumps(idx)), copy.copy(idx), copy.deepcopy(idx)):
            assert "_views" not in vars(other)
            got = [other.query_span(i, j, kind) for i, j in spans
                   for kind in (SHANNON, renyi_kind(2.0))]
            assert got == want
    built = Exact1DIndex(many_colors_case(2, 400, 150), t=0.5)
    storage.save_index(path, "exact1d", built)
    loaded = storage.load_index(path, expect_kind="exact1d")[2]
    assert built.fold == loaded.fold == "sort"
    assert query_state(built) == {"color_prefix"} and query_state(loaded) == set()
    loaded.query_span(3, 10)   # no slice: the fringe's ids alone
    assert query_state(loaded) == {"_views"}
    assert loaded.query_span(3, 390) == built.query_span(3, 390)
    assert query_state(loaded) == {"_views", "color_prefix"}


def prefix_ids(pts):
    """The colors that occur and each sorted position's id among them, read
    off a ``ColorPrefix`` of the colors in stable coordinate order: each
    color's keys are one run, and its id is the run's place."""
    n = len(pts)
    order = np.argsort(pts.coords[:, 0], kind="stable")
    cp = core.ColorPrefix(pts.colors[order], pts.weights[order])
    color, position = np.divmod(cp.keys, max(n, 1))
    first = np.concatenate(([True], color[1:] != color[:-1]))[:n]
    ids = np.empty(n, core.color_type(int(first.sum())))
    ids[position] = np.cumsum(first) - 1
    return color[first], ids


@pytest.mark.parametrize("case", ["empty", "one color", "gaps", "sparse gaps", "uint16 ids",
                                  "zero weights"])
def test_ids_match_color_prefix(case):
    """``present`` and ``ids_sorted``, from one ``bincount`` and a table
    gather (or ``np.unique`` when the declared colors outnumber 8n + 256,
    as an id of 10^12 over 40 points does), are what a ``ColorPrefix``'s
    keys give, on the same type; both ways of finding them agree."""
    rng = np.random.default_rng(11)
    n = {"empty": 0, "one color": 50, "gaps": 10_000, "sparse gaps": 40,
         "uint16 ids": 1000, "zero weights": 300}[case]
    palette = {"one color": [3], "gaps": [0, 7, 300, 70_000], "sparse gaps": [0, 7, 300, 10**12],
               "uint16 ids": np.arange(600)}.get(case, np.arange(12))
    colors = rng.choice(palette, n) if n else np.zeros(0, np.int64)
    weights = rng.uniform(0.5, 2.0, n)
    if case == "zero weights":
        weights[rng.random(n) < 0.3] = 0.0
        weights[colors == 5] = 0.0   # a color of no mass still occurs
    pts = ColoredPointSet(rng.integers(0, max(n // 3, 1), n).astype(float), colors, weights,
                          num_colors=int(np.max(palette)) + 1)
    idx = Exact1DIndex(pts, t=0.5)
    present, ids = prefix_ids(pts)
    assert idx.present.dtype == present.dtype and idx.ids_sorted.dtype == ids.dtype
    assert np.array_equal(idx.present, present) and np.array_equal(idx.ids_sorted, ids)
    if case == "uint16 ids":
        assert len(present) > 256 and ids.dtype == np.uint16
    # force the bincount way (not with an id of 10^12: its count would take
    # 8 TB), then the sort
    for declared in ((0,) if case != "sparse gaps" else ()) + (8 * n + 257,):
        got_present, got_ids = _color_ids(pts.colors, declared)
        assert got_present.dtype == present.dtype and got_ids.dtype == ids.dtype
        assert np.array_equal(got_present, present)
        assert np.array_equal(got_ids[np.argsort(pts.coords[:, 0], kind="stable")], ids)


def test_cut_prefix_gives_each_core_color_mass():
    """Every color's mass inside every cut pair, read off the per-cut
    prefixes, is the float ``ColorPrefix.mass`` gives; at the bincount
    fold's bound on D (4 bucket sizes) the prefixes take about 64 bytes a
    point."""
    rng = np.random.default_rng(3)
    n = 1024
    pts = ColoredPointSet(rng.uniform(0, 100, n), rng.permutation(np.arange(n) % 128),
                          rng.uniform(0.5, 2.0, n))
    idx = Exact1DIndex(pts, t=0.5)
    assert len(idx.present) == BINCOUNT_BUCKETS * idx.bucket_size and idx.fold == "bincount"
    prefix, cuts = idx.cut_prefix, idx.cuts.tolist()
    for a in range(len(cuts)):
        for b in range(a + 1, len(cuts)):
            pair = prefix[b] - prefix[a]
            want = idx.color_prefix.mass(idx.present, cuts[a], cuts[b])
            assert np.array_equal(pair[0] + pair[1], want), (a, b)
    assert prefix.nbytes <= 64 * n + 128 * idx.bucket_size


def test_arrays_in_either_byte_order():
    """``from_arrays`` takes every stored array in either byte order and
    holds the tables in native order, which the query's memoryviews need;
    it answers bit for bit as the build does. Tables on another type than
    float64 are refused in either order. 120 colors over 300 points are
    past the bound of 72: the tables hold entries."""
    rng = np.random.default_rng(11)
    idx = Exact1DIndex(many_colors_case(11, 300, 120), t=0.5, orders=(2.0,))
    assert idx.fold == "sort"
    arrays, scalars = idx.to_arrays()
    assert set(arrays) == set(Exact1DIndex.STORED)
    swapped = {name: a.astype(a.dtype.newbyteorder(">")) for name, a in arrays.items()}
    loaded = Exact1DIndex.from_arrays(swapped, scalars)
    assert all(table.dtype.isnative for table in loaded.tables.values())
    spans = [tuple(sorted(rng.integers(0, 301, size=2))) for _ in range(100)]
    rects = [rand_interval(rng) for _ in range(100)]
    for kind in (SHANNON, renyi_kind(2.0)):
        for i, j in spans:
            assert loaded.query_span(i, j, kind) == idx.query_span(i, j, kind), (i, j)
        for rect in rects:
            assert loaded.query(rect, kind) == idx.query(rect, kind), rect
    for order in "<>":
        narrow = {**arrays, "tables": arrays["tables"].astype(np.dtype("f4").newbyteorder(order))}
        with pytest.raises(ValueError, match="do not fit"):
            Exact1DIndex.from_arrays(narrow, scalars)


def test_empty_pointset():
    pts = ColoredPointSet(np.zeros((0, 1)), np.zeros(0, dtype=np.int64))
    idx = Exact1DIndex(pts, t=0.5)
    s = idx.query(QueryRect.interval(0.0, 1.0))
    assert s.count == 0.0


def test_single_color_dataset(rng):
    # degenerate: all mass one color; all entropies 0 everywhere
    coords = rng.uniform(0, 100, size=40)
    pts = ColoredPointSet(coords, np.zeros(40, dtype=np.int64))
    idx = Exact1DIndex(pts, t=0.5, orders=(2.0,))
    for _ in range(50):
        rect = rand_interval(rng)
        assert idx.query(rect, SHANNON).value == pytest.approx(0.0, abs=1e-12)
        assert idx.query(rect, renyi_kind(2.0)).value == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# weighted inputs: heavy points among light ones, zero weights, duplicates

WEIGHTED_KINDS = (SHANNON, renyi_kind(2.0), renyi_kind(3.0))


def weighted_case(seed, heavy_lo, heavy_hi):
    """64 points, 4 colors, light weights in [0.5, 2], 1-5 heavy points
    log-uniform in [heavy_lo, heavy_hi], four zero weights, integer
    coordinates in [0, 40) (so many duplicates), and a one-color block at
    coordinates 50..55."""
    rng = np.random.default_rng(seed)
    n = 64
    coords = rng.integers(0, 40, size=n).astype(float)
    colors = rng.integers(0, 4, size=n)
    weights = rng.uniform(0.5, 2.0, size=n)
    heavy = rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
    weights[heavy] = np.exp(rng.uniform(np.log(heavy_lo), np.log(heavy_hi), size=len(heavy)))
    weights[rng.choice(n, size=4, replace=False)] = 0.0
    coords[:6] = 50.0 + np.arange(6)
    colors[:6] = 0
    pts = ColoredPointSet(coords, colors, weights, num_colors=4)
    rects = [QueryRect.interval(*sorted(rng.integers(-1, 57, size=2))) for _ in range(20)]
    rects += [
        QueryRect.interval(50.0, 55.0),    # single color
        QueryRect.interval(50.0, 50.0),    # single point
        QueryRect.interval(40.5, 49.5),    # empty gap inside the data
        QueryRect.interval(100.0, 200.0),  # empty, beyond the data
    ]
    return pts, rects


def check_weighted(seed, heavy_lo, heavy_hi):
    """The case's intervals against brute force at 1e-6; returns how many
    folded a fringe by ``bincount`` onto a precomputed slice."""
    pts, rects = weighted_case(seed, heavy_lo, heavy_hi)
    idx = Exact1DIndex(pts, t=0.5, orders=(2.0, 3.0))
    folded = 0
    for rect in rects:
        for kind in WEIGHTED_KINDS:
            want, stats = brute_entropy(pts, rect, kind), {}
            got = idx.query(rect, kind, stats)
            assert abs(got.value - want.value) < 1e-6, (seed, rect, kind)
            assert got.count == pytest.approx(want.count, rel=1e-6), (seed, rect, kind)
            folded += stats["core_cuts"] is not None and stats["fold"] == "bincount"
    return folded


@pytest.mark.parametrize("heavy_lo, heavy_hi", [(1e2, 1e4), (1e4, 1e6), (1e6, 1e9)])
def test_weighted_heavy_points_match_oracle(heavy_lo, heavy_hi):
    for seed in range(30):
        check_weighted(seed, heavy_lo, heavy_hi)


def test_weighted_extreme_heavy_points_match_oracle():
    # every seed folds fringes onto slices through the per-cut prefixes
    for seed in range(30):
        assert check_weighted(seed, 1e9, 1e15) > 0, seed


def check_or_refused(pts, alpha, rects):
    """A build under Renyi ``alpha`` answers every rect within 1e-6 of brute
    force, or refuses the order (InvalidWeight); True when it refused."""
    kind = renyi_kind(alpha)
    try:
        idx = Exact1DIndex(pts, t=0.5, orders=(alpha,))
    except InvalidWeight as exc:
        assert f"Renyi order {alpha} " in str(exc)
        return True
    for rect in rects:
        want, got = brute_entropy(pts, rect, kind), idx.query(rect, kind)
        assert abs(got.value - want.value) < 1e-6, (alpha, rect)
        assert got.count == pytest.approx(want.count, rel=1e-9), (alpha, rect)
    return False


@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-120, 1e120, 1e170, 1e300])
def test_renyi_weight_scale_answers_or_refuses(alpha, scale):
    """64 points in 5 colors, weights uniform in [0.5, 1.5] times ``scale``:
    every interval between the points' coordinates is answered right or the
    build refuses the order. Renyi-2 answers at 1e-120 and 1e120; its power
    sums leave float range (2^-1022 to 2^1023) from 1e-170 and 1e170 on,
    Renyi-3's from 1e-120 and 1e120 on."""
    rng = np.random.default_rng(0)
    pts = ColoredPointSet(rng.uniform(0, 100, 64), rng.integers(0, 5, 64),
                          rng.uniform(0.5, 1.5, 64) * scale)
    ends = np.unique(pts.coords).tolist()
    rects = [QueryRect.interval(lo, hi) for k, lo in enumerate(ends) for hi in ends[k:]]
    refused = alpha == 3.0 or abs(np.log10(scale)) > 150
    assert check_or_refused(pts, alpha, rects) == refused


def test_high_renyi_orders_answer_or_refuse():
    """200 unit-weight points in 6 colors: alpha 100 and 130 answer 280
    intervals right, and alpha 140 and 200, where W^alpha = 200^alpha
    passes 2^1023, are refused at build (a query at 140 once raised a bare
    OverflowError, and the full range answered 7.68 bits at 200 against a
    truth of 2.41)."""
    rng = np.random.default_rng(1)
    pts = ColoredPointSet(rng.uniform(0, 100, 200), rng.integers(0, 6, 200))
    rects = [QueryRect.full(1)] + [rand_interval(rng) for _ in range(279)]
    for alpha, refused in ((100.0, False), (130.0, False), (140.0, True), (200.0, True)):
        assert check_or_refused(pts, alpha, rects) == refused, alpha


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_log_uniform_weights_match_oracle(data):
    """Weights log-uniform in [1, 1e12] on integer coordinates (so many
    duplicates), then a one-color block at 20..22: both exact structures
    answer Shannon and Renyi-2 within 1e-6 of brute force on every interval
    with integer ends, which include single-color and empty ones."""
    n = data.draw(st.integers(1, 40))
    coords = data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)) + [20, 21, 22]
    colors = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) + [1, 1, 1]
    powers = data.draw(st.lists(st.floats(0.0, 12.0), min_size=n + 3, max_size=n + 3))
    pts = ColoredPointSet(np.array(coords, dtype=float), colors, 10.0 ** np.array(powers),
                          num_colors=4)
    t = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    rects = [QueryRect.interval(a, b) for a in range(-1, 24) for b in range(a, 24)]
    for index in (Exact1DIndex(pts, t, orders=(2.0,)), ExactNDIndex(pts, t, orders=(2.0,))):
        for rect in rects:
            for kind in (SHANNON, renyi_kind(2.0)):
                want = brute_entropy(pts, rect, kind)
                got = index.query(rect, kind)
                assert abs(got.value - want.value) < 1e-6, (type(index).__name__, rect, kind)
                assert got.count == pytest.approx(want.count, rel=1e-6), (rect, kind)


# ---------------------------------------------------------------------------
# query_span over every span: the cut pair, the fold and the early return


def span_case(seed, n, colors=5):
    """n points: integer coordinates (so many duplicates), weights in
    [0.5, 2] with every seventh zero, and a one-color block of 6 points at
    the end of the sorted order, so some spans hold a single color. Every
    one of ``colors`` colors occurs (given n - 6 >= colors)."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, n // 2 + 1, size=n).astype(float)
    ids = np.empty(n, dtype=np.int64)
    ids[6:] = rng.permutation(np.arange(n - 6) % colors)
    weights = rng.uniform(0.5, 2.0, size=n)
    weights[::7] = 0.0
    coords[:6], ids[:6] = 1000.0 + np.arange(6), colors - 1
    return ColoredPointSet(coords, ids, weights, num_colors=colors)


def check_every_span(pts, t, colors):
    """Every span [i, j) of sorted positions (empty ones included) and every
    interval between the points' coordinates, under Shannon and Renyi 2 and
    3, against a linear scan at 1e-9. ``colors`` colors occur, which pick
    the fold: ``stats`` must name it, and the other fold, forced on a copy,
    must answer each span within 1e-12."""
    idx = Exact1DIndex(pts, t=t, orders=(2.0, 3.0))
    n, cuts = len(pts), idx.cuts
    fold = "bincount" if colors <= BINCOUNT_BUCKETS * idx.bucket_size else "sort"
    assert len(idx.present) == colors and idx.fold == fold
    assert np.array_equal(idx.present[idx.ids_sorted], sorted_colors(idx))
    other = copy.copy(idx)
    other.fold = "sort" if fold == "bincount" else "bincount"
    if fold == "bincount":   # the forced sort fold reads a sort-regime index's tables
        other.tables = idx._build_tables()
    ends = [-1.0, *np.unique(pts.coords).tolist(), 2000.0]
    rects = [QueryRect.interval(lo, hi) for k, lo in enumerate(ends) for hi in ends[k:]]
    for kind in WEIGHTED_KINDS:
        oracle, table = OracleBackend(pts, kind), full_table(idx, kind)
        for i in range(n + 1):
            for j in range(i, n + 1):
                stats = {}
                got = idx.query_span(i, j, kind, stats=stats)
                want = oracle.summary_range(i, j)
                assert abs(got.value - want.value) < 1e-9, (t, kind, i, j)
                assert abs(got.count - want.count) < 1e-9, (t, kind, i, j)
                forced = other.query_span(i, j, kind)
                assert abs(forced.value - got.value) < 1e-12, (t, kind, i, j)
                assert abs(forced.count - got.count) < 1e-12, (t, kind, i, j)
                # the arithmetic cut pair against a search of the cut array
                a = int(np.searchsorted(cuts, i, side="left"))
                b = int(np.searchsorted(cuts, j, side="right")) - 1
                core = cuts[b] - cuts[a] if a < b else 0
                folded = j - i - core or (j > i and fold == "bincount")
                assert stats == {"points_in_range": j - i, "fringe_points": j - i - core,
                                 "core_cuts": (a, b) if a < b else None,
                                 "fold": fold if folded else None}, (t, i, j)
                if a < b and core == j - i:   # a slice, which the sort regime reads
                    assert (got if fold == "sort" else forced).value == table[a, b]
        for rect in rects:
            want, got = brute_entropy(pts, rect, kind), idx.query(rect, kind)
            assert abs(got.value - want.value) < 1e-9, (t, kind, rect)
            assert got.count == pytest.approx(want.count, rel=1e-12, abs=1e-12), (t, kind, rect)
    return idx


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("n", [37, 50])
def test_every_span_matches_oracle(t, n):
    """Both sides of the fold rule: one color always folds by ``bincount``,
    5 colors sort at t = 0 (bound 4), and 31 colors sort at t = 0 and 0.3,
    and at t = 0.5 over 37 points (bound 28, against 32 over 50)."""
    for colors in (1, 5, 31):
        idx = check_every_span(span_case(n, n, colors), t, colors)
        if 0.0 < t < 1.0:
            assert n % idx.bucket_size  # the last bucket is short


def bincount_case(seed):
    """60 weighted points at distinct coordinates in 5 colors that all occur."""
    rng = np.random.default_rng(seed)
    return ColoredPointSet(rng.uniform(0.0, 100.0, 60), rng.permutation(np.arange(60) % 5),
                           rng.uniform(0.5, 2.0, 60))


def test_bincount_regime_holds_no_tables(tmp_path):
    """In the bincount regime an index builds no table, writes tables of
    shape (kinds, 0) and loads none, and ``space_stats`` counts no entry.
    ``stats["fold"]`` reads "bincount" for every non-empty span, a span
    that is exactly a slice included, and None for an empty one; each
    answer matches a linear scan."""
    pts = bincount_case(17)
    idx = Exact1DIndex(pts, t=0.5, orders=(2.0, 3.0))
    assert idx.fold == "bincount" and len(idx.present) == 5
    assert idx.to_arrays()[0]["tables"].shape == (3, 0)
    path = tmp_path / "x.rqe"
    storage.save_index(path, "exact1d", idx)
    loaded = storage.load_index(path, expect_kind="exact1d")[2]
    for index in (idx, loaded):
        assert [table.size for table in index.tables.values()] == [0, 0, 0]
        assert index.space_stats()["table_entries"] == 0
    n, slices = len(pts), 0
    for kind in WEIGHTED_KINDS:
        oracle = OracleBackend(pts, kind)
        for i in range(n + 1):
            for j in range(i, n + 1):
                stats = {}
                got = loaded.query_span(i, j, kind, stats=stats)
                assert got == idx.query_span(i, j, kind), (kind, i, j)
                assert abs(got.value - oracle.summary_range(i, j).value) < 1e-9, (kind, i, j)
                assert stats["fold"] == ("bincount" if j > i else None), (kind, i, j)
                slices += j > i and not stats["fringe_points"]
    k = len(idx.cuts) - 1
    assert slices == len(WEIGHTED_KINDS) * k * (k + 1) // 2


@pytest.mark.parametrize("t", [0.3, 0.5, 1.0])
def test_bincount_slices_match_grouped_tables(t):
    """In the bincount regime a span that is exactly a slice folds its D
    color masses from the per-cut prefixes: Shannon and Renyi 2 and 3
    answer it within 1e-9 of ``brute_entropy`` and within 1e-12 of the
    entry the grouped build gives its cut pair."""
    pts = bincount_case(23)
    idx = Exact1DIndex(pts, t=t, orders=(2.0, 3.0))
    assert idx.fold == "bincount"
    cuts, xs, tables = idx.cuts.tolist(), idx.coords_sorted, grouped_tables(idx)
    for kind in WEIGHTED_KINDS:
        for a in range(len(cuts)):
            for b in range(a + 1, len(cuts)):
                rect = QueryRect.interval(xs[cuts[a]], xs[cuts[b] - 1])
                stats = {}
                got = idx.query(rect, kind, stats=stats)
                assert stats["core_cuts"] == (a, b) and stats["fringe_points"] == 0
                assert abs(got.value - brute_entropy(pts, rect, kind).value) < 1e-9, (kind, a, b)
                assert abs(got.value - tables[kind][a, b]) < 1e-12, (kind, a, b)


def test_every_span_of_empty_pointset():
    pts = ColoredPointSet(np.zeros((0, 1)), np.zeros(0, dtype=np.int64))
    for t in (0.0, 0.5, 1.0):
        check_every_span(pts, t, 0)


def test_fold_memory_independent_of_declared_colors():
    """The fold stays O(fringe): 100 spans allocate far less than one dense
    array over the declared colors (2 MB at 2**18 over 300 points), and
    4,096 colors over 8,192 points (bucket size 91) are past the bincount
    fold's bound, so they sort under the same bound."""
    rng = np.random.default_rng(7)
    for n, present, declared, fold in ((300, 40, 2**18, "bincount"), (8192, 4096, 8192, "sort")):
        colors = rng.choice(declared, size=present, replace=False)[
            rng.permutation(np.arange(n) % present)]
        pts = ColoredPointSet(rng.uniform(0, 100, size=n), colors, rng.uniform(0.5, 2.0, size=n),
                              num_colors=declared)
        idx = Exact1DIndex(pts, t=0.5, orders=(2.0,))
        assert len(idx.present) == present and idx.fold == fold
        spans = [tuple(sorted(rng.integers(0, n + 1, size=2))) for _ in range(100)]
        for kind in (SHANNON, renyi_kind(2.0)):
            oracle = OracleBackend(pts, kind)
            for i, j in spans:
                want = oracle.summary_range(i, j).value
                assert abs(idx.query_span(i, j, kind).value - want) < 1e-9, (n, i, j)
        tracemalloc.start()
        try:
            for i, j in spans:
                idx.query_span(i, j, renyi_kind(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, (n, peak)


def test_fringe_fold_crossover():
    """Both folds match a linear scan on 32,768 points at 256, 1,024 and
    4,096 colors (bucket size 182, bound 728); with -s, prints each fold's
    median microseconds per ``query_span`` (best of three passes) over 200
    spans of log-uniform width, as the benchmark's intervals are."""
    rng = np.random.default_rng(201)
    n = 32768
    print(f"\nExact1DIndex.query_span per call (us), BINCOUNT_BUCKETS = {BINCOUNT_BUCKETS}")
    for present in (256, 1024, 4096):
        pts = ColoredPointSet(rng.uniform(0.0, 1e6, n), rng.permutation(np.arange(n) % present),
                              rng.uniform(0.5, 2.0, n), num_colors=present)
        idx = Exact1DIndex(pts, t=0.5)
        chosen = idx.fold
        if chosen == "bincount":   # the forced sort fold reads a sort-regime index's tables
            idx.tables = idx._build_tables()
        assert chosen == ("bincount" if present <= BINCOUNT_BUCKETS * idx.bucket_size else "sort")
        widths = np.exp(rng.uniform(0.0, np.log(n), size=200)).astype(np.int64)
        starts = rng.integers(0, n - widths + 1)
        spans = list(zip(starts.tolist(), (starts + widths).tolist()))
        oracle = OracleBackend(pts, SHANNON)
        us = {}
        for fold in ("bincount", "sort"):
            idx.fold = fold
            for i, j in spans[:20]:
                stats = {}
                got = idx.query_span(i, j, stats=stats)
                assert abs(got.value - oracle.summary_range(i, j).value) < 1e-9, (present, fold)
                assert stats["fold"] in (fold, None)
            us[fold] = min(np.median([timeit.timeit(lambda: idx.query_span(i, j), number=1)
                                      for i, j in spans]) for _ in range(3)) * 1e6
        print(f"{present:5d} colors ({chosen:>8}): bincount {us['bincount']:6.1f}, "
              f"sort {us['sort']:6.1f}")
