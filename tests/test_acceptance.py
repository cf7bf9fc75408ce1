"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from entrange import exact1d, exactnd, storage, sweep1d
from entrange.approx import (
    EstimatorConfig,
    EstimatorIndex,
    detect_heavy_color,
    estimate_additive,
    estimate_additive_renyi,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
)
from entrange.core import (
    ColorHistogram,
    ColoredPointSet,
    QueryRect,
    SHANNON,
    EntropySummary,
    renyi_kind,
)
from entrange.errors import NotAnIndex
from entrange.oracle import (
    brute_entropy,
    build_matrix_gadget,
    build_set_intersection_gadget,
    exhaustive_partition,
)
from entrange.partition import OracleBackend, maxpart_approx, maxpart_dp, sumpart_approx
from entrange import core as centropy

ALPHAS = (1.5, 2.0, 3.0)
KINDS = (SHANNON,) + tuple(renyi_kind(a) for a in ALPHAS)

# reference values for the nine-point example: 2+3+4 points of three colors
NINE_POINT_SHANNON = 1.5304930567574824
NINE_POINT_RENYI2 = 1.4818690077570527


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {self.elapsed:.1f}s")
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.1f}s / {self.seconds:g}s budget)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL after {self.elapsed:.1f}s")
        return False


def truth_values(pts, rect):
    """Independent oracle: per-kind entropies from one vectorized histogram."""
    mask = rect.mask(pts)
    if not mask.any():
        return {kind: 0.0 for kind in KINDS}, 0.0
    w = np.bincount(pts.colors[mask], weights=pts.weights[mask])
    w = w[w > 0]
    total = w.sum()
    p = w / total
    out = {SHANNON: float(-(p * np.log2(p)).sum()) if len(p) > 1 else 0.0}
    for a in ALPHAS:
        out[renyi_kind(a)] = float(-math.log2((p**a).sum()) / (a - 1)) if len(p) > 1 else 0.0
    return out, float(total)


def random_rects(rng, d, count, lo=0.0, hi=100.0):
    a = rng.uniform(lo, hi, size=(count, d))
    b = rng.uniform(lo, hi, size=(count, d))
    los = np.minimum(a, b)
    his = np.maximum(a, b)
    return [QueryRect(tuple(los[i]), tuple(his[i])) for i in range(count)]


def dataset(rng, n, d=1, m=None, weighted=False):
    m = m or max(2, n // 50)
    coords = rng.uniform(0, 100, size=(n, d))
    colors = (rng.zipf(1.5, size=n) % m).astype(np.int64)
    weights = rng.uniform(0.5, 3.0, size=n) if weighted else None
    return ColoredPointSet(coords, colors, weights, num_colors=m)


# ---------------------------------------------------------------------------
# 1. nine-point example reproduced through every exact route


NINE_POINT_CSV = "\n".join(
    ["x1,x2,color",
     "1,1,red", "2,2,red",
     "1,3,green", "2,4,green", "3,1,green",
     "3,3,blue", "4,2,blue", "4,4,blue", "2.5,2.5,blue"]) + "\n"


def test_criterion_01_nine_point_example(tmp_path):
    with Budget("1 nine-point example", 1.0):
        path = tmp_path / "ninepoint.csv"
        path.write_text(NINE_POINT_CSV)
        pts = storage.ingest(path)
        rect2d = QueryRect((0.0, 0.0), (5.0, 5.0))
        rect1d = QueryRect.interval(0.0, 5.0)
        pts1d = ColoredPointSet(pts.coords[:, 0], pts.colors)

        routes = {
            "oracle-shannon": brute_entropy(pts, rect2d, SHANNON).value,
            "exact1d-shannon": exact1d.Exact1DIndex(pts1d, 0.5, (2.0,)).query(rect1d).value,
            "exactnd-shannon": exactnd.ExactNDIndex(pts, 0.5, (2.0,)).query(rect2d).value,
        }
        for name, value in routes.items():
            assert abs(value - NINE_POINT_SHANNON) < 1e-6, name
            assert round(value, 2) == 1.53
        routes2 = {
            "oracle-renyi2": brute_entropy(pts, rect2d, renyi_kind(2.0)).value,
            "exact1d-renyi2": exact1d.Exact1DIndex(pts1d, 0.5, (2.0,)).query(
                rect1d, renyi_kind(2.0)).value,
            "exactnd-renyi2": exactnd.ExactNDIndex(pts, 0.5, (2.0,)).query(
                rect2d, renyi_kind(2.0)).value,
        }
        for name, value in routes2.items():
            assert abs(value - NINE_POINT_RENYI2) < 1e-6, name
            assert round(value, 2) == 1.48


# ---------------------------------------------------------------------------
# 2. exact structures equal brute force across n, d, t


def test_criterion_02_exact_oracle_equivalence():
    rng = np.random.default_rng(202401)
    with Budget("2 exact-vs-oracle sweep", 300.0):
        for n in (200, 2000):
            pts1 = dataset(rng, n, d=1, m=max(4, n // 40))
            rects = random_rects(rng, 1, 1000)
            for t in (0.25, 0.5, 0.75):
                idx = exact1d.Exact1DIndex(pts1, t, ALPHAS)
                for rect in rects:
                    want, _ = truth_values(pts1, rect)
                    for kind in KINDS:
                        got = idx.query(rect, kind).value
                        assert abs(got - want[kind]) < 1e-6, ("exact1d", n, t, kind)
            for d in (1, 2, 3):
                pts = dataset(rng, n, d=d, m=max(4, n // 40))
                rects = random_rects(rng, d, 1000)
                for t in (0.25, 0.5, 0.75):
                    idx = exactnd.ExactNDIndex(pts, t, ALPHAS)
                    for rect in rects:
                        want, _ = truth_values(pts, rect)
                        for kind in KINDS:
                            got = idx.query(rect, kind).value
                            assert abs(got - want[kind]) < 1e-6, ("exactnd", n, d, t, kind)


# ---------------------------------------------------------------------------
# 3. update-algebra suite


def test_criterion_03_update_algebra():
    rng = np.random.default_rng(202403)
    with Budget("3 update algebra", 10.0):
        def rand_masses(k):
            return (rng.uniform(0.1, 20.0, size=k)).tolist()

        def direct_shannon(ms):
            total = sum(ms)
            return sum((m / total) * math.log2(total / m) for m in ms) if len(ms) > 1 else 0.0

        def direct_renyi(ms, a):
            total = sum(ms)
            if len(ms) <= 1:
                return 0.0
            return -math.log2(sum((m / total) ** a for m in ms)) / (a - 1)

        checks = 0
        while checks < 10_000:
            k1 = int(rng.integers(1, 7))
            k2 = int(rng.integers(1, 7))
            m1, m2 = rand_masses(k1), rand_masses(k2)
            a = float(rng.choice(ALPHAS))
            s1 = centropy.shannon_entropy(ColorHistogram.from_counts(m1))
            s2 = centropy.shannon_entropy(ColorHistogram.from_counts(m2))
            merged = centropy.merge_shannon(s1, s2)
            assert abs(merged.value - direct_shannon(m1 + m2)) < 1e-9
            r1 = centropy.renyi_entropy(ColorHistogram.from_counts(m1), a)
            r2 = centropy.renyi_entropy(ColorHistogram.from_counts(m2), a)
            rm = centropy.merge_renyi(r1, r2, a)
            assert abs(rm.value - direct_renyi(m1 + m2, a)) < 1e-9
            w = float(rng.uniform(0.1, 15.0))
            ins = centropy.insert_color_shannon(s1, w)
            assert abs(ins.value - direct_shannon(m1 + [w])) < 1e-9
            back = centropy.delete_color_shannon(ins, w)
            assert abs(back.value - s1.value) < 1e-9 and abs(back.count - s1.count) < 1e-9
            rins = centropy.insert_color_renyi(r1, w, a)
            assert abs(rins.value - direct_renyi(m1 + [w], a)) < 1e-9
            rback = centropy.delete_color_renyi(rins, w, a)
            assert abs(rback.value - r1.value) < 1e-9
            checks += 6


# ---------------------------------------------------------------------------
# 4. deterministic sweep bounds, zero violations


def test_criterion_04_deterministic_sweep_bounds():
    rng = np.random.default_rng(202404)
    with Budget("4 deterministic sweep bounds", 120.0):
        n = 2000
        pts = ColoredPointSet(rng.uniform(0, 100, n), (rng.zipf(1.5, n) % 60).astype(np.int64),
                              num_colors=60)
        queries = 10_000
        bounds = np.sort(rng.uniform(0, 100, size=(queries, 2)), axis=1)
        truths = {kind: np.empty(queries) for kind in KINDS}
        coords = pts.coords[:, 0]
        order = np.argsort(coords)
        sorted_coords = coords[order]
        sorted_colors = pts.colors[order]
        for qi in range(queries):
            a, b = bounds[qi]
            i = np.searchsorted(sorted_coords, a, side="left")
            j = np.searchsorted(sorted_coords, b, side="right")
            w = np.bincount(sorted_colors[i:j])
            w = w[w > 0]
            if len(w) <= 1:
                for kind in KINDS:
                    truths[kind][qi] = 0.0
                continue
            p = w / w.sum()
            truths[SHANNON][qi] = -(p * np.log2(p)).sum()
            for a_ in ALPHAS:
                truths[renyi_kind(a_)][qi] = -math.log2((p**a_).sum()) / (a_ - 1)

        violations = 0
        for eps in (0.1, 0.3):
            idx = sweep1d.build_shannon(pts, eps)
            for qi in range(queries):
                got = idx.query(QueryRect.interval(*bounds[qi])).value
                if not sweep1d.shannon_bound_holds(truths[SHANNON][qi], got, eps):
                    violations += 1
            for a_ in ALPHAS:
                ridx = sweep1d.build_renyi(pts, eps, a_)
                kind = renyi_kind(a_)
                for qi in range(queries):
                    got = ridx.query(QueryRect.interval(*bounds[qi])).value
                    if not sweep1d.renyi_bound_holds(truths[kind][qi], got, eps, a_):
                        violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# 5. statistical estimator suite


def _mix_dataset(rng, spec, d=1, weighted=False):
    coords, colors, weights = [], [], []
    for color, count in enumerate(spec):
        for _ in range(count):
            coords.append(rng.uniform(10.0, 90.0, size=d))
            colors.append(color)
            weights.append(rng.uniform(0.5, 3.0) if weighted else 1.0)
    return ColoredPointSet(np.array(coords), np.array(colors), np.array(weights))


def _scenarios(rng):
    out = []
    out.append(("uniform16", _mix_dataset(rng, [24] * 16)))
    out.append(("uniform64", _mix_dataset(rng, [10] * 64)))
    out.append(("heavy90", _mix_dataset(rng, [540, 12, 12, 12, 12, 12])))
    out.append(("heavy75", _mix_dataset(rng, [360, 30, 30, 30, 30])))
    out.append(("two-to-one", _mix_dataset(rng, [200, 100])))
    zipf = (rng.zipf(1.4, 500) % 40).astype(np.int64)
    out.append(("zipf40", ColoredPointSet(rng.uniform(10, 90, 500), zipf, num_colors=40)))
    out.append(("singletons", ColoredPointSet(rng.uniform(10, 90, 300), np.arange(300))))
    out.append(("weighted10", _mix_dataset(rng, [40] * 10, weighted=True)))
    out.append(("planar", _mix_dataset(rng, [60] * 8, d=2)))
    out.append(("near-heavy", _mix_dataset(rng, [330, 30, 30, 30, 30, 30, 20])))
    return out


def _statistical_estimators(expected_modes):
    """Criterion 5's 200 seeds per scenario and estimator; ``expected_modes``
    maps (scenario name, estimator) to the mode that must answer >= 95% of
    them."""
    rng = np.random.default_rng(202405)
    cfg = EstimatorConfig(c_add=0.2, c_mult=2.0, c_mom=0.05, moment_c1=1.0, moment_c2=1.0)
    seeds = 200
    delta = 0.25
    eps = 0.25
    reps = 0.3
    alpha = 2.0
    with Budget("5 statistical estimator suite", 600.0):
        for name, pts in _scenarios(rng):
            rect = QueryRect.full(pts.dim)
            index = EstimatorIndex(pts)
            want, _ = truth_values(pts, rect)
            truth_s = want[SHANNON]
            truth_r = want[renyi_kind(alpha)]
            hits = {"add-s": 0, "mult-s": 0, "add-r": 0, "mult-r": 0}
            modes = {key: [] for key in hits}

            def run(key, estimate):
                stats: dict = {}
                h = estimate(stats).value
                modes[key].append(stats["mode"])
                return h

            for seed in range(seeds):
                r = np.random.default_rng(hash((name, seed)) % 2**63)
                h = run("add-s", lambda st: estimate_additive(index, rect, delta, cfg, r, st))
                hits["add-s"] += abs(h - truth_s) <= delta
                h = run("mult-s", lambda st: estimate_multiplicative(index, rect, eps, cfg, r, st))
                hits["mult-s"] += truth_s / (1 + eps) - 1e-9 <= h <= (1 + eps) * truth_s + 1e-9
                h = run("add-r", lambda st: estimate_additive_renyi(index, rect, alpha, delta,
                                                                    cfg, r, st))
                hits["add-r"] += abs(h - truth_r) <= delta
                h = run("mult-r", lambda st: estimate_multiplicative_renyi(index, rect, alpha,
                                                                           reps, cfg, r, st))
                hits["mult-r"] += truth_r / (1 + reps) - 1e-9 <= h <= (1 + reps) * truth_r + 1e-9
            for key, got in hits.items():
                assert got >= 0.95 * seeds, (name, key, got, seeds)
                mode = expected_modes(name, key)
                assert modes[key].count(mode) >= 0.95 * seeds, (name, key, mode, modes[key][:5])


HEAVY_SCENARIOS = ("heavy90", "heavy75")   # one color above 2/3 of the mass


def test_criterion_05_statistical_estimators():
    # every scenario holds 300-640 points: the additive Shannon and the
    # multiplicative Renyi estimators would draw more, and read the pieces
    def expected(name, key):
        heavy = name in HEAVY_SCENARIOS
        return {"add-s": "exact-fallback", "add-r": "sampled", "mult-r": "exact-fallback",
                "mult-s": "exact-fallback+heavy" if heavy else "sampled-light"}[key]

    _statistical_estimators(expected)


def test_criterion_05_statistical_estimators_sampled(always_sample):
    # the same scenarios and seeds with every estimate sampled
    def expected(name, key):
        heavy = name in HEAVY_SCENARIOS
        return {"add-s": "sampled", "add-r": "sampled",
                "mult-s": "sampled+heavy" if heavy else "sampled-light",
                "mult-r": "sampled+heavy" if heavy else "sampled-light"}[key]

    _statistical_estimators(expected)


# ---------------------------------------------------------------------------
# 6. lemma-level checks


def test_criterion_06_lemma_checks():
    rng = np.random.default_rng(202406)
    with Budget("6 lemma checks", 60.0):
        # heavy-color detection rate at n=512 over 1e4 trials
        n = 512
        heavy_n = 461  # ~0.9 of the range
        colors = np.concatenate([np.zeros(heavy_n, dtype=np.int64),
                                 1 + (np.arange(n - heavy_n) % 16)])
        pts = ColoredPointSet(rng.uniform(0, 100, n), colors)
        index = EstimatorIndex(pts)
        rect = QueryRect.full(1)
        trials = 10_000
        found = 0
        for seed in range(trials):
            heavy = detect_heavy_color(index, rect, np.random.default_rng(seed))
            found += heavy is not None and heavy.color == 0
        assert found / trials >= 1.0 - 1.0 / (2 * n)

        # heavy-ratio inequality on a 1e4 grid over (2/3, 1)
        grid = np.linspace(2 / 3 + 1e-9, 1 - 1e-9, 10_000)
        lhs = (1 - grid) / grid
        rhs = grid * np.log2(1 / grid) + (1 - grid) * np.log2(1 / (1 - grid))
        assert np.all(lhs <= rhs + 1e-12)

        # minimum-entropy configuration, exhaustive for N <= 12
        def partitions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(1, total - parts + 2):
                for rest in partitions(total - first, parts - 1):
                    yield (first,) + rest

        def h_of(counts):
            tot = sum(counts)
            return sum((c / tot) * math.log2(tot / c) for c in counts)

        for total in range(3, 13):
            for c in range(2, total + 1):
                claimed = h_of([1] * (c - 1) + [total - c + 1])
                assert all(h_of(p) >= claimed - 1e-12 for p in partitions(total, c))

        # monotonicity of F = N*H and G = sum n^alpha over 1e4 insertions
        for _ in range(10_000):
            m = int(rng.integers(1, 8))
            counts = rng.integers(0, 5, size=m)
            counts[int(rng.integers(0, m))] += 1
            live = counts[counts > 0].astype(float)
            f0 = live.sum() * h_of(live) if len(live) > 1 else 0.0
            g0 = float((live**2.0).sum())
            c = int(rng.integers(0, m))
            counts[c] += 1
            live = counts[counts > 0].astype(float)
            f1 = live.sum() * h_of(live) if len(live) > 1 else 0.0
            g1 = float((live**2.0).sum())
            assert f1 >= f0 - 1e-9
            assert g1 > g0


# ---------------------------------------------------------------------------
# 7. reduction gadgets


def test_criterion_07_reduction_gadgets():
    rng = np.random.default_rng(202407)
    with Budget("7 reduction gadgets", 60.0):
        def check_matrix(a, b):
            g = build_matrix_gadget(a, b)
            s = g.size
            for i in range(s):
                for j in range(s):
                    bit = g.product_bit(i, j)
                    h = brute_entropy(g.points, g.intervals[(i, j)], SHANNON).value
                    assert (bit == 0) == (abs(h - g.shannon_reference(i, j)) < 1e-9)
                    h2 = brute_entropy(g.points, g.intervals[(i, j)], renyi_kind(2.0)).value
                    assert (bit == 0) == (abs(h2 - g.renyi_reference(i, j, 2.0)) < 1e-9)

        # 500 sampled 3x3 boolean pairs out of the 2^18 possibilities
        seen = set()
        while len(seen) < 500:
            a_bits = int(rng.integers(0, 2**9))
            b_bits = int(rng.integers(0, 2**9))
            seen.add((a_bits, b_bits))
        for a_bits, b_bits in seen:
            a = np.array([(a_bits >> k) & 1 for k in range(9)]).reshape(3, 3)
            b = np.array([(b_bits >> k) & 1 for k in range(9)]).reshape(3, 3)
            check_matrix(a, b)
        for _ in range(100):
            p = float(rng.uniform(0.2, 0.8))
            check_matrix((rng.random((8, 8)) < p).astype(int),
                         (rng.random((8, 8)) < 1 - p).astype(int))

        for _ in range(100):
            g_count = int(rng.integers(2, 13))
            sets = []
            for _ in range(g_count):
                size = int(rng.integers(1, 17))
                sets.append(set(int(x) for x in rng.integers(0, 20, size=size)))
            gadget = build_set_intersection_gadget(sets)
            assert len(gadget.points) <= 2 * 200
            for i in range(g_count):
                for j in range(g_count):
                    rect = gadget.query_rect(i, j)
                    n_ij = gadget.pair_count(i, j)
                    h = brute_entropy(gadget.points, rect, SHANNON).value
                    h2 = brute_entropy(gadget.points, rect, renyi_kind(2.0)).value
                    if gadget.disjoint(i, j):
                        assert abs(h - math.log2(n_ij)) < 1e-9
                        assert abs(h2 - math.log2(n_ij)) < 1e-9
                    else:
                        assert h < math.log2(n_ij) - 1e-12
                        assert h2 < math.log2(n_ij) - 1e-12


# ---------------------------------------------------------------------------
# 8. partitioning


def test_criterion_08_partitioning():
    rng = np.random.default_rng(202408)
    with Budget("8 partitioning", 120.0):
        # DP equals exhaustive on 100 random small instances
        for _ in range(100):
            n = int(rng.integers(4, 17))
            k = int(rng.integers(1, min(4, n) + 1))
            pts = ColoredPointSet(np.arange(n, dtype=float), rng.integers(0, 4, n))
            want, _ = exhaustive_partition(pts, k, SHANNON, objective="max")
            got = maxpart_dp(pts, k, OracleBackend(pts))
            assert abs(got.value - want) < 1e-9

        # (1+eps) max-part against the DP at n <= 200
        for trial in range(6):
            n = int(rng.integers(80, 201))
            k = int(rng.integers(2, 7))
            pts = ColoredPointSet(np.arange(n, dtype=float), rng.integers(0, 6, n))
            backend = OracleBackend(pts)
            opt = maxpart_dp(pts, k, backend).value
            for eps in (0.1, 0.3):
                val = maxpart_approx(pts, k, eps, backend).value
                assert opt - 1e-9 <= val <= (1 + eps) * opt + 1e-9

        # (1+eps) sum-part against exhaustive at n <= 14
        for trial in range(40):
            n = int(rng.integers(5, 15))
            k = int(rng.integers(1, min(4, n) + 1))
            pts = ColoredPointSet(np.arange(n, dtype=float), rng.integers(0, 4, n))
            want, _ = exhaustive_partition(pts, k, SHANNON, objective="sum")
            got = sumpart_approx(pts, k, 0.1, OracleBackend(pts))
            assert want - 1e-9 <= got.value <= 1.1 * want + 1e-9


# ---------------------------------------------------------------------------
# 9. scaling trends


def _fit_slope(xs, ys):
    lx, ly = np.log(xs), np.log(ys)
    return float(np.polyfit(lx, ly, 1)[0])


def test_criterion_09_scaling_trends():
    rng = np.random.default_rng(202409)
    with Budget("9 scaling trends", 300.0):
        # exact1d fringe work ~ n^t at t = 0.5
        sizes = (1_000, 10_000, 100_000)
        mean_fringe = []
        for n in sizes:
            pts = ColoredPointSet(rng.uniform(0, 1000, n),
                                  rng.integers(0, max(2, n // 50), n))
            idx = exact1d.Exact1DIndex(pts, 0.5)
            fringes = []
            for _ in range(300):
                a, b = sorted(rng.uniform(0, 1000, 2))
                stats = {}
                idx.query(QueryRect.interval(a, b), SHANNON, stats=stats)
                fringes.append(stats["fringe_points"])
            mean_fringe.append(np.mean(fringes))
        slope = _fit_slope(sizes, mean_fringe)
        assert abs(slope - 0.5) <= 0.15, (slope, mean_fringe)

        # sweep query latency grows polylogarithmically
        sweep_sizes = (2_500, 10_000, 40_000)
        sweeps, build_s = [], []
        for n in sweep_sizes:
            pts = ColoredPointSet(rng.uniform(0, 1000, n), np.arange(n))
            t0 = time.perf_counter()
            idx = sweep1d.build_shannon(pts, 0.5)
            build_s.append(time.perf_counter() - t0)
            rects = [QueryRect.interval(*sorted(rng.uniform(0, 1000, 2)))
                     for _ in range(300)]
            for rect in rects[:20]:
                idx.query(rect)  # warm-up
            sweeps.append((idx, rects))
        # the sizes take turns query by query, so a change in host speed
        # hits all three alike instead of one size's whole run
        times: list = [[] for _ in sweeps]
        for i in range(300):
            for (idx, rects), spent in zip(sweeps, times):
                t0 = time.perf_counter()
                idx.query(rects[i])
                spent.append(time.perf_counter() - t0)
        medians = [float(np.median(spent)) for spent in times]
        lat_slope = _fit_slope(sweep_sizes, medians)
        assert lat_slope < 0.2, (lat_slope, medians)
        builds = ", ".join(f"n={n:,} {t:.2f} s" for n, t in zip(sweep_sizes, build_s))
        print(f"  [fringe slope {slope:.3f} ~ t=0.5; sweep latency slope {lat_slope:.3f}; "
              f"sweep builds {builds}]")


# ---------------------------------------------------------------------------
# 10. persistence round-trips


def test_criterion_10_persistence(tmp_path, always_sample):
    rng = np.random.default_rng(202410)
    with Budget("10 persistence", 30.0):
        pts1 = ColoredPointSet(rng.uniform(0, 100, 150), rng.integers(0, 9, 150))
        pts2 = ColoredPointSet(rng.uniform(0, 100, (150, 2)), rng.integers(0, 9, 150))
        rects1 = [QueryRect.interval(*sorted(rng.uniform(0, 100, 2))) for _ in range(100)]
        rects2 = random_rects(rng, 2, 100)

        cases = [
            ("exact1d", exact1d.Exact1DIndex(pts1, 0.5, (2.0,)),
             lambda ix, r: (ix.query(r).value, ix.query(r, renyi_kind(2.0)).value), rects1),
            ("exactnd", exactnd.ExactNDIndex(pts2, 0.5, (2.0,)),
             lambda ix, r: (ix.query(r).value, ix.query(r, renyi_kind(2.0)).value), rects2),
            ("sweep-shannon", sweep1d.build_shannon(pts1, 0.3),
             lambda ix, r: (ix.query(r).value, ix.query(r).count), rects1),
            ("sweep-renyi", sweep1d.build_renyi(pts1, 0.3, 2.0),
             lambda ix, r: (ix.query(r).value, ix.query(r).count), rects1),
            ("estimator", EstimatorIndex(pts2),
             lambda ix, r: (estimate_additive(ix, r, 0.3, EstimatorConfig(c_add=0.02),
                                              np.random.default_rng(11)).value
                            if r.mask(ix.pts).any() else 0.0,), rects2),
        ]
        for kind, index, ask, rects in cases:
            path = tmp_path / f"{kind}.rqe"
            storage.save_index(path, kind, index)
            _, _, loaded = storage.load_index(path, expect_kind=kind)
            for rect in rects:
                assert ask(index, rect) == ask(loaded, rect), kind

        # corrupted header rejection
        path = tmp_path / "corrupt.rqe"
        storage.save_index(path, "exact1d", exact1d.Exact1DIndex(pts1, 0.5))
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(NotAnIndex):
            storage.load_index(path)
