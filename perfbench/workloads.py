"""The four benchmark workloads.

Each workload generates its inputs from the seed, sets up its indexes the
way CLI users do (build, ``save_index``, ``load_index``; queries run on the
loaded copy), serves queries from one closed-loop client, and checks every
answer outside the timed call. Untraced runs call the library exactly as a
user does; traced runs alternate untraced and traced blocks of queries, pass
the ``stats=``/``trace=`` hooks, and record spans around the calls into
each module.
"""

from __future__ import annotations

import os
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from entrange import (
    SHANNON,
    EstimatorConfig,
    EstimatorIndex,
    Exact1DIndex,
    ExactNDIndex,
    QueryRect,
    brute_entropy,
    build_sweep_renyi,
    build_sweep_shannon,
    estimate_additive,
    estimate_additive_renyi,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
    load_index,
    renyi_kind,
    save_index,
)
from entrange.partition import (
    ExactIndexBackend,
    OracleBackend,
    greedy_tree_split,
    maxpart_approx,
    maxpart_dp,
    sumpart_approx,
)
from entrange.sweep1d import renyi_bound_holds, shannon_bound_holds

from . import inputs
from .metrics import LAYER, REPORT
from .reference import BLOCK_S, Clock
from .tracing import Tracer

SETUP_MIN_REPS = 3      # set-up repeats at least this often ...
SETUP_MIN_S = 2.0       # ... and until this much time is spent on it,
SETUP_MAX_REPS = 25     # so cheap set-ups still give a steady median
EXACT_TOL = 1e-6
RENYI2 = renyi_kind(2.0)

# the estimator constants the acceptance suite validates at >= 95% coverage
EST_CFG = EstimatorConfig(c_add=0.2, c_mult=2.0, c_mom=0.05, moment_c1=1.0, moment_c2=1.0)
EST_DELTA = 0.25
EST_EPS_SHANNON = 0.25
EST_EPS_RENYI = 0.3
SWEEP_EPS = 0.5
HOT_FRAC = 0.8          # region-2d: share of queries drawn from the hot set

SIZES = {
    "full": {
        "exact-1d": dict(n=32768, colors=256, queries=2048),
        "region-2d": dict(n=4096, colors=64, hot=64),
        "approx-2d": dict(n=1024, colors=64),
        "series-1d": dict(n=512, colors=32, queries=8192, part_n=256, tree_n=2048),
    },
    "tiny": {
        "exact-1d": dict(n=512, colors=16, queries=64),
        "region-2d": dict(n=64, colors=8, hot=8),
        "approx-2d": dict(n=128, colors=8),
        "series-1d": dict(n=64, colors=8, queries=64, part_n=32, tree_n=96),
    },
}
# A run serves seconds * RATE queries: about `seconds` of work at this
# commit on the machine the benchmark was tuned on (2 vCPU Xeon VM), except
# approx-2d, whose costly queries need 2000 per run for a steady p99. Fixed
# work keeps every figure comparable when the code or the machine is faster;
# a time-bound run would, e.g., grow region-2d's memo with its speed.
RATE = {"exact-1d": 2500, "region-2d": 1000, "approx-2d": 134, "series-1d": 2500}
MIN_QUERIES = 1000   # ten samples beyond the p99


@dataclass
class Ctx:
    """State of one workload run: counters, latencies and metrics."""

    seed: int
    queries: int
    tmp: Path
    tracer: Optional[Tracer]
    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    approx_checked: int = 0
    approx_missed: int = 0
    samples: int = 0         # untraced queries behind the latencies
    p50_us: float = 0.0
    p99_us: float = 0.0
    queries_per_s: float = 0.0
    partition_s: Optional[float] = None
    setup_s: float = 0.0
    setup_reps: int = 0
    index_bytes: int = 0
    build_s: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    plain_s: float = 0.0     # matched untraced / traced time, for the overhead
    traced_s: float = 0.0
    report_mode: str = ""    # which query mode the latencies belong to
    raw: dict = field(default_factory=dict)   # unscaled wall-clock figures, for the report

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def span(self, name: str):
        return self.tracer.span(name)


# ---------------------------------------------------------------------------
# shared phases


def setup(ctx: Ctx, specs: list[tuple[str, str, Callable]]) -> dict:
    """Build, save and load every index repeatedly; return the last loaded
    copies. setup_s is the median time of one repetition, each step scaled
    to reference speed."""
    walls, scaled, saves, loads = [], [], [], []
    builds = defaultdict(list)
    loaded: dict = {}
    while len(walls) < SETUP_MIN_REPS or (sum(walls) < SETUP_MIN_S
                                          and len(walls) < SETUP_MAX_REPS):
        loaded = {}
        wall = t_build = t_save = t_load = 0.0
        for name, kind, make in specs:
            path = ctx.tmp / f"{name}.rqe"
            index, w1, t1 = ctx.clock.timed(make)
            _, w2, t2 = ctx.clock.timed(lambda: save_index(path, kind, index))
            del index
            loaded[name], w3, t3 = ctx.clock.timed(lambda: load_index(path, expect_kind=kind)[2])
            builds[name].append(t1)
            wall += w1 + w2 + w3
            t_build += t1
            t_save += t2
            t_load += t3
        walls.append(wall)
        scaled.append(t_build + t_save + t_load)
        saves.append(t_save)
        loads.append(t_load)
    ctx.setup_s = statistics.median(scaled)
    ctx.raw["setup_s"] = statistics.median(walls)
    ctx.setup_reps = len(walls)
    ctx.index_bytes = sum(os.path.getsize(ctx.tmp / f"{name}.rqe") for name, _, _ in specs)
    ctx.build_s = {name: statistics.median(v) for name, v in builds.items()}
    ctx.layer["storage.save_s"] = statistics.median(saves)
    ctx.layer["storage.load_s"] = statistics.median(loads)
    points = sum(len(index.pts) for index in loaded.values())
    ctx.layer["storage.bytes_per_point"] = ctx.index_bytes / points
    return loaded


def serve(ctx: Ctx, period: int, call: Callable[[int, bool], None]) -> None:
    """One closed-loop client: query i is sent when query i-1 has returned.

    Serves ctx.queries queries. In traced runs every other block of
    ``period`` queries (one full cycle of the query mix) is traced, so the
    untraced blocks give the tracing overhead's base. Latencies are scaled
    to reference speed in blocks of about BLOCK_S of queries.
    """
    tracer = ctx.tracer
    plain, traced, raw = [], [], []
    block: list = []   # (latency, traced) since the block began
    start = block_start = perf_counter()
    for i in range(ctx.queries):
        on = tracer is not None and (i // period) % 2 == 1
        if on:
            tracer.next_op()
        t0 = perf_counter()
        try:
            call(i, on)
        except Exception as exc:  # any raise is an error of the served path
            ctx.fail(f"query {i}: {exc!r}")
        t1 = perf_counter()
        block.append((t1 - t0, on))
        if t1 - block_start >= BLOCK_S or i == ctx.queries - 1:
            factor = ctx.clock.scale()
            for dt, was_traced in block:
                (traced if was_traced else plain).append(dt * factor)
                if not was_traced:
                    raw.append(dt)
            block = []
            block_start = perf_counter()
    ctx.attempted += ctx.queries
    ctx.samples = len(plain)
    p50, p99 = np.quantile(plain, [0.5, 0.99])
    ctx.p50_us, ctx.p99_us = 1e6 * float(p50), 1e6 * float(p99)
    ctx.queries_per_s = len(plain) / sum(plain)
    raw50, raw99 = np.quantile(raw, [0.5, 0.99])
    ctx.raw.update(p50_us=1e6 * float(raw50), p99_us=1e6 * float(raw99),
                   queries_per_s=ctx.queries / (perf_counter() - start))
    if traced:
        ctx.plain_s += statistics.fmean(plain) * len(plain)
        ctx.traced_s += statistics.fmean(traced) * len(plain)


def brute(ctx: Ctx, pts, rect: QueryRect, kind) -> float:
    if ctx.tracer is None:
        return brute_entropy(pts, rect, kind).value
    ctx.tracer.next_op()
    with ctx.span("oracle.brute_entropy"):
        return brute_entropy(pts, rect, kind).value


def check_exact(ctx: Ctx, answers: list, truth: Callable[[int], float]) -> None:
    """answers: (query key, value); every value must match brute force."""
    cache: dict = {}
    for key, value in answers:
        if key not in cache:
            cache[key] = truth(key)
        if not abs(value - cache[key]) <= EXACT_TOL:
            ctx.fail(f"exact answer {value!r} != brute {cache[key]!r} for query {key}")


def mean_us(totals: dict, name: str) -> float:
    calls, total, _ = totals.get(name, (0, 0.0, 0.0))
    return 1e6 * total / calls if calls else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# exact-1d


def exact_1d(ctx: Ctx, size: dict) -> None:
    pts = inputs.points_1d(inputs.stream(ctx.seed, 0), size["n"], size["colors"], 1.6,
                           weighted=True)
    idx = setup(ctx, [("exact1d", "exact1d",
                       lambda: Exact1DIndex(pts, t=0.5, orders=(2.0,)))])["exact1d"]
    rng = inputs.stream(ctx.seed, 1)
    xs = np.sort(pts.coords[:, 0])
    queries = [(rect, SHANNON if j % 2 == 0 else RENYI2)
               for j, rect in enumerate(inputs.intervals(rng, xs, size["queries"]))]

    answers: list = []
    fringe: list = []
    hits = 0

    def call(i: int, traced: bool) -> None:
        nonlocal hits
        j = i % len(queries)
        rect, kind = queries[j]
        if traced:
            st: dict = {}
            with ctx.span("exact1d.query"):
                s = idx.query(rect, kind, stats=st)
            fringe.append(st["fringe_points"])
            hits += st.get("core_cuts") is not None
        else:
            s = idx.query(rect, kind)
        answers.append((j, s.value))

    serve(ctx, 2, call)
    check_exact(ctx, answers, lambda j: brute(ctx, pts, *queries[j]))
    ctx.report_mode = "exact"
    if ctx.tracer is not None:
        totals = ctx.tracer.totals()
        ctx.layer.update({
            "exact1d.build_s": ctx.build_s["exact1d"],
            "exact1d.table_entries": idx.space_stats()["table_entries"],
            "exact1d.query_us": mean_us(totals, "exact1d.query"),
            "exact1d.fringe_points": statistics.fmean(fringe),
            "exact1d.table_hit_frac": hits / len(fringe),
            "oracle.brute_us": mean_us(totals, "oracle.brute_entropy"),
        })
        ctx.layer["exact1d.speedup_vs_brute"] = ratio(ctx.layer["oracle.brute_us"],
                                                      ctx.layer["exact1d.query_us"])


# ---------------------------------------------------------------------------
# region-2d


def region_2d(ctx: Ctx, size: dict) -> None:
    pts = inputs.points_2d(inputs.stream(ctx.seed, 0), size["n"], size["colors"], 1.6, 1 / 16)
    idx = setup(ctx, [("exactnd", "exactnd",
                       lambda: ExactNDIndex(pts, t=0.5, orders=(2.0,)))])["exactnd"]
    rng = inputs.stream(ctx.seed, 1)
    hot = inputs.rects_around_points(rng, pts, size["hot"])
    is_hot = rng.permutation(np.arange(ctx.queries) < round(HOT_FRAC * ctx.queries))
    fresh = iter(inputs.rects_around_points(rng, pts, ctx.queries - int(is_hot.sum())))
    queries = []   # (truth key, rect, kind); hot keys repeat, fresh keys are new
    for i in range(ctx.queries):
        kind = SHANNON if i % 2 == 0 else RENYI2
        if is_hot[i]:
            h = int(rng.integers(len(hot)))
            queries.append(((h, kind), hot[h], kind))
        else:
            queries.append(((len(hot) + i, kind), next(fresh), kind))

    answers: list = []
    visits: list = []
    new_entries = snapped = 0

    def call(i: int, traced: bool) -> None:
        nonlocal new_entries, snapped
        key, rect, kind = queries[i]
        if traced:
            st: dict = {}
            tr: list = []
            before = idx.space_stats()["table_entries"]
            with ctx.span("exactnd.query"):
                s = idx.query(rect, kind, stats=st, trace=tr)
            new_entries += idx.space_stats()["table_entries"] - before
            snapped += sum(cell_key is not None for _, cell_key, _ in tr)
            visits.append(st["bucket_visits"])
        else:
            s = idx.query(rect, kind)
        answers.append((key, s.value))

    serve(ctx, 2, call)
    by_key = {key: (rect, kind) for key, rect, kind in queries}
    check_exact(ctx, answers, lambda key: brute(ctx, pts, *by_key[key]))
    ctx.report_mode = "exact"
    if ctx.tracer is not None:
        totals = ctx.tracer.totals()
        ctx.layer.update({
            "exactnd.build_s": ctx.build_s["exactnd"],
            "exactnd.query_us": mean_us(totals, "exactnd.query"),
            "exactnd.bucket_visits": statistics.fmean(visits),
            "exactnd.memo_hit_frac": 1.0 - ratio(new_entries, snapped),
            "exactnd.memo_entries": idx.space_stats()["table_entries"],
            "oracle.brute_us": mean_us(totals, "oracle.brute_entropy"),
        })
        ctx.layer["exactnd.speedup_vs_brute"] = ratio(ctx.layer["oracle.brute_us"],
                                                      ctx.layer["exactnd.query_us"])


# ---------------------------------------------------------------------------
# approx-2d


def _additive_ok(h: float, truth: float, delta: float) -> bool:
    return abs(h - truth) <= delta


def _multiplicative_ok(h: float, truth: float, eps: float) -> bool:
    return truth / (1 + eps) - 1e-9 <= h <= (1 + eps) * truth + 1e-9


# (span name, estimator call, entropy kind, bound check)
ESTIMATORS = (
    ("approx_shannon.additive",
     lambda idx, r, g, st: estimate_additive(idx, r, EST_DELTA, EST_CFG, g, st),
     SHANNON, lambda h, t: _additive_ok(h, t, EST_DELTA)),
    ("approx_shannon.multiplicative",
     lambda idx, r, g, st: estimate_multiplicative(idx, r, EST_EPS_SHANNON, EST_CFG, g, st),
     SHANNON, lambda h, t: _multiplicative_ok(h, t, EST_EPS_SHANNON)),
    ("approx_renyi.additive",
     lambda idx, r, g, st: estimate_additive_renyi(idx, r, 2.0, EST_DELTA, EST_CFG, g, st),
     RENYI2, lambda h, t: _additive_ok(h, t, EST_DELTA)),
    ("approx_renyi.multiplicative",
     lambda idx, r, g, st: estimate_multiplicative_renyi(idx, r, 2.0, EST_EPS_RENYI, EST_CFG, g, st),
     RENYI2, lambda h, t: _multiplicative_ok(h, t, EST_EPS_RENYI)),
)


def approx_2d(ctx: Ctx, size: dict) -> None:
    pts = inputs.points_2d(inputs.stream(ctx.seed, 0), size["n"], size["colors"], 1.6, 1 / 16)
    idx = setup(ctx, [("estimator", "estimator", lambda: EstimatorIndex(pts))])["estimator"]
    rng = inputs.stream(ctx.seed, 1)
    est_rng = inputs.stream(ctx.seed, 2)
    rounds = -(-ctx.queries // len(ESTIMATORS))
    rects = inputs.rects_around_points(rng, pts, rounds)
    answers: list = []
    stats: dict = defaultdict(list)   # span name -> stats dicts of traced calls
    canon: list = []   # canonical nodes per decomposition

    def call(i: int, traced: bool) -> None:
        rect = rects[i // len(ESTIMATORS)]
        name, estimate, _, _ = ESTIMATORS[i % len(ESTIMATORS)]
        if traced:
            st: dict = {}
            tree, trees = idx.tree, idx.color_trees
            with ctx.tracer.instrument(tree, "canonical_nodes", "rangetree.canonical_nodes",
                                       lambda nodes: canon.append(len(nodes))), \
                    ctx.tracer.instrument(trees, "weight", "rangetree.eval"), \
                    ctx.tracer.instrument(trees, "count", "rangetree.eval"), \
                    ctx.span(name):
                h = estimate(idx, rect, est_rng, st).value
            stats[name].append(st)
        else:
            h = estimate(idx, rect, est_rng, None).value
        answers.append((i, h))

    serve(ctx, len(ESTIMATORS), call)
    truth: dict = {}
    for i, h in answers:
        _, _, kind, bound_ok = ESTIMATORS[i % len(ESTIMATORS)]
        key = (i // len(ESTIMATORS), kind)
        if key not in truth:
            truth[key] = brute(ctx, pts, rects[key[0]], kind)
        ctx.approx_checked += 1
        ctx.approx_missed += not bound_ok(h, truth[key])
    ctx.report_mode = "approx"
    if ctx.tracer is not None:
        totals = ctx.tracer.totals()
        add_s, mult_s = stats["approx_shannon.additive"], stats["approx_shannon.multiplicative"]
        add_r, mult_r = stats["approx_renyi.additive"], stats["approx_renyi.multiplicative"]
        shannon = add_s + mult_s
        add_time = totals.get("approx_shannon.additive", (0, 0.0, 0.0))[1]
        add_samples = sum(st.get("samples", 0) for st in add_s)
        renyi_samples = [st["samples"] for st in add_r + mult_r if "samples" in st]
        ctx.layer.update({
            "rangetree.build_s": ctx.build_s["estimator"],
            "rangetree.canonical_nodes": statistics.fmean(canon) if canon else 0.0,
            "rangetree.canonical_us": mean_us(totals, "rangetree.canonical_nodes"),
            "rangetree.eval_us": mean_us(totals, "rangetree.eval"),
            "approx_shannon.additive_us": mean_us(totals, "approx_shannon.additive"),
            "approx_shannon.multiplicative_us": mean_us(totals, "approx_shannon.multiplicative"),
            "approx_shannon.samples": ratio(sum(st.get("samples", 0) for st in shannon),
                                            len(shannon)),
            "approx_shannon.us_per_sample": 1e6 * ratio(add_time, add_samples),
            "approx_shannon.fallback_frac": ratio(
                sum("exact-fallback" in st.get("mode", "") for st in shannon), len(shannon)),
            "approx_shannon.heavy_frac": ratio(
                sum("+heavy" in st.get("mode", "") for st in mult_s), len(mult_s)),
            "approx_renyi.additive_us": mean_us(totals, "approx_renyi.additive"),
            "approx_renyi.multiplicative_us": mean_us(totals, "approx_renyi.multiplicative"),
            "approx_renyi.samples": statistics.fmean(renyi_samples) if renyi_samples else 0.0,
            "approx_renyi.samples_only_frac": ratio(
                sum(st.get("branch") == "samples-only" for st in add_r), len(add_r)),
            "oracle.brute_us": mean_us(totals, "oracle.brute_entropy"),
        })


# ---------------------------------------------------------------------------
# series-1d


class CountingBackend:
    """Duck-typed partition backend: forwards to another, one span per call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def describe(self) -> dict:
        return self.inner.describe()

    def expected_range(self, i: int, j: int) -> float:
        with self.tracer.span("partition.backend"):
            return self.inner.expected_range(i, j)

    def expected_rect(self, rect: QueryRect) -> float:
        with self.tracer.span("partition.backend"):
            return self.inner.expected_rect(rect)


PARTITION_JOBS = (
    ("maxpart_dp", "line", 8, lambda pts, be: maxpart_dp(pts, 8, be)),
    ("maxpart_approx", "line", 8, lambda pts, be: maxpart_approx(pts, 8, 0.1, be)),
    ("sumpart", "line", 4, lambda pts, be: sumpart_approx(pts, 4, 0.2, be)),
    ("tree_split", "plane", 32, lambda pts, be: greedy_tree_split(pts, 32, be)),
)


def check_bucketing(ctx: Ctx, name: str, res, k: int, oracle: OracleBackend) -> None:
    n = len(oracle.pts)
    cuts = res.cuts
    if not (len(cuts) == k + 1 and cuts[0] == 0 and cuts[-1] == n
            and all(a < b for a, b in zip(cuts, cuts[1:])) and len(res.scores) == k):
        ctx.fail(f"{name}: invalid cuts {cuts}")
        return
    want = [oracle.expected_range(a, b) for a, b in zip(cuts, cuts[1:])]
    agg = sum if name == "sumpart" else max
    if not (all(abs(w - s) <= EXACT_TOL for w, s in zip(want, res.scores))
            and abs(agg(want) - res.value) <= EXACT_TOL):
        ctx.fail(f"{name}: scores {res.scores} / value {res.value} != oracle {want}")


def check_tree(ctx: Ctx, res, k: int, oracle: OracleBackend) -> None:
    ids = np.sort(np.concatenate([leaf.point_ids for leaf in res.leaves]))
    if len(res.leaves) != k or not np.array_equal(ids, np.arange(len(oracle.pts))):
        ctx.fail(f"tree_split: {len(res.leaves)} leaves do not partition the points")
        return
    for leaf in res.leaves:
        want = oracle.expected_rect(leaf.rect)
        if not abs(want - leaf.score) <= EXACT_TOL:
            ctx.fail(f"tree_split: leaf {leaf.node_id} score {leaf.score} != oracle {want}")


def run_partition(ctx: Ctx, data: dict, indexes: dict, traced: bool) -> float:
    """Runs the job set once; returns its time at reference speed. Only
    untraced results are checked, so each job is checked once."""
    total = 0.0
    for name, plane, k, job in PARTITION_JOBS:
        pts = data[plane]
        backend = ExactIndexBackend(indexes[plane])
        if traced:
            ctx.tracer.next_op()
            backend = CountingBackend(backend, ctx.tracer)
            with ctx.tracer.instrument(indexes["line"], "query", "exact1d.query"), \
                    ctx.tracer.instrument(indexes["plane"], "query", "exactnd.query"), \
                    ctx.span(f"partition.{name}"):
                total += ctx.clock.timed(lambda: job(pts, backend))[2]
            continue
        ctx.attempted += 1
        try:
            res, _, t = ctx.clock.timed(lambda: job(pts, backend))
            total += t
        except Exception as exc:  # a raising job is an error of the served path
            ctx.fail(f"{name}: {exc!r}")
            continue
        oracle = OracleBackend(pts)
        if plane == "line":
            check_bucketing(ctx, name, res, k, oracle)
        else:
            check_tree(ctx, res, k, oracle)
    return total


def series_1d(ctx: Ctx, size: dict) -> None:
    rng = inputs.stream(ctx.seed, 0)
    pts = inputs.points_1d(rng, size["n"], size["colors"], 1.6, weighted=False)
    data = {
        "line": inputs.points_1d(rng, size["part_n"], size["colors"], 1.6, weighted=True),
        "plane": inputs.points_2d(rng, size["tree_n"], 64, 1.6, 0.0),
    }
    loaded = setup(ctx, [
        ("sweep_shannon", "sweep-shannon", lambda: build_sweep_shannon(pts, SWEEP_EPS)),
        ("sweep_renyi", "sweep-renyi", lambda: build_sweep_renyi(pts, SWEEP_EPS, 2.0)),
        ("line", "exact1d", lambda: Exact1DIndex(data["line"], t=0.5)),
        ("plane", "exactnd", lambda: ExactNDIndex(data["plane"], t=0.5)),
    ])
    sweeps = (loaded["sweep_shannon"], loaded["sweep_renyi"])
    qrng = inputs.stream(ctx.seed, 1)
    xs = np.sort(pts.coords[:, 0])
    queries = inputs.intervals(qrng, xs, size["queries"])
    answers: list = []

    def call(i: int, traced: bool) -> None:
        j = i % len(queries)
        sweep = sweeps[j % 2]
        if traced:
            with ctx.span("sweep1d.query"):
                s = sweep.query(queries[j])
        else:
            s = sweep.query(queries[j])
        answers.append((j, s.value))

    serve(ctx, 2, call)
    truth: dict = {}
    for j, h in answers:
        if j not in truth:
            truth[j] = brute(ctx, pts, queries[j], SHANNON if j % 2 == 0 else RENYI2)
        ok = (shannon_bound_holds(truth[j], h, SWEEP_EPS) if j % 2 == 0
              else renyi_bound_holds(truth[j], h, SWEEP_EPS, 2.0))
        if not ok:
            ctx.fail(f"sweep answer {h!r} breaks its bound around {truth[j]!r} (query {j})")

    indexes = {"line": loaded["line"], "plane": loaded["plane"]}
    ctx.partition_s = run_partition(ctx, data, indexes, traced=False)
    ctx.report_mode = "deterministic"
    if ctx.tracer is None:
        return
    traced_s = run_partition(ctx, data, indexes, traced=True)
    ctx.plain_s += ctx.partition_s
    ctx.traced_s += traced_s
    totals = ctx.tracer.totals()
    jobs = {name: totals.get(f"partition.{name}", (0, 0.0, 0.0)) for name, *_ in PARTITION_JOBS}
    backend = totals.get("partition.backend", (0, 0.0, 0.0))
    sh_space = sweeps[0].space_stats()
    re_space = sweeps[1].space_stats()
    ctx.layer.update({
        "sweep1d.shannon_build_s": ctx.build_s["sweep_shannon"],
        "sweep1d.renyi_build_s": ctx.build_s["sweep_renyi"],
        "sweep1d.ladder_entries": sh_space["ladder_entries"] + re_space["ladder_entries"],
        "sweep1d.qualifying_nodes": sh_space["qualifying_nodes"] + re_space["qualifying_nodes"],
        "sweep1d.query_us": mean_us(totals, "sweep1d.query"),
        "partition.maxpart_dp_s": jobs["maxpart_dp"][1],
        "partition.maxpart_approx_s": jobs["maxpart_approx"][1],
        "partition.sumpart_s": jobs["sumpart"][1],
        "partition.tree_split_s": jobs["tree_split"][1],
        "partition.backend_calls": backend[0],
        "partition.backend_s": backend[1],
        "partition.self_s": sum(job[2] for job in jobs.values()),
        "exact1d.build_s": ctx.build_s["line"],
        "exact1d.table_entries": indexes["line"].space_stats()["table_entries"],
        "exact1d.query_us": mean_us(totals, "exact1d.query"),
        "exactnd.build_s": ctx.build_s["plane"],
        "exactnd.query_us": mean_us(totals, "exactnd.query"),
        "exactnd.memo_entries": indexes["plane"].space_stats()["table_entries"],
        "oracle.brute_us": mean_us(totals, "oracle.brute_entropy"),
    })


WORKLOADS = {
    "exact-1d": exact_1d,
    "region-2d": region_2d,
    "approx-2d": approx_2d,
    "series-1d": series_1d,
}


# ---------------------------------------------------------------------------
# results


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
        size: str = "full") -> Ctx:
    floor = MIN_QUERIES if size == "full" else 8
    queries = max(floor, round(seconds * RATE[workload]))
    ctx = Ctx(seed=seed, queries=queries, tmp=tmp, tracer=Tracer() if trace else None)
    WORKLOADS[workload](ctx, SIZES[size][workload])
    if ctx.tracer is not None:
        ctx.layer["trace.overhead_frac"] = ratio(ctx.traced_s - ctx.plain_s, ctx.plain_s)
    return ctx


def report(ctx: Ctx) -> dict:
    """The end-to-end report: metric -> (value or None, samples or None)."""
    n = ctx.samples
    out = {name: (None, None) for name in REPORT}
    out.update({
        "setup_s": (ctx.setup_s, ctx.setup_reps),
        f"{ctx.report_mode}_p50_us": (ctx.p50_us, n),
        f"{ctx.report_mode}_p99_us": (ctx.p99_us, n),
        "queries_per_s": (ctx.queries_per_s, ctx.queries),
        "index_bytes": (ctx.index_bytes, None),
        "peak_rss_mb": (peak_rss_mb(), None),
        "error_frac": (ctx.failed / ctx.attempted, ctx.attempted),
    })
    if ctx.partition_s is not None:
        out["partition_s"] = (ctx.partition_s, len(PARTITION_JOBS))
    if ctx.approx_checked:
        out["approx_miss_frac"] = (ctx.approx_missed / ctx.approx_checked, ctx.approx_checked)
    return out


def gated(ctx: Ctx) -> dict:
    return {
        "setup_s": ctx.setup_s,
        "p50_us": ctx.p50_us,
        "p99_us": ctx.p99_us,
        "index_bytes": ctx.index_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(ctx: Ctx) -> dict:
    return {name: float(ctx.layer.get(name, 0.0)) for name in LAYER}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB
