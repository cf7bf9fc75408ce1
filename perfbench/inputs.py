"""Seeded input generators. The same seed always yields the same inputs.

Every workload draws its points and its query stream from independent
streams of one seed, so the library only ever sees generated data.
"""

from __future__ import annotations

import math

import numpy as np

from entrange import ColoredPointSet, QueryRect


def stream(seed: int, k: int) -> np.random.Generator:
    """The k-th independent random stream of a workload seed."""
    return np.random.default_rng([seed, k])


def zipf_colors(rng: np.random.Generator, n: int, colors: int, s: float) -> np.ndarray:
    """Zipf(s) colors in exact proportions (rounded, remainder to the most
    common colors), shuffled: every seed gets the same color counts, so the
    index sizes move with the code, not with the draw."""
    p = 1.0 / np.arange(1, colors + 1) ** s
    counts = np.floor(p / p.sum() * n).astype(np.int64)
    counts[:n - counts.sum()] += 1
    return rng.permutation(np.repeat(np.arange(colors), counts))


def points_1d(rng: np.random.Generator, n: int, colors: int, zipf_s: float,
              weighted: bool) -> ColoredPointSet:
    coords = rng.uniform(0.0, 1e6, n)
    weights = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
    return ColoredPointSet(coords, zipf_colors(rng, n, colors, zipf_s), weights)


def points_2d(rng: np.random.Generator, n: int, colors: int, zipf_s: float,
              cluster_frac: float) -> ColoredPointSet:
    """Weighted points in [0, 1000]^2; a fraction forms one tight cluster of
    a color of its own, so ranges over it hold a heavy color."""
    m = int(n * cluster_frac)
    center = rng.uniform(200.0, 800.0, 2)
    coords = np.vstack([rng.uniform(0.0, 1000.0, (n - m, 2)), rng.normal(center, 15.0, (m, 2))])
    cols = np.concatenate([zipf_colors(rng, n - m, colors, zipf_s),
                           np.full(m, colors, dtype=np.int64)])
    return ColoredPointSet(coords, cols, rng.uniform(0.5, 2.0, n))


def log_uniform(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    """m log-uniform draws in [lo, hi], one from each of m equal slices of
    the log scale, in random order: every seed gets the same mix of small
    and large queries, so figures move with the code, not with the draw."""
    u = (rng.permutation(m) + rng.uniform(0.0, 1.0, m)) / m
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def intervals(rng: np.random.Generator, sorted_coords: np.ndarray, m: int) -> list[QueryRect]:
    """m intervals, each covering a log-uniform number of consecutive points."""
    n = len(sorted_coords)
    out = []
    for w in log_uniform(rng, m, 1.0, n):
        width = min(n, int(w))
        a = int(rng.integers(0, n - width + 1))
        out.append(QueryRect.interval(float(sorted_coords[a]), float(sorted_coords[a + width - 1])))
    return out


def rects_around_points(rng: np.random.Generator, pts: ColoredPointSet, m: int) -> list[QueryRect]:
    """m rectangles with log-uniform side lengths, each containing a random
    data point, so none is empty."""
    half = np.column_stack([log_uniform(rng, m, 2.0, 200.0) for _ in range(2)])
    centers = pts.coords[rng.integers(len(pts), size=m)]
    lo = centers + rng.uniform(-1.0, 1.0, (m, 2)) * half - half
    return [QueryRect(tuple(a), tuple(a + 2 * h)) for a, h in zip(lo, half)]
