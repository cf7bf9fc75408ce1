"""Goodness-of-fit for the sampling laws: chi-square at significance 1e-3,
1e5 draws per scenario, 20+ fixed seeded scenarios."""

import numpy as np
import pytest
from scipy import stats

from entrange.core import ColoredPointSet, QueryRect
from entrange.rangetree import RangeTree

DRAWS = 100_000
SIGNIFICANCE = 1e-3


def _scenario(seed, n, d, m, weighted, excluded):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 100, size=(n, d))
    colors = rng.integers(0, m, size=n)
    weights = rng.uniform(0.5, 4.0, size=n) if weighted else None
    pts = ColoredPointSet(coords, colors, weights, num_colors=m)
    lo = rng.uniform(0, 40, size=d)
    hi = rng.uniform(60, 100, size=d)
    rect = QueryRect(tuple(lo), tuple(hi))
    return pts, rect, excluded


SCENARIOS = [
    # (seed, n, d, m, weighted, excluded color or None)
    (11, 16, 1, 4, False, None),
    (12, 16, 1, 4, True, None),
    (13, 40, 1, 8, False, None),
    (14, 40, 1, 8, True, None),
    (15, 40, 1, 8, False, 2),
    (16, 40, 1, 8, True, 2),
    (17, 100, 2, 6, False, None),
    (18, 100, 2, 6, True, None),
    (19, 100, 2, 6, False, 0),
    (20, 100, 2, 6, True, 0),
    (21, 60, 2, 3, False, None),
    (22, 60, 2, 3, True, 1),
    (23, 25, 1, 25, False, None),
    (24, 25, 1, 25, False, 7),
    (25, 80, 3, 5, False, None),
    (26, 80, 3, 5, True, None),
    (27, 80, 3, 5, True, 4),
    (28, 12, 1, 2, False, None),
    (29, 12, 1, 2, False, 0),
    (30, 50, 2, 10, True, None),
    (31, 200, 1, 12, False, None),
    (32, 200, 2, 12, True, 3),
]


@pytest.mark.parametrize("spec", SCENARIOS, ids=[f"s{s[0]}" for s in SCENARIOS])
def test_sampling_law_chi_square(spec):
    seed, n, d, m, weighted, excluded = spec
    pts, rect, excluded = _scenario(seed, n, d, m, weighted, excluded)
    tree = RangeTree(pts)
    mask = rect.mask(pts)
    if excluded is not None:
        mask &= pts.colors != excluded
    probs = np.where(mask, pts.weights, 0.0)
    total = probs.sum()
    if total == 0.0 or int((probs > 0).sum()) < 2:
        pytest.skip("scenario degenerate for this seed")
    probs = probs / total
    rng = np.random.default_rng(900_000 + seed)
    pieces = tree.canonical_nodes(rect)
    exclusion = None if excluded is None else tree.exclude(pieces, excluded)
    draws = tree.pool_ids[tree.draw(pieces, rng, DRAWS, exclusion)]
    counts = np.bincount(draws, minlength=len(pts)).astype(float)
    assert counts[probs == 0].sum() == 0
    sel = probs > 0
    result = stats.chisquare(counts[sel], probs[sel] * DRAWS)
    assert result.pvalue >= SIGNIFICANCE, (seed, result.pvalue)
