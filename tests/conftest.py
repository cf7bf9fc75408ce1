import os
import sys

import numpy as np
import pytest

from entrange.core import ColoredPointSet


def random_pointset(rng, n, d=1, m=None, weighted=False, coord_range=(0.0, 100.0),
                    duplicate_frac=0.0):
    """Synthetic colored points with optional skewed colors and duplicates."""
    if m is None:
        m = max(2, n // 8)
    coords = rng.uniform(coord_range[0], coord_range[1], size=(n, d))
    if duplicate_frac > 0 and n > 1:
        ndup = int(n * duplicate_frac)
        src = rng.integers(0, n, size=ndup)
        dst = rng.integers(0, n, size=ndup)
        coords[dst] = coords[src]
    # zipf-ish color skew
    raw = rng.zipf(1.6, size=n) % m
    colors = raw.astype(np.int64)
    weights = rng.uniform(0.5, 3.0, size=n) if weighted else None
    return ColoredPointSet(coords, colors, weights, num_colors=m)


def random_rect(rng, d=1, coord_range=(0.0, 100.0)):
    from entrange.core import QueryRect

    a = rng.uniform(coord_range[0], coord_range[1], size=d)
    b = rng.uniform(coord_range[0], coord_range[1], size=d)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return QueryRect(tuple(lo), tuple(hi))


def profiled_calls(fn):
    """``fn()``'s result, every C function it called, and its numpy calls:
    numpy functions, methods of arrays or numpy scalars, and Python frames
    of numpy's own modules."""
    numpy_dir = os.path.dirname(np.__file__)
    calls, numpy_calls = [], []

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(arg)
            owner = type(getattr(arg, "__self__", None))
            if (getattr(arg, "__module__", None) or owner.__module__).startswith("numpy"):
                numpy_calls.append(arg)
        elif event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            numpy_calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls, numpy_calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def always_sample(monkeypatch):
    """Makes the estimators' one choice between sampling and the exact answer
    (``DualAccessOracle.use_sampling``) always sample, however few points a
    range holds, so that small test ranges still run the sampled branches."""
    from entrange.approx import DualAccessOracle

    monkeypatch.setattr(DualAccessOracle, "use_sampling", lambda self, samples: True)


@pytest.fixture
def no_direct_fold(monkeypatch):
    """Sets the direct folds' size rule (``rangetree.FOLD_POINTS``) to 0, so
    that every nonempty range takes its structure's own path: a sweep's
    ladders, a range tree's walk and its numpy fold."""
    from entrange import rangetree

    monkeypatch.setattr(rangetree, "FOLD_POINTS", 0)
