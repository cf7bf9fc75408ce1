"""Range entropy queries over colored, weighted point sets."""

from .core import (
    SHANNON,
    ColorHistogram,
    ColoredPointSet,
    EntropyKind,
    EntropySummary,
    QueryRect,
    delete_color_renyi,
    delete_color_shannon,
    insert_color_renyi,
    insert_color_shannon,
    merge_renyi,
    merge_shannon,
    renyi_entropy,
    renyi_kind,
    shannon_entropy,
)
from .approx import (
    EstimatorConfig,
    EstimatorIndex,
    detect_heavy_color,
    estimate_additive,
    estimate_additive_renyi,
    estimate_moment,
    estimate_moment_excluding,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
)
from .errors import (
    EmptyRange,
    EntrangeError,
    InvalidOrder,
    InvalidWeight,
    OrderNotIndexed,
    TooManyBuckets,
    Underflow,
)
from .exact1d import Exact1DIndex
from .exactnd import ExactNDIndex
from .oracle import brute_entropy
from .rangetree import ColorTrees, RangeTree
from .storage import ingest, load_index, save_index
from .sweep1d import Sweep1DIndex, build_renyi as build_sweep_renyi
from .sweep1d import build_shannon as build_sweep_shannon

__all__ = [
    "SHANNON",
    "ColorHistogram",
    "ColoredPointSet",
    "EntropyKind",
    "EntropySummary",
    "QueryRect",
    "shannon_entropy",
    "renyi_entropy",
    "renyi_kind",
    "merge_shannon",
    "merge_renyi",
    "insert_color_shannon",
    "insert_color_renyi",
    "delete_color_shannon",
    "delete_color_renyi",
    "RangeTree",
    "ColorTrees",
    "Exact1DIndex",
    "ExactNDIndex",
    "Sweep1DIndex",
    "build_sweep_shannon",
    "build_sweep_renyi",
    "EstimatorIndex",
    "EstimatorConfig",
    "estimate_additive",
    "estimate_multiplicative",
    "detect_heavy_color",
    "estimate_moment",
    "estimate_moment_excluding",
    "estimate_additive_renyi",
    "estimate_multiplicative_renyi",
    "brute_entropy",
    "ingest",
    "save_index",
    "load_index",
    "EntrangeError",
    "InvalidOrder",
    "InvalidWeight",
    "Underflow",
    "EmptyRange",
    "OrderNotIndexed",
    "TooManyBuckets",
]

__version__ = "0.1.0"
