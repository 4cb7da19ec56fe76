"""Estimators consuming distinct samples: F0 counting, heavy hitters,
predicate and quantile queries, plus the windowed query surface over the
``Sampler`` protocol and an independent exponential-histogram baseline."""

from .distinct_count import (
    DistinctCountEstimate,
    estimate_from_sampler,
    kmv_estimate,
)
from .eh_distinct import SlidingDistinctCounterEH
from .heavy_hitters import HeavyHitterEstimate, estimate_heavy_hitters
from .predicate import (
    PredicateEstimate,
    estimate_count,
    estimate_fraction,
    estimate_mean,
)
from .quantiles import QuantileEstimate, estimate_cdf_band, estimate_quantile
from .windowed import (
    windowed_distinct,
    windowed_fraction,
    windowed_heavy_hitters,
    windowed_quantile,
    windowed_sample,
)

__all__ = [
    "DistinctCountEstimate",
    "kmv_estimate",
    "estimate_from_sampler",
    "SlidingDistinctCounterEH",
    "HeavyHitterEstimate",
    "estimate_heavy_hitters",
    "PredicateEstimate",
    "estimate_fraction",
    "estimate_count",
    "estimate_mean",
    "QuantileEstimate",
    "estimate_quantile",
    "estimate_cdf_band",
    "windowed_sample",
    "windowed_distinct",
    "windowed_fraction",
    "windowed_quantile",
    "windowed_heavy_hitters",
]
