"""Theory: harmonic numbers, message/space bounds, reporting statistics."""

from .bounds import (
    lower_bound_total,
    optimality_gap,
    sliding_window_space,
    upper_bound_observation1,
    upper_bound_per_site,
    upper_bound_total,
)
from .fits import SHAPE_MODELS, ShapeFit, best_shape, fit_shape
from .harmonic import EULER_GAMMA, harmonic, harmonic_diff
from .stats import Summary, ratio_to_bound, summarize

__all__ = [
    "harmonic",
    "harmonic_diff",
    "EULER_GAMMA",
    "upper_bound_per_site",
    "upper_bound_total",
    "upper_bound_observation1",
    "lower_bound_total",
    "optimality_gap",
    "sliding_window_space",
    "Summary",
    "summarize",
    "ratio_to_bound",
    "ShapeFit",
    "fit_shape",
    "best_shape",
    "SHAPE_MODELS",
]
