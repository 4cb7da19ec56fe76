"""Windowed query surface: estimators driven off any ``Sampler`` facade.

The lower-level estimators in this package consume raw samples; this
module is the runtime query layer on top of the unified
:class:`~repro.core.protocol.Sampler` protocol, so the same four queries
run unchanged against every registered variant — centralized or
``sharded:*`` (where ``sample()`` is the provably-global merged bottom-s
sample), serial or process-executed, infinite or sliding.

Semantics: every estimate targets the **distinct population the sampler
maintains** — the live window's distinct elements for windowed variants,
the full history for infinite ones (``SampleResult.window`` tells which).

Degenerate cases are part of the contract (exercised by the accuracy
edge-case tests):

* **empty window** (everything expired, or nothing ever arrived) —
  :func:`windowed_distinct` returns the *exact* estimate 0; the
  sample-consuming queries (:func:`windowed_fraction`,
  :func:`windowed_quantile`, :func:`windowed_heavy_hitters`) raise
  :class:`~repro.errors.EstimationError`, because a fraction or quantile
  of an empty population is undefined;
* **window smaller than s** (fewer distinct elements than the sample
  holds) — the sample *is* the population, so :func:`windowed_distinct`
  is exact and the other queries are census answers with the usual
  (conservative) bounds;
* **all-duplicate stream** — one distinct element: distinct count exactly
  1, fractions exactly 0 or 1;
* **zero-match predicate** — :func:`windowed_fraction` returns the
  rule-of-three degenerate band (see
  :func:`~repro.estimators.predicate.estimate_fraction`).
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.protocol import Sampler, SampleResult
from ..errors import EstimationError
from .distinct_count import DistinctCountEstimate, kmv_estimate
from .heavy_hitters import HeavyHitterEstimate, estimate_heavy_hitters
from .predicate import PredicateEstimate, estimate_fraction
from .quantiles import QuantileEstimate, estimate_quantile

__all__ = [
    "windowed_sample",
    "windowed_distinct",
    "windowed_fraction",
    "windowed_quantile",
    "windowed_heavy_hitters",
]


def windowed_sample(sampler: Sampler) -> SampleResult:
    """The sampler's current sample, validated for estimation use.

    Raises:
        EstimationError: If the sampler produces a with-replacement
            sample (the bottom-s estimators need without-replacement).
    """
    result = sampler.sample()
    if result.with_replacement:
        raise EstimationError(
            "windowed estimation needs a without-replacement bottom-s "
            "sample; with-replacement variants are not supported"
        )
    return result


def windowed_distinct(sampler: Sampler) -> DistinctCountEstimate:
    """Distinct count of the maintained population (KMV over the sample).

    For windowed samplers this is the sliding-window distinct count at
    the current slot; an empty window yields the exact estimate 0, and a
    window holding fewer than ``s`` distinct elements is counted exactly
    (the sample is under-full, so it *is* the population).

    Raises:
        EstimationError: For with-replacement samples or inconsistent
            sketch state.
    """
    result = windowed_sample(sampler)
    if result.threshold is None:
        raise EstimationError(
            "sampler exposes no bottom-s threshold; cannot run KMV"
        )
    return kmv_estimate(result.sample_size, result.threshold, len(result))


def _require_members(result: SampleResult, query: str) -> SampleResult:
    if not len(result):
        raise EstimationError(
            f"cannot estimate a {query} over an empty window "
            "(the maintained population is empty)"
        )
    return result


def windowed_fraction(
    sampler: Sampler, predicate: Callable[[Any], bool]
) -> PredicateEstimate:
    """Fraction of the maintained distinct population matching ``predicate``.

    Raises:
        EstimationError: If the window is empty (no population to query).
    """
    result = _require_members(windowed_sample(sampler), "predicate fraction")
    return estimate_fraction(result, predicate)


def windowed_quantile(
    sampler: Sampler,
    q: float,
    value_fn: Callable[[Any], float] = float,
    delta: float = 0.05,
) -> QuantileEstimate:
    """The q-quantile of ``value_fn`` over the maintained population.

    Raises:
        EstimationError: If the window is empty or ``q``/``delta`` are
            out of range.
    """
    result = _require_members(windowed_sample(sampler), "quantile")
    return estimate_quantile(result, q, value_fn=value_fn, delta=delta)


def windowed_heavy_hitters(
    sampler: Sampler,
    key_fn: Callable[[Any], Any],
    threshold: float = 0.0,
    with_counts: bool = False,
) -> list[HeavyHitterEstimate]:
    """Groups holding ≥ ``threshold`` of the window's distinct population.

    Args:
        sampler: Any without-replacement bottom-s sampler facade.
        key_fn: Maps an element to its group key.
        threshold: Minimum estimated share to report.
        with_counts: Also attach absolute distinct-count bounds (runs the
            KMV estimator over the same sample).

    Raises:
        EstimationError: If the window is empty.
    """
    result = _require_members(windowed_sample(sampler), "heavy-hitter set")
    distinct_count = windowed_distinct(sampler) if with_counts else None
    return estimate_heavy_hitters(
        result, key_fn, threshold=threshold, distinct_count=distinct_count
    )
