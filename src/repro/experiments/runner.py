"""Shared experiment drivers.

These functions contain the only performance-critical Python loops in the
package: they pre-hash entire streams with the vectorized ``mix64`` family
(DESIGN.md §6), convert NumPy arrays to plain lists (attribute lookups and
NumPy scalar boxing dominate otherwise), and then drive the systems through
their ``observe_hashed`` fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.api import make_sampler
from ..errors import ConfigurationError
from ..hashing.unit import unit_hash_array
from ..streams.datasets import get_dataset
from ..streams.partition import Distributor
from ..streams.slotted import SlottedArrivals

__all__ = [
    "InfiniteRunResult",
    "SlidingRunResult",
    "prepare_stream",
    "run_infinite_once",
    "run_sliding_once",
    "checkpoints_for",
]

#: Registry variant selectable by the historical system name in
#: :func:`run_infinite_once` (all construction goes through
#: :func:`repro.core.api.make_sampler`; no class branching here).
_INFINITE_VARIANTS = {
    "ours": "infinite",
    "broadcast": "broadcast",
}


@dataclass(slots=True)
class InfiniteRunResult:
    """Outcome of one infinite-window run.

    Attributes:
        messages: Final total message count.
        trace: ``(elements_processed, cumulative_messages)`` checkpoints.
        distinct_total: Distinct elements in the stream (d).
        distinct_per_site: Distinct elements observed per site (d_i).
        sample: Final sample at the coordinator.
    """

    messages: int
    trace: list[tuple[int, int]]
    distinct_total: int
    distinct_per_site: list[int]
    sample: list


@dataclass(slots=True)
class SlidingRunResult:
    """Outcome of one sliding-window run.

    Attributes:
        messages: Final total message count.
        mem_mean: Mean per-site candidate-set size over (site, slot) pairs.
        mem_max: Maximum per-site candidate-set size observed.
        num_slots: Timesteps simulated.
        mem_series: Optional per-slot mean memory (for time-series plots).
    """

    messages: int
    mem_mean: float
    mem_max: int
    num_slots: int
    mem_series: list[float] = field(default_factory=list)


def prepare_stream(
    family: str, scale: str, rng: np.random.Generator, hash_seed: int
) -> tuple[list[int], list[float], int]:
    """Generate and pre-hash a calibrated dataset stream.

    Args:
        family: Dataset family (``"oc48"``/``"enron"``).
        scale: Dataset scale.
        rng: Randomness for stream generation.
        hash_seed: Seed of the (mix64) hash family used by the systems.

    Returns:
        ``(elements, hashes, n_distinct)`` as plain Python lists plus the
        exact distinct count.
    """
    spec = get_dataset(family, scale)
    ids = spec.generate(rng)
    hashes = unit_hash_array(ids, hash_seed)
    return ids.tolist(), hashes.tolist(), spec.n_distinct


def checkpoints_for(n: int, count: int = 20) -> list[int]:
    """Evenly spaced message-trace checkpoints over an ``n``-element stream."""
    if n < 1:
        return []
    step = max(n // count, 1)
    points = list(range(step, n + 1, step))
    if points[-1] != n:
        points.append(n)
    return points


def run_infinite_once(
    elements: Sequence[int],
    hashes: Sequence[float],
    num_sites: int,
    sample_size: int,
    distributor: Distributor,
    rng: np.random.Generator,
    hash_seed: int,
    system: str = "ours",
    checkpoints: Optional[Sequence[int]] = None,
) -> InfiniteRunResult:
    """Drive one infinite-window system over a pre-hashed stream.

    Args:
        elements: Integer element ids.
        hashes: Matching unit hashes (``unit_hash_array(ids, hash_seed)``).
        num_sites: Number of sites k.
        sample_size: Sample size s.
        distributor: Element-to-site distribution strategy.
        rng: Randomness for the distributor.
        hash_seed: Hash-family seed (must match ``hashes``).
        system: ``"ours"`` (Algorithms 1-2) or ``"broadcast"``.
        checkpoints: Optional element counts at which to record cumulative
            messages (for Figures 5.1/5.4).

    Returns:
        An :class:`InfiniteRunResult`.
    """
    try:
        variant = _INFINITE_VARIANTS[system]
    except KeyError:
        raise ConfigurationError(
            f"unknown system {system!r}; expected one of {sorted(_INFINITE_VARIANTS)}"
        ) from None
    sys_ = make_sampler(
        variant,
        num_sites=num_sites,
        sample_size=sample_size,
        seed=hash_seed,
        algorithm="mix64",
    )
    n = len(elements)
    trace: list[tuple[int, int]] = []
    cps = list(checkpoints) if checkpoints else []
    cp_idx = 0

    if distributor.floods:
        sites = None
        d_per_site: list[int]
    else:
        assignments = distributor.assignments(n, rng)
        sites = assignments.tolist()

    stats = sys_.network.stats
    if sites is None:
        flood = sys_.flood_hashed
        for i in range(n):
            flood(elements[i], hashes[i])
            if cp_idx < len(cps) and (i + 1) == cps[cp_idx]:
                trace.append((i + 1, stats.total_messages))
                cp_idx += 1
    else:
        site_objs = sys_.sites
        network = sys_.network
        for i in range(n):
            site_objs[sites[i]].observe_hashed(elements[i], hashes[i], network)
            if cp_idx < len(cps) and (i + 1) == cps[cp_idx]:
                trace.append((i + 1, stats.total_messages))
                cp_idx += 1

    # Per-site distinct counts (for Observation 1 comparisons).
    if sites is None:
        d = len(set(elements))
        d_per_site = [d] * num_sites
    else:
        seen: list[set] = [set() for _ in range(num_sites)]
        for i in range(n):
            seen[sites[i]].add(elements[i])
        d_per_site = [len(s) for s in seen]
        d = len(set(elements))

    return InfiniteRunResult(
        messages=stats.total_messages,
        trace=trace,
        distinct_total=d,
        distinct_per_site=d_per_site,
        sample=list(sys_.sample().items),
    )


def run_sliding_once(
    elements: Sequence[int],
    num_sites: int,
    window: int,
    rng: np.random.Generator,
    hash_seed: int,
    per_slot: int = 5,
    sample_size: int = 1,
    coordinator_mode: str = "exact",
    record_series: bool = False,
    variant: str = "auto",
) -> SlidingRunResult:
    """Drive one sliding-window system over a slotted arrival schedule.

    Args:
        elements: Integer element ids.
        num_sites: Number of sites k.
        window: Window size w in slots.
        rng: Randomness for the slotted site assignment.
        hash_seed: Hash-family seed.
        per_slot: Arrivals per timestep (paper uses 5).
        sample_size: Sample size s.
        coordinator_mode: ``"exact"``/``"paper"`` (s = 1 only).
        record_series: Also record the per-slot mean memory series.
        variant: Registry variant to drive; ``"auto"`` preserves the
            figures' historical choice — Algorithms 3-4 for s = 1
            (``"sliding"``), the local-push bottom-s system otherwise
            (``"sliding-local-push"``).

    Returns:
        A :class:`SlidingRunResult` with message and memory metrics
        (Figures 5.7-5.10).
    """
    if variant == "auto":
        variant = "sliding" if sample_size == 1 else "sliding-local-push"
    sys_ = make_sampler(
        variant,
        num_sites=num_sites,
        window=window,
        sample_size=sample_size,
        seed=hash_seed,
        algorithm="mix64",
        coordinator_mode=coordinator_mode,
    )
    schedule = SlottedArrivals(elements, num_sites, per_slot, rng)
    sites = sys_.sites
    mem_sum = 0
    mem_count = 0
    mem_max = 0
    series: list[float] = []
    for slot, arrivals in schedule.slots():
        sys_.advance(slot)
        sys_.observe_batch(arrivals)
        slot_total = 0
        for site in sites:
            size = site.memory_size
            slot_total += size
            if size > mem_max:
                mem_max = size
        mem_sum += slot_total
        mem_count += len(sites)
        if record_series:
            series.append(slot_total / len(sites))
    return SlidingRunResult(
        messages=sys_.total_messages,
        mem_mean=mem_sum / max(mem_count, 1),
        mem_max=mem_max,
        num_slots=schedule.num_slots,
        mem_series=series,
    )
