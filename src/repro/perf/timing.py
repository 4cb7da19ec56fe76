"""Steady wall-clock ratios for the speed-up floors.

On a shared host the speed of one CPU shifts by up to 1.6x within
seconds.  Timing every run of one side and then every run of the other
compares two different machines, and a best-of-N on each side picks
each side's luckiest moment.  :func:`paired_speedup` instead runs the two
sides in interleaved pairs, so a shift hits both halves of a pair, and
takes the median of the per-pair ratios.
"""

from __future__ import annotations

import gc
import statistics
from typing import Callable

__all__ = ["paired_speedup"]


def paired_speedup(
    slow: Callable[[], float],
    fast: Callable[[], float],
    pairs: int = 5,
    *,
    gc_off: bool = True,
) -> float:
    """The median over ``pairs`` interleaved runs of ``slow() / fast()``.

    Each callable builds its own fresh inputs, times only the work under
    test and returns the seconds it measured.  Garbage is collected once
    before the first pair, and by default collection stays off until the
    last pair ends, so no pause lands inside one side's timing.
    ``gc_off=False`` leaves the collector running, for a floor whose
    timed work includes the collection pauses it causes.

    Raises:
        ValueError: For ``pairs < 1``.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    enabled = gc.isenabled()
    gc.collect()
    if gc_off:
        gc.disable()
    try:
        ratios = [slow() / fast() for _ in range(pairs)]
    finally:
        if enabled:
            gc.enable()
    return statistics.median(ratios)
