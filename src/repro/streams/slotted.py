"""Slotted arrival process for sliding-window experiments.

The paper (Section 5.3) derives sliding-window inputs by assigning, in each
timestep, 5 elements to 5 sites chosen randomly (with replacement — "it is
possible that multiple elements are observed by the same site in the same
timestep").  :class:`SlottedArrivals` generalizes the constant to
``per_slot`` and pre-computes all assignments vectorized.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..core.events import EventBatch
from ..errors import ConfigurationError

__all__ = ["SlottedArrivals"]


class SlottedArrivals:
    """Pre-computed (slot, site, element) arrival schedule.

    Args:
        elements: The stream, in arrival order.
        num_sites: Number of sites elements are dealt to.
        per_slot: Elements delivered per timestep (paper uses 5).
        rng: Randomness for the per-element site choice.
    """

    __slots__ = ("elements", "sites", "per_slot", "num_slots")

    def __init__(
        self,
        elements: Sequence,
        num_sites: int,
        per_slot: int,
        rng: np.random.Generator,
    ) -> None:
        if num_sites < 1:
            raise ConfigurationError(f"num_sites must be >= 1, got {num_sites}")
        if per_slot < 1:
            raise ConfigurationError(f"per_slot must be >= 1, got {per_slot}")
        n = len(elements)
        self.elements = list(elements)
        self.sites = rng.integers(0, num_sites, size=n, dtype=np.int64).tolist()
        self.per_slot = per_slot
        self.num_slots = -(-n // per_slot)  # ceil division

    def __len__(self) -> int:
        return self.num_slots

    def slots(self) -> Iterator[tuple[int, list[tuple[int, object]]]]:
        """Yield ``(slot, [(site, element), ...])`` for each timestep.

        Slots are numbered from 1 so that "expiry = arrival + w" stays
        positive for every window size.
        """
        per = self.per_slot
        elements = self.elements
        sites = self.sites
        for slot in range(self.num_slots):
            lo = slot * per
            hi = min(lo + per, len(elements))
            yield slot + 1, [
                (sites[i], elements[i]) for i in range(lo, hi)
            ]

    def event_batch(self) -> EventBatch:
        """The whole schedule as one slot-stamped columnar batch.

        Feeding the result to ``observe_batch`` is equivalent to driving
        :meth:`slots` with ``advance(slot)`` + per-slot deliveries — the
        batch's slot column replays the same (1-based) slot boundaries.
        """
        slots = np.arange(len(self.elements), dtype=np.int64) // self.per_slot
        return EventBatch(
            self.elements,
            sites=np.asarray(self.sites, dtype=np.int64),
            slots=slots + 1,
        )
