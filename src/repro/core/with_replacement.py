"""Distinct sampling *with replacement* — s parallel single-sample copies.

The paper (end of Section 3.1): "One solution to distinct sampling with
replacement is to repeat s parallel copies of the single element sampling
algorithm, each copy using a different hash function. ... the message cost
is s times the cost of a single element sampling algorithm, which is
O(sk log de)."

Each copy is an independent ``s = 1`` instance of the corresponding
without-replacement system, seeded from one
:class:`~repro.hashing.unit.SeededHashFamily`, so the ``s`` samples are
mutually independent uniform draws from the distinct population.  The
facades conform to the unified :class:`~repro.core.protocol.Sampler`
protocol and aggregate costs across the copies.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Optional

from ..errors import ConfigurationError
from ..hashing.unit import SeededHashFamily, UnitHasher
from ..runtime.topology import aggregate_sampler_stats, merge_message_stats
from .events import EventBatch
from .infinite import DistinctSamplerSystem
from .protocol import (
    Sampler,
    SampleResult,
    SamplerConfig,
    SamplerStats,
    parse_counter,
    parse_slot,
)
from .sliding import SlidingWindowSystem

__all__ = ["WithReplacementSampler", "SlidingWindowWithReplacement"]


class _WithReplacementBase(Sampler):
    """Shared protocol plumbing for the two with-replacement facades.

    Subclasses build one independent s = 1 copy per family member through
    :meth:`_make_copy`.  There is no facade-level network: every cost
    counter aggregates across the copies' networks.

    Args:
        num_sites: Number of sites k.
        sample_size: Number of independent samples s.
        seed: Master seed for the hash family.
        algorithm: Hash algorithm for every family member.
    """

    #: Window size in slots (0 = infinite window).
    window = 0

    def __init__(
        self,
        num_sites: int,
        sample_size: int,
        seed: int = 0,
        algorithm: str = "murmur2",
    ) -> None:
        if num_sites < 1:
            raise ConfigurationError(f"num_sites must be >= 1, got {num_sites}")
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.seed = int(seed)
        self.algorithm = algorithm
        self.copies = self._make_copies(num_sites, sample_size)
        self._init_protocol()

    def _make_copies(self, num_sites: int, count: int) -> list[Any]:
        family = SeededHashFamily(self.seed, self.algorithm)
        return [self._make_copy(num_sites, family.member(i)) for i in range(count)]

    @abstractmethod
    def _make_copy(self, num_sites: int, hasher: UnitHasher) -> Any:
        """Build one s = 1 copy hashing with ``hasher``."""

    # -- lifecycle ---------------------------------------------------------

    def _deliver(self, site_id: int, item: Any) -> None:
        for copy in self.copies:
            copy._deliver(site_id, item)

    def _deliver_columns(self, run: EventBatch) -> None:
        """Hand the whole same-slot run to every copy.

        The copies are fully independent (separate hashers and networks),
        so each copy's columnar delivery — hashing with *its own* family
        member, one cached column per copy — produces exactly the state
        the event-by-event loop would.  The facade has already advanced,
        which (for the sliding flavour) moved every copy's clock to the
        run's slot.
        """
        for copy in self.copies:
            copy._deliver_columns(run)

    def sample(self) -> SampleResult:
        """One independent uniform distinct draw per copy.

        ``items`` has exactly ``s`` slots; a slot is None while its copy
        has not yet seen a live element.  ``pairs`` carries the
        ``(hash, item)`` of the non-empty copies.
        """
        draws: list[Optional[Any]] = []
        pairs: list[tuple[float, Any]] = []
        for copy in self.copies:
            result = copy.sample()
            draws.append(result.first)
            if result.pairs:
                pairs.append(result.pairs[0])
        return SampleResult(
            items=tuple(draws),
            pairs=tuple(pairs),
            threshold=None,
            sample_size=len(self.copies),
            window=self.window or None,
            slot=self.current_slot,
            with_replacement=True,
        )

    def message_stats(self):
        """Aggregate message counters across all s copies' transports."""
        return merge_message_stats(copy.message_stats() for copy in self.copies)

    def stats(self) -> SamplerStats:
        """Aggregate cost counters across all s copies."""
        return aggregate_sampler_stats(self.copies, self._slots_processed)

    # -- overrides for the missing facade-level topology -------------------

    @property
    def num_sites(self) -> int:
        """Number of sites k."""
        return self.copies[0].num_sites

    @property
    def sample_size(self) -> int:
        """Number of independent samples s."""
        return len(self.copies)

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant="with-replacement",
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            window=self.window,
            seed=self.seed,
            algorithm=self.algorithm,
        )

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        return {
            "protocol": {
                "last_slot": self._last_slot,
                "slots_processed": self._slots_processed,
            },
            "copies": [copy.state_dict() for copy in self.copies],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output.

        The protocol fields are parsed and every copy is loaded into a
        fresh twin from :meth:`_make_copy` first; the sampler takes them
        only once all of them have loaded, so a malformed state leaves it
        untouched.

        Raises:
            ConfigurationError: For missing keys, a copy count that
                differs from the sampler's, a malformed copy, or (windowed)
                a copy whose slot is not ``protocol.last_slot``: every
                ``advance`` moves the facade and all copies together.
        """
        try:
            protocol = state["protocol"]
            copy_states = state["copies"]
            last_slot = parse_slot(protocol["last_slot"])
            slots_processed = parse_counter(protocol["slots_processed"])
            if not isinstance(copy_states, list):
                raise TypeError(
                    f"copies must be a list, got {type(copy_states).__name__}"
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sampler state: {exc}") from exc
        if len(copy_states) != len(self.copies):
            raise ConfigurationError(
                f"malformed sampler state: snapshot has {len(copy_states)} "
                f"copies, sampler has {len(self.copies)}"
            )
        copies = self._make_copies(self.num_sites, len(self.copies))
        for copy, copy_state in zip(copies, copy_states):
            copy.load_state(copy_state)
        if self.window and any(copy.current_slot != last_slot for copy in copies):
            raise ConfigurationError(
                f"malformed sampler state: a copy's slot differs from "
                f"protocol.last_slot {last_slot!r}"
            )
        self.copies = copies
        self._last_slot = last_slot
        self._slots_processed = slots_processed

    def _state(self) -> dict[str, Any]:  # pragma: no cover - unused
        raise NotImplementedError

    def _load(self, state: dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError


class WithReplacementSampler(_WithReplacementBase):
    """Infinite-window distinct sampling with replacement (the
    :class:`_WithReplacementBase` arguments)."""

    def _make_copy(self, num_sites: int, hasher: UnitHasher) -> DistinctSamplerSystem:
        return DistinctSamplerSystem(num_sites=num_sites, sample_size=1, hasher=hasher)


class SlidingWindowWithReplacement(_WithReplacementBase):
    """Sliding-window distinct sampling with replacement.

    Args:
        num_sites: Number of sites k.
        window: Window size w in slots.
        sample_size: Number of independent samples s.
        seed: Master seed for the hash family.
        algorithm: Hash algorithm for every family member.
    """

    def __init__(
        self,
        num_sites: int,
        window: int,
        sample_size: int,
        seed: int = 0,
        algorithm: str = "murmur2",
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        super().__init__(num_sites, sample_size, seed, algorithm)

    def _make_copy(self, num_sites: int, hasher: UnitHasher) -> SlidingWindowSystem:
        return SlidingWindowSystem(num_sites=num_sites, window=self.window, hasher=hasher)

    def _advance_to(self, slot: int) -> None:
        for copy in self.copies:
            copy.advance(slot)
