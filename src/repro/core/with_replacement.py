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

from typing import Any, Optional

from ..errors import ConfigurationError
from ..hashing.unit import SeededHashFamily
from ..runtime.topology import aggregate_sampler_stats, merge_message_stats
from .events import EventBatch
from .infinite import DistinctSamplerSystem
from .protocol import Sampler, SampleResult, SamplerConfig, SamplerStats
from .sliding import SlidingWindowSystem

__all__ = ["WithReplacementSampler", "SlidingWindowWithReplacement"]


class _WithReplacementBase(Sampler):
    """Shared protocol plumbing for the two with-replacement facades.

    Subclasses build ``self.copies`` (independent s = 1 systems) before
    calling :meth:`_init_protocol`.  There is no facade-level network:
    every cost counter aggregates across the copies' networks.
    """

    copies: list

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
            window=self._window_meta(),
            slot=self.current_slot,
            with_replacement=True,
        )

    def _window_meta(self) -> Optional[int]:
        return None

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
        try:
            protocol = state["protocol"]
            copies = state["copies"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed sampler state: {exc}") from exc
        last_slot = protocol.get("last_slot")
        self._last_slot = None if last_slot is None else int(last_slot)
        self._slots_processed = int(protocol.get("slots_processed", 0))
        if len(copies) != len(self.copies):
            raise ConfigurationError(
                f"snapshot has {len(copies)} copies, sampler has "
                f"{len(self.copies)}"
            )
        for copy, copy_state in zip(self.copies, copies):
            copy.load_state(copy_state)

    def _state(self) -> dict[str, Any]:  # pragma: no cover - unused
        raise NotImplementedError

    def _load(self, state: dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError


class WithReplacementSampler(_WithReplacementBase):
    """Infinite-window distinct sampling with replacement.

    Args:
        num_sites: Number of sites k.
        sample_size: Number of independent samples s.
        seed: Master seed for the hash family.
        algorithm: Hash algorithm for every family member.
    """

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
        family = SeededHashFamily(seed, algorithm)
        self.copies = [
            DistinctSamplerSystem(
                num_sites=num_sites, sample_size=1, hasher=family.member(i)
            )
            for i in range(sample_size)
        ]
        self._init_protocol()

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant="with-replacement",
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            window=0,
            seed=self.seed,
            algorithm=self.algorithm,
        )


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
        if num_sites < 1:
            raise ConfigurationError(f"num_sites must be >= 1, got {num_sites}")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.seed = int(seed)
        self.algorithm = algorithm
        self.window = window
        family = SeededHashFamily(seed, algorithm)
        self.copies = [
            SlidingWindowSystem(
                num_sites=num_sites, window=window, hasher=family.member(i)
            )
            for i in range(sample_size)
        ]
        self._init_protocol()

    def _advance_to(self, slot: int) -> None:
        for copy in self.copies:
            copy.advance(slot)

    def _window_meta(self) -> Optional[int]:
        return self.window

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
