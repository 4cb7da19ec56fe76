"""Algorithm Broadcast — the eager-synchronization baseline (Section 5.2).

The only difference from Algorithms 1–2 is the feedback policy: instead of
lazily refreshing a single site's threshold in reply to its report, the
coordinator *broadcasts* the new global threshold ``u`` to **all** ``k``
sites every time ``u`` changes.  Site views are then always exact
(``u_i == u``), so sites never send a report the coordinator would reject
on threshold grounds — but each sample change costs ``k`` messages, which
the paper shows is far more expensive overall ("typically it is not worth
keeping the different sites synchronized with respect to the value of u").
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology
from ..structures.bottomk import BottomK
from .infinite import BottomSFacadeBase
from .protocol import SamplerConfig

__all__ = [
    "BroadcastSite",
    "BroadcastCoordinator",
    "BroadcastSamplerSystem",
]


class BroadcastSite:
    """Site protocol under eager synchronization.

    Identical trigger to Algorithm 1 (report iff ``h(e) < u_i``) but the
    threshold is updated by coordinator broadcasts rather than replies.
    """

    __slots__ = ("site_id", "hasher", "u_local")

    def __init__(self, site_id: int, hasher: UnitHasher) -> None:
        self.site_id = site_id
        self.hasher = hasher
        self.u_local = 1.0

    def observe(self, element: Any, network: Network) -> None:
        """Process one local stream element (hashes internally)."""
        h = self.hasher.unit(element)
        if h < self.u_local:
            network.send(
                self.site_id, COORDINATOR, MessageKind.REPORT, (element, h, self.site_id)
            )

    def observe_hashed(self, element: Any, h: float, network: Network) -> None:
        """Fast path with a precomputed hash."""
        if h < self.u_local:
            network.send(
                self.site_id, COORDINATOR, MessageKind.REPORT, (element, h, self.site_id)
            )

    def handle_message(self, message: Message, network: Network) -> None:
        """Adopt a broadcast threshold."""
        if message.kind is not MessageKind.BROADCAST:
            raise ProtocolError(
                f"broadcast site {self.site_id} cannot handle {message.kind!r}"
            )
        self.u_local = message.payload


class BroadcastCoordinator:
    """Coordinator that broadcasts ``u`` to all sites whenever it changes."""

    __slots__ = ("sample_store", "site_ids", "reports_received", "broadcasts_sent")

    def __init__(self, sample_size: int, site_ids: list[int]) -> None:
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.sample_store = BottomK(sample_size)
        self.site_ids = list(site_ids)
        self.reports_received = 0
        self.broadcasts_sent = 0

    @property
    def threshold(self) -> float:
        """Current global threshold u."""
        return self.sample_store.threshold()

    def handle_message(self, message: Message, network: Network) -> None:
        """Absorb a report; broadcast iff the threshold changed."""
        if message.kind is not MessageKind.REPORT:
            raise ProtocolError(f"coordinator cannot handle {message.kind!r}")
        element, h, _site_id = message.payload
        self.reports_received += 1
        before = self.sample_store.threshold()
        self.sample_store.offer(h, element)
        after = self.sample_store.threshold()
        if after != before:
            self.broadcasts_sent += 1
            network.broadcast(
                COORDINATOR, self.site_ids, MessageKind.BROADCAST, after
            )

    def sample(self) -> list[Any]:
        """The current distinct sample, ascending by hash."""
        return self.sample_store.elements()


class BroadcastSamplerSystem(BottomSFacadeBase):
    """Facade for Algorithm Broadcast, mirroring
    :class:`~repro.core.infinite.DistinctSamplerSystem`.

    Args:
        num_sites: Number of sites k.
        sample_size: Sample size s.
        seed: Hash seed (ignored if ``hasher`` given).
        algorithm: Hash algorithm name.
        hasher: Optional shared pre-built hasher.
    """

    def __init__(
        self,
        num_sites: int,
        sample_size: int,
        seed: int = 0,
        algorithm: str = "murmur2",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        self.hasher = hasher if hasher is not None else UnitHasher(seed, algorithm)
        self._init_runtime(
            Topology.build(
                coordinator=BroadcastCoordinator(
                    sample_size, list(range(num_sites))
                ),
                site_factory=lambda i: BroadcastSite(i, self.hasher),
                num_sites=num_sites,
            )
        )

    # -- protocol: construction recipe + persistence -----------------------

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant="broadcast",
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            seed=self.hasher.seed,
            algorithm=self.hasher.algorithm,
        )

    def _state(self) -> dict[str, Any]:
        return {
            "sample": self._sample_rows(),
            "site_thresholds": [site.u_local for site in self.sites],
            "reports_received": self.coordinator.reports_received,
            "broadcasts_sent": self.coordinator.broadcasts_sent,
        }

    def _load(self, state: dict[str, Any]) -> None:
        self._load_sample_rows(state.get("sample"))
        for site, u in zip(self.sites, state["site_thresholds"]):
            site.u_local = float(u)
        self.coordinator.reports_received = int(state["reports_received"])
        self.coordinator.broadcasts_sent = int(state["broadcasts_sent"])
