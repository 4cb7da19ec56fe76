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

from typing import Any

from ..errors import ConfigurationError, ProtocolError
from ..netsim.message import COORDINATOR, MessageKind
from ..netsim.network import Network
from ..structures.bottomk import BottomK
from .infinite import BottomSFacadeBase, InfiniteWindowSite

__all__ = [
    "BroadcastSite",
    "BroadcastCoordinator",
    "BroadcastSamplerSystem",
]


class BroadcastSite(InfiniteWindowSite):
    """Site protocol under eager synchronization.

    Identical trigger to Algorithm 1 (report iff ``h(e) < u_i``) but the
    threshold is updated by coordinator broadcasts rather than replies.
    """

    __slots__ = ()

    FEEDBACK = MessageKind.BROADCAST


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

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        """Absorb a report; broadcast iff the threshold changed."""
        if kind is not MessageKind.REPORT:
            raise ProtocolError(f"coordinator cannot handle {kind!r}")
        element, h, _site_id = payload
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
    :class:`~repro.core.infinite.DistinctSamplerSystem` (same arguments).
    """

    VARIANT = "broadcast"
    COORDINATOR_COUNTERS = ("reports_received", "broadcasts_sent")

    def _make_coordinator(self, num_sites: int) -> BroadcastCoordinator:
        return BroadcastCoordinator(self.sample_size, list(range(num_sites)))

    def _make_site(self, site_id: int) -> BroadcastSite:
        return BroadcastSite(site_id)
