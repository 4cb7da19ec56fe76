"""Topology: the wiring layer every coordinator–site system shares.

All of the paper's protocols are instances of one runtime pattern — ``k``
sites and one coordinator exchanging counted messages over a transport.
Historically every system facade re-implemented that wiring (build a
:class:`~repro.netsim.network.Network`, register the coordinator at
:data:`~repro.netsim.message.COORDINATOR`, register each site at its
``site_id``) and hand-rolled its own message-cost accessors, which let the
copies drift.  :class:`Topology` owns it once:

* **Node registration and addressing.**  :meth:`Topology.build` validates
  the site count, constructs the sites through a factory, and registers
  every node on the transport.  No facade touches
  ``network.register`` anymore.
* **Pluggable transport.**  Any :class:`~repro.netsim.network.Network`
  (including :class:`~repro.netsim.delayed.DelayedNetwork`) can be passed
  in; the default is the paper's synchronous zero-delay network.  A
  transport swapped in later (``DelayedNetwork.rewire``) is re-adopted
  through :meth:`adopt_network`, keeping the topology canonical.
* **Canonical message stats.**  :meth:`message_stats` /
  :attr:`total_messages` are THE cost counters; the
  :class:`~repro.core.protocol.Sampler` base class reads them through the
  topology, so no facade keeps its own copy.  Multi-network facades
  (with-replacement copies, sharded coordinator groups) aggregate with
  :func:`merge_message_stats`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # the runtime import happens lazily at call time
    from ..core.protocol import SamplerStats

from ..errors import ConfigurationError
from ..netsim.message import COORDINATOR
from ..netsim.network import MessageStats, Network

__all__ = ["Topology", "aggregate_sampler_stats", "merge_message_stats"]


class Topology:
    """One coordinator + ``k`` addressed sites on a shared transport.

    Args:
        coordinator: The coordinator node (handles protocol messages).
        sites: Site nodes; each must expose a ``site_id`` used as its
            network address.
        network: Transport to wire the nodes onto (default: a fresh
            synchronous :class:`~repro.netsim.network.Network`).

    Raises:
        ConfigurationError: If ``sites`` is empty.
        ProtocolError: If two nodes claim the same address.
    """

    __slots__ = ("network", "coordinator", "sites")

    def __init__(
        self,
        coordinator: Any,
        sites: Iterable[Any],
        network: Optional[Network] = None,
    ) -> None:
        sites = list(sites)
        if not sites:
            raise ConfigurationError("num_sites must be >= 1, got 0")
        self.network = Network() if network is None else network
        self.coordinator = coordinator
        self.sites = sites
        self.network.register(COORDINATOR, coordinator)
        for site in sites:
            self.network.register(site.site_id, site)

    @classmethod
    def build(
        cls,
        coordinator: Any,
        site_factory: Callable[[int], Any],
        num_sites: int,
        network: Optional[Network] = None,
    ) -> "Topology":
        """Validate ``num_sites`` and wire ``site_factory(0..k-1)`` up.

        This is the constructor the system facades use::

            topology = Topology.build(
                coordinator=InfiniteWindowCoordinator(s),
                site_factory=InfiniteWindowSite,
                num_sites=k,
            )

        Raises:
            ConfigurationError: If ``num_sites < 1``.
        """
        if num_sites < 1:
            raise ConfigurationError(f"num_sites must be >= 1, got {num_sites}")
        return cls(coordinator, [site_factory(i) for i in range(num_sites)], network)

    # -- addressing ----------------------------------------------------------

    @property
    def num_sites(self) -> int:
        """Number of sites k."""
        return len(self.sites)

    def site_at(self, site_id: int) -> Any:
        """The site registered at ``site_id`` (0-based).

        Raises:
            ConfigurationError: For an out-of-range id.
        """
        if not 0 <= site_id < len(self.sites):
            raise ConfigurationError(
                f"site_id must be in [0, {len(self.sites)}), got {site_id}"
            )
        return self.sites[site_id]

    def adopt_network(self, network: Network) -> Network:
        """Make ``network`` the canonical transport (nodes already moved).

        Used when a transport is swapped underneath a live system
        (:meth:`~repro.netsim.delayed.DelayedNetwork.rewire`); the caller
        is responsible for having registered the nodes on the new
        transport.
        """
        self.network = network
        return network

    # -- canonical cost accounting -------------------------------------------

    def message_stats(self) -> MessageStats:
        """THE message-cost counters for this coordinator group."""
        return self.network.stats

    @property
    def total_messages(self) -> int:
        """Total messages exchanged so far (the paper's cost metric)."""
        return self.network.stats.total_messages


def merge_message_stats(parts: Iterable[MessageStats]) -> MessageStats:
    """Aggregate message counters across independent transports.

    Used by facades composed of several coordinator groups — the
    with-replacement samplers (one network per parallel copy) and
    :class:`~repro.runtime.sharded.ShardedSampler` (one per shard group).

    Returns:
        A fresh :class:`~repro.netsim.network.MessageStats` holding the
        field-wise sums (``by_kind`` merged per kind).
    """
    merged = MessageStats()
    for stats in parts:
        merged.total_messages += stats.total_messages
        merged.total_bytes += stats.total_bytes
        merged.site_to_coordinator += stats.site_to_coordinator
        merged.coordinator_to_site += stats.coordinator_to_site
        merged.by_kind.add(stats.by_kind)
    return merged


def aggregate_sampler_stats(
    parts: Iterable[Any], slots_processed: int
) -> "SamplerStats":
    """Uniform cost counters for a sampler composed of independent parts.

    ``parts`` are samplers sharing one physical site roster (each runs
    one sub-site per physical site): message counters sum via
    :func:`merge_message_stats` and ``per_site_memory`` sums index-wise.
    Shared by the with-replacement facades (parts = copies) and
    :class:`~repro.runtime.sharded.ShardedSampler` (parts = groups).
    """
    # Imported here, not at module top: the runtime layer must stay
    # importable while repro.core is still mid-initialization (the core
    # facades import this module from inside their own import).
    from ..core.protocol import SamplerStats

    parts = list(parts)
    messages = merge_message_stats(part.message_stats() for part in parts)
    per_site = [0] * parts[0].num_sites
    for part in parts:
        for i, size in enumerate(part.stats().per_site_memory):
            per_site[i] += size
    return SamplerStats(
        messages_total=messages.total_messages,
        messages_to_coordinator=messages.site_to_coordinator,
        messages_to_sites=messages.coordinator_to_site,
        bytes_total=messages.total_bytes,
        per_site_memory=tuple(per_site),
        slots_processed=slots_processed,
    )
