"""Node protocols for the simulated distributed system.

A node is anything addressable on the :class:`~repro.netsim.network.Network`
that can receive messages.  Sites additionally observe stream elements;
slotted (sliding-window) sites are driven by slot-boundary ticks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .message import MessageKind
    from .network import Network

__all__ = ["Node", "StreamSite", "SlottedSite"]


@runtime_checkable
class Node(Protocol):
    """Anything that can receive a message."""

    def handle_message(
        self, kind: "MessageKind", payload: Any, network: "Network"
    ) -> None:
        """Process an incoming message of ``kind`` carrying ``payload``;
        may send replies via ``network``."""
        ...


@runtime_checkable
class StreamSite(Node, Protocol):
    """A site monitoring an infinite-window local stream."""

    site_id: int

    def observe(self, element: Any, network: "Network") -> None:
        """Process one local stream element."""
        ...


@runtime_checkable
class SlottedSite(Node, Protocol):
    """A site monitoring a time-slotted (sliding-window) local stream."""

    site_id: int

    def observe(self, element: Any, now: int, network: "Network") -> None:
        """Process one local element arriving in slot ``now``."""
        ...

    def tick(self, now: int, network: "Network") -> None:
        """Run slot-boundary maintenance (expiry, sample refresh) for ``now``."""
        ...
