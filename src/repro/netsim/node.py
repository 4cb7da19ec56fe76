"""The node protocol of the simulated distributed system.

A node is anything addressable on the :class:`~repro.netsim.network.Network`
that can receive messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .message import MessageKind
    from .network import Network

__all__ = ["Node"]


@runtime_checkable
class Node(Protocol):
    """Anything that can receive a message."""

    def handle_message(
        self, kind: "MessageKind", payload: Any, network: "Network"
    ) -> None:
        """Process an incoming message of ``kind`` carrying ``payload``;
        may send replies via ``network``."""
        ...
