"""Synchronous zero-delay message-passing network with cost accounting.

The continuous-distributed-monitoring model (paper Ch. 2) assumes
synchronized clocks and negligible delay, so delivery is immediate: sending
a message invokes the destination's handler before ``send`` returns.  The
network's job is therefore mostly *accounting* — every message is counted
(total, per kind, per direction) because message count is the paper's cost
metric.

Reentrancy is expected and safe: a coordinator handling a site's REPORT
sends a THRESHOLD reply from inside its handler.  Protocol nesting in this
package is bounded (request -> reply), so plain recursion suffices; a depth
guard catches accidental ping-pong loops in user extensions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..errors import ProtocolError
from .message import COORDINATOR, Message, MessageKind
from .node import Node

__all__ = ["Network", "MessageStats"]

_MAX_DISPATCH_DEPTH = 8


@dataclass
class MessageStats:
    """Aggregated message-cost counters.

    Attributes:
        total_messages: All messages sent.
        total_bytes: Sum of message ``size_bytes``.
        site_to_coordinator: Messages from any site to the coordinator.
        coordinator_to_site: Messages from the coordinator to any site
            (broadcast counts once per destination, as in the paper).
        by_kind: Message counts keyed by :class:`MessageKind`.
    """

    total_messages: int = 0
    total_bytes: int = 0
    site_to_coordinator: int = 0
    coordinator_to_site: int = 0
    by_kind: Counter = field(default_factory=Counter)

    def snapshot(self) -> "MessageStats":
        """Return an independent copy (for time-series sampling)."""
        copy = MessageStats(
            total_messages=self.total_messages,
            total_bytes=self.total_bytes,
            site_to_coordinator=self.site_to_coordinator,
            coordinator_to_site=self.coordinator_to_site,
        )
        copy.by_kind = Counter(self.by_kind)
        return copy


class Network:
    """Routes messages between registered nodes and counts them."""

    __slots__ = ("stats", "_nodes", "_depth")

    #: Whether ``send`` delivers before returning.  Delay-tolerant
    #: subclasses override this to False; the vectorized ingestion fast
    #: paths consult it, because their same-slot dedup proofs rely on
    #: coordinator replies landing synchronously.
    synchronous = True

    def __init__(self) -> None:
        self.stats = MessageStats()
        self._nodes: dict[int, Node] = {}
        self._depth = 0

    # -- topology -----------------------------------------------------------

    def register(self, address: int, node: Node) -> None:
        """Attach ``node`` at ``address`` (site index or COORDINATOR).

        Raises:
            ProtocolError: If the address is already taken.
        """
        if address in self._nodes:
            raise ProtocolError(f"address {address} already registered")
        self._nodes[address] = node

    def node_at(self, address: int) -> Node:
        """Return the node registered at ``address``.

        Raises:
            ProtocolError: If no node is registered there.
        """
        try:
            return self._nodes[address]
        except KeyError:
            raise ProtocolError(f"no node registered at address {address}") from None

    @property
    def addresses(self) -> list[int]:
        """All registered addresses."""
        return list(self._nodes)

    # -- messaging ------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: MessageKind,
        payload: Any,
        size_bytes: int = 16,
    ) -> None:
        """Send and synchronously deliver one message.

        A message is counted only once ``dst`` validates: a rejected send
        never happened on the wire, so it must not skew the paper's
        message-cost metric.

        Raises:
            ProtocolError: If ``dst`` is unregistered or dispatch nests
                deeper than the protocol bound (a ping-pong loop).
        """
        node = self._nodes.get(dst)
        if node is None:
            raise ProtocolError(f"no node registered at address {dst}")
        stats = self.stats
        stats.total_messages += 1
        stats.total_bytes += size_bytes
        if dst == COORDINATOR:
            stats.site_to_coordinator += 1
        elif src == COORDINATOR:
            stats.coordinator_to_site += 1
        stats.by_kind[kind] += 1

        if self._depth >= _MAX_DISPATCH_DEPTH:
            raise ProtocolError(
                "message dispatch nested deeper than the protocol allows; "
                "likely an unbounded reply loop"
            )
        self._depth += 1
        try:
            node.handle_message(Message(src, dst, kind, payload, size_bytes), self)
        finally:
            self._depth -= 1

    def broadcast(
        self,
        src: int,
        dsts: Iterable[int],
        kind: MessageKind,
        payload: Any,
        size_bytes: int = 16,
    ) -> int:
        """Send the same payload to every address in ``dsts``.

        Each destination counts as one message, matching the paper's model
        for Algorithm Broadcast.  Returns the number of messages sent.
        """
        count = 0
        for dst in dsts:
            self.send(src, dst, kind, payload, size_bytes)
            count += 1
        return count

    # -- introspection -------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero all counters (topology is preserved)."""
        self.stats = MessageStats()

    def snapshot(self) -> MessageStats:
        """Copy of the current counters (for time-series sampling)."""
        return self.stats.snapshot()

    def kind_count(self, kind: MessageKind) -> int:
        """Messages sent with ``kind`` so far."""
        return self.stats.by_kind.get(kind, 0)
