"""Synchronous zero-delay message-passing network with cost accounting.

The continuous-distributed-monitoring model (paper Ch. 2) assumes
synchronized clocks and negligible delay, so delivery is immediate: a
send calls the destination's ``handle_message(kind, payload, network)``
before it returns, and builds no message record on the way (the queueing
networks of :mod:`repro.netsim.delayed` keep a
:class:`~repro.netsim.message.Message` per queued send).  The network's
job is therefore mostly *accounting* — every message is counted (total,
per kind, per direction) because message count is the paper's cost
metric.  :meth:`MessageStats.record` is that rule, shared by every
network; it counts kinds in an int list indexed by kind
(:class:`KindCounts`), which reads like a per-kind ``Counter``.

Reentrancy is expected and safe: a coordinator handling a site's REPORT
sends a THRESHOLD reply from inside its handler.  Protocol nesting in this
package is bounded (request -> reply), so plain recursion suffices; a depth
guard catches accidental ping-pong loops in user extensions.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from operator import add
from typing import Any, Iterable, Iterator, Optional

from ..errors import ProtocolError
from .message import COORDINATOR, MessageKind
from .node import Node

__all__ = ["Network", "MessageStats", "KindCounts"]

_MAX_DISPATCH_DEPTH = 8

#: Every kind, and its name, at its ``index``.
_KINDS = tuple(MessageKind)
_NAMES = tuple(kind.name for kind in _KINDS)


class KindCounts(MutableMapping[MessageKind, int]):
    """Messages per :class:`~repro.netsim.message.MessageKind`, kept in
    :attr:`counts`, an int list indexed by ``kind.index``.

    It reads like a ``Counter``: a kind never sent reads 0 and is not
    listed, and ``by_kind[kind] += 1`` works.  A send bumps one list slot
    (:meth:`MessageStats.record`), where an enum-keyed ``Counter`` takes
    the generic subscript path of a dict subclass twice.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[Iterable[int]] = None) -> None:
        self.counts = [0] * len(_KINDS) if counts is None else list(counts)

    def __getitem__(self, kind: MessageKind) -> int:
        if type(kind) is not MessageKind:
            raise KeyError(kind)
        return self.counts[kind.index]

    def __setitem__(self, kind: MessageKind, count: int) -> None:
        self.counts[kind.index] = count

    def __delitem__(self, kind: MessageKind) -> None:
        self.counts[kind.index] = 0

    def __contains__(self, kind: object) -> bool:
        return bool(self.get(kind))

    def __iter__(self) -> Iterator[MessageKind]:
        return (kind for kind, count in zip(_KINDS, self.counts) if count)

    def __len__(self) -> int:
        return len(self.counts) - self.counts.count(0)

    def items(self) -> list[tuple[MessageKind, int]]:  # type: ignore[override]
        """``(kind, count)`` for every kind sent, in declaration order."""
        return [(kind, count) for kind, count in zip(_KINDS, self.counts) if count]

    def by_name(self) -> dict[str, int]:
        """``{kind name: count}`` for every kind sent, as a snapshot
        writes it."""
        return {name: count for name, count in zip(_NAMES, self.counts) if count}

    def add(self, other: "KindCounts") -> None:
        """Add ``other``'s counts kind by kind."""
        self.counts = list(map(add, self.counts, other.counts))

    def __repr__(self) -> str:
        return f"KindCounts({dict(self.items())!r})"


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
    by_kind: KindCounts = field(default_factory=KindCounts)

    def record(self, src: int, dst: int, kind: MessageKind, size_bytes: int) -> None:
        """Count one message sent from ``src`` to ``dst``."""
        self.total_messages += 1
        self.total_bytes += size_bytes
        if dst == COORDINATOR:
            self.site_to_coordinator += 1
        elif src == COORDINATOR:
            self.coordinator_to_site += 1
        self.by_kind.counts[kind.index] += 1

    def snapshot(self) -> "MessageStats":
        """Return an independent copy (for time-series sampling)."""
        return MessageStats(
            total_messages=self.total_messages,
            total_bytes=self.total_bytes,
            site_to_coordinator=self.site_to_coordinator,
            coordinator_to_site=self.coordinator_to_site,
            by_kind=KindCounts(self.by_kind.counts),
        )


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
        """Send and synchronously deliver one message: ``dst``'s
        ``handle_message(kind, payload, network)`` runs before this returns.

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
        self.stats.record(src, dst, kind, size_bytes)

        if self._depth >= _MAX_DISPATCH_DEPTH:
            raise ProtocolError(
                "message dispatch nested deeper than the protocol allows; "
                "likely an unbounded reply loop"
            )
        self._depth += 1
        try:
            node.handle_message(kind, payload, self)
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
        return self.stats.by_kind[kind]
