"""Delay-tolerant delivery: the protocol beyond the paper's model.

The paper (Ch. 2) assumes synchronized clocks and ignores message delay,
which :class:`~repro.netsim.network.Network` models as synchronous
delivery.  Real deployments have in-flight messages.  This module provides
:class:`DelayedNetwork`, which queues messages per directed link and
delivers them on an explicit pump, preserving **per-link FIFO order** —
the standard TCP-like assumption.  Each queued send is a
:class:`~repro.netsim.message.Message` record, since its addresses and
size must wait with the payload; a pump hands the destination its kind
and payload, as a synchronous send does.

What survives delay (verified by ``tests/test_delayed.py``):

* **Safety of the infinite-window protocol.**  Site thresholds only ever
  tighten, and stale thresholds are *larger* than fresh ones, so delay can
  only cause extra (harmless, dedup-able) reports — never a missed sample
  update.  After the network quiesces (all queues drained), the
  coordinator's sample equals the centralized bottom-s exactly.
* **Monotone convergence.**  Delivering any subset of queued messages
  never moves the coordinator's sample *away* from the oracle sample:
  the bottom-s store only refines toward the true bottom-s.

What does not: *continuous* exactness between pumps (the coordinator may
briefly lag new arrivals — the fundamental price of asynchrony), and the
sliding-window protocol's expiry bookkeeping assumes bounded delay (a
reply older than a window is useless).  Both are demonstrated in tests.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Optional

import numpy as np

from ..errors import ProtocolError
from .message import COORDINATOR, Message, MessageKind
from .network import Network


__all__ = ["DelayedNetwork"]


class DelayedNetwork(Network):
    """A network that queues sends and delivers on demand.

    Drop-in replacement for :class:`Network` in the system facades::

        system = DistinctSamplerSystem(...)
        system.network.__class__  # Network — swap via rewire()

    Use :meth:`DelayedNetwork.rewire` to retrofit an existing system, or
    construct systems around a pre-built instance.  Messages accumulate in
    per-link FIFO queues; :meth:`pump` delivers them (optionally a random
    interleaving across links, preserving per-link order).

    Args:
        rng: Optional randomness for interleaved delivery; None makes
            :meth:`pump` drain links in address order (deterministic).
    """

    __slots__ = ("_queues", "_rng", "delivered_messages")

    synchronous = False  # sends queue; replies land only at pump time

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self._queues: dict[tuple[int, int], deque[Message]] = {}
        self._rng = rng
        self.delivered_messages = 0

    # -- sending (queues instead of dispatching) ---------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: MessageKind,
        payload: Any,
        size_bytes: int = 16,
    ) -> None:
        """Count and enqueue one message; delivery happens at pump time.

        As in :class:`Network`, the counters move only after ``dst``
        validates, by the same :meth:`~repro.netsim.network.MessageStats.record`.
        """
        if dst not in self._nodes:
            raise ProtocolError(f"no node registered at address {dst}")
        self.stats.record(src, dst, kind, size_bytes)
        self._queues.setdefault((src, dst), deque()).append(
            Message(src, dst, kind, payload, size_bytes)
        )

    # -- delivery -----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Messages currently queued on all links."""
        return sum(len(q) for q in self._queues.values())

    def pump(self, limit: Optional[int] = None) -> int:
        """Deliver up to ``limit`` queued messages (None = all currently
        queued, plus any they synchronously enqueue, until quiescent).

        Per-link FIFO order is always preserved; with an ``rng`` the
        interleaving across links is random, otherwise links drain in
        sorted address order.

        Returns:
            The number of messages delivered.
        """
        delivered = 0
        budget = float("inf") if limit is None else limit
        while delivered < budget:
            links = [link for link, q in self._queues.items() if q]
            if not links:
                break
            if self._rng is not None:
                link = links[int(self._rng.integers(0, len(links)))]
            else:
                link = min(links)
            message = self._queues[link].popleft()
            node = self._nodes[message.dst]
            node.handle_message(message.kind, message.payload, self)
            delivered += 1
            self.delivered_messages += 1
        return delivered

    def drop_all(self) -> int:
        """Discard every queued message (crash/partition injection).

        Returns:
            The number of messages dropped.
        """
        dropped = self.in_flight
        self._queues.clear()
        return dropped

    def drop_link(self, src: int, dst: int) -> int:
        """Discard queued messages on one directed link."""
        queue = self._queues.get((src, dst))
        if not queue:
            return 0
        dropped = len(queue)
        queue.clear()
        return dropped

    # -- retrofit -------------------------------------------------------------

    @classmethod
    def rewire(
        cls,
        system,
        rng: Optional[np.random.Generator] = None,
        **kwargs: Any,
    ):
        """Replace ``system.network`` with a delayed network in place.

        Re-registers the system's coordinator and sites; message counters
        restart at zero.

        Args:
            system: Any facade exposing ``network``, ``coordinator``, and
                ``sites`` (all of this package's systems do).
            rng: Optional randomness for interleaved delivery.
            **kwargs: Extra constructor arguments for ``cls`` (e.g. the
                chaos probabilities of
                :class:`~repro.netsim.chaos.ChaosNetwork`).

        Returns:
            The new :class:`DelayedNetwork` (also assigned to
            ``system.network``).
        """
        net = cls(rng=rng, **kwargs)
        net.register(COORDINATOR, system.coordinator)
        for site in system.sites:
            net.register(site.site_id, site)
        system.network = net
        return net
