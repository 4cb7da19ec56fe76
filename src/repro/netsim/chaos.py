"""Chaos-mode transport: seeded fault injection over queued links.

:class:`ChaosNetwork` extends :class:`~repro.netsim.delayed.DelayedNetwork`
with the failure modes a real deployment sees — message drop, duplication,
reordering, and dead sites — all driven by one seeded generator, so every
fault schedule is exactly reproducible.

What the protocols guarantee under chaos (pinned by the stateful machine
in ``tests/test_properties.py``):

* **Duplication is free.**  Bottom-s stores are idempotent (re-offering a
  present element is a no-op), so duplicated reports never skew a sample.
* **Reordering and delay are safety-preserving.**  Site thresholds only
  ever tighten; a stale (reordered or delayed) threshold is *larger* than
  the fresh one, so misordering causes extra reports, never missed sample
  updates.
* **Dead sites are blackholes.**  A dead site receives nothing (messages
  addressed to it are dropped at enqueue or delivery time) and sends
  nothing.  An infinite-window site that observes no arrivals while dead
  misses only threshold refreshes — stale-high, hence safe — so with
  ``drop == 0`` the merged sample after quiescence is indistinguishable
  from a no-fault twin fed the same arrivals.
* **Sliding windows converge at the next slot boundary.**  A sliding
  threshold legitimately rises as sample members expire, so the general-s
  core adopts no reply that would raise its threshold, repeats a lapse
  until its pushes are acknowledged, and settles a lapse only on the
  reply that echoes its number, the answer to its final push
  (:mod:`repro.core.sliding_feedback`).  With ``drop == 0``, reviving
  every site, draining, and passing one slot boundary leaves its sample
  equal to the window oracle's.
* **With ``drop > 0`` exactness is forfeited** (a lost REPORT is lost
  data), but safety is not: the coordinator's threshold never falls below
  the oracle's, and every sample member remains a genuine observed
  element under the true sampling hash.

Faults happen *in the network*: a chaos-dropped message was still sent
(the sender paid for it), so the message-cost counters include it; the
``dropped_messages`` / ``duplicated_messages`` / ``reordered_messages``
counters account for the injected faults separately.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from .delayed import DelayedNetwork
from .message import MessageKind

__all__ = ["ChaosNetwork"]

#: Per-link override keys accepted by ``link_profiles``.
_PROFILE_KEYS = ("drop", "duplicate", "reorder")


def _checked_probability(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(
            f"{name} must be a probability in [0, 1], got {value}"
        )
    return value


class ChaosNetwork(DelayedNetwork):
    """A delayed network with seeded drop/duplicate/reorder fault injection.

    Args:
        drop: Default per-message drop probability.
        duplicate: Default per-message duplication probability (the copy
            lands behind the original on the same link).
        reorder: Default per-delivery probability of serving a random
            queue position instead of the link's FIFO head.
        seed: Seed for the fault generator (independent of ``rng``, which
            keeps its :class:`DelayedNetwork` role of link interleaving).
        link_profiles: Optional per-link overrides — a mapping from a
            directed ``(src, dst)`` link to a mapping with any of the keys
            ``"drop"`` / ``"duplicate"`` / ``"reorder"``.
        rng: Optional randomness for link interleaving (see
            :class:`DelayedNetwork`).

    Raises:
        ConfigurationError: For a probability outside ``[0, 1]`` or an
            unknown profile key.
    """

    __slots__ = (
        "drop",
        "duplicate",
        "reorder",
        "_chaos_rng",
        "_link_profiles",
        "_dead",
        "dropped_messages",
        "duplicated_messages",
        "reordered_messages",
    )

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        seed: int = 0,
        link_profiles: Optional[
            Mapping[tuple[int, int], Mapping[str, float]]
        ] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(rng=rng)
        self.drop = _checked_probability("drop", drop)
        self.duplicate = _checked_probability("duplicate", duplicate)
        self.reorder = _checked_probability("reorder", reorder)
        self._chaos_rng = np.random.default_rng(seed)
        profiles: dict[tuple[int, int], tuple[float, float, float]] = {}
        for link, overrides in (link_profiles or {}).items():
            unknown = set(overrides) - set(_PROFILE_KEYS)
            if unknown:
                raise ConfigurationError(
                    f"unknown link profile keys {sorted(unknown)}; "
                    f"expected a subset of {_PROFILE_KEYS}"
                )
            src, dst = link
            profiles[(int(src), int(dst))] = tuple(
                _checked_probability(
                    f"link {link} {key}",
                    overrides.get(key, getattr(self, key)),
                )
                for key in _PROFILE_KEYS
            )  # type: ignore[assignment]
        self._link_profiles = profiles
        self._dead: set[int] = set()
        self.dropped_messages = 0
        self.duplicated_messages = 0
        self.reordered_messages = 0

    # -- fault configuration -------------------------------------------------

    def link_profile(self, src: int, dst: int) -> tuple[float, float, float]:
        """The effective ``(drop, duplicate, reorder)`` for one link."""
        return self._link_profiles.get(
            (src, dst), (self.drop, self.duplicate, self.reorder)
        )

    def kill_site(self, address: int) -> None:
        """Blackhole ``address``: it sends nothing and receives nothing
        until revived.  Messages addressed to it — queued or future — are
        dropped (and counted in :attr:`dropped_messages`).

        Raises:
            ProtocolError: If no node is registered at ``address``.
        """
        if address not in self._nodes:
            raise ProtocolError(f"no node registered at address {address}")
        self._dead.add(address)

    def revive_site(self, address: int) -> None:
        """Bring a dead address back (idempotent).  Only messages sent
        after revival reach it — nothing dropped while dead is replayed."""
        self._dead.discard(address)

    @property
    def dead_sites(self) -> frozenset[int]:
        """Addresses currently blackholed."""
        return frozenset(self._dead)

    # -- sending -------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: MessageKind,
        payload: Any,
        size_bytes: int = 16,
    ) -> None:
        """Count, then maybe drop or duplicate, then enqueue.

        Validation and counting follow :class:`DelayedNetwork` exactly
        (``dst`` must be registered; counters move only after validation),
        with one exception: a *dead* ``src`` sends nothing at all, so
        nothing is counted — a crashed node does not pay message costs.
        """
        if dst not in self._nodes:
            raise ProtocolError(f"no node registered at address {dst}")
        if src in self._dead:
            self.dropped_messages += 1
            return
        super().send(src, dst, kind, payload, size_bytes)
        queue = self._queues[(src, dst)]
        drop_p, dup_p, _ = self.link_profile(src, dst)
        if dst in self._dead or (
            drop_p > 0.0 and self._chaos_rng.random() < drop_p
        ):
            queue.pop()
            self.dropped_messages += 1
            return
        if dup_p > 0.0 and self._chaos_rng.random() < dup_p:
            queue.append(queue[-1])
            self.duplicated_messages += 1

    # -- delivery ------------------------------------------------------------

    def pump(self, limit: Optional[int] = None) -> int:
        """Deliver queued messages like :meth:`DelayedNetwork.pump`, with
        two chaos twists: a link may serve a random queue position instead
        of its FIFO head (per-link ``reorder`` probability), and messages
        whose destination is dead at delivery time are dropped.

        Returns:
            The number of messages actually delivered (drops excluded).
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
            queue = self._queues[link]
            _, _, reorder_p = self.link_profile(*link)
            if (
                reorder_p > 0.0
                and len(queue) > 1
                and self._chaos_rng.random() < reorder_p
            ):
                # Serve a random non-head position; the rest of the link
                # keeps its relative order.
                position = int(self._chaos_rng.integers(1, len(queue)))
                queue.rotate(-position)
                message = queue.popleft()
                queue.rotate(position)
                self.reordered_messages += 1
            else:
                message = queue.popleft()
            if message.dst in self._dead:
                self.dropped_messages += 1
                continue
            node = self._nodes[message.dst]
            node.handle_message(message.kind, message.payload, self)
            delivered += 1
            self.delivered_messages += 1
        return delivered
