"""Distributed random sampling (DRS) — the frequency-sensitive contrast.

The paper's introduction compares distinct sampling (DDS) against sampling
from the multiset of *all occurrences* (DRS, Cormode–Muthukrishnan–Yi–Zhang
2012 / Tirthapura–Woodruff 2011): DDS costs ``Θ(ks·ln(de/s))`` messages
while DRS costs roughly ``max{k, s}·log(n/s)`` — coordination for distinct
sampling is inherently more expensive.

This module implements the natural *threshold* DRS protocol with the same
skeleton as Algorithms 1–2, but where each **occurrence** draws a fresh
random weight instead of a per-element hash:

* site i keeps a lazily synchronized threshold ``u_i`` over weights;
* an arriving occurrence draws ``weight ~ U[0,1)`` and is reported iff
  ``weight < u_i``;
* the coordinator keeps the s occurrences with the smallest weights
  (a uniform-without-replacement sample of occurrences) and replies with
  the fresh threshold.

Its expected cost is ``O(ks·ln(ne/s))`` — the per-site harmonic sum now
runs over *occurrence* counts rather than distinct counts.  (The optimal
round-based DRS algorithms from the literature shave the leading ``k·s``
to ``max{k, s}``; implementing those is out of scope — this baseline
exists to exhibit the *qualitative* DDS-vs-DRS gap discussed in the
introduction: the probability that a new occurrence matters decays as
``s/n`` for DRS versus ``s/d`` for DDS.)
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..netsim.message import COORDINATOR, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology

__all__ = ["DRSSite", "DRSCoordinator", "DistributedRandomSampler"]


class DRSSite:
    """Threshold-DRS site: fresh weight per occurrence."""

    __slots__ = ("site_id", "rng", "u_local")

    def __init__(self, site_id: int, rng: np.random.Generator) -> None:
        self.site_id = site_id
        self.rng = rng
        self.u_local = 1.0

    def observe(self, element: Any, network: Network) -> None:
        """Process one occurrence (draws a fresh random weight)."""
        weight = float(self.rng.random())
        if weight < self.u_local:
            network.send(
                self.site_id,
                COORDINATOR,
                MessageKind.DRS_REPORT,
                (element, weight, self.site_id),
            )

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        if kind is not MessageKind.DRS_THRESHOLD:
            raise ProtocolError(f"DRS site {self.site_id} cannot handle {kind!r}")
        self.u_local = payload


class DRSCoordinator:
    """Keeps the s smallest-weight occurrences (uniform over occurrences)."""

    __slots__ = ("sample_size", "_pairs", "reports_received")

    def __init__(self, sample_size: int) -> None:
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.sample_size = sample_size
        self._pairs: list[tuple[float, Any]] = []
        self.reports_received = 0

    def threshold(self) -> float:
        """Current weight threshold u."""
        if len(self._pairs) < self.sample_size:
            return 1.0
        return self._pairs[-1][0]

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        if kind is not MessageKind.DRS_REPORT:
            raise ProtocolError(f"coordinator cannot handle {kind!r}")
        element, weight, site_id = payload
        self.reports_received += 1
        if weight < self.threshold():
            # Occurrences are not deduplicated: frequency matters in DRS.
            self._pairs.append((weight, element))
            self._pairs.sort()
            if len(self._pairs) > self.sample_size:
                self._pairs.pop()
        network.send(
            COORDINATOR, site_id, MessageKind.DRS_THRESHOLD, self.threshold()
        )

    def sample(self) -> list[Any]:
        """The current occurrence sample, ascending by weight."""
        return [element for _, element in self._pairs]


class DistributedRandomSampler:
    """Facade for threshold-DRS, mirroring
    :class:`~repro.core.infinite.DistinctSamplerSystem`.

    Args:
        num_sites: Number of sites k.
        sample_size: Sample size s.
        seed: Seed for the per-site weight RNGs.
    """

    def __init__(self, num_sites: int, sample_size: int, seed: int = 0) -> None:
        if num_sites < 1:
            raise ConfigurationError(f"num_sites must be >= 1, got {num_sites}")
        children = np.random.SeedSequence(seed).spawn(num_sites)
        self.topology = Topology.build(
            coordinator=DRSCoordinator(sample_size),
            site_factory=lambda i: DRSSite(
                i, np.random.default_rng(children[i])
            ),
            num_sites=num_sites,
        )

    @property
    def network(self) -> Network:
        """The topology's transport."""
        return self.topology.network

    @property
    def coordinator(self) -> DRSCoordinator:
        """The topology's coordinator node."""
        return self.topology.coordinator

    @property
    def sites(self) -> list:
        """The topology's site roster."""
        return self.topology.sites

    def observe(self, site_id: int, element: Any) -> None:
        """Deliver one occurrence to site ``site_id``."""
        self.sites[site_id].observe(element, self.network)

    def sample(self) -> list[Any]:
        """The coordinator's current occurrence sample."""
        return self.coordinator.sample()

    @property
    def total_messages(self) -> int:
        """Total messages exchanged so far."""
        return self.topology.total_messages
