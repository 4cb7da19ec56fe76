"""Tests for delay-tolerant delivery (beyond the paper's model).

The key claims: the infinite-window protocol is *safe* under arbitrary
per-link-FIFO delay — delays only add redundant reports, never corrupt
the sample — and becomes exact at quiescence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CentralizedDistinctSampler, DistinctSamplerSystem
from repro.errors import ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import COORDINATOR, DelayedNetwork, MessageKind


def build(seed=1, num_sites=3, sample_size=5, rng=None):
    hasher = UnitHasher(seed)
    system = DistinctSamplerSystem(num_sites, sample_size, hasher=hasher)
    DelayedNetwork.rewire(system, rng)
    oracle = CentralizedDistinctSampler(sample_size, hasher)
    return system, oracle


class TestQuiescentExactness:
    def test_exact_after_drain(self):
        system, oracle = build()
        rng = np.random.default_rng(0)
        for _ in range(1500):
            element = int(rng.integers(0, 200))
            system.observe(int(rng.integers(0, 3)), element)
            oracle.observe(element)
        assert system.network.in_flight > 0  # genuinely delayed
        system.network.pump()
        assert system.network.in_flight == 0
        assert system.sample() == oracle.sample()

    def test_exact_after_drain_random_interleaving(self):
        for seed in range(5):
            system, oracle = build(
                seed=seed, rng=np.random.default_rng(seed + 100)
            )
            rng = np.random.default_rng(seed)
            for _ in range(800):
                element = int(rng.integers(0, 120))
                system.observe(int(rng.integers(0, 3)), element)
                oracle.observe(element)
                # Pump a random trickle mid-stream.
                system.network.pump(limit=int(rng.integers(0, 3)))
            system.network.pump()
            assert system.sample() == oracle.sample()

    def test_monotone_convergence(self):
        # Partial pumps never un-converge: the coordinator sample's
        # threshold is non-increasing across pump steps.
        system, oracle = build(seed=7)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            element = int(rng.integers(0, 150))
            system.observe(int(rng.integers(0, 3)), element)
            oracle.observe(element)
        last = system.coordinator.threshold
        while system.network.in_flight:
            system.network.pump(limit=5)
            assert system.coordinator.threshold <= last
            last = system.coordinator.threshold
        assert system.sample() == oracle.sample()


class TestDelayCosts:
    def test_delay_only_adds_messages(self):
        # Same stream, synchronous vs fully-delayed: the delayed run sends
        # at least as many reports (stale thresholds over-report).
        hasher = UnitHasher(11)
        rng = np.random.default_rng(3)
        elements = [int(rng.integers(0, 300)) for _ in range(2000)]
        sites = [int(rng.integers(0, 3)) for _ in range(2000)]

        sync = DistinctSamplerSystem(3, 5, hasher=hasher)
        for element, site in zip(elements, sites):
            sync.observe(site, element)

        delayed = DistinctSamplerSystem(3, 5, hasher=hasher)
        DelayedNetwork.rewire(delayed)
        for element, site in zip(elements, sites):
            delayed.observe(site, element)
        delayed.network.pump()

        assert (
            delayed.network.stats.site_to_coordinator
            >= sync.network.stats.site_to_coordinator
        )
        assert delayed.sample() == sync.sample()


class TestFaultInjection:
    def test_drop_all_keeps_safety(self):
        # Lost messages lose *freshness*, not correctness: after the drop,
        # continuing the stream and draining restores exactness for the
        # union of *post-drop reports plus pre-drop accepted state*.
        system, oracle = build(seed=13)
        rng = np.random.default_rng(4)
        for _ in range(500):
            element = int(rng.integers(0, 80))
            system.observe(int(rng.integers(0, 3)), element)
            oracle.observe(element)
        dropped = system.network.drop_all()
        assert dropped >= 0
        # Re-observe everything (idempotent for a distinct sample).
        rng = np.random.default_rng(4)
        for _ in range(500):
            element = int(rng.integers(0, 80))
            system.observe(int(rng.integers(0, 3)), element)
        system.network.pump()
        assert system.sample() == oracle.sample()

    def test_drop_link(self):
        system, _ = build(seed=17)
        system.observe(0, "x")
        assert system.network.in_flight == 1
        assert system.network.drop_link(0, COORDINATOR) == 1
        assert system.network.in_flight == 0
        assert system.network.drop_link(0, COORDINATOR) == 0

    def test_unknown_destination_still_checked(self):
        net = DelayedNetwork()
        with pytest.raises(ProtocolError):
            net.send(0, 99, MessageKind.REPORT, None)

    def test_rejected_send_counts_nothing(self):
        # Regression: the queued transport moved every counter before
        # validating the destination, unlike the synchronous Network.
        net = DelayedNetwork()

        class Sink:
            def handle_message(self, kind, payload, network):
                pass

        net.register(0, Sink())
        net.send(COORDINATOR, 0, MessageKind.REPORT, None, size_bytes=4)
        with pytest.raises(ProtocolError, match="no node registered"):
            net.send(COORDINATOR, 99, MessageKind.REPORT, None, size_bytes=4)
        assert net.stats.total_messages == 1
        assert net.stats.total_bytes == 4
        assert net.in_flight == 1

    def test_fifo_per_link(self):
        received = []

        class Collector:
            def handle_message(self, kind, payload, network):
                received.append(payload)

        net = DelayedNetwork()
        net.register(0, Collector())
        for i in range(5):
            net.send(COORDINATOR, 0, MessageKind.THRESHOLD, i)
        net.pump()
        assert received == [0, 1, 2, 3, 4]

    def test_pump_limit(self):
        system, _ = build(seed=19)
        for element in range(20):
            system.observe(0, element)
        queued = system.network.in_flight
        assert queued > 1
        assert system.network.pump(limit=1) == 1
        assert system.network.in_flight >= queued - 1  # replies may enqueue
