"""Tests for Algorithm Broadcast (the eager-synchronization baseline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BroadcastSamplerSystem, CentralizedDistinctSampler
from repro.errors import ConfigurationError, ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import MessageKind


class TestExactness:
    @pytest.mark.parametrize("sample_size", [1, 5, 20])
    def test_equals_oracle(self, sample_size):
        hasher = UnitHasher(31)
        system = BroadcastSamplerSystem(4, sample_size, hasher=hasher)
        oracle = CentralizedDistinctSampler(sample_size, hasher)
        rng = np.random.default_rng(sample_size)
        for _ in range(1200):
            element = int(rng.integers(0, 250))
            system.observe(int(rng.integers(0, 4)), element)
            oracle.observe(element)
            assert system.sample() == oracle.sample()


class TestSynchronization:
    def test_sites_always_in_sync(self):
        # The defining property: u_i == u after every element.
        system = BroadcastSamplerSystem(5, 8, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            system.observe(int(rng.integers(0, 5)), int(rng.integers(0, 300)))
            u = system.threshold
            for site in system.sites:
                assert site.u_local == u

    def test_no_rejected_reports_after_fill(self):
        # With synced thresholds, every report either changes the sample or
        # is a duplicate of a sampled element.
        hasher = UnitHasher(17)
        system = BroadcastSamplerSystem(3, 5, hasher=hasher)
        rng = np.random.default_rng(1)
        elements = [int(rng.integers(0, 400)) for _ in range(1500)]
        for element in elements:
            site = int(rng.integers(0, 3))
            before = set(system.sample())
            u_before = system.threshold
            reports_before = system.coordinator.reports_received
            system.observe(site, element)
            if system.coordinator.reports_received > reports_before:
                # A report was sent: hash was under the (exact) threshold,
                # so the element is in the sample now.
                assert hasher.unit(element) < u_before or len(before) < 5
                assert element in system.sample()


class TestMessageAccounting:
    def test_message_composition(self):
        system = BroadcastSamplerSystem(6, 4, seed=2)
        rng = np.random.default_rng(2)
        for element in range(800):
            system.observe(int(rng.integers(0, 6)), element)
        stats = system.network.stats
        reports = stats.site_to_coordinator
        broadcasts = system.coordinator.broadcasts_sent
        assert stats.total_messages == reports + 6 * broadcasts
        assert stats.by_kind[MessageKind.BROADCAST] == 6 * broadcasts

    def test_more_expensive_than_lazy_at_scale(self):
        # Fig 5.4's headline: Broadcast sends far more messages at large k.
        from repro import DistinctSamplerSystem

        k, s, n = 40, 10, 5000
        rng = np.random.default_rng(3)
        elements = rng.integers(0, 2000, n).tolist()
        sites = rng.integers(0, k, n).tolist()
        ours = DistinctSamplerSystem(k, s, seed=4, algorithm="mix64")
        eager = BroadcastSamplerSystem(k, s, seed=4, algorithm="mix64")
        for element, site in zip(elements, sites):
            ours.observe(site, element)
            eager.observe(site, element)
        assert eager.total_messages > 3 * ours.total_messages

    def test_no_broadcast_before_fill(self):
        # Threshold stays 1.0 until the sample fills: nothing to broadcast.
        system = BroadcastSamplerSystem(3, 10, seed=5)
        for element in range(9):
            system.observe(0, element)
        assert system.coordinator.broadcasts_sent == 0


class TestErrors:
    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            BroadcastSamplerSystem(0, 5)
        with pytest.raises(ConfigurationError):
            BroadcastSamplerSystem(3, 0)

    def test_site_rejects_threshold_kind(self):
        system = BroadcastSamplerSystem(2, 5, seed=6)
        with pytest.raises(ProtocolError):
            system.sites[0].handle_message(MessageKind.THRESHOLD, 0.5, system.network)

    def test_coordinator_rejects_foreign(self):
        system = BroadcastSamplerSystem(2, 5, seed=6)
        with pytest.raises(ProtocolError):
            system.coordinator.handle_message(MessageKind.SW_REPORT, None, system.network)
