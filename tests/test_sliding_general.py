"""Tests for the general-s sliding-window local-push system."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CentralizedWindowSampler, SlidingWindowBottomS
from repro.errors import ConfigurationError, ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import MessageKind


def random_schedule(rng, num_sites, universe, slots, max_per_slot=5):
    for slot in range(1, slots + 1):
        burst = int(rng.integers(0, max_per_slot))
        yield slot, [
            (int(rng.integers(0, num_sites)), int(rng.integers(0, universe)))
            for _ in range(burst)
        ]


class TestExactness:
    @pytest.mark.parametrize("sample_size", [1, 2, 4, 8])
    def test_equals_oracle_every_slot(self, sample_size):
        hasher = UnitHasher(sample_size + 60)
        system = SlidingWindowBottomS(
            num_sites=3, window=20, sample_size=sample_size, hasher=hasher
        )
        oracle = CentralizedWindowSampler(20, sample_size, hasher)
        rng = np.random.default_rng(sample_size)
        for slot, arrivals in random_schedule(rng, 3, 50, 500):
            system.advance(slot)
            system.observe_batch(arrivals)
            for _site, element in arrivals:
                oracle.observe(element, slot)
            oracle.advance(slot)
            assert system.sample() == oracle.sample(), f"slot {slot}"

    def test_sample_shrinks_with_window(self):
        system = SlidingWindowBottomS(
            num_sites=2, window=4, sample_size=3, seed=1
        )
        system.advance(1)
        system.observe_batch([(0, "a"), (1, "b")])
        assert len(system.sample()) == 2
        for slot in range(2, 10):
            system.advance(slot)
        assert system.sample() == []

    def test_refresh_keeps_elements_alive(self):
        system = SlidingWindowBottomS(
            num_sites=1, window=3, sample_size=2, seed=2
        )
        for slot in range(1, 30):
            system.advance(slot)
            system.observe_batch([(0, "keeper")])
            assert "keeper" in system.sample()


class TestMessages:
    def test_one_way_traffic(self):
        system = SlidingWindowBottomS(
            num_sites=3, window=15, sample_size=2, seed=3
        )
        rng = np.random.default_rng(0)
        for slot, arrivals in random_schedule(rng, 3, 40, 400):
            system.advance(slot)
            system.observe_batch(arrivals)
        stats = system.network.stats
        assert stats.coordinator_to_site == 0
        assert stats.total_messages == stats.site_to_coordinator
        assert stats.total_messages == system.coordinator.reports_received

    def test_memory_reporting(self):
        system = SlidingWindowBottomS(
            num_sites=2, window=10, sample_size=2, seed=4
        )
        assert system.per_site_memory() == [0, 0]
        system.advance(1)
        system.observe_batch([(0, "x")])
        assert system.per_site_memory()[0] == 1


class TestErrors:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomS(num_sites=0, window=5, sample_size=1)
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomS(num_sites=2, window=0, sample_size=1)
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomS(num_sites=2, window=5, sample_size=0)

    def test_site_receives_nothing(self):
        system = SlidingWindowBottomS(
            num_sites=1, window=5, sample_size=1, seed=5
        )
        with pytest.raises(ProtocolError):
            system.sites[0].handle_message(MessageKind.SW_SAMPLE, None, system.network)

    def test_coordinator_rejects_foreign(self):
        system = SlidingWindowBottomS(
            num_sites=1, window=5, sample_size=1, seed=5
        )
        with pytest.raises(ProtocolError):
            system.coordinator.handle_message(MessageKind.REPORT, None, system.network)
