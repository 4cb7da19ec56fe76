"""Tests for the baseline samplers: reservoir, weighted reservoir, DRS,
and single-stream priority window sampling."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.baselines import (
    DistributedRandomSampler,
    PriorityWindowSampler,
    ReservoirSampler,
    WeightedReservoirSampler,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import MessageKind


class TestReservoir:
    def test_fill_phase(self):
        sampler = ReservoirSampler(5, np.random.default_rng(0))
        sampler.extend(range(3))
        assert sorted(sampler.sample()) == [0, 1, 2]

    def test_fixed_size(self):
        sampler = ReservoirSampler(5, np.random.default_rng(0))
        sampler.extend(range(100))
        assert len(sampler.sample()) == 5
        assert sampler.count == 100

    def test_uniform_over_occurrences(self):
        # Chi-square over many trials: each position equally likely.
        n, s, trials = 20, 1, 4000
        counts = Counter()
        rng = np.random.default_rng(1)
        for _ in range(trials):
            sampler = ReservoirSampler(s, rng)
            sampler.extend(range(n))
            counts[sampler.sample()[0]] += 1
        expected = trials / n
        chi2 = sum((counts[i] - expected) ** 2 / expected for i in range(n))
        assert chi2 < 45  # 19 dof, p ~ 0.001

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReservoirSampler(0, np.random.default_rng(0))


class TestWeightedReservoir:
    def test_respects_weights(self):
        # An element with 20x weight should appear ~20x as often.
        trials = 3000
        heavy = 0
        rng = np.random.default_rng(2)
        for _ in range(trials):
            sampler = WeightedReservoirSampler(1, rng)
            sampler.observe("heavy", weight=20.0)
            sampler.observe("light", weight=1.0)
            heavy += sampler.sample()[0] == "heavy"
        share = heavy / trials
        assert 0.90 < share < 0.98, share  # expected 20/21 ≈ 0.952

    def test_fixed_size(self):
        rng = np.random.default_rng(3)
        sampler = WeightedReservoirSampler(4, rng)
        for element in range(50):
            sampler.observe(element, weight=1.0 + element % 3)
        assert len(sampler.sample()) == 4

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            WeightedReservoirSampler(0, rng)
        sampler = WeightedReservoirSampler(2, rng)
        with pytest.raises(ConfigurationError):
            sampler.observe("x", weight=0.0)


class TestDRS:
    def test_sample_size(self):
        drs = DistributedRandomSampler(num_sites=3, sample_size=5, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(500):
            drs.observe(int(rng.integers(0, 3)), int(rng.integers(0, 50)))
        assert len(drs.sample()) == 5

    def test_frequency_sensitive(self):
        # "hot" appears 50x as often as each cold element: it should be
        # sampled far more often than 1/universe.
        trials = 400
        hot_hits = 0
        for seed in range(trials):
            drs = DistributedRandomSampler(num_sites=2, sample_size=1, seed=seed)
            rng = np.random.default_rng(seed)
            stream = ["hot"] * 50 + list(range(50))
            rng.shuffle(stream)
            for element in stream:
                drs.observe(int(rng.integers(0, 2)), element)
            hot_hits += drs.sample()[0] == "hot"
        share = hot_hits / trials
        assert 0.35 < share < 0.65, share  # expected 0.5

    def test_message_accounting(self):
        drs = DistributedRandomSampler(num_sites=2, sample_size=3, seed=2)
        for element in range(200):
            drs.observe(element % 2, element)
        stats = drs.network.stats
        assert stats.total_messages == 2 * stats.site_to_coordinator
        assert stats.by_kind[MessageKind.DRS_REPORT] == stats.site_to_coordinator

    def test_cheaper_than_dds_on_duplicate_heavy_stream(self):
        # The intro's qualitative claim: when n >> d, DRS sends fewer
        # messages than DDS does *per occurrence* is not the point — the
        # point is DDS's probability decays in d while DRS's decays in n.
        # With all-duplicates input, both settle; sanity check DRS runs.
        drs = DistributedRandomSampler(num_sites=2, sample_size=2, seed=3)
        for _ in range(1000):
            drs.observe(0, "same")
        assert len(drs.sample()) == 2
        assert drs.sample() == ["same", "same"]

    def test_validation_and_errors(self):
        with pytest.raises(ConfigurationError):
            DistributedRandomSampler(num_sites=0, sample_size=1)
        with pytest.raises(ConfigurationError):
            DistributedRandomSampler(num_sites=1, sample_size=0)
        drs = DistributedRandomSampler(num_sites=1, sample_size=1, seed=4)
        with pytest.raises(ProtocolError):
            drs.coordinator.handle_message(MessageKind.REPORT, None, drs.network)
        with pytest.raises(ProtocolError):
            drs.sites[0].handle_message(MessageKind.THRESHOLD, 0.5, drs.network)


class TestPriorityWindow:
    def test_matches_brute_force(self):
        hasher = UnitHasher(9)
        sampler = PriorityWindowSampler(window=10, sample_size=2, hasher=hasher)
        rng = np.random.default_rng(5)
        last_seen: dict[int, int] = {}
        for slot in range(1, 300):
            for _ in range(int(rng.integers(0, 3))):
                element = int(rng.integers(0, 40))
                sampler.observe(element, slot)
                last_seen[element] = slot
            sampler.advance(slot)
            live = [e for e, seen in last_seen.items() if seen > slot - 10]
            want = sorted(live, key=hasher.unit)[:2]
            assert sampler.sample() == want

    def test_memory_small(self):
        hasher = UnitHasher(10)
        sampler = PriorityWindowSampler(window=1000, sample_size=1, hasher=hasher)
        for slot in range(1, 1000):
            sampler.observe(slot * 7919, slot)
        assert sampler.memory_size < 40  # ~H_1000 ≈ 7.5 expected

    def test_min_entry(self):
        hasher = UnitHasher(11)
        sampler = PriorityWindowSampler(window=5, sample_size=1, hasher=hasher)
        assert sampler.min_entry() is None
        sampler.observe("a", 1)
        assert sampler.min_entry().element == "a"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PriorityWindowSampler(window=0, sample_size=1, hasher=UnitHasher(0))
