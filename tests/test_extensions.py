"""Tests for the beyond-paper extensions: duplicate-suppression caches,
snapshots, batch ingestion, sampling reductions, quantile estimation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    CachingSamplerSystem,
    CentralizedDistinctSampler,
    DistinctSamplerSystem,
    restore,
    snapshot,
)
from repro.core.reductions import (
    with_replacement_from_without,
    without_replacement_from_with,
    without_replacement_needed,
)
from repro.errors import ConfigurationError, EstimationError
from repro.estimators import estimate_cdf_band, estimate_quantile
from repro.hashing import UnitHasher, unit_hash_array


class TestCachingSystem:
    def test_exactness_preserved(self):
        # The cache never changes the sample — only the message count.
        hasher = UnitHasher(3)
        cached = CachingSamplerSystem(3, 8, cache_size=16, hasher=hasher)
        oracle = CentralizedDistinctSampler(8, hasher)
        rng = np.random.default_rng(0)
        for _ in range(3000):
            element = int(rng.integers(0, 150))
            cached.observe(int(rng.integers(0, 3)), element)
            oracle.observe(element)
            assert cached.sample() == oracle.sample()
            assert cached.threshold == oracle.threshold

    def test_cache_zero_is_paper_algorithm(self):
        hasher = UnitHasher(5)
        plain = DistinctSamplerSystem(2, 5, hasher=hasher)
        cache0 = CachingSamplerSystem(2, 5, cache_size=0, hasher=hasher)
        rng = np.random.default_rng(1)
        for _ in range(2000):
            element = int(rng.integers(0, 80))
            site = int(rng.integers(0, 2))
            plain.observe(site, element)
            cache0.observe(site, element)
        assert plain.total_messages == cache0.total_messages
        assert plain.sample() == cache0.sample()
        assert cache0.total_suppressed == 0

    def test_cache_saves_messages_on_duplicates(self):
        hasher = UnitHasher(7)
        plain = DistinctSamplerSystem(2, 10, hasher=hasher)
        cached = CachingSamplerSystem(2, 10, cache_size=32, hasher=hasher)
        rng = np.random.default_rng(2)
        for _ in range(5000):
            element = int(rng.integers(0, 100))  # duplicate-heavy
            site = int(rng.integers(0, 2))
            plain.observe(site, element)
            cached.observe(site, element)
        assert cached.total_messages < plain.total_messages
        assert cached.total_suppressed > 0
        assert cached.sample() == plain.sample()

    def test_lru_eviction(self):
        system = CachingSamplerSystem(1, 4, cache_size=2, seed=1)
        site = system.sites[0]
        # Fill the sample so hashes matter; then probe the LRU directly.
        for element in range(50):
            system.observe(0, element)
        assert len(site._cache) <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CachingSamplerSystem(2, 5, cache_size=-1)
        with pytest.raises(ConfigurationError):
            CachingSamplerSystem(0, 5, cache_size=4)


class TestSnapshot:
    def _build(self):
        system = DistinctSamplerSystem(3, 6, seed=11)
        rng = np.random.default_rng(4)
        for _ in range(800):
            system.observe(int(rng.integers(0, 3)), int(rng.integers(0, 200)))
        return system

    def test_round_trip(self):
        original = self._build()
        revived = restore(snapshot(original))
        assert revived.sample() == original.sample()
        assert revived.threshold == original.threshold
        assert revived.num_sites == original.num_sites
        assert revived.sample_size == original.sample_size

    def test_json_serializable(self):
        original = self._build()
        wire = json.dumps(snapshot(original))
        revived = restore(json.loads(wire))
        assert revived.sample() == original.sample()

    def test_revived_system_continues_exactly(self):
        # After restore, feeding the same continuation stream produces the
        # same samples as the uninterrupted system.
        original = self._build()
        revived = restore(snapshot(original))
        rng = np.random.default_rng(5)
        for _ in range(500):
            element = int(rng.integers(0, 400))
            site = int(rng.integers(0, 3))
            original.observe(site, element)
            revived.observe(site, element)
            assert original.sample() == revived.sample()

    def test_tuple_elements_survive_json(self):
        system = DistinctSamplerSystem(1, 3, seed=12)
        system.observe(0, ("10.0.0.1", "10.0.0.2"))
        wire = json.dumps(snapshot(system))
        revived = restore(json.loads(wire))
        assert revived.sample() == [("10.0.0.1", "10.0.0.2")]

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            restore({"version": 1})
        with pytest.raises(ConfigurationError):
            restore({**snapshot(self._build()), "version": 99})

    def test_duplicate_sample_rejected(self):
        state = snapshot(self._build())
        [column] = state["state"]["system"]["sample"]
        column.append(column[0])
        with pytest.raises(ConfigurationError, match="repeat"):
            restore(state)

    def test_duplicate_legacy_row_rejected(self):
        # Earlier snapshots stored [hash, element] rows.
        original = self._build()
        state = snapshot(original)
        system = state["state"]["system"]
        system["sample"] = [[h, e] for h, e in original.sample_pairs()]
        assert restore(state).sample() == original.sample()
        system["sample"].append(system["sample"][0])
        with pytest.raises(ConfigurationError, match="repeat"):
            restore(state)

    def test_v1_snapshot_still_readable(self):
        # The pre-protocol layout (infinite-window only) must keep
        # restoring; site thresholds come back as the sample threshold.
        original = self._build()
        v1 = {
            "version": 1,
            "num_sites": original.num_sites,
            "sample_size": original.sample_size,
            "hash_seed": original.hasher.seed,
            "hash_algorithm": original.hasher.algorithm,
            "sample": [[h, e] for h, e in original.sample_pairs()],
            "messages_so_far": original.total_messages,
        }
        revived = restore(json.loads(json.dumps(v1)))
        assert revived.sample() == original.sample()
        assert revived.threshold == original.threshold

    @pytest.mark.parametrize("bad_hash", [7.5, float("nan"), -0.5])
    def test_v1_rejects_hashes_outside_the_unit_interval(self, bad_hash):
        original = self._build()
        sample = [[h, e] for h, e in original.sample_pairs()]
        sample[0][0] = bad_hash
        v1 = {
            "version": 1,
            "num_sites": original.num_sites,
            "sample_size": original.sample_size,
            "hash_seed": original.hasher.seed,
            "hash_algorithm": original.hasher.algorithm,
            "sample": sample,
        }
        with pytest.raises(ConfigurationError, match="malformed"):
            restore(v1)


class TestBatchIngestion:
    def test_equivalent_to_sequential(self):
        rng = np.random.default_rng(6)
        n = 5000
        elements = rng.integers(0, 600, n).tolist()
        hashes = unit_hash_array(np.array(elements), 13).tolist()
        sites = rng.integers(0, 4, n)

        seq = DistinctSamplerSystem(4, 12, seed=13, algorithm="mix64")
        for element, h, site in zip(elements, hashes, sites.tolist()):
            seq.observe_hashed(site, element, h)

        batched = DistinctSamplerSystem(4, 12, seed=13, algorithm="mix64")
        # Split into a few chunks to exercise threshold carry-over.
        for lo in range(0, n, 1000):
            hi = lo + 1000
            batched.process_batch(
                sites[lo:hi], elements[lo:hi], hashes[lo:hi]
            )

        assert batched.sample() == seq.sample()
        assert batched.total_messages == seq.total_messages
        assert batched.threshold == seq.threshold

    def test_prefilter_reduces_slow_path(self):
        rng = np.random.default_rng(7)
        n = 4000
        elements = rng.integers(0, 200, n).tolist()
        hashes = unit_hash_array(np.array(elements), 14).tolist()
        sites = rng.integers(0, 2, n)
        system = DistinctSamplerSystem(2, 5, seed=14, algorithm="mix64")
        # Warm up so thresholds drop.
        system.process_batch(sites[:2000], elements[:2000], hashes[:2000])
        slow = system.process_batch(sites[2000:], elements[2000:], hashes[2000:])
        assert slow < 2000 * 0.25  # the pre-filter removed most work

    def test_length_mismatch(self):
        system = DistinctSamplerSystem(2, 5, seed=15, algorithm="mix64")
        with pytest.raises(ConfigurationError):
            system.process_batch([0, 1], [1], [0.5])


class TestReductions:
    def test_with_from_without(self):
        rng = np.random.default_rng(8)
        draws = with_replacement_from_without(["a", "b", "c"], 50, rng)
        assert len(draws) == 50
        assert set(draws) <= {"a", "b", "c"}

    def test_with_from_without_empty(self):
        rng = np.random.default_rng(8)
        with pytest.raises(EstimationError):
            with_replacement_from_without([], 5, rng)

    def test_without_from_with(self):
        draws = ["a", "b", "a", "c", "b", "d"]
        assert without_replacement_from_with(draws, 3) == ["a", "b", "c"]

    def test_without_from_with_insufficient(self):
        with pytest.raises(EstimationError):
            without_replacement_from_with(["a", "a", "a"], 2)

    def test_needed_is_sufficient(self):
        # Empirically: drawing the recommended count collects s distinct
        # values in (nearly) every trial.
        s, d = 10, 100
        m = without_replacement_needed(s, d, delta=0.01)
        assert m >= s
        rng = np.random.default_rng(9)
        failures = 0
        for _ in range(300):
            draws = rng.integers(0, d, m).tolist()
            try:
                out = without_replacement_from_with(draws, s)
                assert len(set(out)) == s
            except EstimationError:
                failures += 1
        assert failures <= 6  # nominal 1 %, allow 2 %

    def test_needed_full_collection(self):
        m = without_replacement_needed(20, 20, delta=0.05)
        assert m > 20 * 3  # coupon collector needs ~ d ln d

    def test_needed_validation(self):
        with pytest.raises(EstimationError):
            without_replacement_needed(10, 5)

    def test_round_trip_uniformity(self):
        # without -> with -> without stays uniform over the source set.
        from collections import Counter

        source = list(range(10))
        counts = Counter()
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            draws = with_replacement_from_without(source, 1, rng)
            counts[draws[0]] += 1
        expected = 2000 / 10
        chi2 = sum((counts[i] - expected) ** 2 / expected for i in range(10))
        assert chi2 < 28  # 9 dof, p ~ 0.001


class TestQuantiles:
    def test_median_of_uniform_population(self):
        # Sample = exact distinct set: quantiles are exact order stats.
        sample = list(range(101))  # 0..100
        est = estimate_quantile(sample, 0.5)
        assert est.value == 50
        assert est.low <= est.value <= est.high
        assert est.sample_size == 101

    def test_statistical_accuracy(self):
        # Real sketch over a known population: the q-quantile estimate
        # lands within the DKW band around the truth.
        hasher = UnitHasher(21)
        sampler = CentralizedDistinctSampler(200, hasher)
        d = 5000
        for element in range(d):
            sampler.observe(element)
        est = estimate_quantile(sampler.sample(), 0.9)
        truth = 0.9 * d
        assert abs(est.value - truth) / d < est.epsilon + 0.05

    def test_validation(self):
        with pytest.raises(EstimationError):
            estimate_quantile([1, 2], 0.0)
        with pytest.raises(EstimationError):
            estimate_quantile([1, 2], 1.0)
        with pytest.raises(EstimationError):
            estimate_quantile([], 0.5)
        with pytest.raises(EstimationError):
            estimate_quantile([1], 0.5, delta=0.0)

    def test_cdf_band(self):
        sample = list(range(100))
        band = estimate_cdf_band(sample, [25, 50, 75])
        for point, low, cdf, high in band:
            assert 0.0 <= low <= cdf <= high <= 1.0
        assert band[1][2] == pytest.approx(0.51, abs=0.02)

    def test_cdf_band_empty(self):
        with pytest.raises(EstimationError):
            estimate_cdf_band([], [1.0])

    def test_cdf_monotone(self):
        sample = [3, 1, 4, 1, 5, 9, 2, 6]
        band = estimate_cdf_band(list(set(sample)), [0, 2, 4, 6, 8, 10])
        cdfs = [cdf for _, _, cdf, _ in band]
        assert cdfs == sorted(cdfs)
        assert cdfs[0] == 0.0 and cdfs[-1] == 1.0
