"""Tests for the infinite-window protocol (Algorithms 1 & 2).

The strongest check is *exactness*: given a shared hash function, the
distributed sample must equal the centralized bottom-s of the union stream
at every point in time, regardless of how elements are distributed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CentralizedDistinctSampler,
    ConfigurationError,
    DistinctSamplerSystem,
    make_sampler,
)
from repro.errors import ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import COORDINATOR, Message, MessageKind


def drive(system, oracle, elements, sites):
    for element, site in zip(elements, sites):
        system.observe(site, element)
        oracle.observe(element)


class TestExactness:
    """Distributed sample == centralized bottom-s, always."""

    @pytest.mark.parametrize("num_sites", [1, 2, 5])
    @pytest.mark.parametrize("sample_size", [1, 3, 10])
    def test_equals_oracle_random_distribution(self, num_sites, sample_size):
        hasher = UnitHasher(99)
        system = DistinctSamplerSystem(num_sites, sample_size, hasher=hasher)
        oracle = CentralizedDistinctSampler(sample_size, hasher)
        rng = np.random.default_rng(num_sites * 100 + sample_size)
        for _ in range(1500):
            element = int(rng.integers(0, 300))
            site = int(rng.integers(0, num_sites))
            system.observe(site, element)
            oracle.observe(element)
            assert system.sample() == oracle.sample()
            assert system.threshold == oracle.threshold

    def test_equals_oracle_flooding(self):
        hasher = UnitHasher(5)
        system = DistinctSamplerSystem(4, 5, hasher=hasher)
        oracle = CentralizedDistinctSampler(5, hasher)
        rng = np.random.default_rng(0)
        for _ in range(800):
            element = int(rng.integers(0, 150))
            system.flood(element)
            oracle.observe(element)
            assert system.sample() == oracle.sample()

    def test_equals_oracle_adversarial_order(self):
        # All elements funnelled to one site, then duplicates from another.
        hasher = UnitHasher(7)
        system = DistinctSamplerSystem(2, 4, hasher=hasher)
        oracle = CentralizedDistinctSampler(4, hasher)
        for element in range(100):
            system.observe(0, element)
            oracle.observe(element)
        for element in range(100):
            system.observe(1, element)  # all duplicates, via the other site
            oracle.observe(element)
            assert system.sample() == oracle.sample()

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 2)),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_hypothesis(self, pairs):
        hasher = UnitHasher(123)
        system = DistinctSamplerSystem(3, 4, hasher=hasher)
        oracle = CentralizedDistinctSampler(4, hasher)
        for element, site in pairs:
            system.observe(site, element)
            oracle.observe(element)
        assert system.sample() == oracle.sample()


class TestSampleSemantics:
    def test_sample_size_min_s_d(self):
        system = DistinctSamplerSystem(2, 10, seed=1)
        for element in range(4):
            system.observe(0, element)
        assert len(system.sample()) == 4  # d < s: whole distinct set
        for element in range(4, 50):
            system.observe(1, element)
        assert len(system.sample()) == 10  # d > s: exactly s

    def test_duplicates_never_grow_sample(self):
        system = DistinctSamplerSystem(2, 10, seed=1)
        for _ in range(30):
            system.observe(0, "same")
        assert system.sample() == ["same"]

    def test_sample_pairs_sorted(self):
        system = DistinctSamplerSystem(2, 5, seed=2)
        for element in range(100):
            system.observe(element % 2, element)
        pairs = system.sample_pairs()
        hashes = [h for h, _ in pairs]
        assert hashes == sorted(hashes)
        assert system.threshold == hashes[-1]

    def test_threshold_nonincreasing(self):
        system = DistinctSamplerSystem(3, 5, seed=3)
        last = 1.0
        rng = np.random.default_rng(0)
        for element in range(500):
            system.observe(int(rng.integers(0, 3)), element)
            assert system.threshold <= last
            last = system.threshold


class TestMessageAccounting:
    def test_two_messages_per_report(self):
        system = DistinctSamplerSystem(3, 5, seed=4)
        rng = np.random.default_rng(1)
        for element in range(400):
            system.observe(int(rng.integers(0, 3)), element)
        stats = system.network.stats
        assert stats.total_messages == 2 * stats.site_to_coordinator
        assert stats.site_to_coordinator == system.coordinator.reports_received

    def test_s1_duplicates_cost_nothing(self):
        # For s = 1 a repeat of the sampled element fails the strict test.
        system = DistinctSamplerSystem(1, 1, seed=5)
        system.observe(0, "a")
        base = system.total_messages
        for _ in range(50):
            system.observe(0, "a")
        assert system.total_messages == base

    def test_local_duplicates_cost_nothing_when_threshold_passed(self):
        # Once u_i < h(e), repeats of e at the same site are silent.
        hasher = UnitHasher(11)
        system = DistinctSamplerSystem(1, 3, hasher=hasher)
        for element in range(200):
            system.observe(0, element)
        # The next element is not in the sample: send it twice.
        probe = 10_001
        assert hasher.unit(probe) > system.threshold  # rejected candidate
        before = system.total_messages
        system.observe(0, probe)
        system.observe(0, probe)
        assert system.total_messages == before

    def test_sublinear_in_distinct_count(self):
        # On all-distinct streams the cost grows harmonically: 10x the
        # distinct elements costs nowhere near 10x the messages (Lemma 3).
        short = DistinctSamplerSystem(5, 10, seed=6, algorithm="mix64")
        rng = np.random.default_rng(2)
        for element in range(1000):
            short.observe(int(rng.integers(0, 5)), element)
        long = DistinctSamplerSystem(5, 10, seed=6, algorithm="mix64")
        rng = np.random.default_rng(2)
        for element in range(10_000):
            long.observe(int(rng.integers(0, 5)), element)
        assert long.total_messages < short.total_messages * 2

    def test_repeat_reports_cost_messages_for_s_greater_than_1(self):
        # Documented reproduction finding: Algorithms 1-2 as written re-send
        # repeats of *in-sample* elements when s > 1 — the site's scalar
        # threshold cannot distinguish "would enter the sample" from
        # "already in the sample".  Lemma 2's no-cost-for-repeats claim
        # holds only for s = 1 (see module docs of repro.core.infinite).
        hasher = UnitHasher(13)
        system = DistinctSamplerSystem(1, 5, hasher=hasher)
        for element in range(500):
            system.observe(0, element)
        # Pick a sampled element that is NOT the s-th smallest (strictly
        # below the threshold) and repeat it.
        victim = system.sample()[0]
        before = system.total_messages
        for _ in range(10):
            system.observe(0, victim)
        assert system.total_messages == before + 20  # 10 reports + replies
        # The sample itself is unaffected (duplicates never skew it).
        assert system.sample()[0] == victim


class TestSiteInvariants:
    def test_site_view_at_least_global(self):
        # u_i >= u at all times (Lemma 1's supporting invariant).
        system = DistinctSamplerSystem(4, 5, seed=7)
        rng = np.random.default_rng(3)
        for element in range(1000):
            system.observe(int(rng.integers(0, 4)), int(rng.integers(0, 200)))
            u = system.threshold
            for site in system.sites:
                assert site.u_local >= u

    def test_site_memory_is_one_float(self):
        # The site's protocol state is exactly u_local (O(1) memory).
        system = DistinctSamplerSystem(2, 5, seed=8)
        site = system.sites[0]
        assert set(site.__slots__) == {"site_id", "u_local"}


class TestErrorsAndValidation:
    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            DistinctSamplerSystem(0, 5)
        with pytest.raises(ConfigurationError):
            DistinctSamplerSystem(3, 0)

    def test_site_rejects_foreign_message(self):
        system = DistinctSamplerSystem(2, 5, seed=9)
        bad = Message(COORDINATOR, 0, MessageKind.BROADCAST, 0.5)
        with pytest.raises(ProtocolError):
            system.sites[0].handle_message(bad, system.network)

    def test_coordinator_rejects_foreign_message(self):
        system = DistinctSamplerSystem(2, 5, seed=9)
        bad = Message(0, COORDINATOR, MessageKind.SW_REPORT, None)
        with pytest.raises(ProtocolError):
            system.coordinator.handle_message(bad, system.network)

    def test_properties(self):
        system = DistinctSamplerSystem(3, 7, seed=10)
        assert system.num_sites == 3
        assert system.sample_size == 7


def _set_first_hash(value):
    def mutate(system_state):
        system_state["sample"][0][0] = value

    return mutate


def _drop_sample(system_state):
    del system_state["sample"]


def _shorten_first_row(system_state):
    system_state["sample"][0] = system_state["sample"][0][:1]


def _sample_as_mapping(system_state):
    system_state["sample"] = {str(h): e for h, e in system_state["sample"]}


#: Snapshot ``system`` mutations every infinite-family restore must reject.
MALFORMED_SAMPLES = {
    "dropped-sample": _drop_sample,
    "hash-x": _set_first_hash("x"),
    "hash-7.5": _set_first_hash(7.5),
    "hash-nan": _set_first_hash(float("nan")),
    "short-row": _shorten_first_row,
    "non-list-sample": _sample_as_mapping,
}


class TestMalformedRestore:
    """A malformed sample raises ConfigurationError and leaves the
    sampler exactly as it was (rows are parsed before the store is
    touched)."""

    @staticmethod
    def _driven(variant, seed):
        sampler = make_sampler(variant, num_sites=3, sample_size=4, seed=2)
        items = np.random.default_rng(seed).integers(0, 40, 60).tolist()
        sampler.observe_batch([(i % 3, item) for i, item in enumerate(items)])
        return sampler

    @pytest.mark.parametrize("mutation", sorted(MALFORMED_SAMPLES))
    @pytest.mark.parametrize("variant", ["infinite", "broadcast", "caching"])
    def test_typed_error_and_untouched_sampler(self, variant, mutation):
        state = self._driven(variant, seed=1).state_dict()
        MALFORMED_SAMPLES[mutation](state["system"])
        target = self._driven(variant, seed=2)
        before = target.state_dict()
        with pytest.raises(ConfigurationError, match="malformed"):
            target.load_state(state)
        assert target.state_dict() == before


class TestElementTypes:
    def test_string_elements(self):
        system = DistinctSamplerSystem(2, 3, seed=11)
        for name in ["alice", "bob", "carol", "alice"]:
            system.observe(0, name)
        assert set(system.sample()) == {"alice", "bob", "carol"}

    def test_tuple_elements(self):
        system = DistinctSamplerSystem(2, 3, seed=12)
        system.observe(0, ("10.0.0.1", "10.0.0.2"))
        system.observe(1, ("10.0.0.1", "10.0.0.2"))
        assert len(system.sample()) == 1
