"""Tests for the infinite-window protocol (Algorithms 1 & 2).

The strongest check is *exactness*: given a shared hash function, the
distributed sample must equal the centralized bottom-s of the union stream
at every point in time, regardless of how elements are distributed.
"""

from __future__ import annotations

import math

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
from repro.netsim import MessageKind


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
        with pytest.raises(ProtocolError):
            system.sites[0].handle_message(MessageKind.BROADCAST, 0.5, system.network)

    def test_coordinator_rejects_foreign_message(self):
        system = DistinctSamplerSystem(2, 5, seed=9)
        with pytest.raises(ProtocolError):
            system.coordinator.handle_message(MessageKind.SW_REPORT, None, system.network)

    def test_properties(self):
        system = DistinctSamplerSystem(3, 7, seed=10)
        assert system.num_sites == 3
        assert system.sample_size == 7


def _drop_sample(system_state):
    del system_state["sample"]


def _sample_as_mapping(system_state):
    system_state["sample"] = {str(i): row for i, row in enumerate(system_state["sample"])}


def _column_as_mapping(system_state):
    [column] = system_state["sample"]
    system_state["sample"] = [{str(i): e for i, e in enumerate(column)}]


def _second_column(system_state):
    system_state["sample"].append(list(system_state["sample"][0]))


def _repeat_an_element(system_state):
    column = system_state["sample"][0]
    column.append(column[0])


def _reverse_column(system_state):
    system_state["sample"][0].reverse()


def _refused_element(system_state):
    system_state["sample"][0][0] = None  # murmur2 hashes no None


def _halve_first_element(system_state):
    system_state["sample"][0][0] /= 2  # a float, which no hasher here takes


def _overflow(system_state):
    # One element more than s, in order: only the size is wrong.
    unit = UnitHasher(2).unit
    column = system_state["sample"][0]
    last = unit(column[-1])
    column.append(next(e for e in range(1000, 2000) if unit(e) > last))


#: Snapshot ``system`` mutations every infinite-family restore must reject.
MALFORMED_SAMPLES = {
    "dropped-sample": _drop_sample,
    "non-list-sample": _sample_as_mapping,
    "column-as-mapping": _column_as_mapping,
    "two-columns": _second_column,
    "repeated-element": _repeat_an_element,
    "descending": _reverse_column,
    "refused-element": _refused_element,
    "halved-element": _halve_first_element,
    "overflow": _overflow,
}


def _set_first_hash(value):
    def mutate(system_state):
        system_state["sample"][0][0] = value

    return mutate


def _shorten_first_row(system_state):
    system_state["sample"][0] = system_state["sample"][0][:1]


def _repeat_a_row(system_state):
    system_state["sample"].append(system_state["sample"][0])


def _nudge_a_stored_hash(system_state):
    row = system_state["sample"][0]
    row[0] = math.nextafter(row[0], 1.0)


#: The same for the ``[hash, element]`` rows earlier snapshots stored,
#: whose hashes must also be the recomputed ones.
MALFORMED_LEGACY_SAMPLES = {
    "hash-x": _set_first_hash("x"),
    "hash-7.5": _set_first_hash(7.5),
    "hash-nan": _set_first_hash(float("nan")),
    "short-row": _shorten_first_row,
    "non-list-sample": _sample_as_mapping,
    "repeated-row": _repeat_a_row,
    "stored-hash-nextafter": _nudge_a_stored_hash,
}


def legacy_state(sampler):
    """``sampler.state_dict()`` as earlier snapshots wrote it: the sample
    as ``[hash, element]`` rows."""
    state = sampler.state_dict()
    state["system"]["sample"] = [[h, e] for h, e in sampler.sample_pairs()]
    return state


def _site_thresholds(state):
    """``(container, key)`` of every site threshold in a state."""
    found = []
    for key, value in state.items():
        if key == "site_thresholds":
            found.extend((value, i) for i in range(len(value)))
        elif key == "u_local":
            found.append((state, key))
        elif isinstance(value, dict):
            found.extend(_site_thresholds(value))
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, dict):
                    found.extend(_site_thresholds(item))
    return found


class TestMalformedRestore:
    """A malformed sample raises ConfigurationError and leaves the
    sampler exactly as it was (rows are parsed before the store is
    touched)."""

    @staticmethod
    def _driven(variant, seed, **options):
        sampler = make_sampler(variant, num_sites=3, sample_size=4, seed=2, **options)
        items = np.random.default_rng(seed).integers(0, 40, 60).tolist()
        sampler.observe_batch([(i % 3, item) for i, item in enumerate(items)])
        return sampler

    def _assert_refused(self, variant, state, match="malformed", **options):
        target = self._driven(variant, seed=2, **options)
        before = target.state_dict()
        with pytest.raises(ConfigurationError, match=match):
            target.load_state(state)
        assert target.state_dict() == before

    @pytest.mark.parametrize("mutation", sorted(MALFORMED_SAMPLES))
    @pytest.mark.parametrize("variant", ["infinite", "broadcast", "caching"])
    def test_typed_error_and_untouched_sampler(self, variant, mutation):
        state = self._driven(variant, seed=1).state_dict()
        MALFORMED_SAMPLES[mutation](state["system"])
        self._assert_refused(variant, state)

    @pytest.mark.parametrize("mutation", sorted(MALFORMED_LEGACY_SAMPLES))
    @pytest.mark.parametrize("variant", ["infinite", "broadcast", "caching"])
    def test_legacy_rows_typed_error_and_untouched_sampler(self, variant, mutation):
        state = legacy_state(self._driven(variant, seed=1))
        MALFORMED_LEGACY_SAMPLES[mutation](state["system"])
        self._assert_refused(variant, state)

    @pytest.mark.parametrize("variant", ["infinite", "broadcast", "caching"])
    def test_legacy_rows_with_their_hashes_restore(self, variant):
        source = self._driven(variant, seed=1)
        target = self._driven(variant, seed=2)
        target.load_state(legacy_state(source))
        assert target.state_dict() == source.state_dict()
        assert target.sample() == source.sample()

    @pytest.mark.parametrize(
        "variant,options",
        [
            ("infinite", {}),
            ("broadcast", {}),
            ("caching", {}),
            ("sharded:infinite", {"shards": 2}),
        ],
        ids=["infinite", "broadcast", "caching", "sharded-infinite"],
    )
    def test_a_site_threshold_below_the_coordinators_is_refused(self, variant, options):
        # A site only ever adopts a past u, and u never rises, so u_i >= u.
        source = self._driven(variant, seed=1, **options)
        state = source.state_dict()
        thresholds = _site_thresholds(state)
        assert len(thresholds) == 3 * options.get("shards", 1)
        for container, key in thresholds:
            container[key] = 0.0
        self._assert_refused(variant, state, match="below", **options)
        # Exactly at its coordinator's threshold, a site restores.
        state = source.state_dict()
        group_states = state["groups"] if "groups" in state else [state]
        for group_state, group in zip(group_states, getattr(source, "groups", [source])):
            assert group.threshold < 1.0
            for container, key in _site_thresholds(group_state):
                container[key] = group.threshold
        target = self._driven(variant, seed=2, **options)
        target.load_state(state)
        assert target.state_dict() == state


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
