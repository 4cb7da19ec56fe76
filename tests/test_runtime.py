"""Tests for the shared distributed-runtime layer: Topology wiring,
canonical message stats, and Engine routing policies."""

from __future__ import annotations

import pytest

from repro import EventBatch, SamplerConfig, make_sampler, sampler_variants
from repro.core.api import get_variant
from repro.errors import ConfigurationError, ProtocolError
from repro.netsim.delayed import DelayedNetwork
from repro.netsim.message import COORDINATOR, MessageKind
from repro.netsim.network import MessageStats
from repro.runtime import (
    ROUTING_POLICIES,
    Engine,
    Topology,
    merge_message_stats,
)

#: One buildable config per registered variant (mirrors the conformance
#: suite, minus the per-facade duplicates).
VARIANT_CONFIGS = {
    "infinite": SamplerConfig(variant="infinite", num_sites=3, sample_size=4),
    "broadcast": SamplerConfig(variant="broadcast", num_sites=3, sample_size=4),
    "caching": SamplerConfig(variant="caching", num_sites=3, sample_size=4),
    "sliding": SamplerConfig(variant="sliding", num_sites=3, window=10),
    "sliding-s2": SamplerConfig(
        variant="sliding", num_sites=3, window=10, sample_size=2
    ),
    "sliding-local-push": SamplerConfig(
        variant="sliding-local-push", num_sites=3, window=10, sample_size=2
    ),
    "with-replacement": SamplerConfig(
        variant="with-replacement", num_sites=3, sample_size=2
    ),
    "sharded:infinite": SamplerConfig(
        variant="sharded:infinite", num_sites=3, sample_size=4, shards=2
    ),
    "sharded:broadcast": SamplerConfig(
        variant="sharded:broadcast", num_sites=3, sample_size=4, shards=2
    ),
    "sharded:caching": SamplerConfig(
        variant="sharded:caching", num_sites=3, sample_size=4, shards=2
    ),
    "sharded:sliding": SamplerConfig(
        variant="sharded:sliding", num_sites=3, window=10, shards=2
    ),
    "sharded:sliding-s2": SamplerConfig(
        variant="sharded:sliding",
        num_sites=3,
        window=10,
        sample_size=2,
        shards=2,
    ),
    "sharded:sliding-local-push": SamplerConfig(
        variant="sharded:sliding-local-push",
        num_sites=3,
        window=10,
        sample_size=2,
        shards=2,
    ),
}


class _Sink:
    """A minimal node for wiring tests."""

    def __init__(self, site_id: int = 0) -> None:
        self.site_id = site_id
        self.received = []

    def handle_message(self, kind, payload, network) -> None:
        self.received.append((kind, payload))


class TestTopology:
    def test_build_registers_coordinator_and_sites(self):
        coordinator = _Sink()
        topology = Topology.build(
            coordinator=coordinator,
            site_factory=lambda i: _Sink(i),
            num_sites=3,
        )
        assert topology.num_sites == 3
        assert topology.coordinator is coordinator
        assert topology.network.node_at(COORDINATOR) is coordinator
        for i, site in enumerate(topology.sites):
            assert site.site_id == i
            assert topology.network.node_at(i) is site
            assert topology.site_at(i) is site

    def test_build_rejects_bad_site_count(self):
        for bad in (0, -1):
            with pytest.raises(ConfigurationError, match="num_sites"):
                Topology.build(
                    coordinator=_Sink(),
                    site_factory=lambda i: _Sink(i),
                    num_sites=bad,
                )
        with pytest.raises(ConfigurationError, match="num_sites"):
            Topology(_Sink(), [])

    def test_duplicate_address_rejected(self):
        with pytest.raises(ProtocolError, match="already registered"):
            Topology(_Sink(), [_Sink(0), _Sink(0)])

    def test_site_at_range_check(self):
        topology = Topology(_Sink(), [_Sink(0)])
        with pytest.raises(ConfigurationError, match="site_id"):
            topology.site_at(1)

    def test_message_stats_is_the_network_counters(self):
        topology = Topology(_Sink(), [_Sink(0)])
        assert topology.message_stats() is topology.network.stats
        assert topology.total_messages == 0
        topology.network.send(0, COORDINATOR, MessageKind.REPORT, "x")
        assert topology.total_messages == 1

    def test_accepts_custom_transport(self):
        network = DelayedNetwork()
        topology = Topology(_Sink(), [_Sink(0)], network=network)
        assert topology.network is network

    @pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
    def test_every_registry_variant_constructs_through_the_runtime(self, name):
        """The acceptance contract: facades never wire networks directly.

        Single-group facades expose the topology; composite facades
        (with-replacement, sharded) are built *from* single-group facades
        that do.
        """
        sampler = make_sampler(VARIANT_CONFIGS[name])
        parts = getattr(sampler, "copies", None) or getattr(
            sampler, "groups", None
        )
        if parts is None:
            assert isinstance(sampler.topology, Topology)
            assert sampler.network is sampler.topology.network
            assert sampler.coordinator is sampler.topology.coordinator
            assert sampler.sites is sampler.topology.sites
        else:
            for part in parts:
                assert isinstance(part.topology, Topology)

    def test_rewire_keeps_topology_canonical(self):
        sampler = make_sampler("infinite", num_sites=2, sample_size=2)
        rewired = DelayedNetwork.rewire(sampler)
        assert sampler.network is rewired
        assert sampler.topology.network is rewired
        # Canonical stats now read from the new transport.
        sampler.observe(0, 11)
        assert sampler.total_messages == sampler.network.stats.total_messages
        assert sampler.total_messages >= 1


class TestMergeMessageStats:
    def test_sums_all_fields(self):
        a, b = MessageStats(), MessageStats()
        a.total_messages, a.total_bytes = 3, 48
        a.site_to_coordinator, a.coordinator_to_site = 2, 1
        a.by_kind[MessageKind.REPORT] = 2
        b.total_messages, b.total_bytes = 5, 80
        b.site_to_coordinator, b.coordinator_to_site = 1, 4
        b.by_kind[MessageKind.REPORT] = 1
        b.by_kind[MessageKind.THRESHOLD] = 4
        merged = merge_message_stats([a, b])
        assert merged.total_messages == 8
        assert merged.total_bytes == 128
        assert merged.site_to_coordinator == 3
        assert merged.coordinator_to_site == 5
        assert merged.by_kind[MessageKind.REPORT] == 3
        assert merged.by_kind[MessageKind.THRESHOLD] == 4

    def test_empty_merge_is_zero(self):
        merged = merge_message_stats([])
        assert merged == MessageStats()

    def test_composite_facades_report_the_merged_counters(self):
        sampler = make_sampler("with-replacement", num_sites=2, sample_size=3)
        for i in range(40):
            sampler.observe(i % 2, i)
        expected = merge_message_stats(
            copy.message_stats() for copy in sampler.copies
        )
        assert sampler.message_stats() == expected
        assert sampler.total_messages == expected.total_messages
        assert sampler.stats().messages_total == expected.total_messages


def _engine_pair(policy: str, **config):
    config = dict(
        dict(variant="infinite", num_sites=4, sample_size=4, seed=3), **config
    )
    single = Engine(make_sampler(SamplerConfig(**config)), policy=policy, seed=7)
    batched = Engine(make_sampler(SamplerConfig(**config)), policy=policy, seed=7)
    return single, batched


class TestEngine:
    def test_unknown_policy_rejected(self):
        sampler = make_sampler("infinite", num_sites=2, sample_size=2)
        with pytest.raises(ConfigurationError, match="routing policy"):
            Engine(sampler, policy="teleport")
        assert set(ROUTING_POLICIES) == {"explicit", "round-robin", "hash"}

    @pytest.mark.parametrize("policy", ["round-robin", "hash"])
    def test_batch_matches_single(self, policy):
        single, batched = _engine_pair(policy)
        items = [(i * 13) % 37 for i in range(120)]
        for item in items:
            single.observe(item)
        assert batched.observe_batch(items) == len(items)
        assert single.sampler.sample() == batched.sampler.sample()
        assert single.sampler.stats() == batched.sampler.stats()
        assert single.sampler.state_dict() == batched.sampler.state_dict()

    @pytest.mark.parametrize("policy", ["round-robin", "hash"])
    def test_chunked_batches_compose(self, policy):
        one, chunked = _engine_pair(policy)
        items = [(i * 17) % 53 for i in range(90)]
        one.observe_batch(items)
        for start in range(0, len(items), 7):
            chunked.observe_batch(items[start : start + 7])
        assert one.sampler.state_dict() == chunked.sampler.state_dict()

    def test_round_robin_cycles_sites(self):
        engine, _ = _engine_pair("round-robin")
        assert [engine.site_for(object()) for _ in range(1)] == [0]
        engine.observe("a")
        assert engine.site_for("b") == 1
        engine.observe_batch(["b", "c", "d"])
        assert engine.site_for("e") == 0  # 4 items into k=4 wraps around

    def test_hash_routing_is_sticky(self):
        engine, _ = _engine_pair("hash")
        site = engine.site_for("alice")
        for _ in range(3):
            engine.observe("alice")
            assert engine.site_for("alice") == site
        assignments = engine._distributor.assignments_for_batch(
            EventBatch(["alice"] * 5)
        )
        assert set(assignments.tolist()) == {site}

    def test_explicit_policy_passes_events_through(self):
        single, batched = _engine_pair("explicit")
        events = [(0, 5), (1, 9), (2, 5), (3, 7)]
        for event in events:
            single.observe(event)
        batched.observe_batch(events)
        assert single.sampler.state_dict() == batched.sampler.state_dict()
        with pytest.raises(ConfigurationError, match="explicit"):
            single.site_for(5)

    def test_slot_kwarg_advances_before_event_stamps(self):
        """The slot kwarg means advance-then-deliver on both paths, so a
        stamped event behind the advanced clock raises identically."""
        config = dict(variant="sliding", num_sites=2, window=8, seed=2)
        single = Engine(make_sampler(SamplerConfig(**config)), policy="explicit")
        batched = Engine(make_sampler(SamplerConfig(**config)), policy="explicit")
        with pytest.raises(ProtocolError, match="non-decreasing"):
            single.observe((0, "x", 3), slot=7)
        with pytest.raises(ProtocolError, match="non-decreasing"):
            batched.observe_batch([(0, "x", 3)], slot=7)
        # Stamps at/after the advanced clock are honored on both paths.
        single.observe((0, "y", 9), slot=7)
        batched.observe_batch([(0, "y", 9)], slot=7)
        assert single.sampler.state_dict() == batched.sampler.state_dict()

    def test_slot_kwarg_applies_even_to_an_empty_batch(self):
        engine = Engine(
            make_sampler(SamplerConfig(variant="sliding", num_sites=2, window=3)),
            policy="hash",
        )
        engine.observe_batch(["a"], slot=1)
        assert engine.observe_batch([], slot=10) == 0
        assert engine.sampler.current_slot == 10
        assert not engine.sampler.sample()  # window expired by the advance

    def test_slotted_routing(self):
        config = dict(variant="sliding", num_sites=3, window=8, seed=2)
        engine = Engine(make_sampler(SamplerConfig(**config)), policy="hash")
        direct = Engine(make_sampler(SamplerConfig(**config)), policy="hash")
        for slot in range(1, 6):
            engine.observe_batch([slot, slot + 10, 3], slot=slot)
            direct.sampler.advance(slot)
            for item in (slot, slot + 10, 3):
                direct.observe(item)
        assert engine.sampler.state_dict() == direct.sampler.state_dict()

    def test_routes_into_sharded_sampler(self):
        sampler = make_sampler(
            "sharded:infinite",
            num_sites=4,
            sample_size=8,
            shards=3,
            algorithm="mix64",
        )
        engine = Engine(sampler, policy="hash", seed=5)
        assert engine.observe_batch(list(range(500))) == 500
        assert len(sampler.sample().items) == 8
        assert sampler.total_messages > 0


class TestRegistryRoutingMetadata:
    def test_sharded_variants_carry_hash_partition_routing(self):
        for name in sampler_variants():
            variant = get_variant(name)
            if name.startswith("sharded:"):
                assert variant.sharded
                assert variant.routing == "hash-partition"
            else:
                assert not variant.sharded
                assert variant.routing == "explicit-site"
