"""Shared protocol-conformance suite, parametrized over the registry.

Every registered sampler variant — the five paper systems plus the
baselines — must speak the same lifecycle: ``observe``/``observe_batch``
→ ``advance`` → ``sample() -> SampleResult`` → ``stats() -> SamplerStats``,
and must checkpoint/restore through the variant-agnostic
``snapshot``/``restore`` pair.  These tests are the contract that lets
the CLI, experiment drivers, and persistence treat samplers uniformly
with no per-class branching.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    BroadcastSamplerSystem,
    CachingSamplerSystem,
    ConfigurationError,
    DistinctSamplerSystem,
    Engine,
    EventBatch,
    Sampler,
    SampleResult,
    SamplerConfig,
    SamplerStats,
    ShardedSampler,
    SlidingWindowBottomS,
    SlidingWindowBottomSFeedback,
    SlidingWindowSystem,
    SlidingWindowWithReplacement,
    WithReplacementSampler,
    make_sampler,
    restore,
    sampler_variants,
    snapshot,
)
from repro.errors import ProtocolError

#: One config per registered variant *and* per concrete facade class the
#: variant can resolve to, so the whole zoo runs through every test.
CONFIGS = {
    "infinite": SamplerConfig(variant="infinite", num_sites=3, sample_size=4, seed=9),
    "broadcast": SamplerConfig(variant="broadcast", num_sites=3, sample_size=4, seed=9),
    "caching": SamplerConfig(variant="caching", num_sites=3, sample_size=4, seed=9),
    "sliding-s1": SamplerConfig(variant="sliding", num_sites=3, window=20, seed=9),
    "sliding-s3": SamplerConfig(
        variant="sliding", num_sites=3, window=20, sample_size=3, seed=9
    ),
    "sliding-s2": SamplerConfig(
        variant="sliding", num_sites=3, window=20, sample_size=2, seed=9
    ),
    "sliding-local-push": SamplerConfig(
        variant="sliding-local-push", num_sites=3, window=20, sample_size=3, seed=9
    ),
    "wr-infinite": SamplerConfig(
        variant="with-replacement", num_sites=3, sample_size=3, seed=9
    ),
    "wr-sliding": SamplerConfig(
        variant="with-replacement", num_sites=3, window=20, sample_size=3, seed=9
    ),
    # Sharded scale-out wrappers: S coordinator groups, hash-partitioned
    # key space, query-time bottom-s merge (repro.runtime.sharded).
    "sharded-infinite": SamplerConfig(
        variant="sharded:infinite", num_sites=3, sample_size=4, shards=3, seed=9
    ),
    "sharded-broadcast": SamplerConfig(
        variant="sharded:broadcast", num_sites=3, sample_size=4, shards=2, seed=9
    ),
    "sharded-caching": SamplerConfig(
        variant="sharded:caching", num_sites=3, sample_size=4, shards=2, seed=9
    ),
    "sharded-sliding-s1": SamplerConfig(
        variant="sharded:sliding", num_sites=3, window=20, shards=2, seed=9
    ),
    "sharded-sliding-s3": SamplerConfig(
        variant="sharded:sliding",
        num_sites=3,
        window=20,
        sample_size=3,
        shards=2,
        seed=9,
    ),
    "sharded-sliding-local-push": SamplerConfig(
        variant="sharded:sliding-local-push",
        num_sites=3,
        window=20,
        sample_size=3,
        shards=2,
        seed=9,
    ),
}


def workload(n_slots: int = 40, per_slot: int = 3, sites: int = 3, base: int = 0):
    """A deterministic slotted arrival schedule (no RNG needed)."""
    schedule = []
    for slot in range(1, n_slots + 1):
        arrivals = [
            (
                (slot * 7 + j) % sites,
                (base + slot * 13 + j * 31) % 57,
            )
            for j in range(per_slot)
        ]
        schedule.append((slot, arrivals))
    return schedule


def drive(sampler: Sampler, schedule) -> None:
    for slot, arrivals in schedule:
        sampler.advance(slot)
        sampler.observe_batch(arrivals)


@pytest.fixture(params=sorted(CONFIGS), ids=sorted(CONFIGS))
def config(request) -> SamplerConfig:
    return CONFIGS[request.param]


class TestRegistryCoverage:
    def test_every_variant_has_a_config(self):
        assert set(sampler_variants()) == {c.variant for c in CONFIGS.values()}

    def test_every_concrete_facade_class_covered(self):
        # The full concrete-facade zoo; `repro lint` (RPR003) statically
        # checks that every concrete Sampler subclass is named here.
        built = {type(make_sampler(c)) for c in CONFIGS.values()}
        assert {
            DistinctSamplerSystem,
            SlidingWindowSystem,
            SlidingWindowBottomS,
            SlidingWindowBottomSFeedback,
            WithReplacementSampler,
            SlidingWindowWithReplacement,
            BroadcastSamplerSystem,
            CachingSamplerSystem,
            ShardedSampler,
        } <= built


class TestLifecycle:
    def test_is_sampler_and_config_roundtrips(self, config):
        sampler = make_sampler(config)
        assert isinstance(sampler, Sampler)
        # The sampler's own config rebuilds an identical sampler class.
        rebuilt = make_sampler(sampler.config)
        assert type(rebuilt) is type(sampler)
        assert rebuilt.config == sampler.config

    def test_sample_result_shape(self, config):
        sampler = make_sampler(config)
        drive(sampler, workload())
        result = sampler.sample()
        assert isinstance(result, SampleResult)
        assert isinstance(result.items, tuple)
        assert result.sample_size == config.sample_size
        if result.with_replacement:
            assert len(result.items) == config.sample_size
            assert result.threshold is None
        else:
            assert len(result.items) <= config.sample_size
            # Items mirror the (hash, item) pairs, ascending by hash.
            assert result.items == tuple(item for _, item in result.pairs)
            hashes = [h for h, _ in result.pairs]
            assert hashes == sorted(hashes)
            assert all(h <= result.threshold for h in hashes)
        if config.window:
            assert result.window == config.window
            assert result.slot == 40
        else:
            assert result.window is None

    def test_sample_result_is_sequence_like(self, config):
        sampler = make_sampler(config)
        drive(sampler, workload())
        result = sampler.sample()
        assert list(result) == list(result.items)
        assert len(result) == len(result.items)
        assert result == list(result.items)
        if result.items:
            assert result[0] == result.items[0]
            assert result.items[0] in result

    def test_stats_shape(self, config):
        sampler = make_sampler(config)
        drive(sampler, workload())
        stats = sampler.stats()
        assert isinstance(stats, SamplerStats)
        assert stats.num_sites == config.num_sites
        assert len(stats.per_site_memory) == config.num_sites
        assert stats.messages_total == (
            stats.messages_to_coordinator + stats.messages_to_sites
        )
        assert stats.messages_total > 0
        assert stats.slots_processed == 40
        assert all(size >= 0 for size in stats.per_site_memory)

    def test_observe_batch_matches_per_item_observe(self, config):
        batched = make_sampler(config)
        single = make_sampler(config)
        for slot, arrivals in workload():
            batched.advance(slot)
            batched.observe_batch(arrivals)
            for site_id, item in arrivals:
                single.observe(site_id, item, slot=slot)
        assert batched.sample() == single.sample()
        assert batched.stats() == single.stats()

    def test_observe_with_slot_stamps(self, config):
        # 3-tuple events advance time exactly like explicit advance().
        via_events = make_sampler(config)
        explicit = make_sampler(config)
        for slot, arrivals in workload(n_slots=20):
            explicit.advance(slot)
            explicit.observe_batch(arrivals)
            via_events.observe_batch(
                [(site, item, slot) for site, item in arrivals]
            )
        assert via_events.sample() == explicit.sample()
        assert via_events.current_slot == explicit.current_slot

    def test_advance_is_idempotent_per_slot(self, config):
        sampler = make_sampler(config)
        drive(sampler, workload(n_slots=10))
        before = sampler.stats()
        sampler.advance(10)
        sampler.advance(10)
        assert sampler.stats() == before

    def test_advance_rejects_rewind(self, config):
        sampler = make_sampler(config)
        sampler.advance(5)
        with pytest.raises(ProtocolError):
            sampler.advance(4)

    @pytest.mark.parametrize("site", [-1, -3, 3, 7])
    def test_out_of_range_site_ids_raise_before_any_delivery(self, config, site):
        # A negative id would otherwise reach a site counted from the end,
        # and an id >= k fail only after the batch's earlier rows.
        sampler = make_sampler(config)
        drive(sampler, workload(n_slots=5))
        before = json.dumps(sampler.state_dict(), sort_keys=True)
        calls = [
            lambda: sampler.observe(site, 5),
            lambda: sampler.observe(site, 5, slot=9),
            lambda: sampler.observe_batch([(0, 1), (1, 2), (site, 3)]),
            lambda: sampler.observe_batch([(0, 1, 6), (1, 2, 7), (site, 3, 8)]),
            lambda: sampler.observe_columns(EventBatch([1, 2, 3], sites=[0, site, 1])),
        ]
        if hasattr(sampler, "observe_hashed"):
            calls.append(lambda: sampler.observe_hashed(site, 5, 0.0))
        for call in calls:
            with pytest.raises(ConfigurationError, match="site id"):
                call()
            assert json.dumps(sampler.state_dict(), sort_keys=True) == before


    @pytest.mark.parametrize("site", [1.7, 1.0, "1", True, False, None])
    def test_non_integer_site_ids_raise_before_any_delivery(self, config, site):
        # A float was truncated to a site by the batch path and failed as
        # a list index on the single path; a string or a bool was taken
        # as the site it spells.
        sampler = make_sampler(config)
        drive(sampler, workload(n_slots=5))
        before = json.dumps(sampler.state_dict(), sort_keys=True)
        calls = [
            lambda: sampler.observe(site, 5),
            lambda: sampler.observe(site, 5, slot=9),
            lambda: sampler.observe_batch([(site, 5), (0, 6)]),
            lambda: sampler.observe_batch([(0, 1, 6), (1, 2, 7), (site, 3, 8)]),
            lambda: sampler.observe_batch([(0, 1), (site, 3, 8)]),
            lambda: sampler.observe_columns(EventBatch([1, 2], sites=[0, site])),
        ]
        if hasattr(sampler, "observe_hashed"):
            calls.append(lambda: sampler.observe_hashed(site, 5, 0.0))
        for call in calls:
            with pytest.raises(ConfigurationError, match=f"site id {site!r} is not an integer"):
                call()
            assert json.dumps(sampler.state_dict(), sort_keys=True) == before

    def test_numpy_integer_site_ids_stay_valid(self, config):
        plain = make_sampler(config)
        numpy_ids = make_sampler(config)
        for slot, arrivals in workload(n_slots=10):
            for sampler in (plain, numpy_ids):
                sampler.advance(slot)
            plain.observe_batch(arrivals)
            numpy_ids.observe_batch(
                [(np.int32(site), item) for site, item in arrivals]
            )
            if arrivals:
                site, item = arrivals[0]
                plain.observe(site, item)
                numpy_ids.observe(np.int64(site), item)
        assert numpy_ids.state_dict() == plain.state_dict()

    @pytest.mark.parametrize("slot", [6.5, 6.0, np.float64(6.0), "6", True, False])
    def test_non_integer_slots_raise_before_any_delivery(self, config, slot):
        # A float stamp was truncated to a slot (advance(2.7) moved the
        # clock to 2), a string parsed as one, and a bool taken as slot 0
        # or 1.
        sampler = make_sampler(config)
        drive(sampler, workload(n_slots=5))
        before = json.dumps(sampler.state_dict(), sort_keys=True)
        engine = Engine(sampler, policy="round-robin")
        calls = [
            lambda: sampler.advance(slot),
            lambda: sampler.observe(0, 5, slot=slot),
            lambda: sampler.observe_batch([(0, 5, slot)]),
            lambda: sampler.observe_batch([(0, 1, 6), (1, 2, slot)]),
            lambda: sampler.observe_batch([(0, 1), (1, 2, slot)]),
            lambda: engine.observe(5, slot=slot),
            lambda: engine.observe_batch([1, 2], slot=slot),
        ]
        for call in calls:
            with pytest.raises(
                ConfigurationError, match=re.escape(f"slot {slot!r} is not an integer")
            ):
                call()
            assert json.dumps(sampler.state_dict(), sort_keys=True) == before

    def test_numpy_integer_slots_stay_valid(self, config):
        plain = make_sampler(config)
        numpy_slots = make_sampler(config)
        for slot, arrivals in workload(n_slots=10):
            plain.advance(slot)
            plain.observe_batch(arrivals)
            numpy_slots.advance(np.int32(slot))
            numpy_slots.observe_batch(
                [(site, item, np.int64(slot)) for site, item in arrivals]
            )
            if arrivals:
                site, item = arrivals[0]
                plain.observe(site, item, slot=slot)
                numpy_slots.observe(site, item, slot=np.uint8(slot))
        assert numpy_slots.state_dict() == plain.state_dict()


class TestSnapshotRoundTrip:
    """Snapshot → JSON wire → restore, for every registered variant."""

    def test_roundtrip_identical(self, config):
        sampler = make_sampler(config)
        drive(sampler, workload())
        wire = json.dumps(snapshot(sampler))
        revived = restore(json.loads(wire))
        assert type(revived) is type(sampler)
        assert revived.sample() == sampler.sample()
        assert revived.stats() == sampler.stats()

    @pytest.mark.parametrize("value", [2.5, True, "4"])
    def test_a_non_integer_field_is_refused_on_build_and_restore(self, config, value):
        # Unchecked, 2.5 would run as a fractional s, True as s = 1, and
        # "4" would fail deep inside with a bare TypeError.
        with pytest.raises(ConfigurationError, match="sample_size"):
            make_sampler(replace(config, sample_size=value))
        sampler = make_sampler(config)
        drive(sampler, workload(n_slots=5))
        wire = json.loads(json.dumps(snapshot(sampler)))
        wire["config"]["sample_size"] = value
        with pytest.raises(ConfigurationError, match="sample_size"):
            restore(wire)

    def test_numpy_integer_fields_snapshot_as_plain_ints(self, config):
        numpy_fields = {
            name: np.int64(value)
            for name, value in config.to_dict().items()
            if type(value) is int
        }
        plain = make_sampler(config)
        numpy_built = make_sampler(replace(config, **numpy_fields))
        for sampler in (plain, numpy_built):
            drive(sampler, workload())
        assert json.dumps(snapshot(numpy_built)) == json.dumps(snapshot(plain))

    def test_revived_sampler_continues_identically(self, config):
        sampler = make_sampler(config)
        drive(sampler, workload())
        revived = restore(json.loads(json.dumps(snapshot(sampler))))
        continuation = [
            (slot + 40, arrivals)
            for slot, arrivals in workload(n_slots=15, base=17)
        ]
        drive(sampler, continuation)
        drive(revived, continuation)
        assert revived.sample() == sampler.sample()
        assert revived.stats() == sampler.stats()
