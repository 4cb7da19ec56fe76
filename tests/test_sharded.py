"""Sharded scale-out correctness: S hash-partitioned coordinator groups
must reproduce, after the query-time merge, exactly the sample the
single-coordinator system defines — and each group must agree with a
centralized oracle restricted to that group's key space."""

from __future__ import annotations

import copy
import json
import pickle
import time

import numpy as np
import pytest

from repro import (
    CentralizedDistinctSampler,
    CentralizedWindowSampler,
    EventBatch,
    SamplerConfig,
    SerialExecutor,
    ShardedSampler,
    SharedMemoryExecutor,
    UnitHasher,
    make_sampler,
    restore,
    snapshot,
)
from repro.core.api import register_sharded_variant
from repro.errors import ConfigurationError
from repro.perf import paired_speedup
from repro.runtime.executor import ARENA_MIN_BYTES

SEED = 20150525


def cell(name: str, s: int) -> tuple[str, int]:
    """A parametrized cell's variant and sample size: ``<variant>+s<N>``
    runs ``<variant>`` at s = N, anything else at the test's default s.
    (``sharded:sliding`` runs s = 1 groups at s = 1 and its general-s
    lazy-feedback groups above.)"""
    variant, _, pinned = name.partition("+s")
    return variant, int(pinned) if pinned else s


def uniform_events(n: int, sites: int, universe: int, seed: int = SEED) -> list:
    rng = np.random.default_rng(seed)
    site_ids = rng.integers(0, sites, n).tolist()
    items = rng.integers(0, universe, n).tolist()
    return list(zip(site_ids, items))


def slotted_schedule(n_slots: int, per_slot: int, sites: int, universe: int):
    rng = np.random.default_rng(SEED + 1)
    for slot in range(1, n_slots + 1):
        arrivals = [
            (int(rng.integers(0, sites)), int(rng.integers(0, universe)))
            for _ in range(per_slot)
        ]
        yield slot, arrivals


class TestInfiniteOracleMerge:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize(
        "variant", ["sharded:infinite", "sharded:broadcast", "sharded:caching"]
    )
    def test_merge_equals_unrestricted_oracle(self, variant, shards):
        sampler = make_sampler(
            variant, num_sites=4, sample_size=8, shards=shards, seed=SEED
        )
        oracle = CentralizedDistinctSampler(8, UnitHasher(SEED, "murmur2"))
        for site, item in uniform_events(3000, sites=4, universe=400):
            sampler.observe(site, item)
            oracle.observe(item)
        result = sampler.sample()
        assert list(result.items) == oracle.sample()
        assert list(result.pairs) == oracle.sample_pairs()
        assert result.threshold == oracle.threshold

    def test_each_group_matches_its_restricted_oracle(self):
        sampler = make_sampler(
            "sharded:infinite", num_sites=4, sample_size=6, shards=3, seed=SEED
        )
        assert isinstance(sampler, ShardedSampler)
        restricted = [
            CentralizedDistinctSampler(6, UnitHasher(SEED, "murmur2"))
            for _ in range(3)
        ]
        for site, item in uniform_events(3000, sites=4, universe=300):
            sampler.observe(site, item)
            restricted[sampler.shard_of(item)].observe(item)
        for group, oracle in zip(sampler.groups, restricted):
            assert list(group.sample().items) == oracle.sample()

    def test_key_spaces_are_disjoint_and_cover(self):
        sampler = make_sampler(
            "sharded:infinite", num_sites=2, sample_size=4, shards=4, seed=SEED
        )
        owners = {key: sampler.shard_of(key) for key in range(1000)}
        assert set(owners.values()) == {0, 1, 2, 3}
        # Stickiness: re-asking never moves a key.
        assert all(sampler.shard_of(key) == owner for key, owner in owners.items())


class TestSlidingOracleMerge:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_feedback_bottom_s_tracks_window_oracle(self, shards):
        sampler = make_sampler(
            "sharded:sliding",
            num_sites=3,
            window=15,
            sample_size=4,
            shards=shards,
            seed=SEED,
        )
        oracle = CentralizedWindowSampler(15, 4, UnitHasher(SEED, "murmur2"))
        for slot, arrivals in slotted_schedule(120, 6, sites=3, universe=90):
            sampler.advance(slot)
            oracle.advance(slot)
            for site, item in arrivals:
                sampler.observe(site, item)
                oracle.observe(item, slot)
            assert list(sampler.sample().items) == oracle.sample(), slot

    @pytest.mark.parametrize(
        "variant", ["sharded:sliding", "sharded:sliding-local-push"]
    )
    def test_s1_variants_track_window_minimum(self, variant):
        sampler = make_sampler(
            variant, num_sites=3, window=12, shards=2, seed=SEED
        )
        oracle = CentralizedWindowSampler(12, 1, UnitHasher(SEED, "murmur2"))
        for slot, arrivals in slotted_schedule(100, 5, sites=3, universe=60):
            sampler.advance(slot)
            oracle.advance(slot)
            for site, item in arrivals:
                sampler.observe(site, item)
                oracle.observe(item, slot)
            assert sampler.sample().first == oracle.min_element(), slot

    def test_sliding_groups_match_restricted_window_oracles(self):
        sampler = make_sampler(
            "sharded:sliding",
            num_sites=3,
            window=10,
            sample_size=3,
            shards=2,
            seed=SEED,
        )
        restricted = [
            CentralizedWindowSampler(10, 3, UnitHasher(SEED, "murmur2"))
            for _ in range(2)
        ]
        for slot, arrivals in slotted_schedule(80, 5, sites=3, universe=50):
            sampler.advance(slot)
            for oracle in restricted:
                oracle.advance(slot)
            for site, item in arrivals:
                sampler.observe(site, item)
                restricted[sampler.shard_of(item)].observe(item, slot)
        for group, oracle in zip(sampler.groups, restricted):
            assert list(group.sample().items) == oracle.sample()


class TestShardOneDegeneracy:
    def test_shards_1_is_indistinguishable_from_the_base(self):
        sharded = make_sampler(
            "sharded:infinite", num_sites=3, sample_size=5, shards=1, seed=SEED
        )
        base = make_sampler("infinite", num_sites=3, sample_size=5, seed=SEED)
        events = uniform_events(2000, sites=3, universe=250)
        sharded.observe_batch(events)
        base.observe_batch(events)
        assert sharded.sample() == base.sample()
        assert sharded.stats() == base.stats()
        assert sharded.total_messages == base.total_messages


class TestShardedPersistence:
    def test_snapshot_roundtrip_and_continuation(self):
        sampler = make_sampler(
            "sharded:infinite", num_sites=3, sample_size=6, shards=3, seed=SEED
        )
        events = uniform_events(1500, sites=3, universe=200)
        sampler.observe_batch(events[:1000])
        revived = restore(json.loads(json.dumps(snapshot(sampler))))
        assert type(revived) is type(sampler)
        assert revived.shards == 3
        assert revived.sample() == sampler.sample()
        assert revived.stats() == sampler.stats()
        sampler.observe_batch(events[1000:])
        revived.observe_batch(events[1000:])
        assert revived.sample() == sampler.sample()
        assert revived.stats() == sampler.stats()

    def test_load_state_rejects_malformed_snapshots(self):
        sampler = make_sampler(
            "sharded:infinite", num_sites=2, sample_size=2, shards=2
        )
        with pytest.raises(ConfigurationError, match="malformed"):
            sampler.load_state({"protocol": {}})
        with pytest.raises(ConfigurationError, match="malformed"):
            sampler.load_state(
                {
                    "protocol": {"last_slot": None, "slots_processed": 0},
                    "groups": "nope",
                }
            )

    def test_load_state_is_atomic_on_mid_restore_failure(self):
        sampler = make_sampler(
            "sharded:infinite", num_sites=3, sample_size=4, shards=3, seed=SEED
        )
        sampler.observe_batch(uniform_events(800, sites=3, universe=120))
        baseline_sample = sampler.sample()
        baseline_state = copy.deepcopy(sampler.state_dict())
        poisoned = copy.deepcopy(baseline_state)
        # Group 0 loads fine; group 1 blows up mid-loop.  Neither may
        # reach the live sampler.
        poisoned["groups"][1]["system"] = {"sample": "not-a-sample"}
        with pytest.raises(Exception):
            sampler.load_state(poisoned)
        assert sampler.sample() == baseline_sample
        assert sampler.state_dict() == baseline_state
        # Still fully usable after the rejected restore.
        sampler.observe_batch(uniform_events(100, sites=3, universe=120))

    @pytest.mark.parametrize("algorithm", ["mix64", "murmur2"])
    @pytest.mark.parametrize("source_shards,shards", [(2, 2), (2, 4), (4, 4)])
    def test_a_restore_hashes_every_group_in_one_pass(
        self, monkeypatch, source_shards, shards, algorithm
    ):
        # Snapshots keep the sample's elements, not their hashes; the
        # restore recomputes them in one column pass across the groups,
        # at the same shard count and through a re-partition alike.
        source = make_sampler(
            "sharded:infinite", num_sites=3, sample_size=16,
            shards=source_shards, algorithm=algorithm, seed=SEED,
        )
        source.observe_batch(uniform_events(3000, sites=3, universe=5000))
        state = json.loads(json.dumps(source.state_dict()))
        # One element column per group.
        columns = [group["system"]["sample"] for group in state["groups"]]
        assert all(len(column) == 1 for column in columns)
        retained = sum(len(column) for [column] in columns)
        target = make_sampler(
            "sharded:infinite", num_sites=3, sample_size=16, shards=shards,
            algorithm=algorithm, seed=SEED,
        )
        sampling = target.sampling_hasher
        passes, scalar = [], []
        column, unit = EventBatch.hash_column, UnitHasher.unit

        def counting_column(batch, hasher):
            if hasher == sampling and hasher not in batch._hash_columns:
                passes.append(len(batch))
            return column(batch, hasher)

        def counting_unit(hasher, element):
            scalar.append(element)
            return unit(hasher, element)

        monkeypatch.setattr(EventBatch, "hash_column", counting_column)
        monkeypatch.setattr(UnitHasher, "unit", counting_unit)
        target.load_state(state)
        assert passes == [retained]
        assert scalar == []
        monkeypatch.undo()
        assert target.sample() == source.sample()

    @pytest.mark.parametrize("donor_shards", [2, 3])
    @pytest.mark.parametrize("variant", ["sharded:sliding", "sharded:sliding+s4"])
    def test_malformed_later_group_rolls_back_exactly(self, variant, donor_shards):
        # A *later* snapshot whose group 1 is malformed.  At the same
        # shard count group 0 loads first with its clock moved forward;
        # across counts the re-partition fails first.  Either way the
        # original error surfaces and the sampler keeps its pre-call
        # state.
        name, s = cell(variant, 1)

        def build(shards):
            return make_sampler(
                name, num_sites=3, window=12, sample_size=s, shards=shards,
                seed=SEED,
            )

        sampler, donor = build(2), build(donor_shards)
        schedule = list(slotted_schedule(60, 5, sites=3, universe=70))
        for i, (slot, arrivals) in enumerate(schedule):
            for system in (sampler, donor) if i < 30 else (donor,):
                system.advance(slot)
                system.observe_batch(arrivals)
        before = copy.deepcopy(sampler.state_dict())
        later = donor.state_dict()
        del later["groups"][1]["system"]["sites"]
        with pytest.raises(ConfigurationError, match="malformed"):
            sampler.load_state(later)
        assert sampler.state_dict() == before


class TestElasticResharding:
    """``reshard(S→S')`` and cross-count ``load_state`` must be *exact*:
    every group shares the same sampling hash, so re-routing the retained
    per-group state under a new-count distributor reproduces, through the
    query-time merge, bit for bit what a fresh S'-sharded sampler fed the
    same stream returns (see ``repro.runtime.reshard`` for the argument).
    """

    INFINITE = ["sharded:infinite", "sharded:broadcast", "sharded:caching"]
    WINDOWED = [
        "sharded:sliding",
        "sharded:sliding+s4",
        "sharded:sliding-local-push",
    ]

    @classmethod
    def _make(cls, name, shards):
        windowed = name in cls.WINDOWED
        variant, s = cell(name, 1 if windowed else 6)
        kwargs = {"num_sites": 3, "shards": shards, "seed": SEED}
        if windowed:
            kwargs["window"] = 12
        return make_sampler(variant, sample_size=s, **kwargs)

    @pytest.mark.parametrize("new_shards", [8, 2])
    @pytest.mark.parametrize("variant", INFINITE + WINDOWED)
    def test_reshard_matches_fresh_twin(self, variant, new_shards):
        windowed = variant in self.WINDOWED
        sampler = self._make(variant, 4)
        twin = self._make(variant, new_shards)
        if windowed:
            schedule = list(slotted_schedule(80, 5, sites=3, universe=70))
            for slot, arrivals in schedule[:40]:
                sampler.advance(slot)
                twin.advance(slot)
                for site, item in arrivals:
                    sampler.observe(site, item)
                    twin.observe(site, item)
        else:
            events = uniform_events(2400, sites=3, universe=300)
            sampler.observe_batch(events[:1200])
            twin.observe_batch(events[:1200])
        assert sampler.reshard(new_shards) is sampler
        assert sampler.shards == new_shards
        assert len(sampler.groups) == new_shards
        assert sampler.sample() == twin.sample()
        if windowed:
            for slot, arrivals in schedule[40:]:
                sampler.advance(slot)
                twin.advance(slot)
                for site, item in arrivals:
                    sampler.observe(site, item)
                    twin.observe(site, item)
                assert sampler.sample() == twin.sample(), slot
        else:
            events_tail = events[1200:]
            sampler.observe_batch(events_tail)
            twin.observe_batch(events_tail)
            assert sampler.sample() == twin.sample()

    @pytest.mark.parametrize("new_shards", [2, 3, 8])
    @pytest.mark.parametrize("s", [1, 4])
    @pytest.mark.parametrize(
        "variant",
        [
            "sharded:infinite",
            "sharded:broadcast",
            "sharded:caching",
            "sharded:sliding",
            "sharded:sliding-local-push",
        ],
    )
    def test_reshard_equals_cross_count_load_state(self, variant, s, new_shards):
        # Both callers of the one re-partitioning path agree: a live
        # reshard and a cross-count restore of the same snapshot leave
        # equal states.
        windowed = "sliding" in variant

        def build(shards):
            return make_sampler(
                variant, num_sites=3, sample_size=s, shards=shards, seed=SEED,
                window=12 if windowed else 0,
            )

        donor = build(4)
        if windowed:
            for slot, arrivals in slotted_schedule(40, 5, sites=3, universe=70):
                donor.advance(slot)
                donor.observe_batch(arrivals)
        else:
            donor.observe_batch(uniform_events(1200, sites=3, universe=300))
        restored = build(new_shards)
        restored.load_state(json.loads(json.dumps(donor.state_dict())))
        donor.reshard(new_shards)
        assert json.dumps(donor.state_dict(), sort_keys=True) == json.dumps(
            restored.state_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("variant", INFINITE)
    def test_reshard_oracle_pinned_infinite(self, variant):
        sampler = self._make(variant, 4)
        oracle = CentralizedDistinctSampler(6, UnitHasher(SEED, "murmur2"))
        events = uniform_events(3000, sites=3, universe=350)
        for site, item in events[:1500]:
            sampler.observe(site, item)
            oracle.observe(item)
        sampler.reshard(3)
        for site, item in events[1500:]:
            sampler.observe(site, item)
            oracle.observe(item)
        result = sampler.sample()
        assert list(result.items) == oracle.sample()
        assert list(result.pairs) == oracle.sample_pairs()
        assert result.threshold == oracle.threshold

    @pytest.mark.parametrize("variant", WINDOWED)
    def test_reshard_oracle_pinned_windowed(self, variant):
        sampler = self._make(variant, 4)
        s = cell(variant, 1)[1]
        oracle = CentralizedWindowSampler(12, s, UnitHasher(SEED, "murmur2"))
        for slot, arrivals in slotted_schedule(100, 5, sites=3, universe=80):
            if slot == 50:
                sampler.reshard(5)
            sampler.advance(slot)
            oracle.advance(slot)
            for site, item in arrivals:
                sampler.observe(site, item)
                oracle.observe(item, slot)
            if s == 1:
                assert sampler.sample().first == oracle.min_element(), slot
            else:
                assert list(sampler.sample().items) == oracle.sample(), slot

    def test_reshard_validates_and_noops(self):
        sampler = self._make("sharded:infinite", 2)
        with pytest.raises(ConfigurationError, match="shards"):
            sampler.reshard(0)
        assert sampler.reshard(2) is sampler
        assert sampler.shards == 2

    @pytest.mark.parametrize("new_shards", [8, 2])
    def test_snapshot_restores_into_any_shard_count(self, new_shards):
        donor = self._make("sharded:infinite", 4)
        events = uniform_events(2000, sites=3, universe=250)
        donor.observe_batch(events[:1400])
        target = self._make("sharded:infinite", new_shards)
        target.load_state(donor.state_dict())
        assert target.sample() == donor.sample()
        # Continued ingest after the cross-count restore stays exact
        # against a fresh twin born at the target shard count.
        twin = self._make("sharded:infinite", new_shards)
        twin.observe_batch(events[:1400])
        target.observe_batch(events[1400:])
        twin.observe_batch(events[1400:])
        assert target.sample() == twin.sample()

    @pytest.mark.parametrize("variant", WINDOWED)
    def test_windowed_snapshot_restores_into_other_shard_count(self, variant):
        donor = self._make(variant, 3)
        schedule = list(slotted_schedule(60, 5, sites=3, universe=50))
        for slot, arrivals in schedule[:30]:
            donor.advance(slot)
            for site, item in arrivals:
                donor.observe(site, item)
        target = self._make(variant, 2)
        target.load_state(donor.state_dict())
        assert target.sample() == donor.sample()
        twin = self._make(variant, 2)
        for slot, arrivals in schedule[:30]:
            twin.advance(slot)
            for site, item in arrivals:
                twin.observe(site, item)
        for slot, arrivals in schedule[30:]:
            target.advance(slot)
            twin.advance(slot)
            for site, item in arrivals:
                target.observe(site, item)
                twin.observe(site, item)
            assert target.sample() == twin.sample(), slot


class TestShardedConfigSurface:
    def test_config_roundtrips_through_the_front_door(self):
        config = SamplerConfig(
            variant="sharded:sliding",
            num_sites=4,
            window=9,
            sample_size=3,
            shards=2,
            seed=11,
        )
        sampler = make_sampler(config)
        assert sampler.config == config
        rebuilt = make_sampler(sampler.config)
        assert type(rebuilt) is type(sampler)
        assert rebuilt.shards == 2

    def test_plain_variants_reject_shards(self):
        with pytest.raises(ConfigurationError, match="single-coordinator"):
            make_sampler("infinite", num_sites=2, sample_size=2, shards=2)

    def test_with_replacement_is_not_shardable(self):
        with pytest.raises(ConfigurationError, match="unknown sampler variant"):
            make_sampler(
                "sharded:with-replacement", num_sites=2, sample_size=2, shards=2
            )
        with pytest.raises(ConfigurationError, match="cannot be sharded"):
            register_sharded_variant("with-replacement")

    def test_shards_validation(self):
        with pytest.raises(ConfigurationError, match="shards"):
            SamplerConfig(variant="sharded:infinite", shards=0).validate()

    def test_group_count_must_match_config(self):
        groups = [
            make_sampler("infinite", num_sites=2, sample_size=2)
            for _ in range(2)
        ]
        with pytest.raises(ConfigurationError, match="groups"):
            ShardedSampler(
                groups,
                SamplerConfig(
                    variant="sharded:infinite", num_sites=2, sample_size=2,
                    shards=3,
                ),
            )


def _timed_ingest_sampler(executor: str = "serial", workers: int = 0):
    sampler = make_sampler(
        "sharded:infinite",
        num_sites=4,
        sample_size=8,
        shards=4,
        algorithm="mix64",
        seed=SEED,
        executor=executor,
        workers=workers,
    )
    rng = np.random.default_rng(3)
    events = list(
        zip(
            rng.integers(0, 4, 4000).tolist(),
            rng.integers(0, 1000, 4000).tolist(),
        )
    )
    sampler.observe_batch(events)
    return sampler


class TestShardedCostModel:
    def test_message_totals_aggregate_group_networks(self):
        sampler = make_sampler(
            "sharded:infinite", num_sites=3, sample_size=4, shards=3, seed=SEED
        )
        sampler.observe_batch(uniform_events(1200, sites=3, universe=150))
        assert sampler.total_messages == sum(
            group.total_messages for group in sampler.groups
        )
        stats = sampler.stats()
        assert stats.messages_total == sampler.total_messages
        assert stats.num_sites == 3
        # Physical site i runs one shard-local site per group.
        for i in range(3):
            assert stats.per_site_memory[i] == sum(
                group.stats().per_site_memory[i] for group in sampler.groups
            )

    def test_ingest_timing_accumulates_per_group(self):
        # Deterministic timer *semantics* only — strict positivity is a
        # wall-clock property and lives under the speedup marker below,
        # so tier-1 stays deterministic on loaded machines.
        sampler = _timed_ingest_sampler()
        assert all(elapsed >= 0 for elapsed in sampler.group_ingest_seconds)
        assert sampler.critical_path_seconds >= 0
        assert sampler.critical_path_seconds == max(
            sampler.group_ingest_seconds
        )
        assert sampler.ingest_seconds == pytest.approx(
            sum(sampler.group_ingest_seconds)
        )

    @pytest.mark.speedup
    def test_ingest_timers_strictly_positive_on_quiet_machines(self):
        sampler = _timed_ingest_sampler()
        assert all(elapsed > 0 for elapsed in sampler.group_ingest_seconds)


class TestExecutionBackends:
    """The executor surface: default wiring, shm-backend equivalence,
    config validation, snapshot round-trips."""

    def test_serial_is_the_default_backend(self):
        sampler = make_sampler(
            "sharded:infinite", num_sites=2, sample_size=2, shards=2
        )
        assert isinstance(sampler.executor, SerialExecutor)
        assert sampler.config.executor == "serial"

    @pytest.mark.parametrize(
        "variant,window",
        [
            ("sharded:infinite", 0),
            ("sharded:broadcast", 0),
            ("sharded:caching", 0),
            ("sharded:sliding", 10),
            ("sharded:sliding+s1", 10),
            ("sharded:sliding-local-push", 10),
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2, 3], ids=["w1", "w2", "w3"])
    def test_shm_backend_is_bit_identical_to_serial(
        self, variant, window, workers
    ):
        # Group g lives on worker g % W: with two groups, W=1 holds both
        # on one worker, W=2 gives each its own and W=3 leaves one idle.
        def build(executor):
            name, s = cell(variant, 3)
            return make_sampler(
                name,
                num_sites=3,
                sample_size=s,
                window=window,
                shards=2,
                seed=SEED,
                executor=executor,
                workers=workers,
            )

        serial, parallel = build("serial"), build("shm")
        assert isinstance(parallel.executor, SharedMemoryExecutor)
        if window:
            events = [
                (site, item, slot)
                for slot, arrivals in slotted_schedule(
                    30, 4, sites=3, universe=60
                )
                for site, item in arrivals
            ]
        else:
            events = uniform_events(1500, sites=3, universe=200)
        cut = len(events) // 2
        for chunk in (events[:cut], events[cut:]):
            serial.observe_batch(chunk)
            parallel.observe_batch(chunk)
        assert parallel.sample() == serial.sample()
        assert parallel.sample().threshold == serial.sample().threshold
        assert parallel.stats() == serial.stats()
        assert parallel.state_dict() == serial.state_dict()
        parallel.close()

    @pytest.mark.parametrize("donor_shards", [2, 3], ids=["same", "cross"])
    def test_load_state_over_live_workers_matches_serial(self, donor_shards):
        # The shm sampler's workers hold newer group state when an earlier
        # checkpoint lands; the restored groups must replace it, so both
        # samplers keep ingesting in step with a serial twin.
        events = uniform_events(1800, sites=3, universe=300)

        def build(executor, shards=2):
            return make_sampler(
                "sharded:caching",
                num_sites=3,
                sample_size=5,
                shards=shards,
                seed=SEED,
                executor=executor,
                workers=2,
            )

        donor = build("serial", donor_shards)
        donor.observe_batch(events[:600])
        checkpoint = json.loads(json.dumps(donor.state_dict()))
        serial, parallel = build("serial"), build("shm")
        for sampler in (serial, parallel):
            sampler.observe_batch(events[:1200])
            sampler.load_state(checkpoint)
        assert parallel.state_dict() == serial.state_dict()
        for sampler in (serial, parallel):
            sampler.observe_batch(events[600:])
        assert parallel.sample() == serial.sample()
        assert parallel.state_dict() == serial.state_dict()
        parallel.close()

    def test_shm_backend_measures_per_group_time(self):
        sampler = _timed_ingest_sampler(executor="shm", workers=2)
        # Worker-measured timers carry the same semantics as the serial
        # simulation; strict positivity again belongs to the speedup tier.
        assert all(elapsed >= 0 for elapsed in sampler.group_ingest_seconds)
        assert sampler.critical_path_seconds == max(
            sampler.group_ingest_seconds
        )
        sampler.close()

    def test_executor_config_survives_snapshot_roundtrip(self):
        sampler = make_sampler(
            "sharded:infinite",
            num_sites=2,
            sample_size=4,
            shards=2,
            seed=SEED,
            executor="shm",
            workers=2,
        )
        sampler.observe_batch(uniform_events(500, sites=2, universe=80))
        revived = restore(json.loads(json.dumps(snapshot(sampler))))
        assert revived.config.executor == "shm"
        assert revived.config.workers == 2
        assert isinstance(revived.executor, SharedMemoryExecutor)
        assert revived.sample() == sampler.sample()
        sampler.close()
        revived.close()

    @pytest.mark.parametrize(
        "retired,survivor", [("process", "shm"), ("thread", "serial")]
    )
    def test_snapshots_naming_retired_executors_still_restore(
        self, retired, survivor
    ):
        # A v2 snapshot written while "process"/"thread" existed.  The
        # backend never changes sampler state, so the snapshot restores
        # onto the surviving backend exactly.
        events = uniform_events(800, sites=2, universe=120)
        source = make_sampler(
            "sharded:infinite", num_sites=2, sample_size=4, shards=2, seed=SEED
        )
        source.observe_batch(events[:500])
        blob = json.loads(json.dumps(snapshot(source)))
        blob["config"].update(executor=retired, workers=2)
        revived = restore(blob)
        assert revived.config.executor == survivor
        assert revived.sample() == source.sample()
        assert revived.stats() == source.stats()
        # ... and keeps ingesting through the survivor bit-identically.
        source.observe_batch(events[500:])
        revived.observe_batch(events[500:])
        assert revived.state_dict() == source.state_dict()
        revived.close()

    @pytest.mark.parametrize("transport", ["DelayedNetwork", "ChaosNetwork"])
    def test_shm_rejects_groups_on_an_asynchronous_transport(self, transport):
        # Workers rebuild groups on the default synchronous network, so a
        # rewired group would silently lose its transport: every shm
        # batch must refuse up front and leave the sampler untouched.
        import repro.netsim as netsim

        sampler = make_sampler(
            "sharded:infinite",
            num_sites=2,
            sample_size=4,
            shards=2,
            seed=SEED,
            executor="shm",
            workers=2,
        )
        events = uniform_events(600, sites=2, universe=100)
        sampler.observe_batch(events[:300])
        getattr(netsim, transport).rewire(sampler.groups[1])
        before = (sampler.sample(), sampler.stats(), sampler.state_dict())
        for batch in (events[300:], EventBatch.from_events(events[300:])):
            with pytest.raises(ConfigurationError, match="asynchronous"):
                sampler.observe_batch(batch)
        assert sampler.sample() == before[0]
        assert sampler.stats() == before[1]
        assert sampler.state_dict() == before[2]
        sampler.close()

    def test_single_observe_stays_in_process(self):
        # Event-at-a-time delivery never ships anything to the workers:
        # after a batch, the first single observe pulls the groups home
        # once, and every later one runs in the parent with no IPC.
        events = uniform_events(400, sites=2, universe=80)
        sampler = make_sampler(
            "sharded:infinite",
            num_sites=2,
            sample_size=4,
            shards=2,
            seed=SEED,
            executor="shm",
            workers=2,
        )
        sampler.observe_batch(events[:200])
        sampler.observe(*events[200])
        ipc_bytes = sampler.executor.ipc_bytes
        for site, item in events[201:]:
            sampler.observe(site, item)
        assert sampler.executor.ipc_bytes == ipc_bytes
        serial = make_sampler(
            "sharded:infinite", num_sites=2, sample_size=4, shards=2, seed=SEED
        )
        serial.observe_batch(events)
        assert sampler.sample() == serial.sample()
        sampler.close()

    def test_non_monotone_slot_raises_before_any_delivery(self):
        from repro.errors import ProtocolError

        sampler = make_sampler(
            "sharded:sliding",
            num_sites=2,
            window=5,
            shards=2,
            seed=SEED,
            executor="shm",
            workers=2,
        )
        events = [(0, 1, 3), (1, 2, 2)]  # slot rewinds: plan must refuse
        with pytest.raises(ProtocolError, match="non-decreasing"):
            sampler.observe_batch(events)
        # Nothing shipped, nothing delivered, clock untouched.
        assert sampler.current_slot is None
        assert sampler.sample().items == ()
        sampler.close()

    def test_plain_variants_reject_shm_executor(self):
        with pytest.raises(ConfigurationError, match="single-coordinator"):
            make_sampler(
                "infinite", num_sites=2, sample_size=2, executor="shm"
            )

    def test_executor_validation(self):
        with pytest.raises(ConfigurationError, match="executor"):
            SamplerConfig(variant="sharded:infinite", executor="nope").validate()
        with pytest.raises(ConfigurationError, match="workers"):
            SamplerConfig(variant="sharded:infinite", workers=-1).validate()
        with pytest.raises(ConfigurationError, match="workers"):
            SharedMemoryExecutor(workers=-2)
        with pytest.raises(ConfigurationError, match="executor"):
            SamplerConfig(
                variant="sharded:infinite", executor="process"
            ).validate()
        with pytest.raises(ConfigurationError, match="unknown executor"):
            from repro.runtime import make_executor

            make_executor(
                SamplerConfig(variant="sharded:infinite", executor="nope")
            )


class TestSharedMemoryBackendLifecycle:
    """shm backend lifecycle: context managers, idempotent close with
    respawn-on-demand, in-process single observes, mixed ingest paths,
    and the no-leaked-segments guarantee."""

    @staticmethod
    def _segments():
        import os

        try:
            return {
                name
                for name in os.listdir("/dev/shm")
                if name.startswith("psm_")
            }
        except FileNotFoundError:
            return set()

    def _build(self, executor, workers=2, algorithm="mix64"):
        return make_sampler(
            "sharded:infinite",
            num_sites=3,
            sample_size=4,
            shards=3,
            seed=SEED,
            algorithm=algorithm,
            executor=executor,
            workers=workers,
        )

    def test_context_manager_closes_the_backend(self):
        with self._build("shm") as sampler:
            sampler.observe_batch(uniform_events(400, sites=3, universe=90))
            sample = sampler.sample()
            assert sampler.executor._workers is not None
        assert sampler.executor._workers is None
        # Queries after close still serve from the parent's state.
        assert sampler.sample() == sample

    def test_close_is_idempotent_and_workers_respawn(self):
        sampler = self._build("shm")
        events = uniform_events(600, sites=3, universe=100)
        sampler.observe_batch(events[:300])
        sampler.close()
        sampler.close()
        # The backend stays usable: workers respawn on demand.
        sampler.observe_batch(events[300:])
        with self._build("serial") as serial:
            serial.observe_batch(events)
            assert sampler.sample() == serial.sample()
        sampler.close()

    def test_single_observe_never_spawns_workers(self):
        sampler = self._build("shm")
        for site, item in uniform_events(200, sites=3, universe=50):
            sampler.observe(site, item)
        assert sampler.executor._workers is None
        with self._build("serial") as serial:
            serial.observe_batch(uniform_events(200, sites=3, universe=50))
            assert sampler.sample() == serial.sample()
        sampler.close()

    def test_mixed_ingest_paths_match_serial(self):
        events = uniform_events(900, sites=3, universe=150)
        batch = EventBatch.from_events(events[:300])

        def drive(sampler):
            sampler.observe_batch(batch)  # columnar
            _ = sampler.sample()  # mid-stream query forces a fetch
            for site, item in events[300:350]:
                sampler.observe(site, item)  # single (in-parent)
            sampler.observe_batch(events[350:600])  # tuple list
            sampler.observe_batch(EventBatch.from_events(events[600:]))

        serial, parallel = self._build("serial"), self._build("shm")
        drive(serial)
        drive(parallel)
        assert parallel.sample() == serial.sample()
        assert parallel.stats() == serial.stats()
        assert parallel.state_dict() == serial.state_dict()
        parallel.close()

    def test_no_segments_leaked_across_the_lifecycle(self):
        before = self._segments()
        sampler = self._build("shm")
        sampler.observe_batch(uniform_events(800, sites=3, universe=120))
        _ = sampler.sample()
        sampler.observe_batch(uniform_events(800, sites=3, universe=120, seed=7))
        sampler.close()
        assert self._segments() - before == set()

    def test_read_after_write_is_one_round_trip(self):
        """A query after a write makes one fetch round trip, one collect
        per worker holding dirty groups; every read after it until the
        next write makes none, and int items pickle nothing."""
        sampler = self._build("shm")
        sampler.observe_batch(uniform_events(900, sites=3, universe=150))
        executor = sampler.executor
        posted = []
        post = executor._post

        def counting_post(worker, command, args):
            posted.append(command)
            return post(worker, command, args)

        executor._post = counting_post
        first = sampler.sample()
        assert posted == ["collect", "collect"]  # 3 groups on 2 workers
        sampler.invalidate_merge_cache()
        assert sampler.sample() == first
        sampler.state_dict()
        sampler.stats()
        sampler.message_stats()
        sampler.groups[0].state_dict()
        assert posted == ["collect", "collect"]
        assert sampler.sync_count == 1
        assert executor.pickle_bytes == 0
        sampler.close()

    def test_pickling_brings_worker_state_home(self):
        events = uniform_events(900, sites=3, universe=150)
        serial, parallel = self._build("serial"), self._build("shm")
        for query, chunk in ((False, events[:400]), (True, events[400:])):
            serial.observe_batch(chunk)
            parallel.observe_batch(chunk)
            if query:  # fetched state, kept unloaded
                assert parallel.sample() == serial.sample()
            copied = pickle.loads(pickle.dumps(parallel))
            assert copied.state_dict() == serial.state_dict()
        parallel.close()

    def test_serialization_counters_split_pickle_from_ipc(self):
        sampler = self._build("shm")
        sampler.observe_batch(
            EventBatch.from_events(uniform_events(500, sites=3, universe=90))
        )
        _ = sampler.sample()
        # Columns travel through /dev/shm: zero pickled event payload,
        # nonzero request/reply framing.
        assert sampler.executor.pickle_bytes == 0
        assert sampler.executor.ipc_bytes > 0
        # An int tuple list becomes an int64 batch: still zero pickle.
        sampler.observe_batch(uniform_events(100, sites=3, universe=90))
        assert sampler.executor.pickle_bytes == 0
        sampler.close()
        # Object items travel pickled with the batch metadata, and the
        # count is honest; the result matches serial bit for bit.
        events = [
            (site, f"user-{item}")
            for site, item in uniform_events(300, sites=3, universe=90)
        ]
        with self._build("shm", algorithm="murmur2") as parallel:
            parallel.observe_batch(events)
            assert parallel.executor.pickle_bytes > 0
            with self._build("serial", algorithm="murmur2") as serial:
                serial.observe_batch(events)
                assert parallel.state_dict() == serial.state_dict()
                assert parallel.stats() == serial.stats()


class TestSharedMemoryArena:
    """The shm backend's batch columns share one persistent arena: one
    segment across batches, replaced only when a batch outgrows it, and
    unlinked on every way out."""

    _segments = staticmethod(TestSharedMemoryBackendLifecycle._segments)

    @staticmethod
    def _build(executor, variant="sharded:sliding", **overrides):
        kwargs = {
            "num_sites": 3,
            "sample_size": 4,
            "shards": 3,
            "seed": SEED,
            "algorithm": "mix64",
            "executor": executor,
            "workers": 2 if executor == "shm" else 0,
        }
        if variant == "sharded:sliding":
            kwargs["window"] = 4
        kwargs.update(overrides)
        return make_sampler(variant, **kwargs)

    @staticmethod
    def _slot_batch(slot, n, seed=SEED):
        """``n`` events stamped ``slot``: never filtered, all shipped."""
        return [
            (site, item, slot)
            for site, item in uniform_events(n, 3, 10**6, seed=seed + slot)
        ]

    def test_one_segment_serves_every_batch(self, monkeypatch):
        from multiprocessing import shared_memory

        created = []
        original = shared_memory.SharedMemory

        class Counting(original):
            def __init__(self, *args, create=False, **kwargs):
                if create:
                    created.append(kwargs.get("size"))
                super().__init__(*args, create=create, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", Counting)
        reads = (
            lambda sampler: sampler.sample(),
            lambda sampler: sampler.state_dict(),
            lambda sampler: sampler.stats(),
            lambda sampler: sampler.threshold,
        )
        serial, parallel = self._build("serial"), self._build("shm")
        with parallel:
            for slot in range(1, 25):
                batch = self._slot_batch(slot, 200)
                serial.observe_batch(batch)
                parallel.observe_batch(batch)
                read = reads[slot % len(reads)]
                assert read(parallel) == read(serial)
            assert created == [ARENA_MIN_BYTES]
            assert parallel.state_dict() == serial.state_dict()

    def test_a_batch_that_does_not_fit_replaces_the_arena(self):
        serial, parallel = self._build("serial"), self._build("shm")
        rows = ARENA_MIN_BYTES // 24 + 1
        with parallel:
            for slot, n in ((1, 100), (2, rows), (3, 100)):
                batch = self._slot_batch(slot, n)
                serial.observe_batch(batch)
                parallel.observe_batch(batch)
                if slot == 1:
                    first = parallel.executor._arena.name
                    assert first in self._segments()
            arena = parallel.executor._arena
            assert arena.name != first
            assert arena.size >= 2 * ARENA_MIN_BYTES
            assert first not in self._segments()  # unlinked at once
            # Both workers re-mapped: their groups answer as serial's do.
            assert parallel.sample() == serial.sample()
            assert parallel.state_dict() == serial.state_dict()

    def test_no_segment_outlives_close_a_crash_or_the_executor(self):
        import gc

        before = self._segments()
        sampler = self._build("shm")
        sampler.observe_batch(self._slot_batch(1, 300))
        assert len(self._segments() - before) == 1
        sampler.close()
        assert self._segments() - before == set()
        # A killed worker: the recovering batch unlinks the arena, and
        # close() leaves nothing either.
        sampler.observe_batch(self._slot_batch(2, 300))
        for worker in sampler.executor._workers:
            worker.process.kill()
            worker.process.join(timeout=10)
            assert not worker.process.is_alive()
        sampler.observe_batch(self._slot_batch(3, 300))
        assert sampler.executor.recoveries == 1
        assert self._segments() - before == set()
        sampler.close()
        assert self._segments() - before == set()
        # An executor dropped without close(): its finalizer unlinks.
        sampler.observe_batch(self._slot_batch(4, 300))
        assert len(self._segments() - before) == 1
        del sampler
        gc.collect()
        assert self._segments() - before == set()

    def test_only_object_items_travel_pickled(self):
        sampler = self._build("shm", "sharded:infinite", algorithm="murmur2")
        executor = sampler.executor
        frames = []
        post = executor._post

        def recording_post(worker, command, args):
            sent = post(worker, command, args)
            if command == "ingest_columns":
                frames.append(sent)
            return sent

        executor._post = recording_post
        with sampler:
            sampler.observe_batch(uniform_events(400, sites=3, universe=10**6))
            assert frames and executor.pickle_bytes == 0
            frames.clear()
            sampler.observe_batch(
                [
                    (site, f"user-{item}")
                    for site, item in uniform_events(400, 3, 10**6, seed=5)
                ]
            )
            assert frames and executor.pickle_bytes == sum(frames)

    def test_a_worker_without_rows_gets_no_command(self):
        serial = self._build("serial", "sharded:infinite", shards=2)
        parallel = self._build("shm", "sharded:infinite", shards=2)
        warm = uniform_events(200, sites=3, universe=10**6)
        serial.observe_batch(warm)
        with parallel:
            parallel.observe_batch(warm)  # adopts on both workers
            executor = parallel.executor
            bound, hasher = parallel.report_bound(), parallel.sampling_hasher
            keys = (
                key
                for key in range(10**6)
                if parallel.shard_of(key) == 0 and hasher.unit(key) < bound
            )
            batch = [(i % 3, next(keys)) for i in range(20)]
            posted = []
            post = executor._post

            def recording_post(worker, command, args):
                posted.append((executor._workers.index(worker), command))
                return post(worker, command, args)

            executor._post = recording_post
            serial.observe_batch(batch)
            parallel.observe_batch(batch)
            assert posted == [(0, "ingest_columns")]  # group 1 is worker 1's
            assert parallel.state_dict() == serial.state_dict()


def python_sort_merge(sampler: ShardedSampler):
    """The pre-cache reference merge: gather every group's sample pairs
    in group order and Python-sort by hash (stable, so ties keep the
    (group, in-group index) order).  The vectorized cold merge must be
    bit-identical to this."""
    pairs = [
        pair for group in sampler.groups for pair in group.sample().pairs
    ]
    pairs.sort(key=lambda pair: pair[0])  # repro-lint: disable=RPR008
    top = pairs[: sampler.sample_size]
    threshold = top[-1][0] if len(top) == sampler.sample_size else 1.0
    return tuple(top), threshold


class TestQueryPathCache:
    """The incremental query path: merge caching, shared syncs,
    deterministic tie-breaking, bit-identity to the reference merge."""

    def build(
        self, variant="sharded:infinite", window=0, executor="serial", workers=2
    ):
        kwargs = {} if executor == "serial" else {"workers": workers}
        variant, s = cell(variant, 8)
        return make_sampler(
            variant,
            num_sites=3,
            sample_size=s,
            window=window,
            shards=3,
            seed=SEED,
            executor=executor,
            **kwargs,
        )

    def test_repeated_queries_share_one_sync(self):
        """Regression: ``threshold`` used to force a full merge *and* an
        executor sync on every access."""
        sampler = self.build()
        sampler.observe_batch(uniform_events(2000, sites=3, universe=300))
        assert sampler.sync_count == 0
        first = sampler.sample()
        assert sampler.sync_count == 1
        for _ in range(50):
            sampler.threshold
            sampler.sample()
            sampler.stats()
            sampler.message_stats()
        # 200 queries later: still the single post-ingest sync.
        assert sampler.sync_count == 1
        assert sampler.query_count == 201
        assert sampler.sample() is first

    def test_mutation_invalidates_the_cache(self):
        sampler = self.build()
        sampler.observe_batch(uniform_events(1000, sites=3, universe=500))
        before = sampler.sample()
        # Find an element that displaces the current maximum hash.
        sampler.observe_batch(
            uniform_events(1000, sites=3, universe=500, seed=SEED + 7)
        )
        after = sampler.sample()
        assert sampler.sync_count == 2
        assert after is not before
        assert after.pairs == python_sort_merge(sampler)[0]

    def test_invalidate_merge_cache_recomputes_identically(self):
        sampler = self.build()
        sampler.observe_batch(uniform_events(1500, sites=3, universe=400))
        cached = sampler.sample()
        sampler.invalidate_merge_cache()
        recomputed = sampler.sample()
        assert recomputed is not cached
        assert recomputed == cached
        # The forced recompute shared the existing sync.
        assert sampler.sync_count == 1

    def test_colliding_hashes_break_ties_by_group_then_index(self):
        """Equal hashes across groups must order by (hash, group,
        in-group index) — the truncation boundary may not reorder them."""
        sampler = self.build()
        tied = 0.25
        # Same hash in every group, two entries in group 0; plus
        # distinct fillers on both sides of the tie.
        stores = [group.coordinator.sample_store for group in sampler.groups]
        stores[0].offer(0.1, "low0")
        stores[0].offer(tied, "g0-first")
        stores[0].offer(tied, "g0-second")
        stores[1].offer(tied, "g1")
        stores[2].offer(tied, "g2")
        stores[2].offer(0.9, "high2")
        result = sampler.sample()
        assert result.pairs == (
            (0.1, "low0"),
            (tied, "g0-first"),
            (tied, "g0-second"),
            (tied, "g1"),
            (tied, "g2"),
            (0.9, "high2"),
        )
        # The same order must survive a truncating merge (size > s):
        # ties straddling the argpartition pivot stay in group order.
        small = make_sampler(
            "sharded:infinite", num_sites=2, sample_size=3, shards=3, seed=SEED
        )
        for shard, store in enumerate(
            group.coordinator.sample_store for group in small.groups
        ):
            store.offer(tied, f"tied-{shard}")
            store.offer(0.5 + shard / 10, f"filler-{shard}")
        assert small.sample().pairs == (
            (tied, "tied-0"),
            (tied, "tied-1"),
            (tied, "tied-2"),
        )

    @pytest.mark.parametrize(
        "executor,workers",
        [
            pytest.param("serial", 0, id="serial"),
            pytest.param("shm", 2, id="shm"),
            # Three groups on one worker, and on four workers (one idle):
            # the collected states must still merge in group order.
            pytest.param("shm", 1, id="shm-w1"),
            pytest.param("shm", 4, id="shm-w4"),
        ],
    )
    @pytest.mark.parametrize(
        "variant,window",
        [
            ("sharded:infinite", 0),
            ("sharded:broadcast", 0),
            ("sharded:caching", 0),
            ("sharded:sliding", 10),
            ("sharded:sliding+s1", 10),
            ("sharded:sliding-local-push", 10),
        ],
    )
    def test_vectorized_merge_is_bit_identical_to_reference(
        self, variant, window, executor, workers
    ):
        """Acceptance gate: the cached/vectorized merge reproduces the
        Python-sort reference merge bit-for-bit on every sharded variant
        under every execution backend and worker count."""
        sampler = self.build(variant, window, executor, workers)
        if window:
            events = [
                (site, item, slot)
                for slot, arrivals in slotted_schedule(
                    25, 5, sites=3, universe=80
                )
                for site, item in arrivals
            ]
            cut = len(events) // 2
            sampler.observe_batch(events[:cut])
            mid = sampler.sample()
            assert mid.pairs == python_sort_merge(sampler)[0]
            sampler.observe_batch(events[cut:])
        else:
            sampler.observe_batch(uniform_events(2000, sites=3, universe=250))
        result = sampler.sample()
        expected_pairs, expected_threshold = python_sort_merge(sampler)
        assert result.pairs == expected_pairs
        assert result.threshold == expected_threshold
        assert result.items == tuple(item for _, item in expected_pairs)
        assert sampler.sample() is result  # cache holds under queries
        sampler.close()

    def test_underfull_merge_threshold_is_one(self):
        sampler = self.build()
        sampler.observe(0, 101)
        sampler.observe(1, 202)
        result = sampler.sample()
        assert len(result.pairs) == 2
        assert result.threshold == 1.0

    def test_snapshot_restore_resets_the_cache(self):
        sampler = self.build()
        sampler.observe_batch(uniform_events(800, sites=3, universe=200))
        blob = snapshot(sampler)
        baseline = sampler.sample()
        clone = restore(blob)
        assert clone.sample() == baseline
        assert clone.sample().pairs == python_sort_merge(clone)[0]


@pytest.mark.speedup
class TestQueryPathSpeedup:
    """Query-side acceptance gates (single-threaded wall-clock — no
    core-count requirement): the merge cache must be >= 10x a cold
    merge, and the vectorized cold merge >= 2x the Python-sort
    reference at S=4, s=256."""

    def _loaded_sampler(self):
        sampler = make_sampler(
            "sharded:infinite",
            num_sites=4,
            sample_size=256,
            shards=4,
            algorithm="mix64",
            seed=SEED,
        )
        sampler.observe_batch(uniform_events(60_000, sites=4, universe=30_000))
        return sampler

    @staticmethod
    def _per_call(calls, fn):
        """A timing side for :func:`~repro.perf.paired_speedup`: the mean
        seconds per call over ``calls`` calls."""

        def timed():
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            return (time.perf_counter() - started) / calls

        return timed

    def test_cached_query_is_10x_cold(self):
        sampler = self._loaded_sampler()
        sampler.sample()

        def cold():
            sampler.invalidate_merge_cache()
            sampler.sample()

        cold_side = self._per_call(20, cold)
        cached_side = self._per_call(200, sampler.sample)
        speedup = paired_speedup(cold_side, cached_side)
        assert speedup >= 10.0, f"cached query only {speedup:.1f}x cold"

    def test_vectorized_cold_merge_is_2x_python_sort(self):
        sampler = self._loaded_sampler()
        sampler.sample()  # sync once; both merges time pure merge cost

        def vectorized():
            sampler.invalidate_merge_cache()
            sampler.sample()

        def reference():
            python_sort_merge(sampler)

        # Nine pairs, not five: the measured ratio sits near 2.3x, and
        # with five pairs the median still fell below 2.0 once in 60 runs.
        speedup = paired_speedup(
            self._per_call(20, reference), self._per_call(20, vectorized), pairs=9
        )
        assert speedup >= 2.0, (
            f"vectorized merge only {speedup:.2f}x the Python-sort reference"
        )


@pytest.mark.speedup
class TestShardedScaleOut:
    """The scale-out acceptance gate: ingest throughput along the critical
    path (the slowest coordinator group — groups run on independent
    hardware in the deployment the simulation models) must scale >= 1.5x
    from S=1 to S=4 on the uniform workload."""

    def test_critical_path_throughput_scales(self):
        n = 100_000
        rng = np.random.default_rng(SEED)
        events = list(
            zip(
                rng.integers(0, 8, n).tolist(),
                rng.integers(0, n // 4, n).tolist(),
            )
        )

        def critical_seconds(shards: int) -> float:
            sampler = make_sampler(
                "sharded:infinite",
                num_sites=8,
                sample_size=16,
                shards=shards,
                algorithm="mix64",
                seed=1,
            )
            started = time.perf_counter()
            sampler.observe_batch(events)
            assert time.perf_counter() > started  # ingest really ran
            return sampler.critical_path_seconds

        # Interleaved pairs, so machine-load drift hits both shapes.  GC
        # stays off during timing: the critical path is a max over S
        # windows, so a collection pause landing in any one of them would
        # inflate it far more than the single-group run.
        scaling = paired_speedup(
            lambda: critical_seconds(1), lambda: critical_seconds(4)
        )
        assert scaling >= 1.5, (
            f"critical-path throughput scaled only {scaling:.2f}x "
            "from S=1 to S=4"
        )
