"""Unit tests for the columnar EventBatch and its pipeline plumbing:
construction gates, hash-column caching/slicing, slot-run grouping,
Engine columnar routing, and the columnar stream emitters."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import EventBatch, make_sampler
from repro.errors import ConfigurationError
from repro.hashing.unit import UnitHasher
from repro.runtime.engine import Engine
from repro.streams.bursty import bursty_batch
from repro.streams.partition import HashDistributor
from repro.streams.slotted import SlottedArrivals
from repro.streams.synthetic import calibrated_stream, dealt_batch


class TestConstruction:
    def test_columns_and_len(self):
        batch = EventBatch([3, 1, 2], sites=[0, 1, 0], slots=[1, 1, 2])
        assert len(batch) == 3
        assert batch.items.dtype == np.int64
        assert batch.sites.tolist() == [0, 1, 0]
        assert batch.slots.tolist() == [1, 1, 2]

    def test_smaller_int_dtypes_widen(self):
        batch = EventBatch(np.array([1, 2], dtype=np.int32))
        assert batch.items.dtype == np.int64

    def test_float_column_is_rejected_never_truncated(self):
        with pytest.raises(ConfigurationError, match="integer"):
            EventBatch(np.array([1.5, 2.0]))

    def test_bool_column_is_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            EventBatch(np.array([True, False]))

    def test_out_of_int64_values_are_rejected_never_wrapped(self):
        # A Python list of out-of-int64 ints becomes an object column
        # holding the exact ints (np.asarray([2**63]) would infer uint64
        # and a silent astype would wrap it negative).
        for huge in (2**63, 2**70, -(2**63) - 1):
            batch = EventBatch([huge, 5])
            assert batch.items.dtype == object
            assert batch.items_list() == [huge, 5]
        # NumPy arrays are never boxed: uint64 overflow is rejected.
        with pytest.raises(ConfigurationError, match="int64 range"):
            EventBatch(np.array([2**64 - 1], dtype=np.uint64))
        # In-range unsigned values widen losslessly.
        assert EventBatch(
            np.array([1, 2], dtype=np.uint32)
        ).items.tolist() == [1, 2]

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            EventBatch(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ConfigurationError, match="rows"):
            EventBatch([1, 2, 3], sites=[0, 1])
        with pytest.raises(ConfigurationError, match="rows"):
            EventBatch([1, 2, 3], slots=[1])

    def test_equality_ignores_hash_cache(self):
        a = EventBatch([1, 2], sites=[0, 1])
        b = EventBatch([1, 2], sites=[0, 1])
        a.hash_column(UnitHasher(0, "mix64"))
        assert a == b
        assert a != EventBatch([1, 2])  # site column presence differs
        assert a != EventBatch([2, 1], sites=[0, 1])

    def test_round_trip_through_tuples(self):
        events = [(0, 5, 1), (1, 7, 1), (0, 5, 2)]
        assert EventBatch.from_events(events).to_events() == events
        flat = [(0, 5), (1, 7)]
        assert EventBatch.from_events(flat).to_events() == flat
        assert EventBatch.from_events(iter(flat)).to_events() == flat

    @pytest.mark.parametrize("slot", [2.5, 2.0, np.float64(2.0), "2", True, None])
    def test_from_events_refuses_non_integer_slots(self, slot):
        # np.array(..., dtype=np.int64) truncated 2.5 to slot 2.
        for events in ([(0, 5, slot)], [(0, 5, 1), (1, 6, slot)], [(0, 5), (1, 6, slot)]):
            with pytest.raises(ConfigurationError, match="is not an integer"):
                EventBatch.from_events(events)

    def test_from_events_takes_numpy_integer_slots(self):
        events = [(0, 5, np.int64(1)), (1, 7, np.uint16(2))]
        assert EventBatch.from_events(events).to_events() == [(0, 5, 1), (1, 7, 2)]

    def test_from_events_empty(self):
        batch = EventBatch.from_events([])
        assert len(batch) == 0
        assert list(batch.slot_runs()) == [(None, batch)]


class TestObjectColumns:
    """Items that are not all plain int64-range ints become a 1-D object
    column holding the elements exactly as given."""

    def test_equal_length_tuples_stay_one_dimensional(self):
        pairs = [("10.0.0.1", "10.0.0.2"), ("10.0.0.3", "10.0.0.4")]
        # The trap: np.array(..., dtype=object) builds a (2, 2) array.
        assert np.array(pairs, dtype=object).shape == (2, 2)
        batch = EventBatch(pairs, sites=[0, 1])
        assert batch.items.dtype == object
        assert batch.items.shape == (2,)
        assert batch.items_list() == pairs
        assert EventBatch.from_events([(0, (1, 2)), (1, (3, 4))]).items.shape == (2,)

    def test_bools_stay_distinct_from_ints(self):
        batch = EventBatch([True, 1, False, 0], sites=[0, 0, 1, 1])
        assert batch.items.dtype == object
        assert [type(item) for item in batch.items_list()] == [bool, int, bool, int]
        hasher = UnitHasher(3, "mix64")
        assert batch.hash_column(hasher).tolist() == [
            hasher.unit(item) for item in [True, 1, False, 0]
        ]
        # The same-slot dedup keeps first occurrences under Python
        # equality, as dict.fromkeys does: True repeats 1.
        assert batch.first_occurrence_indices().tolist() == [0, 2]
        # Derived and revived batches keep the bools as bools.
        for derived in (
            batch.select(np.array([0, 2])),
            batch.with_sites([1, 1, 1, 1]),
            next(EventBatch([True, 1], [0, 0], [5, 5]).slot_runs())[1],
            pickle.loads(pickle.dumps(batch)),
        ):
            assert derived.items_list()[0] is True

    def test_plain_int_sequences_stay_int64(self):
        assert EventBatch([1, -5, 2**63 - 1]).items.dtype == np.int64
        assert EventBatch(iter([3, 4])).items.dtype == np.int64
        assert EventBatch([]).items.dtype == np.int64
        # np.integer scalars are not plain ints (mix64 rejects them).
        assert EventBatch([np.int64(3)]).items.dtype == object

    def test_mix64_rejects_non_integers_like_the_scalar_path(self):
        batch = EventBatch(["alice", 5], sites=[0, 1])
        with pytest.raises(TypeError, match="integer elements only"):
            batch.hash_column(UnitHasher(0, "mix64"))
        hasher = UnitHasher(0, "murmur2")
        assert batch.hash_column(hasher).tolist() == [
            hasher.unit("alice"),
            hasher.unit(5),
        ]

    def test_derived_batches_keep_the_column_without_a_rescan(self):
        items = ["alice", 2**80, (1, 2), "bob", 7, 8]
        batch = EventBatch(items, sites=[0, 1, 0, 1, 0, 1], slots=[1, 1, 2, 2, 3, 3])
        hasher = UnitHasher(4, "murmur2")
        column = batch.hash_column(hasher)
        # Rows 4 and 5 are plain ints, but a derived batch never rescans:
        # it stays an object column and slices the cached hashes.
        sub = batch.select(np.array([4, 5]))
        assert sub.items.dtype == object
        assert sub.items_list() == [7, 8]
        assert sub.hash_column(hasher).tolist() == column[[4, 5]].tolist()
        runs = list(batch.slot_runs())
        assert [slot for slot, _ in runs] == [1, 2, 3]
        assert [run.items_list() for _, run in runs] == [
            ["alice", 2**80], [(1, 2), "bob"], [7, 8]
        ]
        assert all(run.items.dtype == object for _, run in runs)
        raw = EventBatch(items)
        routed = raw.with_sites([0] * 6)
        assert routed.items is raw.items
        revived = pickle.loads(pickle.dumps(batch))
        assert revived == batch
        assert revived.items.dtype == object
        assert revived.items_list() == items


class TestHashColumns:
    @pytest.mark.parametrize("algorithm", ["mix64", "murmur2", "murmur3"])
    def test_matches_scalar_hasher(self, algorithm):
        hasher = UnitHasher(42, algorithm)
        items = [5, 0, 123456, 5]
        batch = EventBatch(items, sites=[0] * 4)
        assert batch.hash_column(hasher).tolist() == [
            hasher.unit(item) for item in items
        ]

    def test_column_is_computed_once_per_hasher(self):
        batch = EventBatch([1, 2, 3], sites=[0, 0, 0])
        a = batch.hash_column(UnitHasher(1, "mix64"))
        assert batch.hash_column(UnitHasher(1, "mix64")) is a
        b = batch.hash_column(UnitHasher(2, "mix64"))
        assert b is not a  # distinct layer seeds get distinct columns

    def test_with_sites_shares_the_cache(self):
        raw = EventBatch([1, 2, 3])
        column = raw.hash_column(UnitHasher(7, "mix64"))
        routed = raw.with_sites([0, 1, 0])
        assert routed.hash_column(UnitHasher(7, "mix64")) is column

    def test_select_slices_cached_columns(self):
        batch = EventBatch([10, 20, 30, 40], sites=[0, 1, 0, 1])
        hasher = UnitHasher(3, "mix64")
        column = batch.hash_column(hasher)
        sub = batch.select(np.array([1, 3]))
        assert sub.items.tolist() == [20, 40]
        assert sub.sites.tolist() == [1, 1]
        assert sub.hash_column(hasher).tolist() == column[[1, 3]].tolist()

    def test_first_occurrence_indices(self):
        batch = EventBatch(
            [5, 5, 7, 5, 5], sites=[0, 0, 0, 1, 0]
        )
        # (0,5) first at 0, (0,7) at 2, (1,5) at 3; repeats at 1 and 4 drop.
        assert batch.first_occurrence_indices().tolist() == [0, 2, 3]

    def test_pickle_ships_columns_but_drops_hash_caches(self):
        # A pickled batch (deepcopy, snapshot tooling) must round-trip
        # its defining columns exactly while derived hash caches are
        # recomputed on the receiving side.
        import pickle

        batch = EventBatch([1, 2, 3], sites=[0, 1, 0], slots=[1, 1, 2])
        hasher = UnitHasher(7, "mix64")
        column = batch.hash_column(hasher)
        revived = pickle.loads(pickle.dumps(batch))
        assert revived == batch
        assert not revived._hash_columns
        assert revived.hash_column(hasher).tolist() == column.tolist()


class TestSlotRuns:
    def test_groups_consecutive_equal_slots(self):
        batch = EventBatch(
            [1, 2, 3, 4, 5],
            sites=[0, 1, 0, 1, 0],
            slots=[1, 1, 2, 2, 4],
        )
        runs = list(batch.slot_runs())
        assert [slot for slot, _ in runs] == [1, 2, 4]
        assert [run.items.tolist() for _, run in runs] == [[1, 2], [3, 4], [5]]
        assert all(run.slots is None for _, run in runs)

    def test_runs_slice_cached_hash_columns(self):
        batch = EventBatch([1, 2, 3], sites=[0, 0, 0], slots=[1, 1, 2])
        hasher = UnitHasher(0, "mix64")
        column = batch.hash_column(hasher)
        (_, first), (_, second) = batch.slot_runs()
        assert first.hash_column(hasher).tolist() == column[:2].tolist()
        assert second.hash_column(hasher).tolist() == column[2:].tolist()

    def test_slotless_batch_is_one_run(self):
        batch = EventBatch([1, 2], sites=[0, 1])
        assert list(batch.slot_runs()) == [(None, batch)]


class TestEngineColumnar:
    @pytest.mark.parametrize("policy", ["hash", "round-robin"])
    @pytest.mark.parametrize("algorithm", ["mix64", "murmur2"])
    def test_routing_matches_tuple_path(self, policy, algorithm):
        items = np.random.default_rng(9).integers(0, 60, 400)

        def build():
            sampler = make_sampler(
                "infinite", num_sites=5, sample_size=8, algorithm=algorithm
            )
            return sampler, Engine(sampler, policy=policy, seed=3)

        tupled, tuple_engine = build()
        columnar, columnar_engine = build()
        tuple_engine.observe_batch(items.tolist())
        assert columnar_engine.observe_batch(EventBatch(items)) == items.size
        assert tupled.sample() == columnar.sample()
        assert tupled.stats() == columnar.stats()
        assert tupled.state_dict() == columnar.state_dict()

    def test_round_robin_position_carries_across_batches(self):
        sampler = make_sampler("infinite", num_sites=3, sample_size=4)
        engine = Engine(sampler, policy="round-robin")
        engine.observe_batch(EventBatch([10, 11]))
        assert engine.site_for(12) == 2  # position advanced by 2

    def test_explicit_policy_requires_a_site_column(self):
        sampler = make_sampler("infinite", num_sites=2, sample_size=2)
        engine = Engine(sampler, policy="explicit")
        with pytest.raises(ConfigurationError, match="no site column"):
            engine.observe_batch(EventBatch([1, 2]))

    def test_slot_kwarg_advances_before_delivery(self):
        sampler = make_sampler("sliding", num_sites=2, window=8)
        engine = Engine(sampler, policy="hash", seed=1)
        engine.observe_batch(EventBatch([1, 2]), slot=3)
        assert sampler.current_slot == 3

    def test_distributor_batch_assignments_match_scalar(self):
        distributor = HashDistributor(4, seed=11, algorithm="mix64")
        items = list(range(100))
        for batch in (EventBatch(items), EventBatch(np.array(items))):
            assert distributor.assignments_for_batch(batch).tolist() == [
                distributor.assign_one(item) for item in items
            ]

    def test_distributor_accepts_object_columns(self):
        distributor = HashDistributor(3, seed=2)
        items = ("alice", ("bob", 1), 2**80, *range(20))
        batch = EventBatch(items)
        assert batch.items.dtype == object
        assert distributor.assignments_for_batch(batch).tolist() == [
            distributor.assign_one(item) for item in items
        ]


class TestStreamEmitters:
    def test_dealt_batch_matches_tuple_dealing(self):
        elements = calibrated_stream(200, 50, 1.1, np.random.default_rng(4))
        batch = dealt_batch(elements, 6, np.random.default_rng(5))
        sites = np.random.default_rng(5).integers(0, 6, elements.size)
        assert batch.items.tolist() == elements.tolist()
        assert batch.sites.tolist() == sites.tolist()
        with pytest.raises(Exception):
            dealt_batch(elements, 0, np.random.default_rng(5))

    def test_bursty_batch_matches_stream_then_deal(self):
        from repro.streams.bursty import bursty_stream

        batch = bursty_batch(300, 40, 1.1, 4.0, 5, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        stream = bursty_stream(300, 40, 1.1, 4.0, rng)
        assert batch.items.tolist() == stream.tolist()
        assert batch.sites.tolist() == rng.integers(0, 5, 300).tolist()

    def test_bench_scenario_batch_covers_tuple_and_raw_scenarios(self):
        import importlib.util
        import pathlib

        spec = importlib.util.spec_from_file_location(
            "bench_conftest",
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "conftest.py",
        )
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)
        dealt = conftest.scenario_batch("uniform", 100, 3)
        assert dealt == EventBatch.from_events(
            conftest.scenario_events("uniform", 100, 3)
        )
        raw = conftest.scenario_batch("sharded-uniform", 100, 3)
        assert raw.sites is None
        assert raw.items.tolist() == conftest.scenario_events(
            "sharded-uniform", 100, 3
        )

    def test_empty_slotted_schedule_yields_empty_batch(self):
        schedule = SlottedArrivals([], 3, 5, np.random.default_rng(0))
        batch = schedule.event_batch()
        assert len(batch) == 0
        sampler = make_sampler("sliding", num_sites=3, window=4)
        assert sampler.observe_batch(batch) == 0

    def test_slotted_event_batch_equals_slot_loop(self):
        rng = np.random.default_rng(3)
        schedule = SlottedArrivals(list(range(23)), 4, 5, rng)
        batch = schedule.event_batch()
        sampler_loop = make_sampler("sliding", num_sites=4, window=6)
        sampler_batch = make_sampler("sliding", num_sites=4, window=6)
        for slot, arrivals in schedule.slots():
            sampler_loop.advance(slot)
            sampler_loop.observe_batch(arrivals)
        sampler_batch.observe_batch(batch)
        assert sampler_loop.sample() == sampler_batch.sample()
        assert sampler_loop.stats() == sampler_batch.stats()
        assert sampler_loop.state_dict() == sampler_batch.state_dict()

    def test_slotted_event_batch_carries_exotic_elements(self):
        elements = [f"user-{i % 9}" for i in range(23)]
        schedule = SlottedArrivals(elements, 4, 5, np.random.default_rng(3))
        batch = schedule.event_batch()
        assert batch.items.dtype == object
        sampler_loop = make_sampler("sliding", num_sites=4, window=6)
        sampler_batch = make_sampler("sliding", num_sites=4, window=6)
        for slot, arrivals in schedule.slots():
            sampler_loop.advance(slot)
            for site, element in arrivals:
                sampler_loop.observe(site, element)
        sampler_batch.observe_batch(batch)
        assert sampler_loop.state_dict() == sampler_batch.state_dict()
