"""The silent-row filter: ``report_bound`` and ``reportable_rows``.

An infinite-family site reports an arrival only if its hash is below the
site's threshold ``u_i``, and no ``u_i`` rises within a batch.  So the
Engine (and a sharded sampler fed an already-routed batch) may drop every
row hashing at or above ``max_i u_i`` before routing it.  These tests pin
that the drop is invisible: every read, counter and the Engine's
round-robin position match a loop of single ``Engine.observe`` calls.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Engine, EventBatch, make_sampler
from repro.netsim.chaos import ChaosNetwork
from repro.netsim.delayed import DelayedNetwork
from repro.runtime.executor import SharedMemoryExecutor
from repro.streams.partition import HashDistributor

BOTTOM_S = ("infinite", "broadcast", "caching")
SHARDED = tuple(f"sharded:{name}" for name in BOTTOM_S)


@pytest.fixture(scope="module")
def shm_executor():
    """One W=2 shm executor shared by the module's shm samplers."""
    executor = SharedMemoryExecutor(workers=2)
    yield executor
    executor.close()


def build(variant, executor=None, **overrides):
    kwargs = {"num_sites": 3, "sample_size": 4, "seed": 7, "algorithm": "mix64"}
    if variant.startswith("sharded:"):
        kwargs["shards"] = 2
    kwargs.update(overrides)
    sampler = make_sampler(variant, **kwargs)
    if executor is not None:
        sampler.executor = executor
    return sampler


def key_batches(seed, count=5, size=400, universe=5000):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, universe, size) for _ in range(count)]


def silent_keys(sampler, count=50):
    """Keys hashing at or above the sampler's report bound."""
    bound = sampler.report_bound()
    hasher = sampler.sampling_hasher
    keys = (key for key in range(10**6) if hasher.unit(key) >= bound)
    return [next(keys) for _ in range(count)]


def everything(sampler, engine):
    """Every read the filter must leave unchanged, JSON-comparable."""
    stats = sampler.message_stats()
    return json.dumps(
        {
            "sample": [list(pair) for pair in sampler.sample().pairs],
            "stats": repr(sampler.stats()),
            "state": sampler.state_dict(),
            "messages": sorted(
                (kind.name, count) for kind, count in stats.by_kind.items()
            ),
            "position": engine._position,
        },
        sort_keys=True,
    )


#: Reads taken between batches: a load (``stats``) leaves the parent's
#: shm group copies fresh, a fetch (``sample``/``state_dict``) leaves them
#: stale, so later bounds come from both kinds of copy.
BETWEEN = (
    lambda sampler: sampler.stats(),
    lambda sampler: sampler.sample(),
    lambda sampler: sampler.state_dict(),
    lambda sampler: sampler.sample().threshold,
)


class TestFilterIsInvisible:
    @pytest.mark.parametrize("policy", ["hash", "round-robin", "explicit"])
    @pytest.mark.parametrize(
        "variant,executor",
        [(name, "serial") for name in BOTTOM_S + SHARDED]
        + [(name, "shm") for name in SHARDED],
    )
    def test_batch_equals_single_observe_loop(
        self, variant, executor, policy, shm_executor
    ):
        reference = build(variant)
        subject = build(variant, shm_executor if executor == "shm" else None)
        single = Engine(reference, policy=policy, seed=3)
        batched = Engine(subject, policy=policy, seed=3)
        rng = np.random.default_rng(11)
        for keys, read in zip(key_batches(5), BETWEEN + BETWEEN):
            if policy == "explicit":
                sites = rng.integers(0, 3, keys.size)
                for event in zip(sites.tolist(), keys.tolist()):
                    single.observe(event)
                assert batched.observe_batch(EventBatch(keys, sites)) == keys.size
            else:
                for key in keys.tolist():
                    single.observe(key)
                assert batched.observe_batch(EventBatch(keys)) == keys.size
            assert read(subject) == read(reference)
            assert subject.report_bound() < 1.0  # the next batch is filtered
        assert everything(subject, batched) == everything(reference, single)

    def test_stale_shm_bound_is_still_exact(self, shm_executor):
        serial = build("sharded:infinite")
        parallel = build("sharded:infinite", shm_executor)
        engines = [Engine(sampler, policy="hash", seed=3) for sampler in (serial, parallel)]
        first, second, third = key_batches(8, count=3)
        for engine in engines:
            engine.observe_batch(EventBatch(first))
        parallel.stats()  # loads the workers' groups into the parent
        for engine in engines:
            engine.observe_batch(EventBatch(second))
        parallel.sample()  # fetches, but leaves the parent's copies as they were
        stale = [site.u_local for group in parallel._groups for site in group.sites]
        fresh = [site.u_local for group in serial._groups for site in group.sites]
        assert all(old >= new for old, new in zip(stale, fresh))
        assert stale != fresh
        # The workers' replies carry their live bounds past the stale copies.
        assert parallel.report_bound() == serial.report_bound()
        for engine in engines:
            engine.observe_batch(EventBatch(third))
        assert everything(parallel, engines[1]) == everything(serial, engines[0])


    @pytest.mark.parametrize("transport", [DelayedNetwork, ChaosNetwork])
    @pytest.mark.parametrize("variant", ["caching", "sharded:infinite"])
    def test_queued_replies_keep_the_filter_exact(self, variant, transport):
        # Replies land only at pump(), between batches, so a bound read
        # at batch start still holds for the whole batch; a reordered
        # chaos reply may raise a threshold, but only at the next pump.
        def drive(batched):
            sampler = build(variant)
            groups = sampler.groups if variant.startswith("sharded:") else [sampler]
            rng = np.random.default_rng(4)
            networks = [
                transport.rewire(group, rng=np.random.default_rng(i))
                if transport is DelayedNetwork
                else transport.rewire(
                    group, rng=np.random.default_rng(i), duplicate=0.2,
                    reorder=0.3, seed=i,
                )
                for i, group in enumerate(groups)
            ]
            engine = Engine(sampler, policy="hash", seed=3)
            for keys in key_batches(12, count=6, size=300):
                if batched:
                    engine.observe_batch(EventBatch(keys))
                else:
                    for key in keys.tolist():
                        engine.observe(key)
                for network in networks:
                    network.pump()
            return everything(sampler, engine)

        assert drive(batched=True) == drive(batched=False)


class TestStampedBatches:
    @pytest.mark.parametrize("variant", ["infinite", "sharded:infinite"])
    def test_stamped_batch_advances_through_every_slot(self, variant):
        reference, subject = build(variant), build(variant)
        single = Engine(reference, policy="hash", seed=3)
        batched = Engine(subject, policy="hash", seed=3)
        warm = key_batches(2, count=1)[0]
        for key in warm.tolist():
            single.observe(key)
        batched.observe_batch(EventBatch(warm))
        silent = silent_keys(subject, 8)
        slots = [5, 5, 6, 6, 6, 7, 9, 9]
        for key, slot in zip(silent, slots):
            single.observe(key, slot=slot)
        batched.observe_batch(EventBatch(silent, slots=slots))
        assert subject.stats().slots_processed == 4
        assert subject.current_slot == 9
        assert everything(subject, batched) == everything(reference, single)

    def test_routed_stamped_batch_is_not_filtered(self):
        reference, subject = build("sharded:infinite"), build("sharded:infinite")
        warm = [(i % 3, key) for i, key in enumerate(key_batches(2, count=1)[0].tolist())]
        reference.observe_batch(warm)
        subject.observe_batch(warm)
        silent = silent_keys(subject, 6)
        slots = [1, 2, 2, 3, 4, 4]
        events = [(0, key, slot) for key, slot in zip(silent, slots)]
        for event in events:
            reference.observe(event[0], event[1], slot=event[2])
        assert subject.observe_batch(events) == len(events)
        assert subject.stats().slots_processed == 4
        assert subject.state_dict() == reference.state_dict()


class TestSilentBatch:
    @pytest.mark.parametrize("policy", ["hash", "round-robin", "explicit"])
    def test_silent_batch_changes_nothing(self, policy):
        sampler = build("sharded:infinite")
        engine = Engine(sampler, policy=policy, seed=3)
        warm = key_batches(4, count=1)[0]
        sites = np.arange(warm.size) % 3
        if policy == "explicit":
            engine.observe_batch(EventBatch(warm, sites))
        else:
            engine.observe_batch(EventBatch(warm))
        first = sampler.sample()
        generations = list(sampler._group_generation)
        position = engine._position
        silent = silent_keys(sampler)
        batch = (
            EventBatch(silent, np.zeros(len(silent), dtype=np.int64))
            if policy == "explicit"
            else EventBatch(silent)
        )
        assert engine.observe_batch(batch) == len(silent)
        assert sampler._group_generation == generations
        assert sampler.sample() is first
        expected = position if policy == "explicit" else position + len(silent)
        assert engine._position == expected

    def test_round_robin_keeps_original_positions(self):
        # A kept row lands on the site of its place in the whole batch.
        reference, subject = build("infinite"), build("infinite")
        single = Engine(reference, policy="round-robin")
        batched = Engine(subject, policy="round-robin")
        for keys in key_batches(6, count=3, size=301):
            for key in keys.tolist():
                single.observe(key)
            batched.observe_batch(keys.tolist())
            assert batched._position == single._position
            assert subject.state_dict() == reference.state_dict()


class TestWorkCount:
    def test_routing_sees_only_candidate_rows(self, monkeypatch):
        """On a warmed ``sharded:infinite`` (the ``ingest-bulk`` shape),
        the Engine router and the shard router see at most 5% of the
        ingested rows, where routing every row costs 200%."""
        routed = [0]
        original = HashDistributor.assignments_for_batch

        def counting(self, batch):
            routed[0] += len(batch)
            return original(self, batch)

        sampler = make_sampler(
            "sharded:infinite",
            num_sites=8,
            sample_size=64,
            shards=4,
            seed=2015,
            algorithm="mix64",
        )
        engine = Engine(sampler, policy="hash", seed=2015)
        rng = np.random.default_rng(31)

        def ingest(steps):
            for _ in range(steps):
                engine.observe_batch(
                    EventBatch(rng.integers(0, 4_000_000, 16_384, dtype=np.int64))
                )
            return steps * 16_384

        ingest(8)
        monkeypatch.setattr(HashDistributor, "assignments_for_batch", counting)
        ingested = ingest(8)
        assert routed[0] <= 0.05 * ingested, (
            f"routed {routed[0]} rows of {ingested}"
        )

    def test_shm_routes_what_serial_routes_after_a_restore(self, monkeypatch):
        """The ``serve-mixed`` shape: an S=2 state loaded into S=4
        samplers, whose fresh groups report everything.  Read only
        through ``sample()``, the shm sampler's filter must still see the
        workers' live bounds, so the Engine router and the shard router
        see as many rows per batch as on the serial backend."""
        config = {"num_sites": 8, "sample_size": 32, "seed": 2015, "algorithm": "mix64"}
        source = make_sampler("sharded:infinite", shards=2, **config)
        feed = Engine(source, policy="hash", seed=2015)
        rng = np.random.default_rng(17)
        for _ in range(8):
            feed.observe_batch(EventBatch(rng.integers(0, 4_000_000, 2048)))
        state = json.loads(json.dumps(source.state_dict()))
        routed = [0]
        original = HashDistributor.assignments_for_batch

        def counting(self, batch):
            routed[0] += len(batch)
            return original(self, batch)

        monkeypatch.setattr(HashDistributor, "assignments_for_batch", counting)
        per_backend = {}
        for executor, workers in (("serial", 0), ("shm", 2)):
            sampler = make_sampler(
                "sharded:infinite", shards=4, executor=executor, workers=workers, **config
            )
            sampler.load_state(state)
            engine = Engine(sampler, policy="hash", seed=2015)
            keys = np.random.default_rng(18)
            counts = []
            with sampler:
                for _ in range(12):
                    routed[0] = 0
                    engine.observe_batch(EventBatch(keys.integers(0, 4_000_000, 2048)))
                    counts.append(routed[0])
                    sampler.sample()
            per_backend[executor] = counts
        assert per_backend["shm"] == per_backend["serial"]
        assert sum(per_backend["serial"][1:]) < 2048  # the filter works


class TestErrors:
    @pytest.mark.parametrize("policy", ["hash", "round-robin"])
    @pytest.mark.parametrize("variant", ["infinite", "sharded:infinite"])
    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_mix64_rejects_strings_untouched(self, variant, policy, warm):
        sampler = build(variant)
        engine = Engine(sampler, policy=policy, seed=3)
        if warm:
            engine.observe_batch(EventBatch(key_batches(9, count=1)[0]))
            assert sampler.report_bound() < 1.0
        before = json.dumps(sampler.state_dict(), sort_keys=True)
        with pytest.raises(TypeError):
            engine.observe_batch(["a", "b", "c"])
        assert json.dumps(sampler.state_dict(), sort_keys=True) == before


class TestBounds:
    def test_bottom_s_bound_is_the_largest_site_threshold(self):
        sampler = build("caching")
        Engine(sampler, policy="hash").observe_batch(key_batches(1, count=1)[0])
        assert sampler.report_bound() == max(site.u_local for site in sampler.sites)

    def test_sharded_bound_is_the_largest_group_bound(self):
        sampler = build("sharded:broadcast")
        Engine(sampler, policy="hash").observe_batch(key_batches(1, count=1)[0])
        assert sampler.report_bound() == max(
            group.report_bound() for group in sampler.groups
        )

    @pytest.mark.parametrize(
        "variant,extra",
        [
            ("sliding", {"window": 4}),
            ("sliding-local-push", {"window": 4}),
            ("with-replacement", {}),
            ("with-replacement", {"window": 4}),
            ("sharded:sliding", {"window": 4}),
        ],
    )
    def test_variants_whose_arrivals_all_count_have_no_bound(self, variant, extra):
        sampler = build(variant, **extra)
        batch = EventBatch(key_batches(1, count=1)[0])
        assert sampler.report_bound() is None
        assert sampler.reportable_rows(batch) is None
