"""Batch/single/columnar ingestion equivalence, for every registered variant.

The columnar ingest path (bulk hashing, threshold pre-filtering,
same-slot dedup, per-copy delegation, array shard splits) must be
*invisible*: feeding N events through one ``observe_batch`` call has to
leave the sampler in exactly the state N single ``observe`` calls would
— same :class:`SampleResult`, same :class:`SamplerStats` (message counts
included), same full ``state_dict``.  An event list and an
:class:`~repro.core.events.EventBatch` take the same path, so the
contract is event list == ``EventBatch`` == single-observe.  These tests
pin all three legs for every variant in the registry, under both the
NumPy-vectorizable ``mix64`` hash and the scalar ``murmur2`` path, with
int64 and object item columns, and for the ``sharded:*`` variants on the
shm backend too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EventBatch, SamplerConfig, make_sampler, sampler_variants
from repro.core.events import CURRENT_SLOT
from repro.core.sliding_feedback import SlidingWindowBottomSFeedback
from repro.errors import ConfigurationError, ProtocolError
from repro.hashing import UnitHasher
from repro.netsim.chaos import ChaosNetwork
from repro.netsim.delayed import DelayedNetwork
from repro.runtime import SharedMemoryExecutor

#: One config per registered variant and per concrete facade flavour.
CONFIGS = {
    "infinite": SamplerConfig(variant="infinite", num_sites=3, sample_size=4),
    "broadcast": SamplerConfig(variant="broadcast", num_sites=3, sample_size=4),
    "caching": SamplerConfig(variant="caching", num_sites=3, sample_size=4),
    "sliding-s1": SamplerConfig(variant="sliding", num_sites=3, window=12),
    "sliding-s1-paper": SamplerConfig(
        variant="sliding", num_sites=3, window=12, coordinator_mode="paper"
    ),
    "sliding-s3": SamplerConfig(
        variant="sliding", num_sites=3, window=12, sample_size=3
    ),
    "sliding-s2": SamplerConfig(
        variant="sliding", num_sites=3, window=12, sample_size=2
    ),
    "sliding-local-push": SamplerConfig(
        variant="sliding-local-push", num_sites=3, window=12, sample_size=3
    ),
    "wr-infinite": SamplerConfig(
        variant="with-replacement", num_sites=3, sample_size=3
    ),
    "wr-sliding": SamplerConfig(
        variant="with-replacement", num_sites=3, window=12, sample_size=3
    ),
    # Sharded wrappers: the batch path additionally hash-partitions each
    # run across coordinator groups before the per-group fast paths run.
    "sharded-infinite": SamplerConfig(
        variant="sharded:infinite", num_sites=3, sample_size=4, shards=3
    ),
    "sharded-broadcast": SamplerConfig(
        variant="sharded:broadcast", num_sites=3, sample_size=4, shards=2
    ),
    "sharded-caching": SamplerConfig(
        variant="sharded:caching", num_sites=3, sample_size=4, shards=2
    ),
    "sharded-sliding-s1": SamplerConfig(
        variant="sharded:sliding", num_sites=3, window=12, shards=2
    ),
    "sharded-sliding-s3": SamplerConfig(
        variant="sharded:sliding",
        num_sites=3,
        window=12,
        sample_size=3,
        shards=2,
    ),
    "sharded-sliding-local-push": SamplerConfig(
        variant="sharded:sliding-local-push",
        num_sites=3,
        window=12,
        sample_size=3,
        shards=2,
    ),
}


def slotted_workload(n_slots: int = 40, sites: int = 3) -> list:
    """Deterministic slot-stamped events with plenty of repeats.

    Every slot delivers five events, deliberately including an exact
    same-site/same-element repeat (the case the dedup fast paths must
    prove silent) and cross-slot repeats from a small id universe.
    """
    events = []
    for slot in range(1, n_slots + 1):
        base = (slot * 13) % 23
        events.append(((slot * 7) % sites, base, slot))
        events.append(((slot * 7 + 1) % sites, (base + 5) % 23, slot))
        # exact duplicate of the first arrival, same site, same slot
        events.append(((slot * 7) % sites, base, slot))
        events.append(((slot + 2) % sites, (slot * 31) % 47, slot))
        events.append(((slot + 2) % sites, (slot * 31) % 47, slot))
    return events


def flat_workload(n: int = 200, sites: int = 3) -> list:
    """Unstamped 2-tuple events (infinite-window driving)."""
    return [((i * 5) % sites, (i * 17) % 37) for i in range(n)]


#: Elements an EventBatch boxes into an object column.  ``mix64`` hashes
#: integers only but takes bools (``True`` beside ``1``) and ints beyond
#: int64; ``murmur2`` takes strings and tuples but refuses bools.
EXOTIC_ELEMENTS = {
    "mix64": [2**80, True, 1, -(2**70), False, 0, 2**63, 11, 2**64 + 5],
    "murmur2": [
        "alice",
        ("10.0.0.1", "10.0.0.2"),
        2**80,
        "bob",
        ("10.0.0.3", "10.0.0.4"),
        -(2**70),
        "carol",
        ("10.0.0.1", "10.0.0.5"),
        7,
    ],
}


def exotic_workload(algorithm: str, n_slots: int = 30, sites: int = 3) -> list:
    """Slot-stamped events over object-column elements, with same-slot
    repeats (``True`` after ``1`` under ``mix64``) and cross-slot ones."""
    pool = EXOTIC_ELEMENTS[algorithm]
    events = []
    for slot in range(1, n_slots + 1):
        first = pool[(slot * 5) % len(pool)]
        events.append(((slot * 7) % sites, first, slot))
        events.append(((slot + 1) % sites, pool[(slot * 2) % len(pool)], slot))
        events.append(((slot * 7) % sites, first, slot))
        events.append(((slot + 2) % sites, pool[slot % len(pool)], slot))
    return events


@pytest.fixture(params=sorted(CONFIGS), ids=sorted(CONFIGS))
def config(request) -> SamplerConfig:
    return CONFIGS[request.param]


@pytest.fixture(scope="module")
def shared_shm():
    """One shm executor shared by every shm leg (worker start-up would
    otherwise dominate)."""
    executor = SharedMemoryExecutor(workers=2)
    yield executor
    executor.close()


@pytest.mark.parametrize("algorithm", ["mix64", "murmur2"])
class TestBatchSingleEquivalence:
    def _pair(self, config, algorithm):
        config = SamplerConfig(**{**config.to_dict(), "algorithm": algorithm})
        return make_sampler(config), make_sampler(config)

    def _trio(self, config, algorithm):
        config = SamplerConfig(**{**config.to_dict(), "algorithm": algorithm})
        return make_sampler(config), make_sampler(config), make_sampler(config)

    @staticmethod
    def _assert_all_equal(single, batched, columnar):
        for other in (batched, columnar):
            assert single.sample() == other.sample()
            assert single.sample().pairs == other.sample().pairs
            assert single.sample().threshold == other.sample().threshold
            assert single.stats() == other.stats()
            assert single.state_dict() == other.state_dict()

    def test_slotted_stream(self, config, algorithm):
        single, batched, columnar = self._trio(config, algorithm)
        events = slotted_workload()
        for site, item, slot in events:
            single.observe(site, item, slot=slot)
        assert batched.observe_batch(events) == len(events)
        assert columnar.observe_batch(EventBatch.from_events(events)) == len(
            events
        )
        self._assert_all_equal(single, batched, columnar)

    def test_flat_stream(self, config, algorithm):
        if config.window:
            pytest.skip("flat stream drives the infinite-window variants")
        single, batched, columnar = self._trio(config, algorithm)
        events = flat_workload()
        for site, item in events:
            single.observe(site, item)
        assert batched.observe_batch(events) == len(events)
        assert columnar.observe_batch(EventBatch.from_events(events)) == len(
            events
        )
        self._assert_all_equal(single, batched, columnar)

    def test_mixed_stamped_and_unstamped(self, config, algorithm):
        """2-tuples interleaved after slot stamps join the current slot."""
        single, batched = self._pair(config, algorithm)
        events = [
            (0, 3, 1),
            (1, 9),
            (2, 3),
            (0, 14, 2),
            (0, 14),
            (1, 21, 4),
            (2, 21),
        ]
        for event in events:
            if len(event) == 3:
                single.observe(event[0], event[1], slot=event[2])
            else:
                single.observe(event[0], event[1])
        assert batched.observe_batch(events) == len(events)
        assert single.sample() == batched.sample()
        assert single.stats() == batched.stats()
        assert single.state_dict() == batched.state_dict()

    def test_exotic_elements(self, config, algorithm):
        """Object item columns: list == EventBatch == single observe."""
        single, batched, columnar = self._trio(config, algorithm)
        events = exotic_workload(algorithm)
        for site, item, slot in events:
            single.observe(site, item, slot=slot)
        assert batched.observe_batch(events) == len(events)
        batch = EventBatch.from_events(events)
        assert batch.items.dtype == object
        assert columnar.observe_batch(batch) == len(events)
        self._assert_all_equal(single, batched, columnar)

    def test_incremental_batches_match_one_batch(self, config, algorithm):
        """Chunked observe_batch calls compose to the same state."""
        one, chunked = self._pair(config, algorithm)
        events = slotted_workload(n_slots=20)
        one.observe_batch(events)
        for start in range(0, len(events), 7):
            chunked.observe_batch(events[start : start + 7])
        assert one.sample() == chunked.sample()
        assert one.stats() == chunked.stats()
        assert one.state_dict() == chunked.state_dict()

    def test_incremental_columnar_batches_compose(self, config, algorithm):
        """Chunked EventBatch ingestion composes like chunked tuples."""
        one, chunked = self._pair(config, algorithm)
        events = slotted_workload(n_slots=20)
        one.observe_batch(EventBatch.from_events(events))
        for start in range(0, len(events), 7):
            chunked.observe_batch(
                EventBatch.from_events(events[start : start + 7])
            )
        assert one.sample() == chunked.sample()
        assert one.stats() == chunked.stats()
        assert one.state_dict() == chunked.state_dict()

    def test_columnar_via_engine_explicit_policy(self, config, algorithm):
        """An Engine pass-through delivers a columnar batch unchanged."""
        from repro.runtime.engine import Engine

        direct, routed = self._pair(config, algorithm)
        events = slotted_workload(n_slots=15)
        batch = EventBatch.from_events(events)
        direct.observe_batch(batch)
        engine = Engine(routed, policy="explicit")
        assert engine.observe_batch(batch) == len(events)
        assert direct.sample() == routed.sample()
        assert direct.stats() == routed.stats()
        assert direct.state_dict() == routed.state_dict()


@pytest.mark.parametrize("algorithm", ["mix64", "murmur2"])
@pytest.mark.parametrize(
    "name", sorted(n for n, c in CONFIGS.items() if c.variant.startswith("sharded:"))
)
def test_exotic_elements_on_shm(name, algorithm, shared_shm):
    """The shm backend ships object items pickled with the batch metadata
    and matches a single-observe loop on the serial backend bit for bit."""
    config = SamplerConfig(**{**CONFIGS[name].to_dict(), "algorithm": algorithm})
    single, batched, columnar = (make_sampler(config) for _ in range(3))
    batched.executor = shared_shm
    columnar.executor = shared_shm
    events = exotic_workload(algorithm)
    for site, item, slot in events:
        single.observe(site, item, slot=slot)
    before = shared_shm.pickle_bytes
    assert batched.observe_batch(events) == len(events)
    assert columnar.observe_batch(EventBatch.from_events(events)) == len(events)
    assert shared_shm.pickle_bytes > before
    TestBatchSingleEquivalence._assert_all_equal(single, batched, columnar)


class TestBatchEdgeCases:
    def test_empty_batch(self):
        sampler = make_sampler("infinite", num_sites=2, sample_size=2)
        assert sampler.observe_batch([]) == 0
        assert sampler.observe_batch(iter(())) == 0
        assert sampler.stats().messages_total == 0

    def test_generator_input(self):
        sampler = make_sampler("infinite", num_sites=2, sample_size=4)
        assert sampler.observe_batch((i % 2, i) for i in range(50)) == 50

    def test_longer_events_still_advance_like_the_generic_loop(self):
        """Anything that is not a 2-tuple is slot-stamped via event[2],
        exactly as in the generic Sampler.observe_batch branch."""
        single = make_sampler("sliding", num_sites=2, window=8)
        batched = make_sampler("sliding", num_sites=2, window=8)
        events = [(0, 1, 3, "extra"), (1, 2, 5, "extra")]
        for site, item, slot, _ in events:
            single.observe(site, item, slot=slot)
        batched.observe_batch(events)
        assert batched.current_slot == 5
        assert single.sample() == batched.sample()
        assert single.stats() == batched.stats()

    def test_non_monotone_slot_raises(self):
        sampler = make_sampler("sliding", num_sites=2, window=8)
        with pytest.raises(ProtocolError):
            sampler.observe_batch([(0, 1, 5), (0, 2, 3)])
        # The first run was delivered before the bad stamp raised.
        assert sampler.current_slot == 5

    def test_mix64_rejects_non_integers_in_batch(self):
        sampler = make_sampler(
            "infinite", num_sites=2, sample_size=2, algorithm="mix64"
        )
        with pytest.raises(TypeError):
            sampler.observe_batch([(0, "alice"), (1, "bob")])

    def test_mix64_bools_match_scalar_path(self):
        """bools must dodge NumPy coercion and hash like the scalar path."""
        single = make_sampler(
            "infinite", num_sites=2, sample_size=4, algorithm="mix64"
        )
        batched = make_sampler(
            "infinite", num_sites=2, sample_size=4, algorithm="mix64"
        )
        events = [(0, True), (1, 1), (0, False), (1, 0), (0, 7)]
        for site, item in events:
            single.observe(site, item)
        batched.observe_batch(events)
        assert single.sample() == batched.sample()
        assert single.stats() == batched.stats()

    def test_mix64_huge_ints_fall_back(self):
        """Out-of-int64 ints take the scalar hasher, same as the loop."""
        single = make_sampler(
            "infinite", num_sites=1, sample_size=4, algorithm="mix64"
        )
        batched = make_sampler(
            "infinite", num_sites=1, sample_size=4, algorithm="mix64"
        )
        events = [(0, 2**80), (0, -(2**70)), (0, 5)]
        for site, item in events:
            single.observe(site, item)
        batched.observe_batch(events)
        assert single.sample() == batched.sample()
        assert single.stats() == batched.stats()

    def test_empty_columnar_batch(self):
        sampler = make_sampler("infinite", num_sites=2, sample_size=2)
        assert sampler.observe_batch(EventBatch.from_events([])) == 0
        assert sampler.stats().messages_total == 0

    def test_mixed_arity_events_build_one_batch(self):
        """A later 2-tuple joins the preceding stamp; a leading
        unstamped prefix is delivered at the current slot; fields after
        the slot are ignored."""
        batch = EventBatch.from_events([(0, 1, 3), (1, 9)])
        assert batch.slots.tolist() == [3, 3]
        assert [slot for slot, _ in batch.slot_runs()] == [3]
        batch = EventBatch.from_events([(0, 1), (1, 2), (0, 3, 5, "x"), (1, 4)])
        assert batch.slots.tolist() == [CURRENT_SLOT, CURRENT_SLOT, 5, 5]
        runs = [(slot, run.items.tolist()) for slot, run in batch.slot_runs()]
        assert runs == [(None, [1, 2]), (5, [3, 4])]
        with pytest.raises(ConfigurationError, match="site, item"):
            EventBatch.from_events([(0, 1), (2,)])

    def test_exotic_elements_build_object_columns(self):
        for events in (
            [(0, "alice")],
            [(0, True), (1, 1)],
            [(0, 2**80)],
            [(0, ("a", "b")), (1, ("c", "d"))],
        ):
            batch = EventBatch.from_events(events)
            assert batch.items.dtype == object
            assert batch.items.shape == (len(events),)
            assert batch.to_events() == events
        assert EventBatch.from_events([(0, True)]).items_list()[0] is True

    def test_siteless_batch_needs_an_engine(self):
        sampler = make_sampler("infinite", num_sites=2, sample_size=2)
        with pytest.raises(ConfigurationError, match="no site column"):
            sampler.observe_batch(EventBatch([1, 2, 3]))

    def test_every_variant_is_covered_here(self):
        assert set(sampler_variants()) == {c.variant for c in CONFIGS.values()}


class TestDelayedNetworkEquivalence:
    """The dedup proofs assume synchronous replies; on a DelayedNetwork
    a same-slot repeat legitimately re-reports (the reply that would
    have lowered the site threshold is still queued), so the batch path
    must skip the dedup there and match the loop message-for-message."""

    @pytest.mark.parametrize(
        "variant_config",
        [
            CONFIGS["sliding-s1"],
            CONFIGS["sliding-s3"],
            CONFIGS["sliding-local-push"],
            CONFIGS["infinite"],
            CONFIGS["broadcast"],
            CONFIGS["caching"],
        ],
        ids=[
            "sliding-s1",
            "sliding-s3",
            "sliding-local-push",
            "infinite",
            "broadcast",
            "caching",
        ],
    )
    def test_batch_matches_loop_under_delay(self, variant_config):
        from repro.netsim.delayed import DelayedNetwork

        def build():
            sampler = make_sampler(variant_config)
            DelayedNetwork.rewire(sampler)
            return sampler

        single, batched, columnar = build(), build(), build()
        assert single.network.synchronous is False
        # Same-site same-slot repeats: the case synchronous dedup elides.
        events = [(0, 5, 1), (0, 5, 1), (0, 7, 1), (1, 5, 1), (0, 5, 2)]
        if not variant_config.window:
            events = [event[:2] for event in events]
        for event in events:
            if len(event) == 3:
                single.observe(event[0], event[1], slot=event[2])
            else:
                single.observe(event[0], event[1])
        batched.observe_batch(events)
        columnar.observe_batch(EventBatch.from_events(events))
        assert single.stats() == batched.stats()
        assert single.stats() == columnar.stats()
        single.network.pump()
        batched.network.pump()
        columnar.network.pump()
        assert single.sample() == batched.sample() == columnar.sample()
        assert single.stats() == batched.stats() == columnar.stats()


def zipf_slots(n_slots: int = 30, per_slot: int = 48, sites: int = 3) -> list:
    """Slot-stamped events over Zipf(1.2) keys from 2,000 ids: heavy keys
    repeat within a slot, at one site and across sites, and refresh from
    slot to slot, while the tail keeps arriving fresh."""
    rng = np.random.default_rng(17)
    cdf = np.cumsum(np.arange(1, 2001, dtype=np.float64) ** -1.2)
    cdf /= cdf[-1]
    events = []
    for slot in range(1, n_slots + 1):
        keys = np.searchsorted(cdf, rng.random(per_slot), side="right")
        events.extend(
            (site, key, slot)
            for site, key in zip(
                rng.integers(0, sites, per_slot).tolist(), keys.tolist()
            )
        )
    return events


class CollidingHasher(UnitHasher):
    """``murmur2`` folded onto 32 unit hashes, so distinct elements often
    tie exactly: some runs take the one pass, others the per-row loop."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(0, "murmur2")
        full = self._fn
        self._fn = lambda element: (full(element) % 32) << 59


#: The general-s feedback core, whose runs each site takes in one pass.
FEEDBACK_CASES = {
    "sliding-s4-zipf": lambda: make_sampler(
        "sliding", num_sites=3, window=6, sample_size=4, algorithm="mix64"
    ),
    "sharded-sliding-s4-zipf": lambda: make_sampler(
        "sharded:sliding",
        num_sites=3,
        window=6,
        sample_size=4,
        shards=2,
        algorithm="mix64",
    ),
    "sliding-s4-colliding": lambda: SlidingWindowBottomSFeedback(
        num_sites=3, window=6, sample_size=4, hasher=CollidingHasher()
    ),
}


class TestFeedbackRunDelivery:
    """Each feedback site takes its rows of a run in one pass and only the
    rows below its threshold report: message for message and state for
    state what the per-event loop does, with repeats, exact hash ties,
    and replies that land late, duplicated or reordered."""

    @staticmethod
    def _build(case, transport):
        sampler = FEEDBACK_CASES[case]()
        groups = getattr(sampler, "groups", [sampler])
        if transport == "delayed":
            networks = [DelayedNetwork.rewire(group) for group in groups]
        elif transport == "chaos":
            networks = [
                ChaosNetwork.rewire(
                    group,
                    rng=np.random.default_rng(i),
                    duplicate=0.2,
                    reorder=0.3,
                    seed=i,
                )
                for i, group in enumerate(groups)
            ]
        else:
            networks = []
        return sampler, networks

    @pytest.mark.parametrize("transport", ["synchronous", "delayed", "chaos"])
    @pytest.mark.parametrize("case", sorted(FEEDBACK_CASES))
    def test_runs_match_the_event_loop(self, case, transport):
        single, single_networks = self._build(case, transport)
        columnar, columnar_networks = self._build(case, transport)
        events = zipf_slots()
        taken = 0
        for slot in range(1, 31):
            run = [event for event in events if event[2] == slot]
            for site, item, _ in run:
                single.observe(site, item, slot=slot)
            columnar.observe_batch(EventBatch.from_events(run))
            taken += len(run)
            for network in (*single_networks, *columnar_networks):
                network.pump()
            assert single.stats() == columnar.stats(), f"slot {slot}"
            assert single.sample() == columnar.sample()
            assert single.state_dict() == columnar.state_dict()
        assert taken == len(events)
        assert single.total_messages > 0
