"""Hypothesis differential properties for the whole sampler surface.

The hand-picked-seed differential tests (``test_sharded.py``,
``test_batch_equivalence.py``, ``test_sliding*.py``) each pin one
carefully chosen stream; this module turns the same exactness arguments
into *properties* over random streams and random ``(s, k, S, variant)``
configurations:

* **Sharded merge == centralized oracle.**  The exactness argument in
  :mod:`repro.runtime.sharded` — disjoint key spaces + one shared
  sampling hash ⇒ the query-time merge is the global bottom-s — must
  hold for every stream, not just the seeds someone thought of.
* **Columnar == tuple-batch == single-observe.**  The three ingest
  representations are one semantics; random streams (slot stamps
  included) must leave identical full ``state_dict``\\ s.
* **The shm executor == SerialExecutor, bit-identically.**  The shm
  backend ships group state through snapshot-v2 dicts and batch columns
  through zero-copy shared memory to persistent worker processes.
  Sample, message stats, and state must be indistinguishable from the
  serial run for every ``sharded:*`` variant, and a worker crash
  mid-batch must lose no acknowledged data and leak no ``/dev/shm``
  segment.
* **Snapshot round-trip == continued run.**  A stateful
  :class:`~hypothesis.stateful.RuleBasedStateMachine` interleaves
  observe/advance/query/snapshot/restore and checks, after every step,
  that a restored twin remains indistinguishable from the original.

CI runs these derandomized (see ``tests/conftest.py``); locally they
explore fresh examples every run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import (
    CentralizedDistinctSampler,
    CentralizedWindowSampler,
    DistinctSamplerSystem,
    EventBatch,
    SharedMemoryExecutor,
    UnitHasher,
    make_sampler,
    restore,
    snapshot,
)
from repro.errors import ConfigurationError
from repro.netsim import ChaosNetwork

SHARDED_INFINITE = ("sharded:infinite", "sharded:broadcast", "sharded:caching")
#: ``sliding`` builds its general-s lazy-feedback core only for s >= 2;
#: a ``+s2`` label pins that branch wherever a property draws its own s
#: (see :func:`resolve`).
SHARDED_WINDOWED = (
    "sharded:sliding",
    "sharded:sliding+s2",
    "sharded:sliding-local-push",
)
SHARDED_ALL = SHARDED_INFINITE + SHARDED_WINDOWED

#: Variants the three-way ingest-equivalence property samples from
#: (`test_batch_equivalence.py` pins fixed configs for the full registry;
#: here the configs and streams are random).
INGEST_VARIANTS = (
    "infinite",
    "broadcast",
    "caching",
    "with-replacement",
    "sliding",
    "sliding+s2",
    "sliding-local-push",
    "sharded:infinite",
    "sharded:sliding+s2",
)
WINDOWED_VARIANTS = frozenset(
    ("sliding", "sliding-local-push") + SHARDED_WINDOWED
)


def resolve(label: str, s: int) -> tuple[str, int]:
    """The registry name and sample size a variant label stands for:
    ``<name>+s2`` runs ``<name>`` with s raised to at least 2."""
    name, pinned, _ = label.partition("+s2")
    return name, max(s, 2) if pinned else s


_items = st.integers(0, 60)


@st.composite
def flat_streams(draw):
    """``(k, [(site, item), ...])`` — unstamped events over k sites."""
    k = draw(st.integers(1, 4))
    events = draw(
        st.lists(st.tuples(st.integers(0, k - 1), _items), max_size=120)
    )
    return k, events


@st.composite
def slotted_streams(draw):
    """``(k, window, [(site, item, slot), ...])`` with non-decreasing
    slot stamps starting at 1 (the synchronized-clock model)."""
    k = draw(st.integers(1, 4))
    window = draw(st.integers(1, 8))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, k - 1), _items),
            max_size=100,
        )
    )
    slot, events = 1, []
    for delta, site, item in steps:
        slot += delta
        events.append((site, item, slot))
    return k, window, events


def assert_indistinguishable(actual, expected) -> None:
    """Full observable equality: sample (items, pairs, threshold),
    uniform cost counters, and the entire logical state."""
    assert actual.sample() == expected.sample()
    assert actual.sample().threshold == expected.sample().threshold
    assert actual.stats() == expected.stats()
    assert actual.state_dict() == expected.state_dict()


class TestShardedMergeOracle:
    """Random-stream form of the sharded exactness argument."""

    @given(
        variant=st.sampled_from(SHARDED_INFINITE),
        shards=st.integers(1, 4),
        s=st.integers(1, 8),
        seed=st.integers(0, 5),
        stream=flat_streams(),
    )
    @settings(max_examples=40)
    def test_merge_equals_unrestricted_oracle(
        self, variant, shards, s, seed, stream
    ):
        k, events = stream
        sampler = make_sampler(
            variant, num_sites=k, sample_size=s, shards=shards, seed=seed
        )
        oracle = CentralizedDistinctSampler(s, UnitHasher(seed, "murmur2"))
        for site, item in events:
            sampler.observe(site, item)
            oracle.observe(item)
        result = sampler.sample()
        assert list(result.items) == oracle.sample()
        assert list(result.pairs) == oracle.sample_pairs()
        assert result.threshold == oracle.threshold

    @given(
        variant=st.sampled_from(SHARDED_WINDOWED),
        shards=st.integers(1, 3),
        s=st.integers(1, 5),
        seed=st.integers(0, 5),
        stream=slotted_streams(),
    )
    @settings(max_examples=30)
    def test_windowed_merge_tracks_window_oracle(
        self, variant, shards, s, seed, stream
    ):
        k, window, events = stream
        variant, s = resolve(variant, s)
        sampler = make_sampler(
            variant,
            num_sites=k,
            window=window,
            sample_size=s,
            shards=shards,
            seed=seed,
        )
        oracle = CentralizedWindowSampler(window, s, UnitHasher(seed, "murmur2"))
        for site, item, slot in events:
            sampler.observe(site, item, slot=slot)
            oracle.observe(item, slot)
        assert list(sampler.sample().items) == oracle.sample()


class TestIngestEquivalence:
    """Columnar == tuple-batch == single-observe on random streams."""

    @given(data=st.data())
    @settings(max_examples=40)
    def test_columnar_equals_tuple_equals_single(self, data):
        variant = data.draw(st.sampled_from(INGEST_VARIANTS), label="variant")
        s = data.draw(st.integers(1, 5), label="sample_size")
        variant, s = resolve(variant, s)
        windowed = variant in WINDOWED_VARIANTS
        seed = data.draw(st.integers(0, 3), label="seed")
        if windowed:
            k, window, events = data.draw(slotted_streams(), label="stream")
        else:
            k, events = data.draw(flat_streams(), label="stream")
            window = 0

        def build():
            return make_sampler(
                variant,
                num_sites=k,
                sample_size=s,
                window=window,
                shards=2 if variant.startswith("sharded:") else 1,
                seed=seed,
            )

        single, tupled, columnar = build(), build(), build()
        for event in events:
            if len(event) == 2:
                single.observe(event[0], event[1])
            else:
                single.observe(event[0], event[1], slot=event[2])
        tupled.observe_batch(list(events))
        columnar.observe_batch(EventBatch.from_events(events))
        assert_indistinguishable(tupled, single)
        assert_indistinguishable(columnar, single)


@pytest.fixture(scope="module")
def shared_shm():
    """One shm executor shared by every example (worker start-up would
    otherwise dominate the property run)."""
    executor = SharedMemoryExecutor(workers=2)
    yield executor
    executor.close()


#: Reads interleaved between batches in the executor-equivalence
#: property: each is taken from both samplers and compared.
READS = {
    "sample": lambda sampler, g: sampler.sample(),
    "threshold": lambda sampler, g: sampler.threshold,
    "report_bound": lambda sampler, g: sampler.report_bound(),
    "state_dict": lambda sampler, g: sampler.state_dict(),
    "stats": lambda sampler, g: sampler.stats(),
    "message_stats": lambda sampler, g: sampler.message_stats(),
    "group_state": lambda sampler, g: sampler.groups[g % sampler.shards].state_dict(),
}


class TestExecutorEquivalence:
    """The acceptance pin: the shm backend is byte-identical to
    SerialExecutor for every ``sharded:*`` variant."""

    @pytest.mark.parametrize("variant", SHARDED_ALL)
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_parallel_executor_is_bit_identical_to_serial(
        self, shared_shm, variant, data
    ):
        shards = data.draw(st.integers(1, 3), label="shards")
        s = data.draw(st.integers(1, 6), label="sample_size")
        variant, s = resolve(variant, s)
        windowed = variant in SHARDED_WINDOWED
        seed = data.draw(st.integers(0, 3), label="seed")
        if windowed:
            k, window, events = data.draw(slotted_streams(), label="stream")
        else:
            k, events = data.draw(flat_streams(), label="stream")
            window = 0

        def build(executor, workers):
            return make_sampler(
                variant,
                num_sites=k,
                sample_size=s,
                window=window,
                shards=shards,
                seed=seed,
                executor=executor,
                workers=workers,
            )

        serial = build("serial", 0)
        parallel = build("shm", 2)
        # Reuse one long-lived executor across examples.
        parallel.executor = shared_shm
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(events)), max_size=3), label="cuts"
            )
        )
        bounds = [0, *cuts, len(events)]
        for start, stop in zip(bounds, bounds[1:]):
            serial.observe_batch(list(events[start:stop]))
            parallel.observe_batch(list(events[start:stop]))
            # Reads between batches fetch, load or reuse worker state;
            # each must answer as the serial backend does.
            reads = data.draw(
                st.lists(
                    st.tuples(st.sampled_from(sorted(READS)), st.integers(0, 2)),
                    max_size=4,
                ),
                label="reads",
            )
            for name, g in reads:
                assert READS[name](parallel, g) == READS[name](serial, g), name
        assert_indistinguishable(parallel, serial)
        assert parallel.message_stats() == serial.message_stats()
        assert parallel.current_slot == serial.current_slot

    @given(stream=flat_streams(), seed=st.integers(0, 3))
    # Enough distinct items that every group's sites lower their
    # thresholds, which the parent's copies would not see.
    @example(stream=(3, [(i % 3, i) for i in range(61)]), seed=0)
    @settings(max_examples=15, deadline=None)
    def test_parallel_executor_columnar_matches_serial(
        self, shared_shm, stream, seed
    ):
        k, events = stream
        batch = EventBatch.from_events(events)

        def build(executor):
            return make_sampler(
                "sharded:infinite",
                num_sites=k,
                sample_size=4,
                shards=3,
                seed=seed,
                algorithm="mix64",
                executor=executor,
                workers=2,
            )

        serial, parallel = build("serial"), build("shm")
        parallel.executor = shared_shm
        serial.observe_batch(batch)
        parallel.observe_batch(EventBatch.from_events(events))
        # Before any read: the bound the next batch's filter would use.
        assert parallel.report_bound() == serial.report_bound()
        assert_indistinguishable(parallel, serial)


class TestQueryCacheCoherence:
    """The incremental query path's safety property: after ANY
    interleaving of observe / advance / query / snapshot-restore, the
    cached merged sample is bit-identical to a from-scratch recompute
    (cache dropped via ``invalidate_merge_cache``, merge re-run) — on
    every execution backend."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_cached_sample_equals_fresh_recompute(self, shared_shm, data):
        backend = data.draw(
            st.sampled_from(("serial", "shm")), label="executor"
        )
        variant, s = resolve(
            data.draw(st.sampled_from(SHARDED_ALL), label="variant"),
            data.draw(st.integers(1, 6), label="s"),
        )
        windowed = variant in SHARDED_WINDOWED
        window = 6 if windowed else 0

        def build():
            sampler = make_sampler(
                variant,
                num_sites=3,
                sample_size=s,
                window=window,
                shards=data.draw(st.integers(1, 3), label="shards"),
                seed=data.draw(st.integers(0, 3), label="seed"),
                executor=backend,
                workers=2 if backend != "serial" else 0,
            )
            if backend != "serial":
                # Workers are lazy; swapping before any ingest means the
                # per-example executor never spawns its own.
                sampler.executor = shared_shm
            return sampler

        sampler = build()
        slot = 1 if windowed else 0
        if windowed:
            sampler.advance(1)

        def check_coherence():
            cached = sampler.sample()
            assert sampler.sample() is cached  # cache holds while quiescent
            sampler.invalidate_merge_cache()
            fresh = sampler.sample()
            assert fresh == cached
            assert fresh.pairs == cached.pairs
            assert fresh.threshold == cached.threshold

        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ("observe", "batch", "advance", "query", "roundtrip")
                ),
                max_size=25,
            ),
            label="ops",
        )
        for op in ops:
            if op == "observe":
                sampler.observe(
                    data.draw(st.integers(0, 2)), data.draw(st.integers(0, 40))
                )
            elif op == "batch":
                sampler.observe_batch(
                    data.draw(
                        st.lists(
                            st.tuples(
                                st.integers(0, 2), st.integers(0, 40)
                            ),
                            max_size=10,
                        )
                    )
                )
            elif op == "advance":
                slot += data.draw(st.integers(1, 3))
                sampler.advance(slot)
            elif op == "query":
                check_coherence()
            else:  # roundtrip: snapshot -> JSON -> restore
                blob = json.loads(json.dumps(snapshot(sampler)))
                sampler = restore(blob)
                if backend != "serial":
                    sampler.executor = shared_shm
        check_coherence()


def _kill_executor_workers(
    executor: SharedMemoryExecutor, count: int | None = None
) -> bool:
    """SIGKILL every live shm worker process (or only the first
    ``count``); returns whether anything was actually killed (workers
    are spawned lazily)."""
    workers = executor._workers
    if not workers:
        return False
    doomed = workers[:count]
    for worker in doomed:
        worker.process.kill()
    for worker in doomed:
        worker.process.join()
    return True


class TestCrashReplayRecovery:
    """Crash-replay: killing workers mid-stream must lose NO acked data.

    The shm backend retains every batch plan shipped since a group's
    last sync; on a crash the executor rebuilds the worker-held groups
    from the parent's last-synchronized state by replaying the pending
    plans in-process.  The recovered sampler must
    be *bit-identical* (sample, stats, full state_dict, message
    counters) to a never-crashed serial twin — and the shm backend must
    still leak no /dev/shm segment."""

    @staticmethod
    def _segments():
        import os

        try:
            return {
                name
                for name in os.listdir("/dev/shm")
                if name.startswith("psm_")
            }
        except FileNotFoundError:  # non-Linux: nothing to leak-check
            return set()

    # A lone dead worker must also bring the survivors down: their share
    # of the batch is replayed in-process along with the dead one's.
    @pytest.mark.parametrize("killed", [None, 1], ids=["all", "one"])
    def test_worker_crash_mid_stream_loses_nothing(self, killed):
        events = [(i % 3, (i * 17) % 211) for i in range(300)]

        def build(executor):
            return make_sampler(
                "sharded:infinite",
                num_sites=3,
                sample_size=8,
                shards=3,
                seed=5,
                algorithm="mix64",
                executor=executor,
                workers=2,
            )

        before = self._segments()
        serial, crashy = build("serial"), build("shm")
        try:
            serial.observe_batch(EventBatch.from_events(events[:150]))
            crashy.observe_batch(EventBatch.from_events(events[:150]))
            # Query → the groups' states are fetched and kept, not
            # loaded, here ...
            assert crashy.sample() == serial.sample()
            # ... then one more acked batch with NO query after it, so a
            # lossy recovery would visibly rewind it.
            serial.observe_batch(EventBatch.from_events(events[150:200]))
            crashy.observe_batch(EventBatch.from_events(events[150:200]))
            assert _kill_executor_workers(crashy.executor, killed)
            # The next batch hits dead workers; recovery must replay —
            # not raise, not rewind.
            serial.observe_batch(EventBatch.from_events(events[200:]))
            crashy.observe_batch(EventBatch.from_events(events[200:]))
            assert crashy.executor.recoveries >= 1
            assert_indistinguishable(crashy, serial)
            assert crashy.message_stats() == serial.message_stats()
            # The executor healed: another kill-free batch stays exact.
            more = [(i % 3, (i * 31) % 97) for i in range(60)]
            serial.observe_batch(EventBatch.from_events(more))
            crashy.observe_batch(EventBatch.from_events(more))
            assert_indistinguishable(crashy, serial)
        finally:
            crashy.close()
        assert self._segments() - before == set()

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_crash_replay_is_bit_identical_property(self, data):
        variant, s = resolve(
            data.draw(st.sampled_from(SHARDED_ALL), label="variant"), 3
        )
        windowed = variant in SHARDED_WINDOWED
        shards = data.draw(st.integers(1, 3), label="shards")
        seed = data.draw(st.integers(0, 3), label="seed")
        if windowed:
            k, window, events = data.draw(slotted_streams(), label="stream")
        else:
            k, events = data.draw(flat_streams(), label="stream")
            window = 0
        fetch_at = data.draw(st.integers(0, len(events)), label="fetch_after")
        cut = data.draw(st.integers(fetch_at, len(events)), label="crash_after")
        query = data.draw(st.booleans(), label="query_before_crash")

        def build(executor, workers):
            return make_sampler(
                variant,
                num_sites=k,
                sample_size=s,
                window=window,
                shards=shards,
                seed=seed,
                executor=executor,
                workers=workers,
            )

        serial, crashy = build("serial", 0), build("shm", 2)
        try:
            serial.observe_batch(list(events[:fetch_at]))
            crashy.observe_batch(list(events[:fetch_at]))
            if query:
                # The query fetches without loading; the kill below then
                # lands between that fetch and the next load, with the
                # batches in between logged for replay.
                assert crashy.sample() == serial.sample()
            mid = (fetch_at + cut) // 2
            for chunk in (events[fetch_at:mid], events[mid:cut]):
                serial.observe_batch(list(chunk))
                crashy.observe_batch(list(chunk))
            _kill_executor_workers(crashy.executor)
            serial.observe_batch(list(events[cut:]))
            crashy.observe_batch(list(events[cut:]))
            assert_indistinguishable(crashy, serial)
            assert crashy.message_stats() == serial.message_stats()
        finally:
            crashy.close()


class SnapshotContinuationMachine(RuleBasedStateMachine):
    """Snapshot round-trip == continued run, under arbitrary interleaving.

    Holds a restored twin next to the primary sampler; every rule drives
    both, and ``reload_twin`` replaces the twin with a fresh
    JSON-round-tripped restore (also from the twin itself, so restores
    compose).  The invariant asserts full indistinguishability after
    every step.
    """

    VARIANTS = (
        "infinite",
        "caching",
        "sliding+s2",
        "with-replacement",
        "sharded:infinite",
        "sharded:sliding",
    )

    @initialize(
        variant=st.sampled_from(VARIANTS),
        s=st.integers(1, 4),
        seed=st.integers(0, 3),
    )
    def setup(self, variant, s, seed):
        variant, s = resolve(variant, s)
        windowed = variant in WINDOWED_VARIANTS
        self.window = 6 if windowed else 0
        self.slot = 1 if windowed else 0
        self.sampler = make_sampler(
            variant,
            num_sites=3,
            sample_size=s,
            window=self.window,
            shards=2 if variant.startswith("sharded:") else 1,
            seed=seed,
        )
        if windowed:
            self.sampler.advance(1)
        self.twin = self._roundtrip(self.sampler)

    @staticmethod
    def _roundtrip(sampler):
        return restore(json.loads(json.dumps(snapshot(sampler))))

    @rule(site=st.integers(0, 2), item=st.integers(0, 40))
    def observe(self, site, item):
        self.sampler.observe(site, item)
        self.twin.observe(site, item)

    @rule(
        batch=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 40)), max_size=12
        )
    )
    def observe_batch(self, batch):
        self.sampler.observe_batch(list(batch))
        self.twin.observe_batch(list(batch))

    @rule(delta=st.integers(1, 3))
    def advance(self, delta):
        self.slot += delta
        self.sampler.advance(self.slot)
        self.twin.advance(self.slot)

    @rule()
    def reload_twin(self):
        self.twin = self._roundtrip(self.sampler)

    @rule()
    def reload_twin_from_twin(self):
        self.twin = self._roundtrip(self.twin)

    @invariant()
    def twin_is_indistinguishable(self):
        if not hasattr(self, "twin"):
            return  # invariants also run before initialize
        assert self.twin.sample() == self.sampler.sample()
        assert self.twin.sample().threshold == self.sampler.sample().threshold
        assert self.twin.stats() == self.sampler.stats()
        assert snapshot(self.twin) == snapshot(self.sampler)


SnapshotContinuationMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
TestSnapshotContinuation = SnapshotContinuationMachine.TestCase


class ChaosConvergenceMachine(RuleBasedStateMachine):
    """Chaos-mode netsim: with ``drop == 0``, duplication, reordering,
    partial delivery, and site crash/revive cycles must all be invisible
    at quiescence — after reviving every site and draining the network,
    the faulty system's sample is indistinguishable from a no-fault twin
    fed the same arrivals.

    The model of a crashed site: no arrivals land there while it is down
    (both runs see the same arrival sequence, routed to live sites), it
    sends nothing, and everything addressed to it is dropped.  A revived
    site resumes with a stale-high threshold — safe, so convergence is
    exact, not approximate.
    """

    SITES = 3

    @initialize(
        seed=st.integers(0, 5),
        duplicate=st.floats(0.0, 0.5),
        reorder=st.floats(0.0, 0.5),
    )
    def setup(self, seed, duplicate, reorder):
        self.chaotic = DistinctSamplerSystem(
            self.SITES, 4, hasher=UnitHasher(seed)
        )
        ChaosNetwork.rewire(
            self.chaotic,
            rng=np.random.default_rng(seed + 50),
            duplicate=duplicate,
            reorder=reorder,
            seed=seed + 99,
        )
        self.twin = DistinctSamplerSystem(
            self.SITES, 4, hasher=UnitHasher(seed)
        )

    @rule(site=st.integers(0, SITES - 1), item=st.integers(0, 80))
    def observe(self, site, item):
        # Arrivals land on live sites only (a crashed site ingests
        # nothing); both runs see the identical arrival sequence.
        live = [
            s
            for s in range(self.SITES)
            if s not in self.chaotic.network.dead_sites
        ]
        if not live:
            return
        site = live[site % len(live)]
        self.chaotic.observe(site, item)
        self.twin.observe(site, item)

    @rule(site=st.integers(0, SITES - 1))
    def kill_site(self, site):
        self.chaotic.network.kill_site(site)

    @rule(site=st.integers(0, SITES - 1))
    def revive_site(self, site):
        self.chaotic.network.revive_site(site)

    @rule(limit=st.integers(0, 5))
    def partial_pump(self, limit):
        self.chaotic.network.pump(limit=limit)

    @rule()
    def quiesce_and_compare(self):
        for site in list(self.chaotic.network.dead_sites):
            self.chaotic.network.revive_site(site)
        self.chaotic.network.pump()
        assert self.chaotic.network.in_flight == 0
        assert self.chaotic.sample() == self.twin.sample()

    def teardown(self):
        self.quiesce_and_compare()


ChaosConvergenceMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestChaosConvergence = ChaosConvergenceMachine.TestCase


class SlidingChaosConvergenceMachine(RuleBasedStateMachine):
    """The chaos convergence property for the general-s sliding core
    (``sliding`` at s >= 2), with slot advances in the mix.

    Quiescence here revives every site, drains the network, advances one
    slot (so every site whose threshold ran out, or whose last lapse went
    unacknowledged, lapses now) and drains again.  The sample must then
    equal a centralized window oracle fed the same arrivals: with
    ``drop == 0``, duplicates, reorders, partial delivery, and lapse
    pushes or replies lost to dead sites all leave it exact.
    """

    SITES = 3
    WINDOW = 6

    @initialize(
        seed=st.integers(0, 5),
        s=st.integers(2, 4),
        duplicate=st.floats(0.0, 0.5),
        reorder=st.floats(0.0, 0.5),
    )
    def setup(self, seed, s, duplicate, reorder):
        self.sampler = make_sampler(
            "sliding",
            num_sites=self.SITES,
            window=self.WINDOW,
            sample_size=s,
            seed=seed,
        )
        self.network = ChaosNetwork.rewire(
            self.sampler,
            rng=np.random.default_rng(seed + 50),
            duplicate=duplicate,
            reorder=reorder,
            seed=seed + 99,
        )
        self.oracle = CentralizedWindowSampler(
            self.WINDOW, s, self.sampler.hasher
        )
        self.slot = 0
        self._advance(1)

    def _advance(self, delta):
        self.slot += delta
        self.sampler.advance(self.slot)
        self.oracle.advance(self.slot)

    @rule(site=st.integers(0, SITES - 1), item=st.integers(0, 80))
    def observe(self, site, item):
        live = [
            s for s in range(self.SITES) if s not in self.network.dead_sites
        ]
        if not live:
            return
        self.sampler.observe(live[site % len(live)], item)
        self.oracle.observe(item, self.slot)

    @rule(delta=st.integers(1, 3))
    def advance(self, delta):
        self._advance(delta)

    @rule(site=st.integers(0, SITES - 1))
    def kill_site(self, site):
        self.network.kill_site(site)

    @rule(site=st.integers(0, SITES - 1))
    def revive_site(self, site):
        self.network.revive_site(site)

    @rule(limit=st.integers(0, 5))
    def partial_pump(self, limit):
        self.network.pump(limit=limit)

    @rule()
    def quiesce_and_compare(self):
        for site in list(self.network.dead_sites):
            self.network.revive_site(site)
        self.network.pump()
        self._advance(1)
        self.network.pump()
        assert self.network.in_flight == 0
        assert self.sampler.sample() == self.oracle.sample()

    def teardown(self):
        if hasattr(self, "sampler"):
            self.quiesce_and_compare()


SlidingChaosConvergenceMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
TestSlidingChaosConvergence = SlidingChaosConvergenceMachine.TestCase


def test_lapse_lost_to_a_dead_site_is_resent():
    # Site 0 is dead across the boundary where its threshold lapses, so
    # its lapse push of the refreshed element 1 is lost.  Unless the
    # unacknowledged lapse repeats, the coordinator never learns 1's new
    # expiry and loses it from the sample.
    state = SlidingChaosConvergenceMachine()
    state.setup(seed=0, s=2, duplicate=0.0, reorder=0.0)
    state.observe(item=1, site=0)
    state.quiesce_and_compare()
    state.observe(item=0, site=0)
    state.quiesce_and_compare()
    state.observe(item=1, site=0)
    state.quiesce_and_compare()
    state.kill_site(site=0)
    state.advance(delta=3)
    state.quiesce_and_compare()
    state.teardown()


def test_a_stale_reply_settles_no_later_lapse():
    # At slot 6 site 0 reports 2 under a threshold valid until slot 7
    # and filters 4.  It dies with the answer for 2 in flight, so the
    # lapse it takes at the slot-7 boundary (pending 2 and 4) pushes
    # nothing, and the old answer lands after the revival.  Had any reply
    # echoing a pending entry settled the whole lapse, it would settle
    # this one, whose pushes never left the site, and 4 would stay out
    # of the sample.
    state = SlidingChaosConvergenceMachine()
    state.setup(seed=0, s=2, duplicate=0.0, reorder=0.0)
    state.observe(item=0, site=0)
    state.observe(item=1, site=0)
    state.partial_pump(limit=5)
    state.advance(delta=3)
    state.advance(delta=2)
    state.observe(item=2, site=0)
    state.observe(item=4, site=0)
    state.partial_pump(limit=1)
    state.kill_site(site=0)
    state.advance(delta=1)
    state.quiesce_and_compare()
    state.teardown()


def test_a_final_push_that_overtakes_its_lapse_still_converges():
    # Site 0 holds 37 and 2, filtered by a threshold that lapses at slot
    # 7, so its lapse pushes 37 (silent) and then 2 (final).  The link
    # serves the final push first, and its answer settles the lapse
    # while the push of 37 is still in flight; the drain delivers it.
    state = SlidingChaosConvergenceMachine()
    state.setup(seed=2, s=2, duplicate=0.0, reorder=0.5)
    state.observe(item=18, site=1)
    state.observe(item=29, site=1)
    state.quiesce_and_compare()
    state.observe(item=17, site=0)
    state.quiesce_and_compare()
    state.advance(delta=1)
    state.observe(item=37, site=0)
    state.observe(item=2, site=0)
    state.advance(delta=3)
    site = state.sampler.sites[0]
    assert list(site.pending) == [37, 2]
    state.partial_pump(limit=1)
    state.partial_pump(limit=1)
    assert site.pending == {}
    assert state.network.in_flight == 1
    state.quiesce_and_compare()
    state.teardown()


def test_late_replies_leave_no_gap():
    # No faults, only delay: at slot 9 site 0 adopts a threshold that
    # landed after its validity ran out, filters the arrival of 1 with it,
    # then gets a reply that would raise it to (1.0, inf).  Adopting the
    # raise would leave the site never lapsing and 1 unknown to the
    # coordinator.
    state = SlidingChaosConvergenceMachine()
    state.setup(seed=0, s=2, duplicate=0.0, reorder=0.0)
    state.advance(delta=1)
    state.advance(delta=1)
    state.observe(item=0, site=0)
    state.observe(item=1, site=0)
    state.advance(delta=1)
    state.partial_pump(limit=3)
    state.advance(delta=1)
    state.observe(item=0, site=0)
    state.observe(item=0, site=1)
    state.advance(delta=1)
    state.advance(delta=1)
    state.advance(delta=2)
    state.partial_pump(limit=3)
    state.observe(item=1, site=0)
    state.teardown()


class TestChaosSafetyUnderDrop:
    """With ``drop > 0`` exactness is forfeited (lost REPORTs are lost
    data) but safety is not: the coordinator's threshold never falls
    below the lossless oracle's, and every sampled element is a genuine
    observed element."""

    @given(
        seed=st.integers(0, 4),
        drop=st.floats(0.05, 0.6),
        stream=flat_streams(),
    )
    @settings(max_examples=20, deadline=None)
    def test_threshold_and_membership_safety(self, seed, drop, stream):
        k, events = stream
        system = DistinctSamplerSystem(k, 4, hasher=UnitHasher(seed))
        ChaosNetwork.rewire(system, drop=drop, seed=seed + 7)
        oracle = CentralizedDistinctSampler(4, UnitHasher(seed, "murmur2"))
        observed = set()
        for site, item in events:
            system.observe(site, item)
            oracle.observe(item)
            observed.add(item)
        system.network.pump()
        assert system.coordinator.threshold >= oracle.threshold
        assert set(system.sample()) <= observed


# ---------------------------------------------------------------------------
# Restore fuzzing: exact restore or a typed error on an untouched sampler
# ---------------------------------------------------------------------------

#: Restore-fuzz subjects: the infinite family, both with-replacement
#: flavours, the three sliding cores (the s = 1 one in both coordinator
#: modes) and a sharded snapshot, mostly at one shape (k = 3, s = 3) so
#: cross-variant loads line up.
RESTORE_SUBJECTS = {
    "infinite": {"variant": "infinite"},
    "broadcast": {"variant": "broadcast"},
    "caching": {"variant": "caching"},
    "wr-infinite": {"variant": "with-replacement"},
    "wr-sliding": {"variant": "with-replacement", "window": 6},
    "sliding-s1": {"variant": "sliding", "window": 6, "sample_size": 1},
    "sliding-s1-paper": {
        "variant": "sliding",
        "window": 6,
        "sample_size": 1,
        "coordinator_mode": "paper",
    },
    "sliding": {"variant": "sliding", "window": 6},
    "local-push": {"variant": "sliding-local-push", "window": 6},
    "sharded": {"variant": "sharded:sliding", "window": 6, "shards": 2},
    "sharded-infinite": {"variant": "sharded:infinite", "shards": 2},
}

#: Records a general-s sliding site of a row-layout state restores as
#: empty when they are missing (the next lapse then pushes its whole
#: bottom-s, still exact).
OPTIONAL_RECORDS = frozenset({"known", "pending"})

#: State keys whose value is an event counter, a slot or a threshold.
SWAPPABLE_KEYS = frozenset(
    {
        "last_slot",
        "clock",
        "slots_processed",
        "total_messages",
        "total_bytes",
        "site_to_coordinator",
        "coordinator_to_site",
        "reports_received",
        "reports_accepted",
        "broadcasts_sent",
        "suppressed",
        "u_local",
        "reports_sent",
        "fallbacks",
    }
)

#: What a swapped counter or threshold becomes (``"negative"`` picks
#: -0.5 for a float and -1 otherwise).
BAD_VALUES = ("x", None, [1], float("nan"), "negative", 2.5, "4")


def _restore_subject(label: str, seed: int):
    sampler = make_sampler(
        **{"num_sites": 3, "sample_size": 3, "seed": 4, **RESTORE_SUBJECTS[label]}
    )
    rng = np.random.default_rng(seed)
    for slot in range(1, 7):
        sampler.advance(slot)
        sampler.observe_batch(
            [(int(rng.integers(0, 3)), int(rng.integers(0, 30))) for _ in range(6)]
        )
    return sampler


def _drop_targets(node) -> list:
    """``(dict, key)`` for every dict key at or below ``node``."""
    found = []
    if isinstance(node, dict):
        found.extend((node, key) for key in node)
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            found.extend(_drop_targets(child))
    return found


#: Sliding state keys holding a candidate set or a record: two columns,
#: ``{"elements": [...], "expiries": [...]}``, or the ``[element,
#: expiry]`` rows earlier snapshots wrote (see :func:`_as_legacy`).
CANDIDATE_KEYS = frozenset({"entries", "known", "pending", "reported"})


def _swap_targets(node, key=None) -> list:
    """``(container, index)`` for every counter or threshold at or below
    ``node``: values under :data:`SWAPPABLE_KEYS` and ``by_kind``, site
    thresholds, every entry of an infinite-family sample (each element of
    its column, and each stored hash and element of the ``[hash,
    element]`` rows earlier snapshots wrote), and every element and
    expiry of a sliding candidate set or record (of its two columns, or
    of its legacy rows; see :func:`_as_legacy`)."""
    found = []
    if isinstance(node, dict):
        for name, child in node.items():
            if name in SWAPPABLE_KEYS:
                found.append((node, name))
            elif name == "by_kind":
                found.extend((child, kind) for kind in child)
            elif key in CANDIDATE_KEYS and name in ("elements", "expiries"):
                found.extend((child, i) for i in range(len(child)))
            else:
                found.extend(_swap_targets(child, name))
    elif isinstance(node, list):
        if key == "site_thresholds":
            found.extend((node, i) for i in range(len(node)))
        elif (key == "sample" or key in CANDIDATE_KEYS) and all(
            isinstance(row, list) for row in node
        ):
            found.extend((row, i) for row in node for i in range(len(row)))
        else:
            for child in node:
                found.extend(_swap_targets(child))
    return found


def _candidate_entries(node, key=None) -> set:
    """``(id(container), index)`` of every element and expiry of every
    sliding candidate set and record at or below ``node``."""
    found = set()
    if isinstance(node, dict):
        if key in CANDIDATE_KEYS:
            return {
                (id(column), i)
                for column in node.values()
                for i in range(len(column))
            }
        for name, child in node.items():
            found |= _candidate_entries(child, name)
    elif isinstance(node, list):
        if key in CANDIDATE_KEYS:
            return {(id(row), i) for row in node for i in range(len(row))}
        for child in node:
            found |= _candidate_entries(child)
    return found


#: Subjects whose states hold infinite-family samples.
INFINITE_SUBJECTS = frozenset(
    {"infinite", "broadcast", "caching", "wr-infinite", "sharded-infinite"}
)


def _as_legacy(sampler) -> dict:
    """``sampler.state_dict()`` as earlier snapshots wrote it: every
    infinite-family sample as ``[hash, element]`` rows, and every sliding
    candidate set and record as ``[element, expiry]`` rows."""
    state = json.loads(json.dumps(sampler.state_dict()))
    parts = getattr(sampler, "copies", None) or getattr(sampler, "groups", None)
    for part, part_state in (
        zip(parts, state.get("copies") or state["groups"])
        if parts
        else [(sampler, state)]
    ):
        system = part_state["system"]
        if "coordinator" not in system:
            system["sample"] = [[h, e] for h, e in part.sample_pairs()]
            continue
        for node in (system["coordinator"], *system["sites"]):
            for key in CANDIDATE_KEYS & set(node):
                if node[key] is not None:
                    node[key] = [
                        list(row)
                        for row in zip(node[key]["elements"], node[key]["expiries"])
                    ]
    return state


def _upgraded(node, key=None):
    """What a restore of an :func:`_as_legacy` state writes back: each
    sample row's element, its hash dropped, and each candidate set and
    record as two columns."""
    if isinstance(node, dict):
        node = {name: _upgraded(value, name) for name, value in node.items()}
        if key == "system" and "coordinator" not in node:
            node["sample"] = [[row[1] for row in node["sample"]]]
        return node
    if isinstance(node, list):
        if key in CANDIDATE_KEYS:
            return {
                "elements": [row[0] for row in node],
                "expiries": [row[1] for row in node],
            }
        return [_upgraded(value) for value in node]
    return node


def _as_json(state) -> str:
    return json.dumps(state, sort_keys=True)


class TestRestoreFuzz:
    """Every ``load_state`` of a mutated snapshot either restores it
    exactly or raises ConfigurationError and leaves the sampler as it
    was.  Mutations drop any key, swap any counter, threshold, sample
    entry or candidate entry for a string, None, a list, NaN or a
    negative value, or substitute another variant's whole state; the
    state is the current layout's or, drawn by ``legacy``, the rows
    earlier snapshots wrote.  One exception is by design: a dropped
    :data:`OPTIONAL_RECORDS` record of a row state restores as an empty
    one."""

    @given(
        label=st.sampled_from(sorted(RESTORE_SUBJECTS)),
        other=st.sampled_from(sorted(RESTORE_SUBJECTS)),
        seeds=st.tuples(st.integers(0, 3), st.integers(4, 7)),
        kind=st.sampled_from(("drop", "swap", "cross")),
        bad=st.sampled_from(BAD_VALUES),
        legacy=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_or_typed_error(self, label, other, seeds, kind, bad, legacy, data):
        target = _restore_subject(label, seeds[1])
        dropped_record = None
        legacy = legacy and kind != "cross"
        if kind == "cross":
            state = json.loads(json.dumps(_restore_subject(other, seeds[0]).state_dict()))
        else:
            source = _restore_subject(label, seeds[0])
            if legacy:
                state = _as_legacy(source)
            else:
                state = json.loads(json.dumps(source.state_dict()))
            targets = _drop_targets(state) if kind == "drop" else _swap_targets(state)
            container, index = data.draw(st.sampled_from(targets))
            if kind == "drop":
                del container[index]
                if legacy and index in OPTIONAL_RECORDS:
                    dropped_record = (container, index)
            elif bad == "negative":
                container[index] = -0.5 if isinstance(container[index], float) else -1
            else:
                container[index] = bad
        before = _as_json(target.state_dict())
        try:
            target.load_state(state)
        except ConfigurationError:
            assert _as_json(target.state_dict()) == before
        else:
            if dropped_record is not None:
                container, index = dropped_record
                container[index] = []
            expected = _upgraded(state) if legacy else state
            assert _as_json(target.state_dict()) == _as_json(expected)

    @pytest.mark.parametrize("label", sorted(INFINITE_SUBJECTS))
    def test_swaps_reach_every_sample_entry(self, label):
        # Each element of the column, and each stored hash and element of
        # a legacy row, is a target.
        source = _restore_subject(label, 0)
        for state in (json.loads(json.dumps(source.state_dict())), _as_legacy(source)):
            entries = {
                (id(row), i)
                for container, key in _drop_targets(state)
                if key == "sample"
                for row in container[key]
                for i in range(len(row))
            }
            assert entries
            assert {(id(c), i) for c, i in _swap_targets(state)} >= entries

    @pytest.mark.parametrize("label", sorted(set(RESTORE_SUBJECTS) - INFINITE_SUBJECTS))
    def test_swaps_reach_every_candidate_entry(self, label):
        # Each element and expiry of every candidate set and record, in
        # both columns and legacy rows, is a target.
        source = _restore_subject(label, 0)
        for state in (json.loads(json.dumps(source.state_dict())), _as_legacy(source)):
            entries = _candidate_entries(state)
            assert entries
            assert {(id(c), i) for c, i in _swap_targets(state)} >= entries

    @pytest.mark.parametrize("label", ["sliding-s1", "sliding", "wr-sliding"])
    @pytest.mark.parametrize("bad", [float("nan"), -0.5, 1.5, "0.5"])
    def test_sliding_site_thresholds_parse_strictly(self, label, bad):
        # A NaN or out-of-range threshold would otherwise restore "exactly".
        target = _restore_subject(label, 5)
        state = json.loads(json.dumps(_restore_subject(label, 0).state_dict()))
        container, index = next(
            (container, index)
            for container, index in _swap_targets(state)
            if index == "u_local"
        )
        container[index] = bad
        before = _as_json(target.state_dict())
        with pytest.raises(ConfigurationError, match="threshold"):
            target.load_state(state)
        assert _as_json(target.state_dict()) == before

    @pytest.mark.parametrize("label", ["infinite", "sliding", "sharded-infinite"])
    @pytest.mark.parametrize(
        "key,bad",
        [
            ("slots_processed", -3),
            ("slots_processed", 2.7),
            ("slots_processed", "4"),
            ("slots_processed", True),
            ("last_slot", "3"),
            ("last_slot", 2.9),
            ("total_messages", -5),
            ("total_bytes", 1.5),
            ("by_kind", -1),
        ],
    )
    def test_counters_parse_strictly(self, label, key, bad):
        # A negative int would restore "exactly", and int() would turn
        # 2.7 into 2, "4" into 4 and True into 1.
        target = _restore_subject(label, 5)
        state = json.loads(json.dumps(_restore_subject(label, 0).state_dict()))
        protocol = state["protocol"]
        network = (state["groups"][0] if "groups" in state else state)["network"]
        if key in protocol:
            protocol[key] = bad
        elif key == "by_kind":
            network["by_kind"][next(iter(network["by_kind"]))] = bad
        else:
            network[key] = bad
        before = _as_json(target.state_dict())
        with pytest.raises(ConfigurationError):
            target.load_state(state)
        assert _as_json(target.state_dict()) == before

    @pytest.mark.parametrize(
        "label,field,bad",
        [
            (label, field, bad)
            for label, field in (
                ("sliding", "site entries"),
                ("sliding", "coordinator entries"),
                ("sliding-s1", "site entries"),
                ("sliding-s1", "coordinator entries"),
                ("sliding", "known"),
                ("sliding", "pending"),
                ("local-push", "reported"),
            )
            for bad in (8.9, "7", True)
        ]
        + [("sliding", "valid_until", bad) for bad in (8.9, "7", True, "abc")]
        + [
            (label, field, bad)
            for label in ("sliding-s1", "sliding-s1-paper")
            for field, bads in (
                ("site sample_expiry", ("abc", 8.9, True, "7")),
                ("coordinator sample", ("7", 8.9, None, True, "abc")),
            )
            for bad in bads
        ],
    )
    def test_expiries_parse_strictly(self, label, field, bad):
        # int() would restore 8.9 as 8, "7" as 7 and True as 1, and an
        # unchecked valid_until or s = 1 sample expiry of "abc" would fail
        # only at the next ingest.
        target = _restore_subject(label, 5)
        state = json.loads(json.dumps(_restore_subject(label, 0).state_dict()))
        system = state["system"]
        if field == "coordinator sample":
            system["coordinator"]["sample"][2] = bad
        elif field == "site sample_expiry":
            system["sites"][0]["sample_expiry"] = bad
        elif field == "coordinator entries":
            system["coordinator"]["entries"]["expiries"][0] = bad
        elif field == "site entries":
            site = next(
                site for site in system["sites"] if site["entries"]["elements"]
            )
            site["entries"]["expiries"][0] = bad
        elif field == "valid_until":
            system["sites"][0]["valid_until"] = bad
        else:
            system["sites"][0][field] = {"elements": [3], "expiries": [bad]}
        before = _as_json(target.state_dict())
        with pytest.raises(ConfigurationError):
            target.load_state(state)
        assert _as_json(target.state_dict()) == before

    @pytest.mark.parametrize(
        "label,path,value",
        [
            ("sliding-s1", ("protocol", "last_slot"), 1),
            ("sliding", ("protocol", "last_slot"), 1),
            ("sliding", ("protocol", "last_slot"), None),
            ("sliding", ("system", "clock"), 2),
            ("local-push", ("system", "now"), 9),
            ("wr-sliding", ("protocol", "last_slot"), 1),
            ("wr-sliding", ("copies", 1, "protocol", "last_slot"), 1),
            ("sharded", ("protocol", "last_slot"), 1),
            ("sharded", ("groups", 0, "protocol", "last_slot"), 1),
            ("sharded", ("groups", 1, "system", "clock"), 3),
        ],
    )
    def test_windowed_clock_agrees_with_last_slot(self, label, path, value):
        # Every windowed variant keeps its clock at the last slot advanced
        # to; a state that breaks this would load, and its next advance
        # would then fail with "clock cannot move backwards".
        target = _restore_subject(label, 5)
        state = json.loads(json.dumps(_restore_subject(label, 0).state_dict()))
        container = state
        for step in path[:-1]:
            container = container[step]
        assert container[path[-1]] == 6
        container[path[-1]] = value
        before = _as_json(target.state_dict())
        with pytest.raises(ConfigurationError, match="slot"):
            target.load_state(state)
        assert _as_json(target.state_dict()) == before
        target.advance(7)  # the untouched sampler still moves on

    @pytest.mark.parametrize("label", ["sliding-s1", "sliding-s1-paper"])
    def test_s1_expiry_sentinels_restore(self, label):
        # A site that has never synced keeps None (never expires), and a
        # coordinator that has never sampled keeps the float -1.0.
        fresh = make_sampler(**{"num_sites": 3, "seed": 4, **RESTORE_SUBJECTS[label]})
        state = json.loads(json.dumps(fresh.state_dict()))
        assert state["system"]["coordinator"]["sample"][2] == -1.0
        assert {site["sample_expiry"] for site in state["system"]["sites"]} == {None}
        target = _restore_subject(label, 5)
        target.load_state(state)
        assert _as_json(target.state_dict()) == _as_json(state)

    @pytest.mark.parametrize("label", sorted(RESTORE_SUBJECTS))
    def test_only_infinite_windows_restore_negative_slots(self, label):
        # A windowed clock starts at 0 and never moves back (a fresh
        # advance(-3) raises ProtocolError), so a windowed state whose last
        # slots and clocks all read -3 is malformed; an infinite-window
        # sampler accepts advance(-3), so its state restores.
        state = json.loads(json.dumps(_restore_subject(label, 0).state_dict()))
        found = []
        for container, key in _drop_targets(state):
            if key in ("last_slot", "clock", "now") and container[key] == 6:
                container[key] = -3
                found.append(key)
        assert found
        target = _restore_subject(label, 5)
        if "window" not in RESTORE_SUBJECTS[label]:
            target.load_state(state)
            assert _as_json(target.state_dict()) == _as_json(state)
            return
        before = _as_json(target.state_dict())
        with pytest.raises(ConfigurationError, match="slot"):
            target.load_state(state)
        assert _as_json(target.state_dict()) == before
