"""Tests for the sliding-window protocol (Algorithms 3 & 4).

Exact-mode systems are differentially tested against a brute-force window
oracle at every slot; paper-mode systems get the weaker (but guaranteed)
live-element property plus high agreement.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CentralizedWindowSampler,
    SlidingWindowSystem,
    make_sampler,
    restore,
    snapshot,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import COORDINATOR, Message, MessageKind
from treap_oracle import treap_backed


def random_schedule(rng, num_sites, universe, slots, max_per_slot=4):
    """Yield (slot, arrivals) with random bursts, including empty slots."""
    for slot in range(1, slots + 1):
        burst = int(rng.integers(0, max_per_slot))
        yield slot, [
            (int(rng.integers(0, num_sites)), int(rng.integers(0, universe)))
            for _ in range(burst)
        ]


def drive_against_oracle(system, oracle, schedule, check):
    for slot, arrivals in schedule:
        system.advance(slot)
        system.observe_batch(arrivals)
        for _site, element in arrivals:
            oracle.observe(element, slot)
        oracle.advance(slot)
        check(slot)


class TestExactMode:
    @pytest.mark.parametrize("structure", ["treap", "sorted"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_oracle_every_slot(self, structure, seed):
        hasher = UnitHasher(seed + 40)
        system = SlidingWindowSystem(num_sites=3, window=25, hasher=hasher)
        if structure == "treap":
            treap_backed(system)
        oracle = CentralizedWindowSampler(25, 1, hasher)
        rng = np.random.default_rng(seed)

        def check(slot):
            assert system.sample().first == oracle.min_element(), f"slot {slot}"

        drive_against_oracle(
            system, oracle, random_schedule(rng, 3, 60, 600), check
        )

    def test_small_window_heavy_churn(self):
        hasher = UnitHasher(77)
        system = SlidingWindowSystem(num_sites=2, window=3, hasher=hasher)
        oracle = CentralizedWindowSampler(3, 1, hasher)
        rng = np.random.default_rng(9)

        def check(slot):
            assert system.sample().first == oracle.min_element(), f"slot {slot}"

        drive_against_oracle(
            system, oracle, random_schedule(rng, 2, 10, 400, max_per_slot=6), check
        )

    def test_empty_window_returns_none(self):
        system = SlidingWindowSystem(num_sites=2, window=5, seed=1)
        system.advance(1)
        system.observe_batch([(0, "x")])
        assert system.sample().first == "x"
        # Nothing arrives for > w slots: the window empties.
        for slot in range(2, 12):
            system.advance(slot)
        assert system.sample().first is None

    def test_slot_gaps(self):
        hasher = UnitHasher(50)
        system = SlidingWindowSystem(num_sites=2, window=10, hasher=hasher)
        oracle = CentralizedWindowSampler(10, 1, hasher)
        rng = np.random.default_rng(4)
        slot = 0
        for _ in range(150):
            slot += int(rng.integers(1, 6))  # jump 1-5 slots
            arrivals = [
                (int(rng.integers(0, 2)), int(rng.integers(0, 30)))
                for _ in range(int(rng.integers(0, 3)))
            ]
            system.advance(slot)
            system.observe_batch(arrivals)
            for _site, element in arrivals:
                oracle.observe(element, slot)
            oracle.advance(slot)
            assert system.sample().first == oracle.min_element()

    def test_refresh_extends_membership(self):
        system = SlidingWindowSystem(num_sites=1, window=5, seed=2)
        system.advance(1)
        system.observe_batch([(0, "a")])
        # Keep re-observing "a": it must stay sampled forever.
        for slot in range(2, 40):
            system.advance(slot)
            system.observe_batch([(0, "a")])
            assert system.sample().first == "a"

    def test_expiry_is_exclusive_of_window_edge(self):
        system = SlidingWindowSystem(num_sites=1, window=3, seed=3)
        system.observe(0, "a", slot=1)  # live slots 1,2,3
        system.advance(3)
        assert system.sample().first == "a"
        system.advance(4)
        assert system.sample().first is None


class TestPaperMode:
    def test_always_live_and_mostly_minimal(self):
        hasher = UnitHasher(3)
        system = SlidingWindowSystem(
            num_sites=3, window=20, coordinator_mode="paper", hasher=hasher
        )
        oracle = CentralizedWindowSampler(20, 1, hasher)
        rng = np.random.default_rng(1)
        agree = total = 0
        for slot, arrivals in random_schedule(rng, 3, 50, 1500):
            system.advance(slot)
            system.observe_batch(arrivals)
            for _site, element in arrivals:
                oracle.observe(element, slot)
            oracle.advance(slot)
            got = system.sample().first
            live = set(oracle.live_elements())
            if got is not None:
                assert got in live, f"slot {slot}: served a dead element"
            elif live:
                # paper mode may transiently miss; exact mode never does.
                pass
            total += 1
            agree += got == oracle.min_element()
        assert agree / total > 0.9, "paper mode should usually be minimal"

    def test_mode_validation(self):
        from repro.core.sliding import SlidingWindowCoordinator
        from repro.netsim import SlotClock

        with pytest.raises(ConfigurationError):
            SlidingWindowCoordinator(SlotClock(), mode="psychic")


class TestStructureEquivalence:
    """The sites' sorted candidate sets against the paper's treap, which
    ``treap_backed`` puts into the sites of a fresh system."""

    def test_treap_and_sorted_identical_messages(self):
        rng = np.random.default_rng(11)
        schedule = list(random_schedule(rng, 4, 80, 800))
        results = {}
        for structure in ("treap", "sorted"):
            system = SlidingWindowSystem(num_sites=4, window=30, seed=21)
            if structure == "treap":
                treap_backed(system)
            queries = []
            for slot, arrivals in schedule:
                system.advance(slot)
                system.observe_batch(arrivals)
                queries.append(system.sample().first)
            results[structure] = (system.total_messages, queries)
        assert results["treap"] == results["sorted"]

    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from([5, 2**64 + 5, 9, 2**64 + 9, 2**65 + 9]),
                st.integers(0, 2),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_treap_keeps_hash_collisions_as_sorted_does(self, events):
        # mix64 hashes ints mod 2**64, so 5 and 2**64 + 5 collide: equal
        # hash, and equal expiry when they arrive in the same slot.
        def build():
            return make_sampler(
                "sliding",
                num_sites=2,
                sample_size=1,
                window=4,
                seed=7,
                algorithm="mix64",
            )

        treap, reference = treap_backed(build()), build()
        slot = 0
        for site, item, delta in events:
            slot += delta
            for sampler in (treap, reference):
                sampler.observe(site, item, slot=slot)
            assert treap.sample() == reference.sample()
            assert treap.stats() == reference.stats()
            assert treap.state_dict() == reference.state_dict()

    @pytest.mark.parametrize(
        "config",
        [
            {"variant": "sliding"},
            {"variant": "sliding", "coordinator_mode": "paper"},
            {"variant": "with-replacement", "sample_size": 4},
            {"variant": "sharded:sliding", "shards": 2},
        ],
        ids=["sliding-s1", "sliding-s1-paper", "wr-sliding", "sharded-sliding-s1"],
    )
    def test_snapshots_recording_a_structure_restore_without_it(self, config):
        # Snapshots written while the s = 1 sites could keep a treap record
        # the retired "structure" field; restore drops it whatever its
        # value, and the sampler goes on as if the key were absent.
        schedule = list(random_schedule(np.random.default_rng(3), 3, 40, 30))
        source = make_sampler(num_sites=3, window=6, seed=5, **config)
        for slot, arrivals in schedule[:20]:
            source.advance(slot)
            source.observe_batch(arrivals)
        blob = json.loads(json.dumps(snapshot(source)))
        assert "structure" not in blob["config"]
        revived = []
        for value in ("treap", "sorted", None):
            recorded = copy.deepcopy(blob)
            if value is not None:
                recorded["config"]["structure"] = value
            revived.append(restore(recorded))
        for slot, arrivals in schedule[20:]:
            for sampler in (source, *revived):
                sampler.advance(slot)
                sampler.observe_batch(arrivals)
            for sampler in revived:
                assert sampler.sample() == source.sample()
                assert sampler.stats() == source.stats()
        for sampler in revived:
            assert sampler.config == source.config
            assert sampler.state_dict() == source.state_dict()

    def test_unknown_config_fields_still_raise(self):
        blob = snapshot(make_sampler("sliding", num_sites=2, window=5))
        blob["config"]["layout"] = "treap"
        with pytest.raises(ConfigurationError, match="config"):
            restore(blob)


class TestMessageAccounting:
    def test_every_report_answered(self):
        system = SlidingWindowSystem(num_sites=3, window=15, seed=5)
        rng = np.random.default_rng(2)
        for slot, arrivals in random_schedule(rng, 3, 40, 500):
            system.advance(slot)
            system.observe_batch(arrivals)
        stats = system.network.stats
        assert stats.total_messages == 2 * stats.site_to_coordinator
        assert stats.by_kind[MessageKind.SW_REPORT] == stats.site_to_coordinator
        assert stats.by_kind[MessageKind.SW_SAMPLE] == stats.coordinator_to_site

    def test_larger_window_fewer_messages(self):
        # Fig 5.8's shape, as an invariant.
        totals = {}
        for window in (10, 100):
            system = SlidingWindowSystem(
                num_sites=3, window=window, seed=6, algorithm="mix64"
            )
            rng = np.random.default_rng(3)
            for slot in range(1, 1200):
                arrivals = [
                    (int(rng.integers(0, 3)), int(rng.integers(0, 10_000)))
                    for _ in range(3)
                ]
                system.advance(slot)
                system.observe_batch(arrivals)
            totals[window] = system.total_messages
        assert totals[100] < totals[10]


class TestMemory:
    def test_per_site_memory_logarithmic(self):
        # Lemma 10: |T_i| stays near H_{M_i}, far below the window size.
        system = SlidingWindowSystem(num_sites=2, window=500, seed=7, algorithm="mix64")
        rng = np.random.default_rng(4)
        peak = 0
        for slot in range(1, 2000):
            arrivals = [
                (int(rng.integers(0, 2)), int(rng.integers(0, 100_000)))
                for _ in range(2)
            ]
            system.advance(slot)
            system.observe_batch(arrivals)
            peak = max(peak, max(system.per_site_memory()))
        # M_i <= 500 live distinct per site; H_500 ~ 6.8.  Allow slack for
        # the max over time, but require far below the window size.
        assert peak < 60

    def test_memory_reporting_shape(self):
        system = SlidingWindowSystem(num_sites=4, window=10, seed=8)
        assert system.per_site_memory() == [0, 0, 0, 0]
        system.advance(1)
        system.observe_batch([(0, "a"), (2, "b")])
        sizes = system.per_site_memory()
        assert len(sizes) == 4
        assert sizes[0] >= 1 and sizes[2] >= 1


class TestErrors:
    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowSystem(num_sites=0, window=5)
        with pytest.raises(ConfigurationError):
            SlidingWindowSystem(num_sites=2, window=0)

    def test_clock_rewind_rejected(self):
        system = SlidingWindowSystem(num_sites=1, window=5, seed=1)
        system.advance(10)
        with pytest.raises(ProtocolError):
            system.advance(9)

    def test_site_rejects_foreign_kind(self):
        system = SlidingWindowSystem(num_sites=1, window=5, seed=1)
        bad = Message(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        with pytest.raises(ProtocolError):
            system.sites[0].handle_message(bad, system.network)

    def test_coordinator_rejects_foreign_kind(self):
        system = SlidingWindowSystem(num_sites=1, window=5, seed=1)
        bad = Message(0, COORDINATOR, MessageKind.REPORT, None)
        with pytest.raises(ProtocolError):
            system.coordinator.handle_message(bad, system.network)


#: One config per sliding core whose state layout the facade base writes:
#: s = 1 (both coordinator modes), the general-s feedback core behind
#: ``sliding`` at s > 1, and the local-push ablation.
SLIDING_CORES = {
    "s1-exact": dict(variant="sliding"),
    "s1-paper": dict(variant="sliding", coordinator_mode="paper"),
    "s3": dict(variant="sliding", sample_size=3),
    "local-push-s3": dict(variant="sliding-local-push", sample_size=3),
}


#: Row hashes outside [0, 1) that a restore must refuse, by test id.
BAD_HASHES = {
    "nan": math.nan,
    "inf": math.inf,
    "neg-inf": -math.inf,
    "7.5": 7.5,
    "neg-0.1": -0.1,
}


def with_row_hash(node, value):
    """Give ``node``'s first candidate row the hash ``value`` (adding a row
    for element 8 to a node that holds none)."""
    if node["entries"]:
        node["entries"][0][2] = value
    else:
        node["entries"] = [[8, 100, value]]


def with_repeated_element(node):
    """Append a second row for ``node``'s first candidate element (adding
    element 8 to a node that holds none)."""
    rows = node["entries"] or [[8, 100, 0.5]]
    element, expiry, h = rows[0]
    node["entries"] = rows + [[element, expiry + 1, h]]


def core_schedule(slots, seed=3):
    """The (slot, arrivals) stream :func:`driven_core` feeds; a longer
    stream extends a shorter one with the same seed."""
    rng = np.random.default_rng(seed)
    return list(random_schedule(rng, 3, 30, slots, max_per_slot=6))


def driven_core(name, slots=40, seed=3):
    sampler = make_sampler(num_sites=3, window=8, seed=5, **SLIDING_CORES[name])
    for slot, arrivals in core_schedule(slots, seed):
        sampler.advance(slot)
        sampler.observe_batch(arrivals)
    return sampler


def bystander(name):
    """A driven sampler whose state differs from ``driven_core(name)``'s:
    the target of the failed restores below."""
    return driven_core(name, slots=30, seed=4)


def assert_load_fails_untouched(sampler, state):
    """Loading ``state`` raises ConfigurationError and changes nothing."""
    before = sampler.state_dict()
    with pytest.raises(ConfigurationError, match="malformed"):
        sampler.load_state(state)
    assert sampler.state_dict() == before


class TestCheckpointRewind:
    @pytest.mark.parametrize("core", ["s1-exact", "s1-paper", "s3"])
    def test_earlier_checkpoint_restores_into_a_live_sampler(self, core):
        sampler = driven_core(core, slots=30)
        checkpoint = json.loads(json.dumps(sampler.state_dict()))
        sample, stats = sampler.sample(), sampler.stats()
        threshold = sample.threshold
        rng = np.random.default_rng(11)
        for slot, arrivals in random_schedule(rng, 3, 30, 20, max_per_slot=6):
            sampler.advance(30 + slot)
            sampler.observe_batch(arrivals)
        assert sampler.current_slot == 50
        sampler.load_state(checkpoint)
        assert sampler.sample() == sample
        assert sampler.sample().threshold == threshold
        assert sampler.stats() == stats
        assert sampler.state_dict() == checkpoint
        # Time runs forward again from the checkpoint's slot.
        sampler.advance(31)
        assert sampler.current_slot == 31


#: Site keys a snapshot may lack, by core: the general-s core's
#: acknowledgement records, absent from snapshots taken before it kept them.
OPTIONAL_SITE_KEYS = {"s3": {"known", "pending"}}


class TestTypedRestoreErrors:
    """Malformed sliding state raises ConfigurationError, never a bare
    KeyError/TypeError from deep inside the restore, and leaves the
    sampler it was loaded into exactly as it was."""

    @pytest.mark.parametrize("part", ["system", "coordinator", "site"])
    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_every_dropped_key_is_a_configuration_error(self, core, part):
        source = driven_core(core)
        state = source.state_dict()
        keys = {
            "system": state["system"],
            "coordinator": state["system"]["coordinator"],
            "site": state["system"]["sites"][1],
        }[part]
        assert keys
        for key in list(keys):
            broken = copy.deepcopy(state)
            {
                "system": broken["system"],
                "coordinator": broken["system"]["coordinator"],
                "site": broken["system"]["sites"][1],
            }[part].pop(key)
            target = bystander(core)
            if part == "site" and key in OPTIONAL_SITE_KEYS.get(core, ()):
                self._assert_restores_exactly(target, broken, source)
            else:
                assert_load_fails_untouched(target, broken)

    @staticmethod
    def _assert_restores_exactly(target, state, source):
        # Restores as nothing known (or nothing pending): the next lapse
        # pushes the whole local bottom-s, which is still exact.
        target.load_state(state)
        assert target.sample() == source.sample()
        oracle = CentralizedWindowSampler(8, target.sample_size, target.hasher)
        schedule = core_schedule(80)
        for slot, arrivals in schedule[:40]:
            for _site, element in arrivals:
                oracle.observe(element, slot)
        for slot, arrivals in schedule[40:]:
            target.advance(slot)
            target.observe_batch(arrivals)
            for _site, element in arrivals:
                oracle.observe(element, slot)
            oracle.advance(slot)
            assert target.sample() == oracle.sample(), f"slot {slot}"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda system: system.update(sites=system["sites"][:-1]),
            lambda system: system.update(sites=system["sites"] * 2),
            lambda system: system.update(sites=None),
            lambda system: system.update(coordinator=[]),
            lambda system: system["coordinator"].update(entries=7),
            lambda system: system["sites"][0].update(entries=[[1, 2]]),
            lambda system: system["sites"][0].update(entries=[["a", "b", "c"]]),
            *[
                lambda system, h=h: with_row_hash(system["sites"][0], h)
                for h in BAD_HASHES.values()
            ],
            *[
                lambda system, h=h: with_row_hash(system["coordinator"], h)
                for h in BAD_HASHES.values()
            ],
            lambda system: with_repeated_element(system["sites"][2]),
        ],
        ids=[
            "short-site-list",
            "long-site-list",
            "sites-none",
            "coordinator-list",
            "coordinator-entries-int",
            "short-row",
            "non-numeric-row",
            *[f"site-hash-{name}" for name in BAD_HASHES],
            *[f"coordinator-hash-{name}" for name in BAD_HASHES],
            "duplicate-element",
        ],
    )
    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_wrong_shapes_are_configuration_errors(self, core, corrupt):
        state = driven_core(core).state_dict()
        corrupt(state["system"])
        assert_load_fails_untouched(bystander(core), state)

    @pytest.mark.parametrize(
        "rows",
        [7, None, [[1]], [[1, 2, 3]], [["a", "b"]], [[{"x": 1}, 3]]],
        ids=[
            "int",
            "none",
            "short-row",
            "long-row",
            "non-numeric-expiry",
            "unhashable-element",
        ],
    )
    @pytest.mark.parametrize("key", ["known", "pending"])
    def test_malformed_acknowledgement_rows_are_configuration_errors(
        self, key, rows
    ):
        state = driven_core("s3").state_dict()
        state["system"]["sites"][2][key] = rows
        assert_load_fails_untouched(bystander("s3"), state)

    def test_wrong_clock_type_is_a_configuration_error(self):
        state = driven_core("s3").state_dict()
        state["system"]["clock"] = "soon"
        assert_load_fails_untouched(bystander("s3"), state)
