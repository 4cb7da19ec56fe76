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
from repro.netsim import MessageKind
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
        with pytest.raises(ProtocolError):
            system.sites[0].handle_message(MessageKind.THRESHOLD, 0.5, system.network)

    def test_coordinator_rejects_foreign_kind(self):
        system = SlidingWindowSystem(num_sites=1, window=5, seed=1)
        with pytest.raises(ProtocolError):
            system.coordinator.handle_message(MessageKind.REPORT, None, system.network)


#: One config per sliding core whose state layout the facade base writes:
#: s = 1 (both coordinator modes), the general-s feedback core behind
#: ``sliding`` at s > 1, and the local-push ablation.
SLIDING_CORES = {
    "s1-exact": dict(variant="sliding"),
    "s1-paper": dict(variant="sliding", coordinator_mode="paper"),
    "s3": dict(variant="sliding", sample_size=3),
    "local-push-s3": dict(variant="sliding-local-push", sample_size=3),
}


#: Stored row hashes that are not the element's hash, by test id: outside
#: [0, 1), and a plausible one.
BAD_HASHES = {
    "nan": math.nan,
    "inf": math.inf,
    "neg-inf": -math.inf,
    "7.5": 7.5,
    "neg-0.1": -0.1,
    "other": 0.5,
    "string": "0.5",
}


def with_row_hash(node, value):
    """Store the hash ``value`` in ``node``'s first candidate row, which
    becomes an ``[element, expiry, hash]`` row (adding a row for element 8
    to a node that holds none)."""
    if node["entries"]:
        node["entries"][0][2:] = [value]
    else:
        node["entries"] = [[8, 100, value]]


def with_repeated_element(node):
    """Append a second row for ``node``'s first candidate element (adding
    element 8 to a node that holds none)."""
    rows = node["entries"] or [[8, 100]]
    element, expiry, *stored = rows[0]
    node["entries"] = rows + [[element, expiry + 1, *stored]]


def as_rows(system):
    """Rewrite a sliding ``system`` state in the row layout earlier
    snapshots wrote: every candidate set and every ``known``/``pending``/
    ``reported`` record as ``[element, expiry]`` rows instead of two
    columns."""
    for node in (system["coordinator"], *system["sites"]):
        for key in ("entries", "known", "pending", "reported"):
            if isinstance(node.get(key), dict):
                columns = node[key]
                node[key] = [
                    [element, expiry]
                    for element, expiry in zip(
                        columns["elements"], columns["expiries"]
                    )
                ]


def with_stored_hashes(system, hasher):
    """Rewrite a sliding ``system`` state in the row layout with every
    candidate row as the ``[element, expiry, hash]`` rows snapshots stored
    before restores recomputed the hashes."""
    as_rows(system)
    for node in (system["coordinator"], *system["sites"]):
        if node["entries"]:
            node["entries"] = [
                [element, expiry, hasher.unit(element)]
                for element, expiry in node["entries"]
            ]


def with_repeated_column_element(node):
    """Append ``node``'s first candidate element again at a later expiry
    (adding element 8 to a node that holds none)."""
    columns = node["entries"]
    if not columns["elements"]:
        columns.update(elements=[8], expiries=[100])
    columns["elements"].append(columns["elements"][0])
    columns["expiries"].append(max(columns["expiries"]) + 1)


#: Malformed sliding states of any layout, by test id: each edits a
#: state's ``system``.
STRUCTURE_CORRUPTIONS = {
    "short-site-list": lambda system: system.update(sites=system["sites"][:-1]),
    "long-site-list": lambda system: system.update(sites=system["sites"] * 2),
    "sites-none": lambda system: system.update(sites=None),
    "coordinator-list": lambda system: system.update(coordinator=[]),
    "coordinator-entries-int": lambda system: system["coordinator"].update(
        entries=7
    ),
}

#: Malformed column states, by test id.
CORRUPTIONS = {
    **STRUCTURE_CORRUPTIONS,
    "short-column": lambda system: system["sites"][0].update(
        entries={"elements": [1, 2], "expiries": [40]}
    ),
    "missing-column": lambda system: system["sites"][0].update(
        entries={"elements": [1]}
    ),
    "extra-column": lambda system: system["sites"][0].update(
        entries={"elements": [1], "expiries": [40], "hashes": [0.5]}
    ),
    "string-column": lambda system: system["sites"][0].update(
        entries={"elements": "ab", "expiries": [40, 41]}
    ),
    "non-numeric-expiry": lambda system: system["sites"][0].update(
        entries={"elements": ["a"], "expiries": ["b"]}
    ),
    "float-expiry": lambda system: system["sites"][0].update(
        entries={"elements": [1], "expiries": [40.0]}
    ),
    "unhashable-element": lambda system: system["sites"][0].update(
        entries={"elements": [{"x": 1}], "expiries": [3]}
    ),
    "rows-after-columns": lambda system: system["sites"][1].update(
        entries=[[1, 40]]
    ),
    "duplicate-element": lambda system: with_repeated_column_element(
        system["sites"][2]
    ),
}

#: Malformed row states, by test id.
ROW_CORRUPTIONS = {
    **STRUCTURE_CORRUPTIONS,
    "short-row": lambda system: system["sites"][0].update(entries=[[1]]),
    "long-row": lambda system: system["sites"][0].update(
        entries=[[1, 2, 0.5, 3]]
    ),
    "non-numeric-row": lambda system: system["sites"][0].update(
        entries=[["a", "b", "c"]]
    ),
    "non-numeric-expiry": lambda system: system["sites"][0].update(
        entries=[["a", "b"]]
    ),
    "unhashable-element": lambda system: system["sites"][0].update(
        entries=[[{"x": 1}, 3]]
    ),
    **{
        f"site-hash-{name}": lambda system, h=h: with_row_hash(
            system["sites"][0], h
        )
        for name, h in BAD_HASHES.items()
    },
    **{
        f"coordinator-hash-{name}": lambda system, h=h: with_row_hash(
            system["coordinator"], h
        )
        for name, h in BAD_HASHES.items()
    },
    "duplicate-element": lambda system: with_repeated_element(
        system["sites"][2]
    ),
}


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


#: Site keys a row-layout snapshot may lack, by core: the general-s
#: core's acknowledgement records, absent from snapshots taken before it
#: kept them.
OPTIONAL_SITE_KEYS = {"s3": {"known", "pending"}}


class TestTypedRestoreErrors:
    """Malformed sliding state raises ConfigurationError, never a bare
    KeyError/TypeError from deep inside the restore, and leaves the
    sampler it was loaded into exactly as it was."""

    @pytest.mark.parametrize("part", ["system", "coordinator", "site"])
    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_every_dropped_key_is_a_configuration_error(self, core, part):
        self._drop_each_key(core, part, rows=False)

    @pytest.mark.parametrize("part", ["system", "coordinator", "site"])
    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_every_dropped_key_of_a_row_state_is_a_configuration_error(
        self, core, part
    ):
        # Except a record the row layout's earliest snapshots lacked.
        self._drop_each_key(core, part, rows=True)

    def _drop_each_key(self, core, part, rows):
        source = driven_core(core)
        state = source.state_dict()
        if rows:
            as_rows(state["system"])
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
            if rows and part == "site" and key in OPTIONAL_SITE_KEYS.get(core, ()):
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

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_wrong_shapes_are_configuration_errors(self, core, corruption):
        state = driven_core(core).state_dict()
        CORRUPTIONS[corruption](state["system"])
        assert_load_fails_untouched(bystander(core), state)

    @pytest.mark.parametrize("corruption", sorted(ROW_CORRUPTIONS))
    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_wrong_shapes_of_rows_are_configuration_errors(self, core, corruption):
        state = driven_core(core).state_dict()
        as_rows(state["system"])
        ROW_CORRUPTIONS[corruption](state["system"])
        assert_load_fails_untouched(bystander(core), state)

    @pytest.mark.parametrize("corruption", sorted(ROW_CORRUPTIONS))
    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_wrong_shapes_of_stored_hash_rows_are_configuration_errors(
        self, core, corruption
    ):
        source = driven_core(core)
        state = source.state_dict()
        with_stored_hashes(state["system"], source.hasher)
        ROW_CORRUPTIONS[corruption](state["system"])
        assert_load_fails_untouched(bystander(core), state)

    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_columns_and_both_row_layouts_load_alike(self, core):
        source = driven_core(core)
        state = json.loads(json.dumps(source.state_dict()))
        system = state["system"]
        columns = [
            node[key]
            for node in (system["coordinator"], *system["sites"])
            for key in ("entries", "known", "pending", "reported")
            if node.get(key) is not None
        ]
        assert columns and all(
            set(column) == {"elements", "expiries"}
            and len(column["elements"]) == len(column["expiries"])
            for column in columns
        )
        assert any(column["elements"] for column in columns)
        # Rows, with or without their hashes, as earlier snapshots wrote
        # them, restore to the same sampler.
        for hashed in (False, True):
            rows = copy.deepcopy(state)
            if hashed:
                with_stored_hashes(rows["system"], source.hasher)
            else:
                as_rows(rows["system"])
            target = bystander(core)
            target.load_state(rows)
            assert target.state_dict() == source.state_dict()
            assert target.sample() == source.sample()

    @staticmethod
    def _driven_s1(coordinator_mode="exact", seed=8):
        sampler = make_sampler(
            "sliding",
            num_sites=4,
            window=8,
            algorithm="mix64",
            coordinator_mode=coordinator_mode,
        )
        rng = np.random.default_rng(seed)
        for slot, arrivals in random_schedule(rng, 4, 40, 30, max_per_slot=6):
            sampler.advance(slot)
            sampler.observe_batch(arrivals)
        return sampler

    @pytest.mark.parametrize(
        "edit",
        [
            lambda sample, entries: ["bogus", 0.0001, 25],
            lambda sample, entries: [sample[0], sample[1], sample[2] + 1],
            lambda sample, entries: [sample[0], sample[1] / 2, sample[2]],
            lambda sample, entries: [sample[0] + 1, sample[1], sample[2]],
            lambda sample, entries: [None, 1.0, -1.0],
        ],
        ids=["bogus", "expiry", "hash", "element", "none-while-live"],
    )
    def test_exact_sample_must_be_what_its_entries_give(self, edit):
        # An exact-mode coordinator recomputes its sample from its entries
        # at every read, so a persisted triple that disagrees with them
        # cannot restore exactly: it is refused, not silently replaced.
        source = self._driven_s1()
        state = json.loads(json.dumps(source.state_dict()))
        coordinator = state["system"]["coordinator"]
        assert coordinator["entries"]
        coordinator["sample"] = edit(coordinator["sample"], coordinator["entries"])
        target = self._driven_s1(seed=9)
        assert_load_fails_untouched(target, state)
        # An empty coordinator's sample is the never-sampled mark.
        fresh = make_sampler("sliding", num_sites=4, window=8, algorithm="mix64")
        empty = json.loads(json.dumps(fresh.state_dict()))
        empty["system"]["coordinator"]["sample"] = ["bogus", 0.0001, 25]
        assert_load_fails_untouched(target, empty)

    def test_paper_sample_keeps_its_own_tuple(self):
        source = self._driven_s1("paper")
        state = json.loads(json.dumps(source.state_dict()))
        state["system"]["coordinator"]["sample"] = ["other", 0.0001, 33]
        target = self._driven_s1("paper", seed=9)
        target.load_state(state)
        assert target.state_dict()["system"]["coordinator"]["sample"] == [
            "other",
            0.0001,
            33,
        ]

    def test_an_element_the_hasher_refuses_is_a_configuration_error(self):
        source = make_sampler(
            "sliding", num_sites=2, window=8, sample_size=3, algorithm="mix64"
        )
        source.advance(1)
        source.observe_batch([(0, 4), (1, 9)])
        state = json.loads(json.dumps(source.state_dict()))
        state["system"]["sites"][0]["entries"]["elements"][0] = "four"
        assert_load_fails_untouched(source, state)

    @pytest.mark.parametrize(
        "rows",
        [
            7,
            None,
            [[1]],
            [[1, 2, 3]],
            [["a", "b"]],
            [[{"x": 1}, 3]],
            {"elements": [1, 2], "expiries": [3]},
            {"elements": ["a"], "expiries": ["b"]},
            {"elements": [{"x": 1}], "expiries": [3]},
            {"elements": [1], "expiries": [3], "hashes": [0.5]},
        ],
        ids=[
            "int",
            "none",
            "short-row",
            "long-row",
            "non-numeric-expiry",
            "unhashable-element",
            "short-column",
            "non-numeric-column-expiry",
            "unhashable-column-element",
            "extra-column",
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

    def test_a_python_hash_snapshot_is_refused(self):
        # ``python`` hashed with the builtin ``hash()``, which salts
        # strings per process; a snapshot naming it is refused under
        # every salt.
        wire = json.loads(json.dumps(snapshot(driven_core("s3"))))
        wire["config"]["algorithm"] = "python"
        with pytest.raises(ConfigurationError, match="python"):
            restore(wire)


class TestSettledRows:
    """A snapshot writes every candidate set settled: in ascending
    ``(expiry, hash)`` order, with no row a load would drop.  Rows that
    break either rule under the recomputed hashes are refused, leaving
    the sampler untouched."""

    @staticmethod
    def _mix64_core(name, slots=40):
        sampler = make_sampler(
            num_sites=3, window=8, seed=5, algorithm="mix64", **SLIDING_CORES[name]
        )
        for slot, arrivals in core_schedule(slots):
            sampler.advance(slot)
            sampler.observe_batch(arrivals)
        return sampler

    @pytest.mark.parametrize("layout", ["columns", "rows"])
    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_two_swapped_rows_are_refused(self, core, layout):
        source = self._mix64_core(core)
        state = json.loads(json.dumps(source.state_dict()))
        self._mix64_core(core, slots=30).load_state(copy.deepcopy(state))
        hasher = source.hasher
        for node in state["system"]["sites"]:
            columns = node["entries"]
            keys = list(
                zip(columns["expiries"], map(hasher.unit, columns["elements"]))
            )
            i = next((i for i in range(len(keys) - 1) if keys[i] < keys[i + 1]), None)
            if i is not None:
                for column in columns.values():
                    column[i], column[i + 1] = column[i + 1], column[i]
                break
        else:
            pytest.fail("no site holds two distinct rows")
        if layout == "rows":
            as_rows(state["system"])
        target = self._mix64_core(core, slots=30)
        before = target.state_dict()
        with pytest.raises(ConfigurationError, match="ascending"):
            target.load_state(state)
        assert target.state_dict() == before

    @pytest.mark.parametrize("core", sorted(SLIDING_CORES))
    def test_a_row_the_load_would_drop_is_refused(self, core):
        source = self._mix64_core(core)
        state = json.loads(json.dumps(source.state_dict()))
        self._mix64_core(core, slots=30).load_state(copy.deepcopy(state))
        hasher = source.hasher
        columns = max(
            (node["entries"] for node in state["system"]["sites"]),
            key=lambda columns: len(columns["elements"]),
        )
        assert len(columns["elements"]) >= source.sample_size
        # An element at the earliest expiry hashing above every entry is
        # s-dominated by the set's later entries: in order, but no
        # settled set holds it.
        top = max(map(hasher.unit, columns["elements"]))
        element = next(
            e
            for e in range(1000, 2000)
            if hasher.unit(e) > top and e not in columns["elements"]
        )
        columns["elements"].insert(0, element)
        columns["expiries"].insert(0, columns["expiries"][0] - 1)
        target = self._mix64_core(core, slots=30)
        before = target.state_dict()
        with pytest.raises(ConfigurationError, match="drops 1 of"):
            target.load_state(state)
        assert target.state_dict() == before
