"""Snapshots in every earlier layout still restore.

The fixtures in ``legacy_snapshots/`` (see its README) were written in
layouts the current one replaced: sliding candidate sets as
``[element, expiry, hash]`` rows or, later, ``[element, expiry]`` rows
(now two columns, ``{"elements": [...], "expiries": [...]}``, as are the
``known``/``pending``/``reported`` records), and infinite-family samples
as ``[hash, element]`` rows under ``"sample"`` (version-1 snapshots hold
the same rows).  Each restores, is written back in the current layout,
and the sampler then goes on exactly as the one that wrote it did; a row
that stores its hash restores only when that hash is the one the
sampler's hasher computes.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro import SamplerConfig, make_sampler, restore
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "legacy_snapshots"
CASES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def load(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def is_sample_rows(key, value):
    """Whether ``value`` under ``key`` is an infinite-family sample of
    ``[hash, element]`` rows (an s = 1 sliding coordinator's ``"sample"``
    is one ``[element, hash, expiry]`` triple)."""
    return (
        key == "sample"
        and isinstance(value, list)
        and all(isinstance(row, list) and len(row) == 2 for row in value)
    )


#: Keys under which the row layout wrote ``[element, expiry]`` rows.
ROW_KEYS = frozenset({"entries", "known", "pending", "reported"})


def stored_hashes(state):
    """``(row, index)`` of every hash a (possibly nested) state stores."""
    if isinstance(state, dict):
        for key, value in state.items():
            if key == "entries" and isinstance(value, list):
                yield from ((row, 2) for row in value if len(row) == 3)
            elif is_sample_rows(key, value):
                yield from ((row, 0) for row in value)
            else:
                yield from stored_hashes(value)
    elif isinstance(state, list):
        for value in state:
            yield from stored_hashes(value)


def in_current_layout(state):
    """``state`` as a restore writes it back: sliding rows as two columns
    of elements and expiries, any stored hash dropped, and sample rows as
    one column of their elements."""
    if isinstance(state, dict):
        rewritten = {}
        for key, value in state.items():
            if key in ROW_KEYS and isinstance(value, list):
                rewritten[key] = {
                    "elements": [row[0] for row in value],
                    "expiries": [row[1] for row in value],
                }
            elif is_sample_rows(key, value):
                rewritten[key] = [[row[1] for row in value]]
            else:
                rewritten[key] = in_current_layout(value)
        return rewritten
    if isinstance(state, list):
        return [in_current_layout(value) for value in state]
    return state


def drive_and_check(sampler, fixture, expected):
    for slot, arrivals in fixture["then"]:
        sampler.advance(slot)
        sampler.observe_batch(
            [(site, tuple(e) if isinstance(e, list) else e) for site, e in arrivals]
        )
    result = sampler.sample()
    as_json = json.loads(json.dumps(list(result.items)))
    assert as_json == expected["sample"]["items"]
    assert json.loads(json.dumps(result.pairs)) == expected["sample"]["pairs"]
    assert result.threshold == expected["sample"]["threshold"]
    assert json.loads(json.dumps(asdict(sampler.stats()))) == expected["stats"]


def test_every_layout_has_a_fixture():
    assert CASES == [
        "broadcast",
        "caching",
        "infinite-strings",
        "infinite-tuples",
        "infinite-v1",
        "sharded-infinite",
        "sharded-sliding",
        "sharded-sliding-rows",
        "sliding-local-push",
        "sliding-local-push-rows",
        "sliding-s1-exact",
        "sliding-s1-exact-rows",
        "sliding-s1-paper-rows",
        "sliding-s4",
        "sliding-s4-rows",
        "with-replacement",
        "with-replacement-infinite",
        "with-replacement-rows",
    ]


#: The fixtures whose rows store their hashes.
HASHED = [name for name in CASES if list(stored_hashes(load(name)["snapshot"]))]


def test_the_fixtures_cover_both_row_layouts():
    assert HASHED == [name for name in CASES if not name.endswith("-rows")]
    for name in CASES:
        if name.endswith("-rows"):
            snapshot = load(name)["snapshot"]
            assert in_current_layout(snapshot) != snapshot, name


def load_writer():
    """``legacy_snapshots/write_fixture.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "write_fixture", FIXTURES / "write_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Recipes of the feedback core (``sliding`` at s >= 2).  Their fixtures
#: were written while its coordinator answered every push of a lapse; it
#: now answers only the final one, so the writer's snapshot counts fewer
#: replies, and its drive-on stats start from that lower count.
FEEDBACK_RECIPES = ("sliding-s4", "sharded-sliding")

#: ``stats()`` fields and the snapshot counters they continue.
STATS_COUNTERS = {
    "messages_total": "total_messages",
    "messages_to_coordinator": "site_to_coordinator",
    "messages_to_sites": "coordinator_to_site",
    "bytes_total": "total_bytes",
}


def networks(snapshot):
    """The ``network`` counters of each group of a snapshot's state."""
    state = snapshot["state"]
    return [group["network"] for group in state.get("groups", [state])]


def without_replies(snapshot):
    """``snapshot`` without the counters that count replies."""
    snapshot = copy.deepcopy(snapshot)
    for network in networks(snapshot):
        for counter in ("total_messages", "total_bytes", "coordinator_to_site"):
            del network[counter]
        network["by_kind"].pop("SW_SAMPLE", None)
    return snapshot


def drive_on(snapshot, stats):
    """What the drive after ``snapshot`` added to each ``stats`` field."""
    return {
        field: stats[field] - sum(network[counter] for network in networks(snapshot))
        for field, counter in STATS_COUNTERS.items()
    }


@pytest.mark.parametrize("name", [name for name in CASES if name != "infinite-v1"])
def test_the_writer_reproduces_every_fixture_in_the_current_layout(name):
    # Each fixture's recipe, written by this src, drives the same slots
    # to the same results, from the fixture's state in the current layout.
    fixture = load(name)
    recipe = name.removesuffix("-rows")
    written = load_writer().fixture(load_writer().RECIPES[recipe])
    assert set(fixture) <= set(written)
    expected = in_current_layout(fixture["snapshot"])
    if recipe not in FEEDBACK_RECIPES:
        for key in set(fixture) - {"snapshot"}:
            assert written[key] == fixture[key], key
        assert written["snapshot"] == expected
        return
    # The feedback core's snapshot differs only in its reply counters, and
    # the slots after it send the same messages.
    assert without_replies(written["snapshot"]) == without_replies(expected)
    assert written["snapshot"] != expected
    for key in set(fixture) - {"snapshot", "stats", "resharded"}:
        assert written[key] == fixture[key], key
    reached = [(written["stats"], fixture["stats"])]
    if "resharded" in fixture:
        ours, theirs = written["resharded"], fixture["resharded"]
        assert {**ours, "stats": None} == {**theirs, "stats": None}
        reached.append((ours["stats"], theirs["stats"]))
    for ours, theirs in reached:
        assert drive_on(written["snapshot"], ours) == drive_on(
            fixture["snapshot"], theirs
        )


@pytest.mark.parametrize("name", CASES)
def test_restores_and_drives_on_as_it_did(name):
    fixture = load(name)
    snapshot = fixture["snapshot"]
    sampler = restore(snapshot)
    # Rewritten in the current layout, and otherwise as it was.
    written = fixture.get("restored", snapshot.get("state"))
    assert json.loads(json.dumps(sampler.state_dict())) == in_current_layout(written)
    drive_and_check(sampler, fixture, fixture)


@pytest.mark.parametrize(
    "name", [name for name in CASES if "resharded" in load(name)]
)
def test_loads_at_another_shard_count_and_drives_on_as_it_did(name):
    fixture = load(name)
    resharded = fixture["resharded"]
    config = SamplerConfig(**fixture["snapshot"]["config"])
    sampler = make_sampler(replace(config, shards=resharded["shards"]))
    sampler.load_state(fixture["snapshot"]["state"])
    drive_and_check(sampler, fixture, resharded)


@pytest.mark.parametrize("name", HASHED)
def test_a_tampered_stored_hash_is_a_configuration_error(name):
    fixture = load(name)
    live = restore(fixture["snapshot"])
    before = live.state_dict()
    tampered = copy.deepcopy(fixture["snapshot"])
    row, index = next(stored_hashes(tampered))
    row[index] = math.nextafter(row[index], 1.0)
    with pytest.raises(ConfigurationError, match="stored hash"):
        restore(tampered)
    if "state" in tampered:
        with pytest.raises(ConfigurationError, match="stored hash"):
            live.load_state(tampered["state"])
    assert live.state_dict() == before
