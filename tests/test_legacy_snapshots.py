"""Snapshots that store hashes beside their elements still restore.

The fixtures in ``legacy_snapshots/`` (see its README) were written when
sliding candidate rows were ``[element, expiry, hash]`` and
infinite-family samples were ``[hash, element]`` rows under ``"sample"``
(version-1 snapshots hold the same rows).  Such a row restores when its
hash is the one the sampler's hasher computes, and the sampler then goes
on exactly as the one that wrote it did.
"""

from __future__ import annotations

import copy
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


def stored_hashes(state):
    """``(row, index)`` of every hash a (possibly nested) state stores."""
    if isinstance(state, dict):
        for key, value in state.items():
            if key == "entries" and isinstance(value, list):
                yield from ((row, 2) for row in value)
            elif is_sample_rows(key, value):
                yield from ((row, 0) for row in value)
            else:
                yield from stored_hashes(value)
    elif isinstance(state, list):
        for value in state:
            yield from stored_hashes(value)


def without_hashes(state):
    """``state`` as a restore writes it back: candidate rows cut to
    ``[element, expiry]``, sample rows to one column of their elements."""
    if isinstance(state, dict):
        rewritten = {}
        for key, value in state.items():
            if key == "entries" and isinstance(value, list):
                rewritten[key] = [row[:2] for row in value]
            elif is_sample_rows(key, value):
                rewritten[key] = [[row[1] for row in value]]
            else:
                rewritten[key] = without_hashes(value)
        return rewritten
    if isinstance(state, list):
        return [without_hashes(value) for value in state]
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
        "sliding-local-push",
        "sliding-s1-exact",
        "sliding-s4",
        "with-replacement",
        "with-replacement-infinite",
    ]


@pytest.mark.parametrize("name", CASES)
def test_restores_and_drives_on_as_it_did(name):
    fixture = load(name)
    snapshot = fixture["snapshot"]
    assert list(stored_hashes(snapshot))
    sampler = restore(snapshot)
    # Rewritten without the hashes, and otherwise as it was.
    written = fixture.get("restored", snapshot.get("state"))
    assert json.loads(json.dumps(sampler.state_dict())) == without_hashes(written)
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


@pytest.mark.parametrize("name", CASES)
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
