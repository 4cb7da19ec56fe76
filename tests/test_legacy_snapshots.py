"""Snapshots whose sliding candidate rows store their hash still restore.

The fixtures in ``legacy_snapshots/`` (see its README) were written when
candidate rows were ``[element, expiry, hash]``.  Such a row restores
when its hash is the one the sampler's hasher computes, and the sampler
then goes on exactly as the one that wrote it did.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import restore
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "legacy_snapshots"
CASES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def load(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def candidate_rows(state):
    """Every candidate row of a (possibly nested) sampler state."""
    if isinstance(state, dict):
        for key, value in state.items():
            if key == "entries" and isinstance(value, list):
                yield from value
            else:
                yield from candidate_rows(value)
    elif isinstance(state, list):
        for value in state:
            yield from candidate_rows(value)


def without_hashes(state):
    """``state`` with every candidate row cut to ``[element, expiry]``."""
    state = copy.deepcopy(state)
    for row in candidate_rows(state):
        del row[2:]
    return state


def test_every_layout_has_a_fixture():
    assert CASES == [
        "sharded-sliding",
        "sliding-local-push",
        "sliding-s1-exact",
        "sliding-s4",
        "with-replacement",
    ]


@pytest.mark.parametrize("name", CASES)
def test_restores_and_drives_on_as_it_did(name):
    fixture = load(name)
    state = fixture["snapshot"]["state"]
    rows = list(candidate_rows(state))
    assert rows and all(len(row) == 3 for row in rows)
    sampler = restore(fixture["snapshot"])
    # Rewritten without the hashes, and otherwise as it was.
    assert json.loads(json.dumps(sampler.state_dict())) == without_hashes(state)
    for slot, arrivals in fixture["then"]:
        sampler.advance(slot)
        sampler.observe_batch([tuple(arrival) for arrival in arrivals])
    result = sampler.sample()
    assert list(result.items) == fixture["sample"]["items"]
    assert [list(pair) for pair in result.pairs] == fixture["sample"]["pairs"]
    assert result.threshold == fixture["sample"]["threshold"]
    assert json.loads(json.dumps(asdict(sampler.stats()))) == fixture["stats"]


@pytest.mark.parametrize("name", CASES)
def test_a_tampered_stored_hash_is_a_configuration_error(name):
    fixture = load(name)
    live = restore(fixture["snapshot"])
    before = live.state_dict()
    tampered = copy.deepcopy(fixture["snapshot"])
    row = next(candidate_rows(tampered["state"]))
    row[2] = math.nextafter(row[2], 1.0)
    with pytest.raises(ConfigurationError, match="stored hash"):
        restore(tampered)
    with pytest.raises(ConfigurationError, match="stored hash"):
        live.load_state(tampered["state"])
    assert live.state_dict() == before
