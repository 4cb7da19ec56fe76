"""Write one snapshot fixture for ``tests/test_legacy_snapshots.py``.

Usage, from the root of a checkout, with the ``src`` whose snapshot
layout the fixture should pin first on ``PYTHONPATH``::

    PYTHONPATH=<other checkout>/src python tests/legacy_snapshots/write_fixture.py RECIPE NAME

builds the sampler ``RECIPE`` names (see :data:`RECIPES`) with 3 sites
and seed 5, drives it through 30 slots of up to six arrivals drawn from
``numpy.random.default_rng(24)`` (the sliding recipes with a window of 8
slots), and writes ``NAME.json`` beside this script: the sampler's
``snapshot()`` under ``snapshot``, the next ten slots of the same draw
under ``then``, and the ``sample()`` and ``stats()`` it reached after
them.  A recipe with a ``reshard`` count also records, under
``resharded``, what the snapshot's state reached through those slots
after ``load_state`` into a sampler of that many shards.  The script
refuses to overwrite an existing file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro import SamplerConfig, make_sampler, snapshot

HERE = Path(__file__).resolve().parent

#: Keys drawn per arrival lie in ``[0, UNIVERSE)``.
UNIVERSE = 60
#: Slots driven before the snapshot, then after it.
SLOTS, THEN = 30, 10

#: Fixture recipes: the sampler's config fields beyond 3 sites and seed
#: 5, the element kind, and the draw order.  ``"rows"`` draws each
#: arrival's element, then its site (the sliding fixtures); ``"columns"``
#: draws a slot's sites, then its elements (the infinite-window ones).
RECIPES: dict[str, dict[str, Any]] = {
    "sliding-s1-exact": {"config": {"variant": "sliding", "window": 8}},
    "sliding-s1-paper": {
        "config": {"variant": "sliding", "window": 8, "coordinator_mode": "paper"}
    },
    "sliding-s4": {
        "config": {"variant": "sliding", "window": 8, "sample_size": 4},
        "elements": "str",
    },
    "sliding-local-push": {
        "config": {"variant": "sliding-local-push", "window": 8, "sample_size": 3}
    },
    "with-replacement": {
        "config": {"variant": "with-replacement", "window": 8, "sample_size": 3}
    },
    "sharded-sliding": {
        "config": {
            "variant": "sharded:sliding",
            "window": 8,
            "sample_size": 4,
            "algorithm": "mix64",
            "shards": 2,
        },
        "reshard": 4,
    },
    "infinite-strings": {
        "config": {"variant": "infinite", "sample_size": 4},
        "elements": "str",
        "draws": "columns",
    },
    "infinite-tuples": {
        "config": {"variant": "infinite", "sample_size": 4},
        "elements": "tuple",
        "draws": "columns",
    },
    "broadcast": {
        "config": {"variant": "broadcast", "sample_size": 4},
        "draws": "columns",
    },
    "caching": {
        "config": {"variant": "caching", "sample_size": 4, "cache_size": 3},
        "elements": "str",
        "draws": "columns",
    },
    "sharded-infinite": {
        "config": {
            "variant": "sharded:infinite",
            "sample_size": 4,
            "algorithm": "mix64",
            "shards": 2,
        },
        "draws": "columns",
        "reshard": 4,
    },
    "with-replacement-infinite": {
        "config": {"variant": "with-replacement", "sample_size": 3},
        "draws": "columns",
    },
}


def element(key: int, kind: str) -> Any:
    """Key ``key`` as an element of ``kind``."""
    if kind == "str":
        return f"k{key}"
    if kind == "tuple":
        return (f"10.0.0.{key % 7}", key)
    return key


def schedule(recipe: dict[str, Any]) -> list[tuple[int, list[tuple[int, Any]]]]:
    """The ``SLOTS + THEN`` slots of arrivals the recipe is driven by."""
    rng = np.random.default_rng(24)
    kind = recipe.get("elements", "int")
    slots = []
    for slot in range(1, SLOTS + THEN + 1):
        burst = int(rng.integers(0, 7))
        if recipe.get("draws", "rows") == "columns":
            sites = rng.integers(0, 3, burst).tolist()
            keys = rng.integers(0, UNIVERSE, burst).tolist()
            arrivals = list(zip(sites, keys))
        else:
            arrivals = []
            for _ in range(burst):
                key = int(rng.integers(0, UNIVERSE))
                arrivals.append((int(rng.integers(0, 3)), key))
        slots.append((slot, [(site, element(key, kind)) for site, key in arrivals]))
    return slots


def drive(sampler: Any, slots: list[tuple[int, list[tuple[int, Any]]]]) -> None:
    for slot, arrivals in slots:
        sampler.advance(slot)
        sampler.observe_batch(arrivals)


def outcome(sampler: Any) -> dict[str, Any]:
    """The ``sample()`` and ``stats()`` a sampler reached, as JSON."""
    result = sampler.sample()
    return json.loads(
        json.dumps(
            {
                "sample": {
                    "items": list(result.items),
                    "pairs": result.pairs,
                    "threshold": result.threshold,
                },
                "stats": asdict(sampler.stats()),
            }
        )
    )


def fixture(recipe: dict[str, Any]) -> dict[str, Any]:
    """The fixture ``recipe`` describes, written by the ``repro`` on the
    import path."""
    config = SamplerConfig(**{"num_sites": 3, "seed": 5, **recipe["config"]})
    slots = schedule(recipe)
    sampler = make_sampler(config)
    drive(sampler, slots[:SLOTS])
    written = json.loads(json.dumps(snapshot(sampler)))
    drive(sampler, slots[SLOTS:])
    result = {
        "snapshot": written,
        "then": json.loads(json.dumps(slots[SLOTS:])),
        **outcome(sampler),
    }
    if "reshard" in recipe:
        resharded = make_sampler(replace(config, shards=recipe["reshard"]))
        resharded.load_state(json.loads(json.dumps(written["state"])))
        drive(resharded, slots[SLOTS:])
        result["resharded"] = {"shards": recipe["reshard"], **outcome(resharded)}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("recipe", choices=sorted(RECIPES))
    parser.add_argument("name", help="file stem of the fixture to write")
    args = parser.parse_args(argv)
    path = HERE / f"{args.name}.json"
    if path.exists():
        print(f"write_fixture.py: {path.name} exists; not overwriting", file=sys.stderr)
        return 1
    path.write_text(json.dumps(fixture(RECIPES[args.recipe])) + "\n")
    print(f"wrote {path.name} with the repro at {Path(sys.modules['repro'].__file__).parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
