"""Readers for the snapshot layouts earlier releases wrote.

Every old layout is read here and nowhere else.  Each reader rewrites
an old snapshot, or one group's old ``system`` state, into the current
layout, so a facade's ``_load`` parses exactly one layout.  A current
state passes through unchanged after at most one type test, and no
reader edits its argument.

* :func:`upgrade_v1` reads the version-1 envelope (infinite window
  only) and :func:`upgrade_config` a version-2 config that names a
  retired executor or variant, or the dropped ``structure`` field
  (:func:`repro.core.snapshot.restore` calls both).
* :func:`upgrade_bottom_s` reads the infinite family's
  ``[hash, element]`` sample rows; every version-2 snapshot before the
  sample became one column of elements stored them, and version 1 did.
* :func:`upgrade_sliding` reads the sliding family's row layout: candidate
  rows ``[element, expiry]``, or ``[element, expiry, hash]`` from before
  that, and ``known``/``pending``/``reported`` records as
  ``[element, expiry]`` rows.  A feedback site's missing ``known`` or
  ``pending`` record, absent before those records were kept, reads as
  empty: the next lapse then pushes the whole local bottom-s, which is
  still exact.

A stored hash is accepted only when it is the hash the sampler's hasher
computes for its element; any other raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..errors import ConfigurationError
from ..hashing.unit import UnitHasher
from ..netsim.network import Network
from .events import EventBatch
from .protocol import revive_element, stats_state

__all__ = [
    "upgrade_v1",
    "upgrade_config",
    "upgrade_bottom_s",
    "upgrade_sliding",
    "upgrade_sample_rows",
]

#: Backends earlier releases could record in ``config.executor``, mapped
#: to their surviving equivalent.  The backend never changes sampler
#: state (every backend is bit-identical), so the substitution is exact.
_RETIRED_EXECUTORS = {"process": "shm", "thread": "serial"}

#: Variant names earlier releases could record in ``config.variant``,
#: mapped to the name that builds the same class at ``s >= 2``.
_RETIRED_VARIANTS = {
    "sliding-feedback": "sliding",
    "sharded:sliding-feedback": "sharded:sliding",
}

#: Feedback-site records that snapshots written before they were kept
#: lack.
_ADDED_RECORDS = ("known", "pending")


def upgrade_config(config: dict[str, Any]) -> dict[str, Any]:
    """A version-2 snapshot's config with every retired name replaced.

    The ``structure`` field (``"treap"`` or ``"sorted"``) that snapshots
    wrote while the ``s = 1`` sites had two candidate structures is
    dropped whatever its value: both kept the same entries and the state
    layout never named it.  ``"sliding-feedback"`` and
    ``"sharded:sliding-feedback"`` become ``"sliding"`` and
    ``"sharded:sliding"``, which build the same class at ``s >= 2``.

    Raises:
        ConfigurationError: For a retired variant name at
            ``sample_size=1``, whose state ``"sliding"`` cannot read.
    """
    config = dict(config)
    config.pop("structure", None)
    executor = config.get("executor")
    if isinstance(executor, str) and executor in _RETIRED_EXECUTORS:
        config["executor"] = _RETIRED_EXECUTORS[executor]
    variant = config.get("variant")
    if isinstance(variant, str) and variant in _RETIRED_VARIANTS:
        if config.get("sample_size", 1) == 1:
            raise ConfigurationError(
                f"cannot restore a {variant!r} snapshot at sample_size=1: "
                "the variant is retired and 'sliding' keeps a different "
                "s = 1 state"
            )
        config["variant"] = _RETIRED_VARIANTS[variant]
    return config


def upgrade_v1(snapshot: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    """The config and the version-2 state of a version-1 snapshot.

    The state is that of a fresh ``infinite`` sampler holding the
    snapshot's ``[hash, element]`` rows (read by :func:`upgrade_bottom_s`
    on load), with every site at the sample's threshold.

    Raises:
        ConfigurationError: For a missing field or a malformed row.
    """
    try:
        config = {
            "variant": "infinite",
            "num_sites": snapshot["num_sites"],
            "sample_size": snapshot["sample_size"],
            "seed": snapshot["hash_seed"],
            "algorithm": snapshot["hash_algorithm"],
        }
        rows = snapshot["sample"]
        _, hashes = upgrade_sample_rows(rows)
        full = len(hashes) >= config["sample_size"]
        threshold = hashes[config["sample_size"] - 1] if full else 1.0
        site_thresholds = [threshold] * config["num_sites"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigurationError(f"malformed snapshot: {exc}") from exc
    state = {
        "protocol": {"last_slot": None, "slots_processed": 0},
        "network": stats_state(Network()),
        "system": {
            "sample": rows,
            "reports_received": 0,
            "reports_accepted": 0,
            "site_thresholds": site_thresholds,
        },
    }
    return config, state


def upgrade_sample_rows(rows: list[Any]) -> tuple[list[Any], list[float]]:
    """Read ``[hash, element]`` sample rows.

    Returns the rows' elements in ascending ``(hash, element)`` order,
    the order of the element column snapshots now store, and the stored
    hashes in the same order.

    Raises:
        TypeError, ValueError: For a row that is not ``[hash, element]``,
            or a hash that is not a number in ``[0, 1)`` (NaN included).
    """
    pairs = []
    for h, element in rows:
        h = float(h)
        if not 0.0 <= h < 1.0:
            raise ValueError(f"sample hash {h!r} is not in [0, 1)")
        pairs.append((h, revive_element(element)))
    pairs.sort()
    return [element for _, element in pairs], [h for h, _ in pairs]


def _check_stored(
    hasher: UnitHasher, elements: list[Any], stored: list[float]
) -> None:
    """Require each stored hash to be its element's hash under ``hasher``,
    hashing every element in one pass.

    Raises:
        TypeError: For an element the hasher refuses.
        ValueError: For a stored hash that is not the recomputed one.
    """
    hashes = EventBatch(elements).hash_column(hasher).tolist()
    for element, h, recomputed in zip(elements, stored, hashes):
        if h != recomputed:
            raise ValueError(
                f"stored hash {h!r} of {element!r} is not its hash "
                f"{recomputed!r}"
            )


def upgrade_bottom_s(system: Any, hasher: UnitHasher) -> Any:
    """An infinite-family ``system`` state in the current layout.

    The current sample is one column, ``[elements]``; the rows earlier
    snapshots wrote are ``[hash, element]``.  They are told apart by the
    first entry's type: an element is an int, a string, bytes or a
    tuple, never a float, and an empty sample was ``[]``, not ``[[]]``.

    Raises:
        ConfigurationError: For malformed rows, an element the hasher
            refuses, or a stored hash that is not the recomputed one.
    """
    try:
        sample = system["sample"]
        if len(sample) == 1 and not (sample[0] and isinstance(sample[0][0], float)):
            return system
    except (KeyError, TypeError, IndexError):
        return system  # the family's parser names the fault
    if not isinstance(sample, list):
        return system
    try:
        elements, stored = upgrade_sample_rows(sample)
        _check_stored(hasher, elements, stored)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed sample rows: {exc}") from exc
    return {**system, "sample": [elements]}


def _row_columns(
    rows: list[Any], stored: list[tuple[Any, float]], hashed: bool
) -> dict[str, list[Any]]:
    """``[element, expiry]`` rows as the two columns the current layout
    writes.  With ``hashed``, a row may also be ``[element, expiry,
    hash]``; its revived element and hash join ``stored``."""
    elements = []
    expiries = []
    for row in rows:
        if hashed and len(row) == 3:
            element, expiry, h = row
            stored.append((revive_element(element), h))
        else:
            element, expiry = row
        elements.append(element)
        expiries.append(expiry)
    return {"elements": elements, "expiries": expiries}


def upgrade_sliding(system: Any, hasher: UnitHasher, records: Sequence[str]) -> Any:
    """A sliding-family ``system`` state in the current layout.

    The current layout writes every candidate set and every record named
    in ``records`` as ``{"elements": [...], "expiries": [...]}``; the
    row layout wrote lists of rows.  They are told apart by the type of
    the first site's ``entries``: a dict now, a list of rows before.

    Raises:
        ConfigurationError: For a row of another length, an element the
            hasher refuses, or a stored hash that is not the recomputed
            one.
    """
    try:
        if type(system["sites"][0]["entries"]) is not list:
            return system
    except (KeyError, TypeError, IndexError):
        return system  # the family's parser names the fault
    stored: list[tuple[Any, float]] = []
    try:
        coordinator = dict(system["coordinator"])
        sites = [dict(site) for site in system["sites"]]
        for node in (coordinator, *sites):
            rows = node.get("entries")
            if isinstance(rows, list):
                node["entries"] = _row_columns(rows, stored, hashed=True)
        for site in sites:
            for name in records:
                if name not in site and name in _ADDED_RECORDS:
                    site[name] = []
                rows = site.get(name)
                if isinstance(rows, list):
                    site[name] = _row_columns(rows, stored, hashed=False)
        if stored:
            elements, hashes = zip(*stored)
            _check_stored(hasher, list(elements), list(hashes))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed candidate rows: {exc!r}") from exc
    return {**system, "coordinator": coordinator, "sites": sites}
