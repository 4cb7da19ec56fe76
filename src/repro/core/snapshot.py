"""Checkpoint / restore for **any** registered sampler variant.

Production deployments of a continuous monitor need to survive
coordinator restarts.  With the unified protocol this is variant-agnostic:
every :class:`~repro.core.protocol.Sampler` exposes its construction
recipe (:attr:`~repro.core.protocol.Sampler.config`) and its full logical
state (:meth:`~repro.core.protocol.Sampler.state_dict` /
:meth:`~repro.core.protocol.Sampler.load_state`), so :func:`snapshot`
and :func:`restore` work for the infinite-window system, all three
sliding-window systems, the with-replacement samplers, and the
broadcast/caching baselines alike — and for any variant registered later
via :func:`repro.core.api.register_variant`.

A restored sampler is indistinguishable from the original: ``sample()``
and ``stats()`` (including message counters) round-trip exactly, modulo
in-flight messages lost with the crash.

The snapshot is a plain JSON-serializable dict: no pickle, safe to store.
It keeps elements, not their hashes: each retained hash is a pure
function of (seed, algorithm, element), so a restore recomputes them.
An infinite-family sample is stored by column, ``"sample": [elements]``:
its one column holds the elements in the store's ascending
``(hash, element)`` order.  A sliding candidate row is
``[element, expiry]``, and a sharded restore hashes every group's sample
in one pass (the family ``load_states`` hook).  The rows earlier
snapshots stored with a hash column — infinite-family
``[hash, element]`` rows under ``"sample"``, sliding
``[element, expiry, hash]`` — still load when each stored hash is the
recomputed one (:func:`~repro.core.infinite.upgrade_sample_rows` reads
the former; a sample whose first entry starts with a float is read as
such rows, since an element is an int, a string, bytes or a tuple).
Version-1 snapshots (infinite-window only, written by earlier releases,
with the same ``[hash, element]`` rows) are still read, and so are
version-2 snapshots that name a retired execution backend (``"process"``
restores as ``"shm"``, ``"thread"`` as ``"serial"``) or a retired variant name: ``"sliding-feedback"`` and
``"sharded:sliding-feedback"`` restore as ``"sliding"`` and
``"sharded:sliding"``, which build the same class for ``s >= 2``; their
``s = 1`` snapshots hold a state ``"sliding"`` cannot read and raise
:class:`~repro.errors.ConfigurationError`.  Every version-2 snapshot
written before the ``s = 1`` sites shared one candidate structure records
a ``structure`` field (``"treap"`` or ``"sorted"``); it is dropped
whatever its value, since both structures keep the same entries and the
state layout never named it.

Under the ``python`` hash algorithm, ``hash()`` salts str and bytes per
process (unless ``PYTHONHASHSEED`` is fixed), so a snapshot of such
elements restores exactly only under the salt that wrote it.  Under
another salt an infinite-family restore raises
:class:`~repro.errors.ConfigurationError`, since the recomputed hashes
break the stored order (only a sample of one element, or a few that
happen to keep their order, loads, under its new hashes); earlier
releases stored those hashes and loaded such a snapshot anywhere.  A
sliding restore loads its candidates under their new hashes.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError
from .api import make_sampler
from .infinite import DistinctSamplerSystem
from .protocol import Sampler, SamplerConfig

__all__ = ["snapshot", "restore", "SNAPSHOT_VERSION"]

#: Format version written into every snapshot.
SNAPSHOT_VERSION = 2

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


def snapshot(sampler: Sampler) -> dict[str, Any]:
    """Capture the full logical state of any registered sampler.

    Args:
        sampler: The sampler to checkpoint (can keep running afterwards).

    Returns:
        A JSON-serializable dict.  Elements are stored as-is; they must
        themselves be JSON-friendly (int/str/tuple) for on-disk storage,
        or the caller may serialize the dict with a richer codec.
    """
    if not isinstance(sampler, Sampler):
        raise ConfigurationError(
            f"cannot snapshot {type(sampler).__name__}: not a Sampler"
        )
    return {
        "version": SNAPSHOT_VERSION,
        "config": sampler.config.to_dict(),
        "state": sampler.state_dict(),
    }


def restore(state: dict[str, Any]) -> Sampler:
    """Rebuild a sampler from a :func:`snapshot` dict.

    Args:
        state: A snapshot produced by :func:`snapshot` (version 2) or by
            an earlier release (version 1, infinite-window only).

    Returns:
        A fresh sampler of the snapshotted variant holding the
        checkpointed sample, thresholds, and cost counters.

    Raises:
        ConfigurationError: If the snapshot is malformed or from an
            unsupported version.
    """
    try:
        version = state["version"]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed snapshot: {exc}") from exc
    if version == 1:
        return _restore_v1(state)
    if version != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"unsupported snapshot version {version}; "
            f"this build reads versions 1 and {SNAPSHOT_VERSION}"
        )
    try:
        config_dict = dict(state["config"])
        sampler_state = state["state"]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed snapshot: {exc}") from exc
    config_dict.pop("structure", None)
    executor = config_dict.get("executor")
    if isinstance(executor, str) and executor in _RETIRED_EXECUTORS:
        config_dict["executor"] = _RETIRED_EXECUTORS[executor]
    variant = config_dict.get("variant")
    if isinstance(variant, str) and variant in _RETIRED_VARIANTS:
        if config_dict.get("sample_size", 1) == 1:
            raise ConfigurationError(
                f"cannot restore a {variant!r} snapshot at sample_size=1: "
                "the variant is retired and 'sliding' keeps a different "
                "s = 1 state"
            )
        config_dict["variant"] = _RETIRED_VARIANTS[variant]
    try:
        config = SamplerConfig(**config_dict)
    except TypeError as exc:
        raise ConfigurationError(f"malformed snapshot config: {exc}") from exc
    sampler = make_sampler(config)
    sampler.load_state(sampler_state)
    return sampler


def _restore_v1(state: dict[str, Any]) -> DistinctSamplerSystem:
    """Read the legacy infinite-window-only snapshot layout.

    Its ``[hash, element]`` rows load as an earlier version-2 state's do
    (:func:`~repro.core.infinite.upgrade_sample_rows`: each stored hash
    must be the recomputed one), and every site takes the sample's
    threshold.
    """
    try:
        num_sites = state["num_sites"]
        sample_size = state["sample_size"]
        seed = state["hash_seed"]
        algorithm = state["hash_algorithm"]
        sample = state["sample"]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed snapshot: {exc}") from exc
    system = make_sampler(
        "infinite",
        num_sites=num_sites,
        sample_size=sample_size,
        seed=seed,
        algorithm=algorithm,
    )
    system._load(
        {
            "sample": sample,
            "site_thresholds": [1.0] * system.num_sites,
            **dict.fromkeys(system.COORDINATOR_COUNTERS, 0),
        }
    )
    for site in system.sites:
        site.u_local = system.threshold
    return system
