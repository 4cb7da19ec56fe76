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
function of (seed, algorithm, element), so a restore recomputes them,
and a sharded restore hashes every group's sample in one pass (the
family ``load_states`` hook).  Both families store by column:

* an infinite-family sample is ``"sample": [elements]``, one column of
  the elements in the store's ascending ``(hash, element)`` order;
* a sliding candidate set is ``"entries": {"elements": [...],
  "expiries": [...]}``, two parallel columns in the settled set's
  ascending ``(expiry, hash)`` order, and each ``known``/``pending``/
  ``reported`` record the same two columns in its insertion order.

A restore refuses, with :class:`~repro.errors.ConfigurationError` and
the sampler untouched, rows that break the order they were written in
under the recomputed hashes, and a sliding candidate row that loading
its set would drop (a snapshot writes settled sets, which drop none).

Every layout earlier releases wrote is read by :mod:`repro.core.legacy`
and nowhere else: :func:`restore` and each ``load_state`` pass a state
through it first, which rewrites an old state into the current layout,
so every facade's ``_load`` parses one layout.  It reads version-1
snapshots (infinite window only); version-2 configs that name a retired
execution backend (``"process"`` restores as ``"shm"``, ``"thread"`` as
``"serial"``), a retired variant (``"sliding-feedback"`` and
``"sharded:sliding-feedback"`` restore as ``"sliding"`` and
``"sharded:sliding"``, which build the same class for ``s >= 2``; their
``s = 1`` snapshots raise), or the dropped ``structure`` field; the
infinite family's ``[hash, element]`` sample rows; and the sliding
family's ``[element, expiry, hash]`` and ``[element, expiry]`` candidate
rows, ``[element, expiry]`` record rows and missing ``known``/``pending``
records.  A stored hash loads only when it is the recomputed one.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError
from .api import make_sampler
from .legacy import upgrade_config, upgrade_v1
from .protocol import Sampler, SamplerConfig

__all__ = ["snapshot", "restore", "SNAPSHOT_VERSION"]

#: Format version written into every snapshot.
SNAPSHOT_VERSION = 2


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

    The snapshot's config and state pass through :mod:`repro.core.legacy`
    first, which rewrites every layout earlier releases wrote into the
    current one.

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
        config_dict, sampler_state = upgrade_v1(state)
    elif version == SNAPSHOT_VERSION:
        try:
            config_dict = upgrade_config(state["config"])
            sampler_state = state["state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed snapshot: {exc}") from exc
    else:
        raise ConfigurationError(
            f"unsupported snapshot version {version}; "
            f"this build reads versions 1 and {SNAPSHOT_VERSION}"
        )
    try:
        config = SamplerConfig(**config_dict)
    except TypeError as exc:
        raise ConfigurationError(f"malformed snapshot config: {exc}") from exc
    sampler = make_sampler(config)
    sampler.load_state(sampler_state)
    return sampler
