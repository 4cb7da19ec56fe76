"""Elastic re-partitioning of sharded coordinator groups.

A :class:`~repro.runtime.sharded.ShardedSampler` owns S coordinator
groups over hash-partitioned key spaces.  Because every group shares the
*same sampling hash* — the property that makes the query-time bottom-s
merge exact — the retained per-group state can be re-partitioned under a
new group count **without resampling**: each retained element already
carries its true sampling hash, and the routing layer is a pure function
of (seed, algorithm, element), so re-routing a group's entries to S' new
groups preserves the merged sample at the reshard instant and under
continued ingest.

This module knows no state layout.  Fresh target groups are built from
the config's base-group recipe (:func:`repro.core.api.make_groups`) and
seeded by their family's ``repartition(groups, targets, router)`` hook,
which states its own exactness argument:
:meth:`~repro.core.infinite.BottomSFacadeBase.repartition` for the
infinite family and
:meth:`~repro.core.sliding.SlidingFacadeBase.repartition` for the
windowed one.  The hooks keep event counters as totals on target 0;
this module carries the rest over the same way: every target takes the
old groups' slot bookkeeping, and target 0 takes their summed message
counters while every other target starts at zero, so the facade-level
aggregates are unchanged by a reshard.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.protocol import Sampler, SamplerConfig
from ..errors import ConfigurationError
from .sharded import load_groups, shard_router
from .topology import merge_message_stats

__all__ = ["repartition_groups", "repartition_group_states"]


def repartition_groups(
    groups: Sequence[Sampler],
    config: SamplerConfig,
    new_shards: int,
) -> list[Sampler]:
    """Re-partition live coordinator groups into ``new_shards`` fresh ones.

    Args:
        groups: The S old groups (any S >= 1), left as they are.
        config: The facade's config (supplies the base-group recipe and
            the shared routing seed; ``variant`` may be the
            ``sharded:<base>`` registry key or the bare base name).
        new_shards: The target group count S' (>= 1).

    Returns:
        ``new_shards`` freshly built groups holding the re-partitioned
        state.

    Raises:
        ConfigurationError: For ``new_shards < 1`` or a variant whose
            groups have no ``repartition`` hook.
    """
    from ..core.api import make_groups  # lazy: core.api imports the runtime

    new_shards = int(new_shards)
    if new_shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {new_shards}")
    targets = make_groups(config, new_shards)
    repartition = getattr(type(targets[0]), "repartition", None)
    if repartition is None:
        raise ConfigurationError(
            f"variant {config.variant!r} does not support re-partitioning"
        )
    repartition(groups, targets, shard_router(config, new_shards))
    first = groups[0]
    for target in targets:
        target._last_slot = first._last_slot
        target._slots_processed = first._slots_processed
    targets[0].network.stats = merge_message_stats(
        group.message_stats() for group in groups
    )
    return targets


def repartition_group_states(
    group_states: list[dict[str, Any]],
    config: SamplerConfig,
    new_shards: int,
) -> list[Sampler]:
    """Re-partition S captured group states into ``new_shards`` fresh groups.

    The old groups are rebuilt by :func:`~repro.runtime.sharded.load_groups`,
    so a malformed group state raises that group's typed error, and
    :func:`repartition_groups` does the rest.

    Args:
        group_states: The ``"groups"`` list of a sharded snapshot — one
            ``state_dict()`` per old group, any old group count >= 1.
        config: The facade's config (see :func:`repartition_groups`).
        new_shards: The target group count S' (>= 1).

    Returns:
        ``new_shards`` freshly built groups holding the re-partitioned
        state.

    Raises:
        ConfigurationError: For a malformed snapshot (groups at different
            slots included), an unsupported variant, or ``new_shards < 1``.
    """
    if not isinstance(group_states, list) or not group_states:
        raise ConfigurationError(
            "malformed snapshot: expected a non-empty list of shard group states"
        )
    groups = load_groups(config, group_states)
    if len({group.current_slot for group in groups}) > 1:
        raise ConfigurationError("malformed snapshot: the groups' slots differ")
    return repartition_groups(groups, config, new_shards)
