"""Elastic re-partitioning of sharded group state (snapshot-v2 level).

A :class:`~repro.runtime.sharded.ShardedSampler` owns S coordinator
groups over hash-partitioned key spaces.  Because every group shares the
*same sampling hash* — the property that makes the query-time bottom-s
merge exact — the retained per-group state can be re-partitioned under a
new group count **without resampling**: each retained element already
carries its true sampling hash, and the routing layer is a pure function
of (seed, algorithm, element), so re-routing a group's entries to S' new
groups reproduces exactly the state those entries would occupy had the
sampler always had S' groups.

Why the merged query stays exact (at the reshard instant *and* under
continued ingest):

* **Infinite family** (``infinite`` / ``broadcast`` / ``caching``): the
  union of the old groups' bottom-s stores is a superset of the global
  bottom-s.  Routing that union and keeping each new group's bottom-s
  preserves the superset property, so the facade merge — the s smallest
  of the union — is unchanged.  New site thresholds are set to their new
  group's store threshold, the same "any value >= the true u is safe"
  rule the soft snapshot-restore path uses.
* **Windowed family** (every
  :class:`~repro.core.sliding.SlidingFacadeBase` core): an entry pruned
  by s-dominance had s smaller-hash, later-expiry entries in its old
  group, so while it is live it is never in the *global* bottom-s —
  re-partitioning the surviving entries therefore preserves the
  facade-level merge at every future slot, even though a single group's
  restricted sample may differ from a from-scratch run's.  Survivor sets
  are insertion-order independent, so each new group is built fresh and
  seeded through :meth:`~repro.core.sliding.SlidingFacadeBase.repartition`:
  its coordinator absorbs every routed live entry, and its sites keep
  their fresh report-everything state, which costs a transient burst of
  extra reports and loses nothing.  The new group's own ``state_dict``
  is the re-partitioned state, so the layout lives in one module.

Aggregate observability counters (message stats, ``reports_received``,
``reports_sent``, ...) are preserved as *totals*: the sums land on new
group 0 (site-indexed counters on group 0's matching site) and every
other group starts at zero, so the facade-level aggregates are unchanged
by a reshard.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..core.protocol import SamplerConfig, revive_element
from ..core.sliding import SlidingFacadeBase
from ..errors import ConfigurationError
from ..streams.partition import HashDistributor

__all__ = ["repartition_group_states"]

#: Infinite-window variants whose group state this module re-partitions
#: row by row (spelled locally to avoid an import cycle with
#: :mod:`repro.core.api`); windowed cores re-partition themselves.
_INFINITE_FAMILY = ("infinite", "broadcast", "caching")


def _base_variant(config: SamplerConfig) -> str:
    name = config.variant
    return name.split(":", 1)[1] if name.startswith("sharded:") else name


def _zero_network() -> dict[str, Any]:
    return {
        "total_messages": 0,
        "total_bytes": 0,
        "site_to_coordinator": 0,
        "coordinator_to_site": 0,
        "by_kind": {},
    }


def _summed_network(states: list[dict[str, Any]]) -> dict[str, Any]:
    total = _zero_network()
    by_kind: dict[str, int] = {}
    for state in states:
        network = state["network"]
        for key in (
            "total_messages",
            "total_bytes",
            "site_to_coordinator",
            "coordinator_to_site",
        ):
            total[key] += int(network.get(key, 0))
        for name, count in network.get("by_kind", {}).items():
            by_kind[name] = by_kind.get(name, 0) + int(count)
    total["by_kind"] = by_kind
    return total


def _validate_group_states(
    group_states: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Structural up-front validation: every group state must be a full
    snapshot-v2 group wrapper before anything is rebuilt from it."""
    if not isinstance(group_states, list) or not group_states:
        raise ConfigurationError(
            "snapshot must carry a non-empty list of shard group states"
        )
    for g, state in enumerate(group_states):
        if not isinstance(state, dict):
            raise ConfigurationError(
                f"shard group {g} state is not a dict: {type(state).__name__}"
            )
        for key in ("protocol", "network", "system"):
            if not isinstance(state.get(key), dict):
                raise ConfigurationError(
                    f"shard group {g} state is missing the {key!r} section"
                )
    return group_states


def repartition_group_states(
    group_states: list[dict[str, Any]],
    config: SamplerConfig,
    new_shards: int,
) -> list[dict[str, Any]]:
    """Re-partition S captured group states into ``new_shards`` states.

    Args:
        group_states: The ``"groups"`` list of a sharded snapshot — one
            ``state_dict()`` per old group, any old group count >= 1.
        config: The facade's config (supplies the shared routing recipe:
            seed, algorithm, sample size, site count; ``variant`` may be
            the ``sharded:<base>`` registry key or the bare base name).
        new_shards: The target group count S' (>= 1).

    Returns:
        ``new_shards`` group state dicts, loadable by freshly built base
        groups via ``group.load_state``.

    Raises:
        ConfigurationError: For a malformed snapshot, an unsupported
            variant, or ``new_shards < 1``.
    """
    new_shards = int(new_shards)
    if new_shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {new_shards}")
    group_states = _validate_group_states(group_states)
    base = _base_variant(config)
    # Late import: sharded.py lazily imports this module, so the salt can
    # be imported here without a cycle at module-load time.
    from .sharded import _SHARD_SALT

    router = HashDistributor(
        new_shards,
        seed=config.seed,
        algorithm=config.algorithm,
        salt=_SHARD_SALT,
    )
    if base in _INFINITE_FAMILY:
        new_systems = _repartition_infinite_family(
            base,
            [state["system"] for state in group_states],
            config,
            router,
            new_shards,
        )
    else:
        new_systems = _repartition_windowed_family(
            group_states, config, router, new_shards
        )
    protocol = dict(group_states[0]["protocol"])
    return [
        {
            "protocol": dict(protocol),
            "network": (
                _summed_network(group_states) if g == 0 else _zero_network()
            ),
            "system": system,
        }
        for g, system in enumerate(new_systems)
    ]


# ---------------------------------------------------------------------------
# Infinite family: route the bottom-s stores, soft-reset site thresholds
# ---------------------------------------------------------------------------


def _repartition_infinite_family(
    base: str,
    systems: list[dict[str, Any]],
    config: SamplerConfig,
    router: HashDistributor,
    new_shards: int,
) -> list[dict[str, Any]]:
    s = config.sample_size
    k = config.num_sites
    routed: list[list[tuple[float, Any]]] = [[] for _ in range(new_shards)]
    reports_received = 0
    reports_accepted = 0
    broadcasts_sent = 0
    suppressed = 0
    for system in systems:
        try:
            rows = system["sample"]
        except KeyError as exc:
            raise ConfigurationError(
                f"malformed {base} group state: missing {exc}"
            ) from exc
        for h, element in rows:
            g = router.assign_one(revive_element(element))
            routed[g].append((float(h), element))
        reports_received += int(system.get("reports_received", 0))
        reports_accepted += int(system.get("reports_accepted", 0))
        broadcasts_sent += int(system.get("broadcasts_sent", 0))
        if base == "caching":
            suppressed += sum(
                int(site.get("suppressed", 0))
                for site in system.get("sites", [])
            )
    out: list[dict[str, Any]] = []
    for g in range(new_shards):
        # Keep each new group's bottom-s: ascending by hash, truncated to
        # capacity.  Elements are distinct across groups by construction,
        # so no dedup pass is needed.
        routed[g].sort(key=lambda row: row[0])
        rows = routed[g][:s]
        threshold = rows[-1][0] if len(rows) == s else 1.0
        first = g == 0
        system_state: dict[str, Any] = {
            "sample": [[h, element] for h, element in rows],
            "reports_received": reports_received if first else 0,
        }
        if base == "broadcast":
            system_state["site_thresholds"] = [threshold] * k
            system_state["broadcasts_sent"] = broadcasts_sent if first else 0
        elif base == "caching":
            system_state["reports_accepted"] = reports_accepted if first else 0
            system_state["sites"] = [
                {
                    "u_local": threshold,
                    "cache": [],
                    "suppressed": suppressed if first and i == 0 else 0,
                }
                for i in range(k)
            ]
        else:  # infinite
            system_state["site_thresholds"] = [threshold] * k
            system_state["reports_accepted"] = reports_accepted if first else 0
        out.append(system_state)
    return out


# ---------------------------------------------------------------------------
# Windowed family: rebuild the old groups, let fresh groups absorb them
# ---------------------------------------------------------------------------


def _repartition_windowed_family(
    group_states: list[dict[str, Any]],
    config: SamplerConfig,
    router: HashDistributor,
    new_shards: int,
) -> list[dict[str, Any]]:
    from ..core.api import get_variant

    base = _base_variant(config)
    factory = get_variant(base).factory
    inner = replace(
        config, variant=base, shards=1, executor="serial", workers=0
    )

    def build() -> SlidingFacadeBase:
        group = factory(inner)
        if not isinstance(group, SlidingFacadeBase):
            raise ConfigurationError(
                f"variant {config.variant!r} does not support re-partitioning"
            )
        return group

    groups: list[SlidingFacadeBase] = []
    for state in group_states:
        group = build()
        group.load_state(state)
        groups.append(group)
    targets = [build() for _ in range(new_shards)]
    SlidingFacadeBase.repartition(groups, targets, router.assign_one)
    return [target.state_dict()["system"] for target in targets]
