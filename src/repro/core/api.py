"""The front door: ``SamplerConfig`` + ``make_sampler`` + variant registry.

Every sampler in this package is constructed the same way::

    from repro import SamplerConfig, make_sampler

    config = SamplerConfig(variant="sliding", num_sites=10, window=100,
                           sample_size=8, seed=42)
    sampler = make_sampler(config)           # or make_sampler("sliding", ...)

    sampler.advance(slot)
    sampler.observe(site_id, element)        # or observe_batch(events)
    result = sampler.sample()                # SampleResult
    costs = sampler.stats()                  # SamplerStats

The registry maps variant names to factories; consumers (CLI, experiment
drivers, benchmarks, :mod:`repro.core.snapshot`) iterate it instead of
hard-coding classes, and downstream code can plug in new backends with
:func:`register_variant`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..errors import ConfigurationError
from .infinite import DistinctSamplerSystem
from .protocol import Sampler, SamplerConfig
from .sliding import SlidingWindowSystem
from .sliding_feedback import SlidingWindowBottomSFeedback
from .sliding_general import SlidingWindowBottomS
from .with_replacement import SlidingWindowWithReplacement, WithReplacementSampler

__all__ = [
    "SamplerConfig",
    "SamplerVariant",
    "SHARDABLE_VARIANTS",
    "make_sampler",
    "register_variant",
    "register_sharded_variant",
    "sampler_variants",
    "get_variant",
    "make_groups",
]


@dataclass(frozen=True)
class SamplerVariant:
    """A registered sampler variant.

    Attributes:
        name: Registry key.
        factory: Builds a :class:`~repro.core.protocol.Sampler` from a
            validated :class:`~repro.core.protocol.SamplerConfig`.
        summary: One-line description (CLI ``variants`` listing, README).
        windowed: Whether the variant requires ``window >= 1``
            (with-replacement accepts both and keys off ``window``).
        with_replacement: Whether samples are independent draws.
        baseline: True for comparison baselines rather than the paper's
            recommended protocols.
        sharded: Whether the variant runs S coordinator groups and
            accepts ``shards > 1`` (the ``sharded:*`` wrappers).
        routing: How events reach a coordinator group: every variant
            addresses sites explicitly (``"explicit-site"``); sharded
            wrappers additionally hash-partition the key space across
            groups (``"hash-partition"``).
    """

    name: str
    factory: Callable[[SamplerConfig], Sampler]
    summary: str
    windowed: bool = False
    with_replacement: bool = False
    baseline: bool = False
    sharded: bool = False
    routing: str = "explicit-site"


_REGISTRY: dict[str, SamplerVariant] = {}


def register_variant(variant: SamplerVariant) -> SamplerVariant:
    """Add a variant to the registry (last registration wins).

    Args:
        variant: The variant description + factory.

    Returns:
        The registered variant (so the call can be used as a decorator
        helper in downstream packages).
    """
    _REGISTRY[variant.name] = variant
    return variant


def sampler_variants() -> tuple[str, ...]:
    """All registered variant names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_variant(name: str) -> SamplerVariant:
    """Look up a registered variant.

    Raises:
        ConfigurationError: For an unknown name.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sampler variant {name!r}; expected one of "
            f"{sampler_variants()}"
        ) from None


def make_sampler(config=None, /, **overrides) -> Sampler:
    """Build any registered sampler from a config — the package front door.

    Accepts either a full :class:`~repro.core.protocol.SamplerConfig`, or
    a variant name plus field overrides::

        make_sampler(SamplerConfig(variant="infinite", num_sites=4,
                                   sample_size=16))
        make_sampler("infinite", num_sites=4, sample_size=16)

    Args:
        config: A ``SamplerConfig``, a variant-name string, or None
            (fields given entirely via ``overrides``).
        **overrides: ``SamplerConfig`` fields overriding ``config``.

    Returns:
        A ready :class:`~repro.core.protocol.Sampler`.

    Raises:
        ConfigurationError: Unknown variant or invalid field values.
    """
    if config is None:
        config = SamplerConfig(**overrides)
    elif isinstance(config, str):
        config = SamplerConfig(variant=config, **overrides)
    elif isinstance(config, SamplerConfig):
        if overrides:
            config = replace(config, **overrides)
    else:
        raise ConfigurationError(
            "make_sampler expects a SamplerConfig or a variant name, got "
            f"{type(config).__name__}"
        )
    variant = get_variant(config.variant)
    config.validate()
    if variant.windowed and config.window < 1:
        raise ConfigurationError(
            f"variant {config.variant!r} needs window >= 1, got {config.window}"
        )
    if not variant.windowed and not variant.with_replacement and config.window:
        raise ConfigurationError(
            f"variant {config.variant!r} is infinite-window; "
            f"window must be 0, got {config.window}"
        )
    if config.shards > 1 and not variant.sharded:
        raise ConfigurationError(
            f"variant {config.variant!r} is single-coordinator; shards must "
            f"be 1, got {config.shards} (use 'sharded:{config.variant}')"
        )
    if config.executor != "serial" and not variant.sharded:
        raise ConfigurationError(
            f"variant {config.variant!r} is single-coordinator; the "
            f"{config.executor!r} executor applies only to 'sharded:*' "
            f"variants (use 'sharded:{config.variant}')"
        )
    return variant.factory(config)


# ---------------------------------------------------------------------------
# Built-in variants
# ---------------------------------------------------------------------------


def _make_infinite(config: SamplerConfig) -> Sampler:
    return DistinctSamplerSystem(
        num_sites=config.num_sites,
        sample_size=config.sample_size,
        seed=config.seed,
        algorithm=config.algorithm,
    )


def _make_sliding(config: SamplerConfig) -> Sampler:
    if config.sample_size == 1:
        return SlidingWindowSystem(
            num_sites=config.num_sites,
            window=config.window,
            seed=config.seed,
            algorithm=config.algorithm,
            coordinator_mode=config.coordinator_mode,
        )
    return SlidingWindowBottomSFeedback(
        num_sites=config.num_sites,
        window=config.window,
        sample_size=config.sample_size,
        seed=config.seed,
        algorithm=config.algorithm,
    )


def _make_sliding_local_push(config: SamplerConfig) -> Sampler:
    return SlidingWindowBottomS(
        num_sites=config.num_sites,
        window=config.window,
        sample_size=config.sample_size,
        seed=config.seed,
        algorithm=config.algorithm,
    )


def _make_with_replacement(config: SamplerConfig) -> Sampler:
    if config.window == 0:
        return WithReplacementSampler(
            num_sites=config.num_sites,
            sample_size=config.sample_size,
            seed=config.seed,
            algorithm=config.algorithm,
        )
    return SlidingWindowWithReplacement(
        num_sites=config.num_sites,
        window=config.window,
        sample_size=config.sample_size,
        seed=config.seed,
        algorithm=config.algorithm,
    )


def _make_broadcast(config: SamplerConfig) -> Sampler:
    from .broadcast import BroadcastSamplerSystem

    return BroadcastSamplerSystem(
        num_sites=config.num_sites,
        sample_size=config.sample_size,
        seed=config.seed,
        algorithm=config.algorithm,
    )


def _make_caching(config: SamplerConfig) -> Sampler:
    from .caching import CachingSamplerSystem

    cache_size = config.cache_size
    if cache_size is None:
        cache_size = config.sample_size
    return CachingSamplerSystem(
        num_sites=config.num_sites,
        sample_size=config.sample_size,
        cache_size=cache_size,
        seed=config.seed,
        algorithm=config.algorithm,
    )


register_variant(
    SamplerVariant(
        name="infinite",
        factory=_make_infinite,
        summary="bottom-s over the full history (Algorithms 1-2)",
    )
)
register_variant(
    SamplerVariant(
        name="sliding",
        factory=_make_sliding,
        summary="sliding window, lazy feedback (Algorithms 3-4; "
        "bottom-s generalization for s > 1)",
        windowed=True,
    )
)
register_variant(
    SamplerVariant(
        name="sliding-local-push",
        factory=_make_sliding_local_push,
        summary="sliding window, one-way local bottom-s push (no feedback)",
        windowed=True,
    )
)
register_variant(
    SamplerVariant(
        name="with-replacement",
        factory=_make_with_replacement,
        summary="s independent draws via parallel single-sample copies "
        "(window=0 for infinite)",
        with_replacement=True,
    )
)
register_variant(
    SamplerVariant(
        name="broadcast",
        factory=_make_broadcast,
        summary="eager-synchronization baseline (threshold broadcasts)",
        baseline=True,
    )
)
register_variant(
    SamplerVariant(
        name="caching",
        factory=_make_caching,
        summary="infinite window with duplicate-suppressing site LRUs",
        baseline=True,
    )
)


# ---------------------------------------------------------------------------
# Sharded scale-out wrappers: S coordinator groups, hash-partitioned keys
# ---------------------------------------------------------------------------

#: Base variants that admit hash-partitioned sharding.  With-replacement
#: is excluded: its per-copy samples use different hash functions, so a
#: bottom-s merge across disjoint key spaces is meaningless there (see
#: :mod:`repro.runtime.sharded`).
SHARDABLE_VARIANTS = (
    "infinite",
    "sliding",
    "sliding-local-push",
    "broadcast",
    "caching",
)


def make_groups(config: SamplerConfig, count: int) -> list[Sampler]:
    """``count`` fresh coordinator groups of a ``sharded:<base>`` config.

    Every group is a full base-variant sampler sharing the config's
    sampling hash (same seed and algorithm); only the key space differs.
    Groups always carry the serial executor: the sharded facade owns the
    execution backend, and workers rebuild groups from their own config.
    A bare base-variant ``config`` builds the same groups.
    """
    base = config.variant.removeprefix("sharded:")
    factory = get_variant(base).factory
    inner = replace(config, variant=base, shards=1, executor="serial", workers=0)
    return [factory(inner) for _ in range(count)]


def _make_sharded(config: SamplerConfig) -> Sampler:
    # Lazy import: repro.runtime imports this module's protocol layer.
    from ..runtime.sharded import ShardedSampler

    return ShardedSampler(make_groups(config, config.shards), config)


def register_sharded_variant(base_name: str) -> SamplerVariant:
    """Register ``sharded:<base_name>`` wrapping a registered base variant.

    The wrapper inherits the base's windowing and baseline flags and is
    reachable everywhere the registry is — ``make_sampler``, the CLI,
    snapshots, and the perf suite.

    Raises:
        ConfigurationError: If the base is unknown or with-replacement.
    """
    base = get_variant(base_name)
    if base.with_replacement or base.sharded:
        raise ConfigurationError(
            f"variant {base_name!r} cannot be sharded (see repro.runtime.sharded)"
        )
    return register_variant(
        SamplerVariant(
            name=f"sharded:{base_name}",
            factory=_make_sharded,
            summary=f"S hash-partitioned coordinator groups of {base_name!r} "
            "cores, merged at query time",
            windowed=base.windowed,
            baseline=base.baseline,
            sharded=True,
            routing="hash-partition",
        )
    )


for _base_name in SHARDABLE_VARIANTS:
    register_sharded_variant(_base_name)
