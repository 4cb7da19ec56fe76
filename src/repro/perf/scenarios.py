"""The benchmark scenario registry: parameterized, named workloads.

A *scenario* is a deterministic recipe for an ingestion workload — a list
of protocol events plus an (optional) custom driver — parameterized by
size, site count, and seed.  The perf suite (:mod:`repro.perf.suite`)
crosses the registry against the sampler-variant registry so every
registered variant is exercised by every applicable workload shape, and
the ``bench_*`` scripts and CLI reuse the exact same recipes instead of
hand-rolling their own stream generators.

Built-in scenarios:

* ``uniform`` — uniformly random repeats over a moderate universe; the
  steady-state ingestion shape (duplicates dominate once the sample
  stabilizes).
* ``bursty`` — temporally correlated repeats (geometric bursts), the
  repeat-report stress shape of real packet traces.
* ``adversarial`` — the Lemma 9 lower-bound input: a fresh distinct
  element flooded to every site each round; maximal message pressure.
* ``sliding-churn`` — a slotted schedule driving window expiry and
  fallback churn (events carry slot stamps; infinite-window variants
  treat them as bookkeeping).
* ``netsim-roundtrip`` — the uniform workload driven through a
  :class:`~repro.netsim.delayed.DelayedNetwork` with periodic pumps,
  measuring ingestion with queued (rather than synchronous) coordinator
  round-trips.
* ``uniform-columnar`` / ``sharded-uniform-columnar`` — the *same*
  workloads as their list twins (same seeds, same columns), emitted as
  a prebuilt :class:`~repro.core.events.EventBatch`; the gap between
  twin cells is the cost of building the batch from a Python list.
* ``sharded-uniform-shm`` — the columnar sharded workload again, but
  ingested through the :class:`~repro.runtime.executor.SharedMemoryExecutor`
  (``SuiteConfig.workers`` workers): deterministic counters identical to
  the serial twins by construction, wall-clock measuring real multi-core
  ingest.  The cell additionally pins ``pickle_bytes_per_event`` to
  exactly 0 — the zero-copy contract the regression gate enforces.
* ``sharded-query-heavy`` — the columnar sharded ingest followed by a
  burst of ``sample()``/``threshold``/``stats()`` queries on the
  quiescent sampler; the cell where the incremental merge cache shows
  up (``query_seconds_cached`` ≥ 10x faster than ``query_seconds_cold``
  is gated).
* ``sharded-mixed-rw`` — chunked ingest interleaved with query bursts
  at ``ScenarioParams.read_ratio`` reads per chunk; the shared
  per-quiescent-period sync keeps ``syncs_per_query`` near
  ``1/read_ratio`` (gated < 1).

Scenarios are registered via :func:`register_scenario`, mirroring
:func:`repro.core.api.register_variant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..core.events import EventBatch
from ..core.protocol import Sampler
from ..errors import PerfError
from ..streams.bursty import bursty_stream
from ..streams.slotted import SlottedArrivals
from ..streams.synthetic import all_distinct_stream, calibrated_stream

__all__ = [
    "ScenarioParams",
    "Scenario",
    "register_scenario",
    "perf_scenarios",
    "get_scenario",
    "drive_observe_batch",
]


@dataclass(frozen=True)
class ScenarioParams:
    """Workload knobs shared by every scenario.

    Attributes:
        n_events: Approximate number of ingestion events to generate
            (scenarios may round, e.g. to whole flooding rounds).
        num_sites: Number of sites k the events are dealt to.
        seed: Master seed; equal params must yield equal workloads.
        window: Window size in slots used by slotted scenarios to shape
            churn (and by the suite to configure windowed variants).
        read_ratio: Queries issued per ingest chunk by the mixed
            read/write scenario (``sharded-mixed-rw``); a workload
            parameter like the others — reports generated at different
            ratios are not comparable.
    """

    n_events: int = 20_000
    num_sites: int = 8
    seed: int = 20150525
    window: int = 64
    read_ratio: float = 4.0

    def validate(self) -> "ScenarioParams":
        """Check ranges; returns self."""
        if self.n_events < 1:
            raise PerfError(f"n_events must be >= 1, got {self.n_events}")
        if self.num_sites < 1:
            raise PerfError(f"num_sites must be >= 1, got {self.num_sites}")
        if self.window < 1:
            raise PerfError(f"window must be >= 1, got {self.window}")
        if self.read_ratio < 0:
            raise PerfError(
                f"read_ratio must be >= 0, got {self.read_ratio}"
            )
        return self


#: A workload builder: params -> protocol events (a tuple-event list or
#: a columnar :class:`~repro.core.events.EventBatch`).
EventBuilder = Callable[[ScenarioParams], list]
#: A driver: (sampler, events, params) -> None; ingests the workload.
Driver = Callable[[Sampler, list, ScenarioParams], None]


def drive_observe_batch(
    sampler: Sampler, events: list, params: ScenarioParams
) -> None:
    """The default driver: one ``observe_batch`` call over the events."""
    sampler.observe_batch(events)


def _drive_netsim(sampler: Sampler, events: list, params: ScenarioParams) -> None:
    """Queue sends on a delayed network, pumping between chunks.

    Rewires the sampler onto a :class:`~repro.netsim.delayed.DelayedNetwork`
    and ingests in chunks, draining the queues after each one — a
    monitoring loop that batches coordinator round-trips instead of
    blocking per message.
    """
    from ..netsim.delayed import DelayedNetwork

    network = DelayedNetwork.rewire(sampler)
    chunk = max(1, len(events) // 16)
    for start in range(0, len(events), chunk):
        sampler.observe_batch(events[start : start + chunk])
        network.pump()
    network.pump()


@dataclass(frozen=True)
class Scenario:
    """A registered benchmark scenario.

    Attributes:
        name: Registry key.
        summary: One-line description (CLI listing, README).
        build: Deterministic workload builder.
        driver: Ingestion driver (defaults to a single
            ``observe_batch`` call).
        slotted: Whether events carry slot stamps.
        needs_network: Scenario requires a facade-level ``network``
            attribute (excludes the with-replacement and sharded facades,
            whose copies/groups own their networks).
        variant_filter: Optional predicate over the
            :class:`~repro.core.api.SamplerVariant`; when given, only
            variants it accepts run this scenario.
        executor: Execution backend this scenario forces on its samplers
            (``None`` = the default serial backend).  The
            ``sharded-uniform-shm`` scenario sets ``"shm"`` so the suite
            times real multi-core ingest; the suite sizes the worker
            count from ``SuiteConfig.workers``.
    """

    name: str
    summary: str
    build: EventBuilder
    driver: Driver = field(default=drive_observe_batch)
    slotted: bool = False
    needs_network: bool = False
    variant_filter: Optional[Callable] = None
    executor: Optional[str] = None

    def applies_to(self, variant_name: str, sampler: Sampler) -> bool:
        """Whether this scenario can drive ``sampler`` meaningfully.

        Windowed variants only run on slotted scenarios: without slot
        advances nothing ever expires, same-expiry entries never dominate
        each other, and the candidate sets degenerate into an unbounded
        mirror of the whole stream — a shape the protocol is explicitly
        not designed for.
        """
        from ..core.api import get_variant

        variant = get_variant(variant_name)
        if self.variant_filter is not None and not self.variant_filter(variant):
            return False
        if self.needs_network and not all(
            hasattr(sampler, attr)
            for attr in ("network", "coordinator", "sites")
        ):
            return False
        if not self.slotted and variant.windowed:
            return False
        return True


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (last registration wins)."""
    _REGISTRY[scenario.name] = scenario
    return scenario


def perf_scenarios() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario.

    Raises:
        PerfError: For an unknown name.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PerfError(
            f"unknown perf scenario {name!r}; expected one of {perf_scenarios()}"
        ) from None


# ---------------------------------------------------------------------------
# Built-in workload builders
# ---------------------------------------------------------------------------


def _deal_columns(
    elements: np.ndarray, params: ScenarioParams
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each element a uniformly random site; ``(sites, elements)``."""
    rng = np.random.default_rng(params.seed + 1)
    sites = rng.integers(0, params.num_sites, elements.size)
    return sites, elements


def _deal(elements: np.ndarray, params: ScenarioParams) -> list:
    """The dealt workload as plain 2-tuple events."""
    sites, elements = _deal_columns(elements, params)
    return list(zip(sites.tolist(), elements.tolist()))


def _uniform_elements(params: ScenarioParams) -> np.ndarray:
    params.validate()
    rng = np.random.default_rng(params.seed)
    n = params.n_events
    universe = max(1, n // 4)
    return rng.integers(0, universe, n)


def _build_uniform(params: ScenarioParams) -> list:
    return _deal(_uniform_elements(params), params)


def _build_uniform_columnar(params: ScenarioParams) -> EventBatch:
    """The uniform workload, column-for-column identical, zero tuples."""
    sites, elements = _deal_columns(_uniform_elements(params), params)
    return EventBatch(elements, sites=sites)


def _build_bursty(params: ScenarioParams) -> list:
    params.validate()
    rng = np.random.default_rng(params.seed)
    n = params.n_events
    distinct = max(1, n // 8)
    elements = bursty_stream(n, distinct, skew=1.1, burst_mean=8.0, rng=rng)
    return _deal(elements, params)


def _build_adversarial(params: ScenarioParams) -> list:
    params.validate()
    rounds = max(1, params.n_events // params.num_sites)
    elements = all_distinct_stream(rounds)
    sites = range(params.num_sites)
    return [(site, int(e)) for e in elements for site in sites]


def _build_sliding_churn(params: ScenarioParams) -> list:
    params.validate()
    rng = np.random.default_rng(params.seed)
    n = params.n_events
    distinct = max(1, n // 6)
    elements = calibrated_stream(n, distinct, skew=1.1, rng=rng)
    per_slot = max(1, n // max(1, 4 * params.window))
    schedule = SlottedArrivals(elements.tolist(), params.num_sites, per_slot, rng)
    return [
        (site, element, slot)
        for slot, arrivals in schedule.slots()
        for site, element in arrivals
    ]


register_scenario(
    Scenario(
        name="uniform",
        summary="uniform random repeats over a n/4-id universe",
        build=_build_uniform,
    )
)
register_scenario(
    Scenario(
        name="bursty",
        summary="geometric bursts of Zipf-weighted repeats (trace locality)",
        build=_build_bursty,
    )
)
register_scenario(
    Scenario(
        name="adversarial",
        summary="Lemma 9 lower-bound input: fresh element flooded to all sites",
        build=_build_adversarial,
    )
)
register_scenario(
    Scenario(
        name="sliding-churn",
        summary="slotted arrivals driving window expiry/fallback churn",
        build=_build_sliding_churn,
        slotted=True,
    )
)
register_scenario(
    Scenario(
        name="netsim-roundtrip",
        summary="uniform workload over a delayed network, pumped in chunks",
        build=_build_uniform,
        driver=_drive_netsim,
        needs_network=True,
    )
)


def _build_sharded_uniform(params: ScenarioParams) -> list:
    """The uniform workload as *raw items* — routing is the scenario."""
    return _uniform_elements(params).tolist()


def _build_sharded_uniform_columnar(params: ScenarioParams) -> EventBatch:
    """The same raw keys as a site-less columnar batch (Engine routes)."""
    return EventBatch(_uniform_elements(params))


def _drive_engine_hash(
    sampler: Sampler, events: list, params: ScenarioParams
) -> None:
    """Route raw items through the Engine's hash-partition policy.

    This is the scale-out ingestion shape: no explicit site ids — the
    :class:`~repro.runtime.engine.Engine` assigns each key a sticky site,
    and the sharded facade underneath assigns it a sticky coordinator
    group.
    """
    from ..runtime.engine import Engine

    Engine(sampler, policy="hash", seed=params.seed).observe_batch(events)


register_scenario(
    Scenario(
        name="sharded-uniform",
        summary="uniform raw-item workload, Engine hash-routing onto "
        "sharded coordinator groups",
        build=_build_sharded_uniform,
        driver=_drive_engine_hash,
        variant_filter=lambda variant: variant.sharded and not variant.windowed,
    )
)
register_scenario(
    Scenario(
        name="uniform-columnar",
        summary="the uniform workload as a columnar EventBatch "
        "(zero-tuple ingest)",
        build=_build_uniform_columnar,
    )
)
register_scenario(
    Scenario(
        name="sharded-uniform-columnar",
        summary="sharded-uniform's raw keys as a site-less EventBatch, "
        "Engine hash-routed end to end in columns",
        build=_build_sharded_uniform_columnar,
        driver=_drive_engine_hash,
        variant_filter=lambda variant: variant.sharded and not variant.windowed,
    )
)
register_scenario(
    Scenario(
        name="sharded-uniform-shm",
        summary="sharded-uniform-columnar's workload through the "
        "SharedMemoryExecutor (persistent workers, zero-copy /dev/shm "
        "columns, pickle_bytes_per_event == 0)",
        build=_build_sharded_uniform_columnar,
        driver=_drive_engine_hash,
        variant_filter=lambda variant: variant.sharded and not variant.windowed,
        executor="shm",
    )
)
#: Queries issued by the query-heavy scenario after ingest.  Large
#: enough that the timed window is query-dominated: pre-cache, each
#: query was a full sync + Python-sort merge; post-cache all but the
#: first are O(1) hits.
_QUERY_HEAVY_QUERIES = 256

#: Ingest chunks for the mixed read/write scenario; with R queries per
#: chunk the scenario issues ``32 * R`` queries but at most 32 syncs,
#: so ``syncs_per_query <= 1/R``.
_MIXED_RW_CHUNKS = 32


def _drive_query_heavy(
    sampler: Sampler, events: list, params: ScenarioParams
) -> None:
    """Ingest once, then hammer the query surface.

    The read-dominated serving shape from the ROADMAP's north star: one
    hash-routed columnar ingest followed by a burst of
    ``sample()``/``threshold``/``stats()`` round-trips over the
    quiescent sampler.  Before the merge cache every iteration forced an
    executor sync plus a full Python-sort merge; with it, only the first
    query after ingest does any work.
    """
    from ..runtime.engine import Engine

    Engine(sampler, policy="hash", seed=params.seed).observe_batch(events)
    for _ in range(_QUERY_HEAVY_QUERIES):
        sampler.sample()
        _ = sampler.threshold
        sampler.stats()


def _drive_mixed_rw(
    sampler: Sampler, events: list, params: ScenarioParams
) -> None:
    """Interleave chunked ingest with query bursts at ``read_ratio``.

    Each of the 32 ingest chunks is followed by ``round(read_ratio)``
    queries; only the first query per chunk can trigger an executor
    sync or a re-merge, so ``syncs_per_query`` lands near
    ``1 / read_ratio`` (gated < 1 by ``perf compare``).
    """
    from ..runtime.engine import Engine

    engine = Engine(sampler, policy="hash", seed=params.seed)
    reads = max(1, int(round(params.read_ratio)))
    n = len(events)
    chunk = max(1, -(-n // _MIXED_RW_CHUNKS))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        if isinstance(events, EventBatch):
            run = events.select(np.arange(start, stop))
        else:
            run = events[start:stop]
        engine.observe_batch(run)
        for _ in range(reads):
            sampler.sample()
            _ = sampler.threshold


register_scenario(
    Scenario(
        name="sharded-query-heavy",
        summary="sharded-uniform-columnar's ingest, then a burst of "
        "sample/threshold/stats queries over the quiescent sampler "
        "(cached >= 10x cold gated by perf compare)",
        build=_build_sharded_uniform_columnar,
        driver=_drive_query_heavy,
        variant_filter=lambda variant: variant.sharded and not variant.windowed,
    )
)
register_scenario(
    Scenario(
        name="sharded-mixed-rw",
        summary="chunked columnar ingest interleaved with query bursts "
        "at a configurable read:write ratio (syncs_per_query < 1 gated "
        "by perf compare)",
        build=_build_sharded_uniform_columnar,
        driver=_drive_mixed_rw,
        variant_filter=lambda variant: variant.sharded and not variant.windowed,
    )
)
#: Reshard steps driven by the elastic-resharding scenario, as factors
#: of the configured shard count (min-clamped to 1): grow 2x, shrink
#: back below, return home.  Every step is a full live re-partition of
#: the retained group state.
_RESHARD_FACTORS = (2.0, 0.5, 1.0)


def _drive_reshard(
    sampler: Sampler, events: list, params: ScenarioParams
) -> None:
    """Chunked hash-routed ingest with live reshard steps in between.

    The elastic-resharding shape: ingest a chunk, re-partition the live
    groups (S -> 2S -> S/2 -> S), query to force the post-reshard merge,
    repeat.  Times the full repartition cost — group rebuild, hash
    re-routing, merge-cache rebuild — under a workload that keeps
    ingesting afterwards.
    """
    from ..runtime.engine import Engine

    engine = Engine(sampler, policy="hash", seed=params.seed)
    base_shards = sampler.shards
    steps = [
        max(1, int(round(base_shards * factor)))
        for factor in _RESHARD_FACTORS
    ]
    n = len(events)
    chunk = max(1, -(-n // (len(steps) + 1)))
    for i, start in enumerate(range(0, n, chunk)):
        stop = min(start + chunk, n)
        if isinstance(events, EventBatch):
            run = events.select(np.arange(start, stop))
        else:
            run = events[start:stop]
        engine.observe_batch(run)
        if i < len(steps):
            sampler.reshard(steps[i])
            sampler.sample()
    sampler.sample()


register_scenario(
    Scenario(
        name="sharded-reshard",
        summary="chunked columnar ingest with live elastic reshard "
        "steps (S -> 2S -> S/2 -> S), querying after every "
        "re-partition",
        build=_build_sharded_uniform_columnar,
        driver=_drive_reshard,
        variant_filter=lambda variant: variant.sharded and not variant.windowed,
    )
)