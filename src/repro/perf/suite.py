"""The perf suite: scenarios x registered variants -> a PerfReport.

Runs every applicable (scenario, variant) pair through the unified
:class:`~repro.core.protocol.Sampler` lifecycle, timing the ingestion
driver with ``time.perf_counter`` (best of ``repeats`` runs on a fresh
sampler each time) and recording the protocol cost counters, which are
exactly reproducible given the seed.  The result is assembled into a
schema-versioned :class:`~repro.perf.report.PerfReport` for the JSON
trajectory and the CI regression gate.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from ..core.api import get_variant, make_sampler, sampler_variants
from ..core.protocol import Sampler, SamplerConfig
from ..errors import PerfError
from .report import PerfRecord, PerfReport
from .scenarios import ScenarioParams, get_scenario, perf_scenarios

__all__ = [
    "SuiteConfig",
    "run_suite",
    "build_sampler_for",
    "close_sampler",
    "warmup_sampler",
    "measure_query_metrics",
]

#: Best-of repeats for the query-side measurements.  The cold merge is
#: microseconds and the cached hit sub-microsecond, so these are cheap;
#: min-of-N is the same noise-floor estimator the ingest timing uses.
_QUERY_COLD_REPEATS = 5
_QUERY_CACHED_REPEATS = 32


def measure_query_metrics(sampler: Sampler) -> tuple[float, float, float]:
    """Measure ``(cold_seconds, cached_seconds, syncs_per_query)``.

    Called after a scenario's driver finishes, on the quiescent sampler.
    ``syncs_per_query`` is read from the sampler's own
    ``query_count``/``sync_count`` counters *before* the timed queries
    below touch them, so it reflects the driver's query traffic (0.0 for
    samplers without counters or drivers that never query).  The cold
    timing drops the merge cache first via ``invalidate_merge_cache``
    when the sampler has one — the executor sync stays shared, so this
    isolates the merge recompute; samplers without a cache simply time
    ``sample()`` twice and the two numbers converge.
    """
    queries = getattr(sampler, "query_count", 0)
    syncs = getattr(sampler, "sync_count", 0)
    syncs_per_query = (syncs / queries) if queries else 0.0
    invalidate = getattr(sampler, "invalidate_merge_cache", None)
    cold = float("inf")
    for _ in range(_QUERY_COLD_REPEATS):
        if invalidate is not None:
            invalidate()
        started = time.perf_counter()
        sampler.sample()
        cold = min(cold, time.perf_counter() - started)
    cached = float("inf")
    for _ in range(_QUERY_CACHED_REPEATS):
        started = time.perf_counter()
        sampler.sample()
        cached = min(cached, time.perf_counter() - started)
    return cold, cached, syncs_per_query


def close_sampler(sampler: Sampler) -> None:
    """Release a cell sampler's backend resources (shm workers)."""
    close = getattr(sampler, "close", None)
    if close is not None:
        close()


def warmup_sampler(sampler: Sampler) -> None:
    """Force an shm-backend sampler's worker processes into existence.

    Timed and profiled windows must measure ingest, not worker start-up —
    the workers are spawned lazily, so without this the first batch of
    every fresh sampler pays the fork cost inside the measurement.
    """
    warmup = getattr(getattr(sampler, "executor", None), "warmup", None)
    if warmup is not None:
        warmup()


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters of one suite run.

    Attributes:
        n_events: Workload size per (scenario, variant) cell.
        num_sites: Sites k.
        sample_size: Sample size s for every variant.
        window: Window (slots) for windowed variants and slotted
            scenarios.
        seed: Master workload + hash seed.
        repeats: Timed repetitions per cell (best-of wins).
        scenarios: Scenario names to run; empty = all registered.
        variants: Variant names to run; empty = all registered.
        algorithm: Hash algorithm (``mix64`` exercises the vectorized
            ingestion fast paths over the integer workloads).
        shards: Coordinator groups S for the ``sharded:*`` variants
            (single-coordinator variants always run with 1).
        workers: Worker count W for scenarios that force the shm
            execution backend (``sharded-uniform-shm``); serial cells
            ignore it.
        read_ratio: Queries per ingest chunk for the mixed
            read/write scenario (``sharded-mixed-rw``); other scenarios
            ignore it.
    """

    n_events: int = 20_000
    num_sites: int = 8
    sample_size: int = 16
    window: int = 64
    seed: int = 20150525
    repeats: int = 1
    scenarios: tuple = ()
    variants: tuple = ()
    algorithm: str = "mix64"
    shards: int = 4
    workers: int = 4
    read_ratio: float = 4.0

    def scenario_names(self) -> tuple:
        """Scenario names this run covers (validated)."""
        if not self.scenarios:
            return perf_scenarios()
        for name in self.scenarios:
            get_scenario(name)
        return tuple(self.scenarios)

    def variant_names(self) -> tuple:
        """Variant names this run covers (validated)."""
        if not self.variants:
            return sampler_variants()
        for name in self.variants:
            get_variant(name)
        return tuple(self.variants)

    def scenario_params(self) -> ScenarioParams:
        """The workload knobs shared by every scenario in this run."""
        return ScenarioParams(
            n_events=self.n_events,
            num_sites=self.num_sites,
            seed=self.seed,
            window=self.window,
            read_ratio=self.read_ratio,
        ).validate()


def build_sampler_for(
    config: SuiteConfig,
    variant_name: str,
    slotted: bool = False,
    executor: Optional[str] = None,
) -> Sampler:
    """Construct one variant instance for a suite cell.

    Windowed variants get ``config.window``; infinite-window variants get
    ``window=0``.  The with-replacement family keys its flavour off the
    window, so it runs its sliding flavour on slotted scenarios and its
    infinite flavour everywhere else.  A scenario-forced ``executor``
    applies only to sharded variants (the only ones that accept one);
    the worker count comes from ``config.workers``.
    """
    variant = get_variant(variant_name)
    windowed = variant.windowed or (variant.with_replacement and slotted)
    window = config.window if windowed else 0
    executor = executor if (executor and variant.sharded) else "serial"
    return make_sampler(
        SamplerConfig(
            variant=variant_name,
            num_sites=config.num_sites,
            sample_size=config.sample_size,
            window=window,
            seed=config.seed,
            algorithm=config.algorithm,
            shards=config.shards if variant.sharded else 1,
            executor=executor,
            workers=config.workers if executor != "serial" else 0,
        )
    )


def run_suite(
    config: SuiteConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> PerfReport:
    """Run the suite and return the assembled report.

    Args:
        config: What to run and at what scale.
        progress: Optional callback receiving one line per finished cell
            (the CLI prints these).

    Raises:
        PerfError: Unknown scenario/variant names, or an empty grid.
    """
    if config.repeats < 1:
        raise PerfError(f"repeats must be >= 1, got {config.repeats}")
    params = config.scenario_params()
    records = []
    for scenario_name in config.scenario_names():
        scenario = get_scenario(scenario_name)
        events = scenario.build(params)
        for variant_name in config.variant_names():
            probe = build_sampler_for(
                config, variant_name, scenario.slotted, scenario.executor
            )
            if not scenario.applies_to(variant_name, probe):
                close_sampler(probe)
                continue
            best = float("inf")
            sampler = probe
            for repeat in range(config.repeats):
                if repeat:
                    close_sampler(sampler)
                    sampler = build_sampler_for(
                        config, variant_name, scenario.slotted,
                        scenario.executor,
                    )
                warmup_sampler(sampler)
                started = time.perf_counter()
                scenario.driver(sampler, events, params)
                elapsed = time.perf_counter() - started
                best = min(best, elapsed)
            query_cold, query_cached, syncs_per_query = (
                measure_query_metrics(sampler)
            )
            stats = sampler.stats()
            result = sampler.sample()
            backend = getattr(sampler, "executor", None)
            executor_name = backend.name if backend is not None else "serial"
            per_event = 1.0 / max(len(events), 1)
            pickle_bytes = backend.pickle_bytes if backend is not None else 0
            ipc_bytes = backend.ipc_bytes if backend is not None else 0
            close_sampler(sampler)
            record = PerfRecord(
                scenario=scenario_name,
                variant=variant_name,
                n_events=len(events),
                repeats=config.repeats,
                elapsed_s=best,
                throughput_eps=len(events) / max(best, 1e-12),
                messages_total=stats.messages_total,
                bytes_total=stats.bytes_total,
                memory_total=stats.memory_total,
                sample_len=len(result.items),
                slots_processed=stats.slots_processed,
                executor=executor_name,
                pickle_bytes_per_event=pickle_bytes * per_event,
                ipc_bytes_per_event=ipc_bytes * per_event,
                query_seconds_cold=query_cold,
                query_seconds_cached=query_cached,
                syncs_per_query=syncs_per_query,
            )
            records.append(record)
            if progress is not None:
                progress(
                    f"{scenario_name:<18} {variant_name:<18} "
                    f"{record.elapsed_s * 1e3:8.1f} ms  "
                    f"{record.throughput_eps / 1e6:6.2f} M ev/s  "
                    f"{record.messages_total:>9,} msgs"
                )
    if not records:
        raise PerfError("perf suite produced no records (empty grid?)")
    return PerfReport.build(records, params={**asdict(config)})
