"""The accuracy suite: scenarios x variants x estimators -> a report.

Replays the registered perf workloads (:mod:`repro.perf.scenarios` —
exactly the same builders, drivers, and slot semantics the benchmark
suite times) through the registered sampler variants, then runs every
applicable registered estimator against each cell's live sampler and the
exact ground truth recomputed from the raw stream.  The result is a
schema-versioned :class:`~repro.accuracy.report.AccuracyReport` for the
JSON trajectory and the CI accuracy gate.

Everything here is deterministic given the seed: workload generation,
sampling hashes, the auxiliary sketches, and the ground truth.  In
particular the ``sharded:*`` cells are *bit-identical* to their
centralized twins — the query-time bottom-s merge is provably the global
sample — whether the shard groups run serially or in the persistent
workers of the :class:`~repro.runtime.executor.SharedMemoryExecutor`,
and the suite's default grid exercises both paths.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

from ..core.api import get_variant, sampler_variants
from ..errors import AccuracyError
from ..perf.scenarios import ScenarioParams, get_scenario, perf_scenarios
from ..perf.suite import SuiteConfig, build_sampler_for, close_sampler
from .estimators import (
    EstimatorContext,
    accuracy_estimators,
    get_estimator,
)
from .report import AccuracyRecord, AccuracyReport
from .truth import TruthContext

__all__ = ["AccuracyConfig", "run_accuracy_suite"]

#: The default grid covers the acceptance matrix: centralized vs sharded
#: on the same streams (bit-identical by construction), serial vs
#: shm-executed shard groups, infinite vs sliding windows.
DEFAULT_SCENARIOS = (
    "sharded-uniform",
    "sharded-uniform-shm",
    "sliding-churn",
    "uniform",
)
DEFAULT_VARIANTS = (
    "infinite",
    "sharded:infinite",
    "sliding",
    "sharded:sliding",
)


@dataclass(frozen=True)
class AccuracyConfig:
    """Parameters of one accuracy-suite run.

    Attributes:
        n_events: Workload size per scenario.
        num_sites: Sites k.
        sample_size: Sample size s (64 keeps the binomial queries'
            standard error near 0.06 — the tolerances assume it).
        window: Window (slots) for windowed cells and slotted scenarios.
        seed: Master workload + hash seed.
        scenarios: Scenario names to run; empty = the default grid.
        variants: Variant names to run; empty = the default grid.
        estimators: Estimator names to run; empty = all registered.
        algorithm: Hash algorithm for the samplers.
        shards: Coordinator groups S for the ``sharded:*`` variants.
        workers: Worker processes W for scenarios forcing the
            ``"shm"`` backend (never changes the estimates — the
            acceptance matrix runs S=4, W=2).
    """

    n_events: int = 8_000
    num_sites: int = 8
    sample_size: int = 64
    window: int = 64
    seed: int = 20150525
    scenarios: tuple = DEFAULT_SCENARIOS
    variants: tuple = DEFAULT_VARIANTS
    estimators: tuple = ()
    algorithm: str = "mix64"
    shards: int = 4
    workers: int = 2

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

    def estimator_names(self) -> tuple:
        """Estimator names this run covers (validated)."""
        if not self.estimators:
            return accuracy_estimators()
        for name in self.estimators:
            get_estimator(name)
        return tuple(self.estimators)

    def suite_config(self) -> SuiteConfig:
        """The equivalent perf config (sampler construction reuses it)."""
        return SuiteConfig(
            n_events=self.n_events,
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            window=self.window,
            seed=self.seed,
            scenarios=self.scenarios,
            variants=self.variants,
            algorithm=self.algorithm,
            shards=self.shards,
            workers=self.workers,
        )

    def scenario_params(self) -> ScenarioParams:
        """The workload knobs shared by every scenario in this run."""
        return ScenarioParams(
            n_events=self.n_events,
            num_sites=self.num_sites,
            seed=self.seed,
            window=self.window,
        ).validate()


def run_accuracy_suite(
    config: AccuracyConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> AccuracyReport:
    """Run the suite and return the assembled report.

    Each (scenario, variant) cell ingests its workload exactly once;
    every applicable estimator then queries the same live sampler, so
    the report's records per cell are mutually consistent views of one
    maintained sample.

    Args:
        config: What to run and at what scale.
        progress: Optional callback receiving one line per finished
            record (the CLI prints these).

    Raises:
        AccuracyError: Unknown scenario/variant/estimator names, or an
            empty grid.
    """
    suite_config = config.suite_config()
    params = config.scenario_params()
    estimator_names = config.estimator_names()
    records = []
    for scenario_name in config.scenario_names():
        scenario = get_scenario(scenario_name)
        events = scenario.build(params)
        truth = TruthContext.from_events(events, config.window)
        for variant_name in config.variant_names():
            sampler = build_sampler_for(
                suite_config, variant_name, scenario.slotted, scenario.executor
            )
            if not scenario.applies_to(variant_name, sampler):
                close_sampler(sampler)
                continue
            variant = get_variant(variant_name)
            windowed = variant.windowed or (
                variant.with_replacement and scenario.slotted
            )
            scenario.driver(sampler, events, params)
            context = EstimatorContext(
                sampler=sampler,
                truth=truth,
                windowed=windowed,
                seed=config.seed,
            )
            sample_len = len(sampler.sample())
            for estimator_name in estimator_names:
                estimator = get_estimator(estimator_name)
                if not estimator.applies_to(variant_name):
                    continue
                outcome = estimator.run(context)
                record = AccuracyRecord(
                    scenario=scenario_name,
                    estimator=estimator_name,
                    variant=variant_name,
                    n_events=len(events),
                    window=config.window,
                    windowed=windowed,
                    sample_len=sample_len,
                    estimate=outcome.estimate,
                    truth=outcome.truth,
                    error=outcome.error,
                    error_kind=outcome.error_kind,
                    ci_low=outcome.ci_low,
                    ci_high=outcome.ci_high,
                    within_ci=outcome.within_ci,
                    tolerance=estimator.tolerance,
                )
                records.append(record)
                if progress is not None:
                    coverage = "in-CI " if record.within_ci else "out-CI"
                    progress(
                        f"{scenario_name:<26} {variant_name:<18} "
                        f"{estimator_name:<20} "
                        f"err={record.error:6.3f} ({record.error_kind}) "
                        f"{coverage} tol={record.tolerance:g}"
                    )
            close_sampler(sampler)
    if not records:
        raise AccuracyError("accuracy suite produced no records (empty grid?)")
    return AccuracyReport.build(records, params={**asdict(config)})
