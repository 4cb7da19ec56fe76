"""Regression gate: diff a perf report against a committed baseline.

Per-metric tolerances, because the metrics have very different noise
characteristics:

* ``elapsed_s`` is wall-clock — machine- and load-dependent, so the gate
  uses a generous multiplicative factor (CI runs with 2.5x).
* ``messages_total`` / ``bytes_total`` / ``memory_total`` are protocol
  counters, exactly reproducible given the seed; they get a tight factor
  that only absorbs cross-version RNG/platform drift.

A comparison *fails* (``ok`` is False) when any shared record exceeds a
tolerance, when the current report lost coverage (a baseline record
with no counterpart — a silently skipped variant is itself a
regression), or when a record violates an *absolute invariant* (not a
baseline diff): a zero-copy backend (see :data:`ZERO_PICKLE_EXECUTORS`)
reporting nonzero ``pickle_bytes_per_event``, a
:data:`QUERY_CACHE_SCENARIOS` record whose cached query is not at least
:data:`QUERY_CACHE_FLOOR` times faster than its cold query, or a
:data:`MIXED_RW_SCENARIOS` record syncing as often as it queries
(``syncs_per_query`` >= :data:`MAX_SYNCS_PER_QUERY`).  Records new in
the current report are reported but never fail the gate, so adding
scenarios/variants does not require touching the baseline in the same
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import PerfError
from .report import PerfRecord, PerfReport

__all__ = [
    "Tolerances",
    "MetricDelta",
    "Comparison",
    "compare_reports",
    "render_markdown",
    "ZERO_PICKLE_EXECUTORS",
    "QUERY_CACHE_SCENARIOS",
    "QUERY_CACHE_FLOOR",
    "MIXED_RW_SCENARIOS",
    "MAX_SYNCS_PER_QUERY",
]

#: Suite parameters that shape the workload itself.  Two reports are only
#: comparable when these agree — otherwise every counter ratio just
#: measures the workload-size mismatch, not a regression.
WORKLOAD_PARAMS = (
    "n_events",
    "num_sites",
    "sample_size",
    "window",
    "seed",
    "algorithm",
    "shards",
    # Read/write mix drives the mixed-rw query scenarios; reports taken
    # at different ratios measure different workloads.
    "read_ratio",
    # Worker count does not change the deterministic counters, but the
    # shm cells' wall-clock is only comparable at equal W.
    "workers",
)


def _check_comparable(current: PerfReport, baseline: PerfReport) -> None:
    """Reject report pairs whose workloads differ.

    Raises:
        PerfError: Naming every mismatched workload parameter.  Skipped
            when either report carries no params (hand-built fixtures).
    """
    if not current.params or not baseline.params:
        return
    mismatches = [
        f"{name}: current={current.params.get(name)!r} "
        f"baseline={baseline.params.get(name)!r}"
        for name in WORKLOAD_PARAMS
        if current.params.get(name) != baseline.params.get(name)
    ]
    if mismatches:
        raise PerfError(
            "reports are not comparable — workload parameters differ "
            "(regenerate the baseline with matching flags): "
            + "; ".join(mismatches)
        )


@dataclass(frozen=True)
class Tolerances:
    """Per-metric multiplicative ceilings (current <= baseline * factor).

    Attributes:
        time_factor: Ceiling for wall-clock ``elapsed_s``.
        count_factor: Ceiling for the deterministic protocol counters.
    """

    time_factor: float = 2.5
    count_factor: float = 1.25

    def factor_for(self, metric: str) -> float:
        """The ceiling factor that applies to ``metric``."""
        return self.time_factor if metric == "elapsed_s" else self.count_factor


#: Metrics the gate checks, in report order.  Higher-is-worse for all of
#: them (throughput is implied by elapsed and not double-checked).
GATED_METRICS = ("elapsed_s", "messages_total", "bytes_total", "memory_total")

#: Execution backends whose columnar ingest must move zero pickled event
#: payload bytes across process boundaries.  ``serial`` runs in-process;
#: ``shm`` ships columns through shared memory — that is its whole
#: contract, so any pickled event payload is a regression regardless of
#: what the baseline recorded.
ZERO_PICKLE_EXECUTORS = ("serial", "shm")

#: Scenarios whose records must show the incremental merge cache working:
#: a cached query at least :data:`QUERY_CACHE_FLOOR` times faster than a
#: cold one.  Absolute invariants like the zero-pickle gate — the
#: committed baseline's wall-clock numbers never excuse a violation.
QUERY_CACHE_SCENARIOS = ("sharded-query-heavy",)
QUERY_CACHE_FLOOR = 10.0

#: Scenarios whose records must show queries sharing syncs: strictly
#: fewer executor syncs than queries over the driver's mixed traffic.
MIXED_RW_SCENARIOS = ("sharded-mixed-rw",)
MAX_SYNCS_PER_QUERY = 1.0


@dataclass(frozen=True)
class MetricDelta:
    """One metric comparison inside one record pair."""

    scenario: str
    variant: str
    metric: str
    baseline: float
    current: float
    factor: float  # tolerance ceiling that applied

    @property
    def ratio(self) -> float:
        """current / baseline (inf when the baseline is zero)."""
        if self.baseline == 0:
            return float("inf") if self.current else 1.0
        return self.current / self.baseline

    @property
    def regressed(self) -> bool:
        """Whether this metric exceeded its tolerance."""
        return self.ratio > self.factor


@dataclass(frozen=True)
class Comparison:
    """The result of diffing a report against a baseline."""

    deltas: tuple
    missing: tuple  # (scenario, variant) in baseline but not in current
    added: tuple  # (scenario, variant) new in current (informational)

    @property
    def regressions(self) -> tuple:
        """The deltas that exceeded their tolerance."""
        return tuple(delta for delta in self.deltas if delta.regressed)

    @property
    def ok(self) -> bool:
        """True when nothing regressed and no coverage was lost."""
        return not self.regressions and not self.missing

    def render(self) -> str:
        """Human-readable summary (the CLI prints this)."""
        lines = []
        for delta in self.deltas:
            if not delta.regressed:
                continue
            lines.append(
                f"REGRESSION {delta.scenario}/{delta.variant} "
                f"{delta.metric}: {delta.current:g} vs baseline "
                f"{delta.baseline:g} ({delta.ratio:.2f}x > "
                f"{delta.factor:g}x allowed)"
            )
        for key in self.missing:
            lines.append(
                f"MISSING {key[0]}/{key[1]}: present in baseline, "
                "absent from the current report"
            )
        for key in self.added:
            lines.append(f"new (uncompared): {key[0]}/{key[1]}")
        checked = len(self.deltas)
        if self.ok:
            lines.append(
                f"OK: {checked} metric comparisons within tolerance"
            )
        else:
            lines.append(
                f"FAIL: {len(self.regressions)} regression(s), "
                f"{len(self.missing)} missing record(s) "
                f"out of {checked} comparisons"
            )
        return "\n".join(lines)


def _metric(record: PerfRecord, name: str) -> float:
    return float(getattr(record, name))


def compare_reports(
    current: PerfReport,
    baseline: PerfReport,
    tolerances: Optional[Tolerances] = None,
) -> Comparison:
    """Diff ``current`` against ``baseline`` with per-metric tolerance.

    Args:
        current: The freshly produced report.
        baseline: The committed reference report.
        tolerances: Ceiling factors (defaults: 2.5x time, 1.25x counts).

    Returns:
        A :class:`Comparison`; check ``.ok`` for the gate verdict.

    Raises:
        PerfError: When the reports' workload parameters differ (the
            counters would measure the mismatch, not a regression).
    """
    _check_comparable(current, baseline)
    tolerances = tolerances or Tolerances()
    current_by_key = current.by_key()
    baseline_by_key = baseline.by_key()
    deltas = []
    missing = []
    for key, base_record in baseline_by_key.items():
        record = current_by_key.get(key)
        if record is None:
            missing.append(key)
            continue
        for metric in GATED_METRICS:
            deltas.append(
                MetricDelta(
                    scenario=key[0],
                    variant=key[1],
                    metric=metric,
                    baseline=_metric(base_record, metric),
                    current=_metric(record, metric),
                    factor=tolerances.factor_for(metric),
                )
            )
    for key, record in current_by_key.items():
        # Absolute invariant, not a baseline diff: zero-copy backends
        # must report zero pickled event-payload bytes.  baseline=0 with
        # a nonzero current makes the ratio inf, so any violation
        # regresses no matter the tolerance factor.
        if (
            record.executor in ZERO_PICKLE_EXECUTORS
            and record.pickle_bytes_per_event > 0
        ):
            deltas.append(
                MetricDelta(
                    scenario=key[0],
                    variant=key[1],
                    metric="pickle_bytes_per_event",
                    baseline=0.0,
                    current=record.pickle_bytes_per_event,
                    factor=1.0,
                )
            )
        # Absolute invariant: on the query-heavy scenario a cached query
        # must be at least QUERY_CACHE_FLOOR times faster than a cold
        # one.  Encoded as "cached must not exceed cold/FLOOR" so the
        # standard ratio > factor machinery reports it; appended only on
        # violation, like the zero-pickle gate.
        if record.scenario in QUERY_CACHE_SCENARIOS:
            ceiling = _metric(record, "query_seconds_cold") / QUERY_CACHE_FLOOR
            if record.query_seconds_cached > ceiling:
                deltas.append(
                    MetricDelta(
                        scenario=key[0],
                        variant=key[1],
                        metric="query_seconds_cached",
                        baseline=ceiling,
                        current=record.query_seconds_cached,
                        factor=1.0,
                    )
                )
        # Absolute invariant: the mixed read/write scenario must share
        # syncs across queries — strictly fewer syncs than queries
        # (< MAX_SYNCS_PER_QUERY).  Appended only on violation with a
        # zero baseline, so the ratio is inf and the delta regresses
        # regardless of tolerance, exactly like the zero-pickle gate.
        if (
            record.scenario in MIXED_RW_SCENARIOS
            and record.syncs_per_query >= MAX_SYNCS_PER_QUERY
        ):
            deltas.append(
                MetricDelta(
                    scenario=key[0],
                    variant=key[1],
                    metric="syncs_per_query",
                    baseline=0.0,
                    current=record.syncs_per_query,
                    factor=1.0,
                )
            )
    added = [key for key in current_by_key if key not in baseline_by_key]
    return Comparison(
        deltas=tuple(deltas),
        missing=tuple(sorted(missing)),
        added=tuple(sorted(added)),
    )


def render_markdown(comparison: Comparison, current: PerfReport) -> str:
    """GitHub-flavored markdown summary (CI writes it to the step
    summary page).

    Leads with the gate verdict, lists every regression, then renders
    the query-side metrics table for the query-path scenarios
    (:data:`QUERY_CACHE_SCENARIOS` + :data:`MIXED_RW_SCENARIOS`) so the
    cache-speedup and sync-sharing numbers are visible per run without
    downloading the report artifact.
    """
    lines = ["### Perf regression gate", ""]
    if comparison.ok:
        lines.append(
            f"**OK** — {len(comparison.deltas)} metric comparisons "
            "within tolerance"
        )
    else:
        lines.append(
            f"**FAIL** — {len(comparison.regressions)} regression(s), "
            f"{len(comparison.missing)} missing record(s)"
        )
        lines.append("")
        lines.append("| scenario | variant | metric | current | baseline | ratio |")
        lines.append("|---|---|---|---|---|---|")
        for delta in comparison.regressions:
            lines.append(
                f"| {delta.scenario} | {delta.variant} | {delta.metric} "
                f"| {delta.current:g} | {delta.baseline:g} "
                f"| {delta.ratio:.2f}x > {delta.factor:g}x |"
            )
        for key in comparison.missing:
            lines.append(f"| {key[0]} | {key[1]} | *missing* | — | — | — |")
    query_scenarios = QUERY_CACHE_SCENARIOS + MIXED_RW_SCENARIOS
    query_records = [
        record
        for record in current.records
        if record.scenario in query_scenarios
    ]
    if query_records:
        lines.append("")
        lines.append("### Query-path metrics")
        lines.append("")
        lines.append(
            "| scenario | variant | cold (µs) | cached (µs) "
            "| cache speedup | syncs/query |"
        )
        lines.append("|---|---|---|---|---|---|")
        for record in query_records:
            cold = record.query_seconds_cold
            cached = record.query_seconds_cached
            speedup = cold / cached if cached > 0 else float("inf")
            lines.append(
                f"| {record.scenario} | {record.variant} "
                f"| {cold * 1e6:.1f} | {cached * 1e6:.2f} "
                f"| {speedup:.1f}x | {record.syncs_per_query:.3f} |"
            )
    if comparison.added:
        lines.append("")
        lines.append(
            "New (uncompared) records: "
            + ", ".join(f"{key[0]}/{key[1]}" for key in comparison.added)
        )
    return "\n".join(lines)
