"""Accuracy regression gate: diff a report against a committed baseline.

Two independent checks per shared record, both on the deterministic
``error`` field:

* **tolerance** — the error must stay at or under the estimator's
  registered ceiling (recorded in the *current* report, so the registry
  is the single source of truth).  This is an absolute quality floor:
  even a "no worse than baseline" run fails if the estimator itself is
  broken.
* **drift** — the error must not exceed ``baseline_error * drift_factor
  + slack``.  Accuracy records are exactly reproducible given the seed,
  so the allowance only absorbs cross-version RNG/platform drift; the
  additive ``slack`` keeps near-zero baselines (exact cells) from
  turning the multiplicative factor into a zero-tolerance trap.

A comparison *fails* (``ok`` is False) when any shared record trips
either check, or when the current report lost coverage (a baseline
record with no counterpart — a silently skipped cell is itself a
regression).  Records new in the current report are reported but never
fail the gate, so adding estimators or scenarios does not require
touching the baseline in the same change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import AccuracyError
from .report import AccuracyReport

__all__ = [
    "AccuracyTolerances",
    "AccuracyDelta",
    "AccuracyComparison",
    "compare_accuracy_reports",
]

#: Suite parameters that shape the workload and the estimators' inputs.
#: Two reports are only comparable when these agree — otherwise every
#: error delta just measures the workload mismatch, not a regression.
#: ``workers`` is deliberately absent: the shm worker count never changes
#: the deterministic estimates (that bit-identity is itself under test).
WORKLOAD_PARAMS = (
    "n_events",
    "num_sites",
    "sample_size",
    "window",
    "seed",
    "algorithm",
    "shards",
)


def _check_comparable(current: AccuracyReport, baseline: AccuracyReport) -> None:
    """Reject report pairs whose workloads differ.

    Raises:
        AccuracyError: Naming every mismatched workload parameter.
            Skipped when either report carries no params (hand-built
            fixtures).
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
        raise AccuracyError(
            "reports are not comparable — workload parameters differ "
            "(regenerate the baseline with matching flags): "
            + "; ".join(mismatches)
        )


@dataclass(frozen=True)
class AccuracyTolerances:
    """Drift allowance for the baseline comparison.

    Attributes:
        drift_factor: Multiplicative ceiling on the error relative to
            the baseline record.
        slack: Additive slack on top of the scaled baseline (absorbs
            exact-zero baselines).
    """

    drift_factor: float = 1.5
    slack: float = 0.02

    def limit_for(self, baseline_error: float) -> float:
        """The drift ceiling for a record with the given baseline error."""
        return baseline_error * self.drift_factor + self.slack


@dataclass(frozen=True)
class AccuracyDelta:
    """One record comparison: current error vs ceiling and baseline."""

    scenario: str
    estimator: str
    variant: str
    baseline: float
    current: float
    tolerance: float  # the estimator's registered absolute ceiling
    limit: float  # the drift ceiling derived from the baseline

    @property
    def over_tolerance(self) -> bool:
        """Whether the error exceeded the estimator's absolute ceiling."""
        return self.current > self.tolerance

    @property
    def drifted(self) -> bool:
        """Whether the error drifted past the baseline allowance."""
        return self.current > self.limit

    @property
    def regressed(self) -> bool:
        """Whether either check failed."""
        return self.over_tolerance or self.drifted

    @property
    def reason(self) -> str:
        """Which check(s) failed (empty when none did)."""
        reasons = []
        if self.over_tolerance:
            reasons.append(f"error {self.current:g} > tolerance {self.tolerance:g}")
        if self.drifted:
            reasons.append(
                f"error {self.current:g} > drift limit {self.limit:g} "
                f"(baseline {self.baseline:g})"
            )
        return "; ".join(reasons)


@dataclass(frozen=True)
class AccuracyComparison:
    """The result of diffing an accuracy report against a baseline."""

    deltas: tuple
    missing: tuple  # (scenario, estimator, variant) lost from current
    added: tuple  # new in current (informational)

    @property
    def regressions(self) -> tuple:
        """The deltas that failed a check."""
        return tuple(delta for delta in self.deltas if delta.regressed)

    @property
    def ok(self) -> bool:
        """True when nothing regressed and no coverage was lost."""
        return not self.regressions and not self.missing

    def render(self) -> str:
        """Human-readable summary (the CLI prints this)."""
        lines = []
        for delta in self.regressions:
            lines.append(
                f"REGRESSION {delta.scenario}/{delta.estimator}"
                f"/{delta.variant}: {delta.reason}"
            )
        for key in self.missing:
            lines.append(
                f"MISSING {key[0]}/{key[1]}/{key[2]}: present in "
                "baseline, absent from the current report"
            )
        for key in self.added:
            lines.append(f"new (uncompared): {key[0]}/{key[1]}/{key[2]}")
        checked = len(self.deltas)
        if self.ok:
            lines.append(
                f"OK: {checked} accuracy records within tolerance and drift"
            )
        else:
            lines.append(
                f"FAIL: {len(self.regressions)} regression(s), "
                f"{len(self.missing)} missing record(s) "
                f"out of {checked} comparisons"
            )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavoured summary table (for ``GITHUB_STEP_SUMMARY``)."""
        verdict = "✅ pass" if self.ok else "❌ fail"
        lines = [
            f"### Accuracy gate: {verdict}",
            "",
            "| scenario | estimator | variant | error | baseline "
            "| tolerance | drift limit | status |",
            "| --- | --- | --- | ---: | ---: | ---: | ---: | --- |",
        ]
        for delta in self.deltas:
            status = "regressed" if delta.regressed else "ok"
            lines.append(
                f"| {delta.scenario} | {delta.estimator} | {delta.variant} "
                f"| {delta.current:.4f} | {delta.baseline:.4f} "
                f"| {delta.tolerance:g} | {delta.limit:.4f} | {status} |"
            )
        for key in self.missing:
            lines.append(
                f"| {key[0]} | {key[1]} | {key[2]} | — | — | — | — "
                "| **missing** |"
            )
        for key in self.added:
            lines.append(
                f"| {key[0]} | {key[1]} | {key[2]} | — | — | — | — | new |"
            )
        lines.append("")
        if self.ok:
            lines.append(
                f"{len(self.deltas)} records within tolerance and drift."
            )
        else:
            lines.append(
                f"**{len(self.regressions)} regression(s), "
                f"{len(self.missing)} missing record(s).**"
            )
        return "\n".join(lines) + "\n"


def compare_accuracy_reports(
    current: AccuracyReport,
    baseline: AccuracyReport,
    tolerances: Optional[AccuracyTolerances] = None,
) -> AccuracyComparison:
    """Diff ``current`` against ``baseline`` with tolerance + drift gates.

    Args:
        current: The freshly produced report.
        baseline: The committed reference report.
        tolerances: Drift allowance (defaults: 1.5x baseline + 0.02).

    Returns:
        An :class:`AccuracyComparison`; check ``.ok`` for the verdict.

    Raises:
        AccuracyError: When the reports' workload parameters differ (the
            errors would measure the mismatch, not a regression).
    """
    _check_comparable(current, baseline)
    tolerances = tolerances or AccuracyTolerances()
    current_by_key = current.by_key()
    baseline_by_key = baseline.by_key()
    deltas = []
    missing = []
    for key, base_record in baseline_by_key.items():
        record = current_by_key.get(key)
        if record is None:
            missing.append(key)
            continue
        deltas.append(
            AccuracyDelta(
                scenario=key[0],
                estimator=key[1],
                variant=key[2],
                baseline=base_record.error,
                current=record.error,
                tolerance=record.tolerance,
                limit=tolerances.limit_for(base_record.error),
            )
        )
    added = [key for key in current_by_key if key not in baseline_by_key]
    return AccuracyComparison(
        deltas=tuple(deltas),
        missing=tuple(sorted(missing)),
        added=tuple(sorted(added)),
    )
