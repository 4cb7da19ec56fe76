"""Performance subsystem: scenario-driven benchmarks with a CI gate.

Three layers, mirroring the sampler front door:

* :mod:`repro.perf.scenarios` — a registry of named, parameterized
  workloads (uniform / bursty / adversarial / sliding churn / netsim
  round-trips).
* :mod:`repro.perf.suite` — crosses the scenario registry with the
  sampler-variant registry and times every applicable cell.
* :mod:`repro.perf.report` / :mod:`repro.perf.regress` — the
  schema-versioned JSON artifact and the tolerance-based diff that CI
  runs against ``benchmarks/baseline.json``.
* :mod:`repro.perf.timing` — :func:`paired_speedup`, the interleaved
  median ratio behind the ``speedup``-marked floors in the test suite.

CLI: ``repro perf run | compare | baseline`` (see README
"Benchmarking & performance tracking").
"""

from .regress import (
    Comparison,
    MetricDelta,
    Tolerances,
    compare_reports,
    render_markdown,
)
from .report import (
    SCHEMA_VERSION,
    PerfRecord,
    PerfReport,
    load_report,
    report_from_dict,
    save_report,
)
from .scenarios import (
    Scenario,
    ScenarioParams,
    get_scenario,
    perf_scenarios,
    register_scenario,
)
from .suite import SuiteConfig, build_sampler_for, run_suite
from .timing import paired_speedup

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioParams",
    "register_scenario",
    "perf_scenarios",
    "get_scenario",
    "SuiteConfig",
    "run_suite",
    "build_sampler_for",
    "paired_speedup",
    "PerfRecord",
    "PerfReport",
    "report_from_dict",
    "load_report",
    "save_report",
    "Tolerances",
    "MetricDelta",
    "Comparison",
    "compare_reports",
    "render_markdown",
]
