"""Schema-versioned, machine-readable benchmark reports.

One :class:`PerfReport` is the JSON artifact of a suite run — the
``BENCH_*.json`` trajectory the repo tracks over time and the unit the CI
regression gate diffs against the committed ``benchmarks/baseline.json``.
The schema is versioned so readers can reject files they do not
understand instead of mis-parsing them; bump :data:`SCHEMA_VERSION` on
any incompatible change and teach :func:`report_from_dict` the migration.

Record identity is ``(scenario, variant)``; within one schema version a
record always carries the same metric keys, so diffs are plain per-key
comparisons (see :mod:`repro.perf.regress`).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..errors import PerfError

__all__ = [
    "SCHEMA_VERSION",
    "PerfRecord",
    "PerfReport",
    "report_from_dict",
    "load_report",
    "save_report",
]

#: Current report schema version.  Readers must reject other majors.
#: v2 added ``executor`` plus the per-event serialization counters
#: (``pickle_bytes_per_event``, ``ipc_bytes_per_event``).  v3 added the
#: query-side metrics (``query_seconds_cold``, ``query_seconds_cached``,
#: ``syncs_per_query``).
SCHEMA_VERSION = 3


@dataclass(frozen=True)
class PerfRecord:
    """One (scenario, variant) measurement.

    Timing metrics (``elapsed_s``, ``throughput_eps``) are the best of
    ``repeats`` runs — the standard noise-floor estimator.  Protocol
    metrics (``messages_total``, ``bytes_total``, ``memory_total``,
    ``sample_len``) are exactly reproducible given the workload seed, so
    the regression gate can hold them to a much tighter tolerance than
    wall-clock numbers.

    Serialization metrics come from the execution backend of the *last*
    repeat (every repeat drives a fresh sampler over the same events, so
    one repeat's counters are the per-drive cost):
    ``pickle_bytes_per_event`` is the pickled event-payload bytes that
    crossed a process boundary per ingested event — the "pickle tax" the
    shared-memory backend eliminates (exactly 0.0 on columnar workloads)
    — and ``ipc_bytes_per_event`` is all request/reply framing bytes per
    event (plans, timings, state exchanges).  Both are identically 0.0
    for the in-process serial backend.

    Query metrics (also from the last repeat, measured *after* the
    driver finishes): ``query_seconds_cold`` is the best-of-several time
    of one ``sample()`` with the merge cache dropped first (the full
    columnar bottom-s merge), ``query_seconds_cached`` the best time of
    a repeated ``sample()`` on the quiescent sampler (the cache hit),
    and ``syncs_per_query`` the executor syncs the driver's own queries
    actually triggered per query (0.0 when the driver never queried or
    the sampler has no query counters).  The regression gate pins
    cached ≥ 10x cold on ``sharded-query-heavy`` and
    ``syncs_per_query`` < 1 on ``sharded-mixed-rw``.
    """

    scenario: str
    variant: str
    n_events: int
    repeats: int
    elapsed_s: float
    throughput_eps: float
    messages_total: int
    bytes_total: int
    memory_total: int
    sample_len: int
    slots_processed: int
    executor: str
    pickle_bytes_per_event: float
    ipc_bytes_per_event: float
    query_seconds_cold: float
    query_seconds_cached: float
    syncs_per_query: float

    @property
    def key(self) -> tuple[str, str]:
        """Identity within a report: ``(scenario, variant)``."""
        return (self.scenario, self.variant)


@dataclass(frozen=True)
class PerfReport:
    """A full suite run: environment + parameters + records."""

    records: tuple[PerfRecord, ...]
    params: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    generated_at: str = ""
    python: str = ""
    platform: str = ""
    numpy: str = ""

    @classmethod
    def build(
        cls, records: list[PerfRecord], params: dict[str, Any]
    ) -> "PerfReport":
        """Assemble a report, stamping the current environment."""
        import numpy

        return cls(
            records=tuple(records),
            params=dict(params),
            generated_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            python=sys.version.split()[0],
            platform=platform.platform(),
            numpy=numpy.__version__,
        )

    def record_for(self, scenario: str, variant: str) -> Optional[PerfRecord]:
        """The record with the given identity, or None."""
        for record in self.records:
            if record.key == (scenario, variant):
                return record
        return None

    def by_key(self) -> dict[tuple[str, str], PerfRecord]:
        """Records indexed by ``(scenario, variant)``."""
        return {record.key: record for record in self.records}

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-serializable) form."""
        return {
            "schema_version": self.schema_version,
            "generated_at": self.generated_at,
            "environment": {
                "python": self.python,
                "platform": self.platform,
                "numpy": self.numpy,
            },
            "params": dict(self.params),
            "records": [asdict(record) for record in self.records],
        }

    def to_json(self, indent: int = 2) -> str:
        """Stable JSON text (sorted keys; trailing newline)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"


_RECORD_FIELDS = {
    "scenario": str,
    "variant": str,
    "n_events": int,
    "repeats": int,
    "elapsed_s": float,
    "throughput_eps": float,
    "messages_total": int,
    "bytes_total": int,
    "memory_total": int,
    "sample_len": int,
    "slots_processed": int,
    "executor": str,
    "pickle_bytes_per_event": float,
    "ipc_bytes_per_event": float,
    "query_seconds_cold": float,
    "query_seconds_cached": float,
    "syncs_per_query": float,
}


def report_from_dict(data: Any) -> PerfReport:
    """Parse and validate a report dict (inverse of ``to_dict``).

    Raises:
        PerfError: On a non-dict payload, missing/unsupported schema
            version, or malformed records.
    """
    if not isinstance(data, dict):
        raise PerfError(
            f"perf report must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise PerfError(
            f"unsupported perf report schema_version {version!r} "
            f"(this reader understands {SCHEMA_VERSION})"
        )
    environment = data.get("environment") or {}
    raw_records = data.get("records")
    if not isinstance(raw_records, list):
        raise PerfError("perf report is missing its 'records' list")
    records = []
    for i, raw in enumerate(raw_records):
        if not isinstance(raw, dict):
            raise PerfError(f"record #{i} is not an object")
        try:
            records.append(
                PerfRecord(
                    **{
                        name: kind(raw[name])
                        for name, kind in _RECORD_FIELDS.items()
                    }
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PerfError(f"record #{i} is malformed: {exc!r}") from exc
    return PerfReport(
        records=tuple(records),
        params=dict(data.get("params") or {}),
        schema_version=SCHEMA_VERSION,
        generated_at=str(data.get("generated_at", "")),
        python=str(environment.get("python", "")),
        platform=str(environment.get("platform", "")),
        numpy=str(environment.get("numpy", "")),
    )


def load_report(path) -> PerfReport:
    """Read and validate a report JSON file.

    Raises:
        PerfError: If the file is unreadable, not JSON, or fails
            validation.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise PerfError(f"cannot read perf report {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PerfError(f"perf report {path} is not valid JSON: {exc}") from exc
    return report_from_dict(data)


def save_report(report: PerfReport, path) -> Path:
    """Write a report as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.to_json())
    return path
