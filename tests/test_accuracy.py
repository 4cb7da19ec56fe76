"""Tests for the accuracy subsystem: truth, suite, report, gate, CLI."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.accuracy import (
    ACCURACY_SCHEMA_VERSION,
    AccuracyConfig,
    AccuracyRecord,
    AccuracyReport,
    AccuracyTolerances,
    TruthContext,
    accuracy_estimators,
    accuracy_report_from_dict,
    compare_accuracy_reports,
    get_estimator,
    load_accuracy_report,
    run_accuracy_suite,
    save_accuracy_report,
)
from repro.cli import main
from repro.core.events import EventBatch
from repro.errors import AccuracyError

# The registry tolerances are calibrated for s = 64 (binomial SE ~0.06);
# shrinking the sample would make the small grid flakier than CI's.
SMALL = AccuracyConfig(
    n_events=1_500,
    num_sites=3,
    sample_size=64,
    window=16,
    seed=11,
    scenarios=("uniform", "sliding-churn"),
    variants=("infinite", "sharded:infinite", "sliding", "sharded:sliding"),
    shards=4,
    workers=2,
)


@pytest.fixture(scope="module")
def small_report() -> AccuracyReport:
    return run_accuracy_suite(SMALL)


class TestTruthContext:
    def test_tuple_events_full_history(self):
        events = [(0, 1), (1, 2), (0, 2), (2, 3)]
        truth = TruthContext.from_events(events, window=4)
        assert not truth.slotted
        assert truth.distinct_count(windowed=False) == 3
        # Unslotted streams never expire: both populations coincide.
        assert truth.distinct_count(windowed=True) == 3

    def test_slotted_window_uses_last_arrival(self):
        # Element 1 arrives early but is refreshed at slot 9; element 2
        # only ever arrives at slot 1 and has expired from a window of 4.
        events = [(0, 1, 1), (0, 2, 1), (0, 3, 8), (0, 1, 9)]
        truth = TruthContext.from_events(events, window=4)
        assert truth.final_slot == 9
        assert truth.distinct_count(windowed=False) == 3
        assert sorted(truth.distinct_window.tolist()) == [1, 3]

    def test_raw_items_and_event_batch(self):
        raw = TruthContext.from_events([5, 6, 5, 7], window=4)
        batch = TruthContext.from_events(
            EventBatch(np.asarray([5, 6, 5, 7])), window=4
        )
        assert raw.distinct_all.tolist() == batch.distinct_all.tolist()

    def test_derived_truths(self):
        events = list(range(10))
        truth = TruthContext.from_events(events, window=4)
        assert truth.fraction_where_mod(False, 2, 0) == 0.5
        shares = truth.group_shares(False, 5)
        assert shares.tolist() == [0.2] * 5
        assert truth.quantile_value(False, 0.5) == 4.5
        assert truth.rank_of(False, 4.5) == 0.5

    def test_empty_and_invalid(self):
        with pytest.raises(AccuracyError):
            TruthContext.from_events([], window=4)
        with pytest.raises(AccuracyError):
            TruthContext.from_events([1, 2], window=0)


class TestEstimatorRegistry:
    def test_builtin_estimators(self):
        assert accuracy_estimators() == (
            "distinct-eh",
            "distinct-kmv",
            "heavy-hitters",
            "predicate-fraction",
            "quantile-median",
        )

    def test_unknown_estimator_raises(self):
        with pytest.raises(AccuracyError):
            get_estimator("nope")

    def test_eh_skips_sharded_twins(self):
        estimator = get_estimator("distinct-eh")
        assert estimator.applies_to("infinite")
        assert not estimator.applies_to("sharded:infinite")

    def test_tolerances_are_positive(self):
        for name in accuracy_estimators():
            assert get_estimator(name).tolerance > 0


class TestSuite:
    def test_all_records_within_tolerance(self, small_report):
        for record in small_report.records:
            assert record.error <= record.tolerance, record

    def test_grid_coverage(self, small_report):
        keys = set(small_report.by_key())
        # Windowed variants only run on the slotted scenario.
        assert ("uniform", "distinct-kmv", "infinite") in keys
        assert ("uniform", "distinct-kmv", "sliding") not in keys
        assert ("sliding-churn", "distinct-kmv", "sliding") in keys
        # The stream-replay EH estimator skips the sharded twins.
        assert ("uniform", "distinct-eh", "infinite") in keys
        assert ("uniform", "distinct-eh", "sharded:infinite") not in keys

    def test_sharded_cells_are_bit_identical(self, small_report):
        """S=4 sharded merges must equal the centralized sample exactly."""
        pairs = [("infinite", "sharded:infinite"), ("sliding", "sharded:sliding")]
        compared = 0
        for record in small_report.records:
            central, sharded = next(
                (c, s) for c, s in pairs if record.variant in (c, s)
            )
            if record.variant != central:
                continue
            twin = small_report.record_for(
                record.scenario, record.estimator, sharded
            )
            if twin is None:
                continue
            assert record.estimate == twin.estimate, record.key
            assert record.error == twin.error, record.key
            assert record.ci_low == twin.ci_low, record.key
            assert record.ci_high == twin.ci_high, record.key
            compared += 1
        assert compared >= 6

    def test_shm_executor_matches_serial(self):
        """W=2 shm-worker ingestion must not change a single estimate."""
        base = dataclasses.replace(
            SMALL,
            scenarios=("sharded-uniform",),
            variants=("sharded:infinite",),
        )
        serial = run_accuracy_suite(base)
        parallel = run_accuracy_suite(
            dataclasses.replace(base, scenarios=("sharded-uniform-shm",))
        )
        for record in serial.records:
            twin = parallel.record_for(
                "sharded-uniform-shm", record.estimator, record.variant
            )
            assert twin is not None
            assert record.estimate == twin.estimate
            assert record.error == twin.error

    def test_deterministic_given_seed(self):
        config = dataclasses.replace(
            SMALL, scenarios=("uniform",), variants=("infinite",)
        )
        a = run_accuracy_suite(config)
        b = run_accuracy_suite(config)
        assert a.by_key() == b.by_key()

    def test_empty_grid_raises(self):
        with pytest.raises(AccuracyError):
            run_accuracy_suite(
                dataclasses.replace(
                    SMALL, scenarios=("uniform",), variants=("sliding",)
                )
            )

    def test_unknown_names_raise(self):
        with pytest.raises(Exception):
            run_accuracy_suite(dataclasses.replace(SMALL, scenarios=("nope",)))
        with pytest.raises(AccuracyError):
            run_accuracy_suite(dataclasses.replace(SMALL, estimators=("nope",)))


class TestReport:
    def test_round_trip(self, small_report):
        again = accuracy_report_from_dict(json.loads(small_report.to_json()))
        assert again.by_key() == small_report.by_key()
        assert again.params == small_report.params

    def test_save_and_load(self, small_report, tmp_path):
        path = save_accuracy_report(small_report, tmp_path / "acc.json")
        loaded = load_accuracy_report(path)
        assert loaded.by_key() == small_report.by_key()

    def test_schema_version_enforced(self, small_report):
        data = small_report.to_dict()
        data["schema_version"] = ACCURACY_SCHEMA_VERSION + 1
        with pytest.raises(AccuracyError):
            accuracy_report_from_dict(data)
        with pytest.raises(AccuracyError):
            accuracy_report_from_dict([1, 2])

    def test_malformed_records_rejected(self, small_report):
        data = small_report.to_dict()
        del data["records"][0]["error"]
        with pytest.raises(AccuracyError):
            accuracy_report_from_dict(data)
        data = small_report.to_dict()
        data["records"] = "nope"
        with pytest.raises(AccuracyError):
            accuracy_report_from_dict(data)

    def test_json_is_stable(self, small_report):
        assert small_report.to_json() == small_report.to_json()
        assert small_report.to_json().endswith("\n")


def _with_error(report: AccuracyReport, index: int, error: float) -> AccuracyReport:
    records = list(report.records)
    records[index] = dataclasses.replace(records[index], error=error)
    return dataclasses.replace(report, records=tuple(records))


class TestRegressionGate:
    def test_self_compare_is_ok(self, small_report):
        comparison = compare_accuracy_reports(small_report, small_report)
        assert comparison.ok
        assert not comparison.regressions and not comparison.missing
        assert "OK" in comparison.render()

    def test_tolerance_breach_fails(self, small_report):
        worse = _with_error(small_report, 0, 5.0)
        comparison = compare_accuracy_reports(worse, small_report)
        assert not comparison.ok
        assert comparison.regressions[0].over_tolerance
        assert "REGRESSION" in comparison.render()

    def test_drift_breach_fails_even_under_tolerance(self, small_report):
        # Stay under the registry ceiling but triple the baseline error.
        target = next(
            i
            for i, record in enumerate(small_report.records)
            if record.error > 0.03
        )
        baseline_error = small_report.records[target].error
        drifted = min(baseline_error * 3.0 + 0.03,
                      small_report.records[target].tolerance * 0.99)
        worse = _with_error(small_report, target, drifted)
        comparison = compare_accuracy_reports(worse, small_report)
        assert not comparison.ok
        delta = comparison.regressions[0]
        assert delta.drifted and not delta.over_tolerance

    def test_slack_absorbs_tiny_drift(self, small_report):
        nudged = _with_error(
            small_report, 0, small_report.records[0].error + 0.005
        )
        comparison = compare_accuracy_reports(
            nudged, small_report, AccuracyTolerances(drift_factor=1.0)
        )
        assert comparison.ok

    def test_missing_record_fails(self, small_report):
        shrunk = dataclasses.replace(
            small_report, records=small_report.records[1:]
        )
        comparison = compare_accuracy_reports(shrunk, small_report)
        assert not comparison.ok
        assert comparison.missing == (small_report.records[0].key,)

    def test_added_record_is_informational(self, small_report):
        shrunk = dataclasses.replace(
            small_report, records=small_report.records[1:]
        )
        comparison = compare_accuracy_reports(small_report, shrunk)
        assert comparison.ok
        assert comparison.added == (small_report.records[0].key,)

    def test_workload_mismatch_raises(self, small_report):
        other = dataclasses.replace(
            small_report, params={**small_report.params, "seed": 999}
        )
        with pytest.raises(AccuracyError):
            compare_accuracy_reports(small_report, other)

    def test_markdown_render(self, small_report):
        worse = _with_error(small_report, 0, 5.0)
        text = compare_accuracy_reports(worse, small_report).render_markdown()
        assert text.startswith("### Accuracy gate: ❌ fail")
        assert "| scenario | estimator | variant |" in text
        assert "regressed" in text
        ok_text = compare_accuracy_reports(
            small_report, small_report
        ).render_markdown()
        assert ok_text.startswith("### Accuracy gate: ✅ pass")


# s = 64 keeps the CLI grid inside the registry tolerances (see SMALL).
ACC_CLI_ARGS = [
    "--n", "1000", "--sites", "3", "--sample-size", "64", "--window", "16",
    "--scenario", "uniform", "--variant", "infinite",
]


class TestCLI:
    def test_run_writes_report(self, capsys, tmp_path):
        out = tmp_path / "acc.json"
        code = main(["accuracy", "run", *ACC_CLI_ARGS, "--out", str(out)])
        assert code == 0
        report = load_accuracy_report(out)
        assert report.schema_version == ACCURACY_SCHEMA_VERSION
        assert {record.estimator for record in report.records} == set(
            accuracy_estimators()
        )

    def test_compare_ok_and_markdown(self, capsys, tmp_path):
        out = tmp_path / "acc.json"
        assert main(["accuracy", "run", *ACC_CLI_ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["accuracy", "compare", str(out), str(out)]) == 0
        assert "OK" in capsys.readouterr().out
        code = main(
            ["accuracy", "compare", str(out), str(out), "--format", "markdown"]
        )
        assert code == 0
        assert "### Accuracy gate: ✅ pass" in capsys.readouterr().out

    def test_compare_exits_1_on_seeded_regression(self, capsys, tmp_path):
        """A deliberately broken record must trip the gate with exit 1."""
        out = tmp_path / "acc.json"
        assert main(["accuracy", "run", *ACC_CLI_ARGS, "--out", str(out)]) == 0
        report = load_accuracy_report(out)
        worse = _with_error(report, 0, report.records[0].tolerance + 1.0)
        bad = tmp_path / "bad.json"
        save_accuracy_report(worse, bad)
        capsys.readouterr()
        assert main(["accuracy", "compare", str(bad), str(out)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_baseline_refuses_overwrite_without_force(self, capsys, tmp_path):
        out = tmp_path / "baseline.json"
        args = ["accuracy", "baseline", *ACC_CLI_ARGS, "--out", str(out)]
        assert main(args) == 0
        first = out.read_text()
        assert main(args) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert out.read_text() == first
        assert main([*args, "--force"]) == 0

    def test_perf_baseline_guard(self, capsys, tmp_path):
        out = tmp_path / "perf_baseline.json"
        out.write_text("{}")
        code = main(["perf", "baseline", "--n", "100", "--out", str(out)])
        assert code == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert out.read_text() == "{}"


class TestCommittedBaseline:
    def test_committed_baseline_loads_and_matches_defaults(self):
        """The committed baseline must parse and cover the default grid."""
        baseline = load_accuracy_report("benchmarks/accuracy_baseline.json")
        assert baseline.schema_version == ACCURACY_SCHEMA_VERSION
        assert baseline.params["sample_size"] == 64
        assert baseline.params["shards"] == 4
        assert baseline.params["workers"] == 2
        for record in baseline.records:
            assert record.error <= record.tolerance, record

    def test_record_key_identity(self):
        record = AccuracyRecord(
            scenario="s",
            estimator="e",
            variant="v",
            n_events=1,
            window=1,
            windowed=False,
            sample_len=1,
            estimate=1.0,
            truth=1.0,
            error=0.0,
            error_kind="relative",
            ci_low=0.0,
            ci_high=2.0,
            within_ci=True,
            tolerance=0.5,
        )
        assert record.key == ("s", "e", "v")
