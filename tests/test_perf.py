"""Tests for the perf subsystem: scenarios, suite, report, regression gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.api import get_variant, sampler_variants
from repro.errors import PerfError
from repro.perf import (
    SCHEMA_VERSION,
    Comparison,
    PerfRecord,
    PerfReport,
    ScenarioParams,
    SuiteConfig,
    Tolerances,
    compare_reports,
    get_scenario,
    load_report,
    perf_scenarios,
    render_markdown,
    report_from_dict,
    run_suite,
    save_report,
)

SMALL = SuiteConfig(
    n_events=400, num_sites=3, sample_size=4, window=8, seed=11, repeats=1
)


@pytest.fixture(scope="module")
def small_report() -> PerfReport:
    return run_suite(SMALL)


class TestScenarioRegistry:
    def test_builtin_scenarios(self):
        assert perf_scenarios() == (
            "adversarial",
            "bursty",
            "netsim-roundtrip",
            "sharded-mixed-rw",
            "sharded-query-heavy",
            "sharded-reshard",
            "sharded-uniform",
            "sharded-uniform-columnar",
            "sharded-uniform-shm",
            "sliding-churn",
            "uniform",
            "uniform-columnar",
        )

    def test_unknown_scenario_raises(self):
        with pytest.raises(PerfError):
            get_scenario("nope")

    @pytest.mark.parametrize("name", perf_scenarios())
    def test_builders_are_deterministic(self, name):
        params = ScenarioParams(n_events=200, num_sites=3, seed=5, window=8)
        scenario = get_scenario(name)
        assert scenario.build(params) == scenario.build(params)

    def test_seed_changes_workload(self):
        scenario = get_scenario("uniform")
        a = scenario.build(ScenarioParams(n_events=200, num_sites=3, seed=1))
        b = scenario.build(ScenarioParams(n_events=200, num_sites=3, seed=2))
        assert a != b

    def test_slotted_scenario_stamps_slots(self):
        params = ScenarioParams(n_events=200, num_sites=3, seed=5, window=8)
        events = get_scenario("sliding-churn").build(params)
        assert all(len(event) == 3 for event in events)
        slots = [slot for _, _, slot in events]
        assert slots == sorted(slots) and slots[0] == 1

    def test_unslotted_scenarios_are_plain_pairs(self):
        params = ScenarioParams(n_events=200, num_sites=3, seed=5)
        for name in ("uniform", "bursty", "adversarial"):
            events = get_scenario(name).build(params)
            assert all(len(event) == 2 for event in events)
            assert all(0 <= site < 3 for site, _ in events)

    def test_sharded_uniform_is_raw_items(self):
        # Routing is the scenario: the builder emits bare keys and the
        # driver assigns sites through the Engine's hash policy.
        params = ScenarioParams(n_events=200, num_sites=3, seed=5)
        events = get_scenario("sharded-uniform").build(params)
        assert len(events) == 200
        assert all(isinstance(event, int) for event in events)

    def test_columnar_twins_describe_the_same_workloads(self):
        """The columnar scenarios are representation changes only: same
        seeds, same columns, zero tuples."""
        from repro.core.events import EventBatch

        params = ScenarioParams(n_events=200, num_sites=3, seed=5)
        tuple_uniform = get_scenario("uniform").build(params)
        columnar_uniform = get_scenario("uniform-columnar").build(params)
        assert isinstance(columnar_uniform, EventBatch)
        assert columnar_uniform == EventBatch.from_events(tuple_uniform)
        raw = get_scenario("sharded-uniform").build(params)
        columnar_raw = get_scenario("sharded-uniform-columnar").build(params)
        assert isinstance(columnar_raw, EventBatch)
        assert columnar_raw.sites is None
        assert columnar_raw.items.tolist() == raw

    def test_adversarial_floods_every_site(self):
        params = ScenarioParams(n_events=60, num_sites=3, seed=5)
        events = get_scenario("adversarial").build(params)
        # Every distinct element reaches all three sites exactly once.
        by_element: dict = {}
        for site, element in events:
            by_element.setdefault(element, []).append(site)
        assert all(sorted(sites) == [0, 1, 2] for sites in by_element.values())

    def test_params_validation(self):
        with pytest.raises(PerfError):
            ScenarioParams(n_events=0).validate()
        with pytest.raises(PerfError):
            ScenarioParams(num_sites=0).validate()
        with pytest.raises(PerfError):
            ScenarioParams(window=0).validate()


class TestSuite:
    def test_covers_every_registered_variant(self, small_report):
        assert {r.variant for r in small_report.records} == set(
            sampler_variants()
        )

    def test_windowed_variants_only_on_slotted_scenarios(self, small_report):
        for record in small_report.records:
            if get_variant(record.variant).windowed:
                assert record.scenario == "sliding-churn"

    def test_netsim_skips_facades_without_network(self, small_report):
        scenarios = {
            r.variant: r for r in small_report.records
            if r.scenario == "netsim-roundtrip"
        }
        assert "with-replacement" not in scenarios
        assert "sharded:infinite" not in scenarios
        assert "infinite" in scenarios

    @pytest.mark.parametrize(
        "scenario",
        [
            "sharded-uniform",
            "sharded-uniform-columnar",
            "sharded-uniform-shm",
        ],
    )
    def test_sharded_uniform_runs_only_sharded_variants(
        self, small_report, scenario
    ):
        variants = {
            r.variant for r in small_report.records
            if r.scenario == scenario
        }
        assert variants == {
            "sharded:infinite", "sharded:broadcast", "sharded:caching"
        }

    def test_columnar_cells_match_tuple_counters(self, small_report):
        """Same workload, different representation: the deterministic
        counters of every columnar cell equal its tuple twin's."""
        for tuple_name, columnar_name in (
            ("uniform", "uniform-columnar"),
            ("sharded-uniform", "sharded-uniform-columnar"),
        ):
            tuple_cells = {
                r.variant: r for r in small_report.records
                if r.scenario == tuple_name
            }
            columnar_cells = {
                r.variant: r for r in small_report.records
                if r.scenario == columnar_name
            }
            assert set(columnar_cells) == set(tuple_cells)
            for variant, cell in columnar_cells.items():
                twin = tuple_cells[variant]
                assert cell.messages_total == twin.messages_total
                assert cell.bytes_total == twin.bytes_total
                assert cell.memory_total == twin.memory_total
                assert cell.sample_len == twin.sample_len

    def test_parallel_cells_match_serial_counters(self, small_report):
        """The shm scenario is an execution change only: its
        deterministic counters must equal the serial columnar twin's —
        the suite-level face of the bit-identical acceptance criterion."""
        parallel = {
            r.variant: r for r in small_report.records
            if r.scenario == "sharded-uniform-shm"
        }
        serial = {
            r.variant: r for r in small_report.records
            if r.scenario == "sharded-uniform-columnar"
        }
        assert set(parallel) == set(serial) and parallel
        for variant, cell in parallel.items():
            twin = serial[variant]
            assert cell.messages_total == twin.messages_total
            assert cell.bytes_total == twin.bytes_total
            assert cell.memory_total == twin.memory_total
            assert cell.sample_len == twin.sample_len

    def test_serialization_counters_by_backend(self, small_report):
        """Executor identity and the pickle/ipc split: serial cells move
        no bytes at all, and shm cells move framing but zero pickled
        event payload."""
        by_scenario: dict = {}
        for record in small_report.records:
            by_scenario.setdefault(record.scenario, []).append(record)
        for record in by_scenario["sharded-uniform-columnar"]:
            assert record.executor == "serial"
            assert record.pickle_bytes_per_event == 0.0
            assert record.ipc_bytes_per_event == 0.0
        for record in by_scenario["sharded-uniform-shm"]:
            assert record.executor == "shm"
            assert record.pickle_bytes_per_event == 0.0
            assert record.ipc_bytes_per_event > 0.0

    def test_record_metrics_are_sane(self, small_report):
        for record in small_report.records:
            assert record.n_events > 0
            assert record.elapsed_s > 0
            assert record.throughput_eps > 0
            assert record.messages_total > 0
            assert record.sample_len > 0

    def test_protocol_counters_are_reproducible(self, small_report):
        again = run_suite(SMALL)
        for record in small_report.records:
            twin = again.record_for(record.scenario, record.variant)
            assert twin is not None
            assert twin.messages_total == record.messages_total
            assert twin.bytes_total == record.bytes_total
            assert twin.memory_total == record.memory_total
            assert twin.sample_len == record.sample_len

    def test_scenario_and_variant_filters(self):
        report = run_suite(
            SuiteConfig(
                n_events=200,
                num_sites=2,
                sample_size=2,
                window=8,
                scenarios=("uniform",),
                variants=("infinite", "broadcast"),
            )
        )
        assert {r.key for r in report.records} == {
            ("uniform", "infinite"),
            ("uniform", "broadcast"),
        }

    def test_unknown_names_raise(self):
        from repro.errors import ReproError

        with pytest.raises(PerfError):
            run_suite(SuiteConfig(scenarios=("nope",)))
        with pytest.raises(ReproError):  # ConfigurationError from the registry
            run_suite(SuiteConfig(variants=("nope",)))
        with pytest.raises(PerfError):
            run_suite(SuiteConfig(repeats=0))


class TestReport:
    def test_json_round_trip(self, small_report, tmp_path):
        path = save_report(small_report, tmp_path / "report.json")
        loaded = load_report(path)
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.records == small_report.records
        assert loaded.params == json.loads(
            json.dumps(small_report.params)
        )

    def test_environment_is_stamped(self, small_report):
        assert small_report.python
        assert small_report.numpy
        assert small_report.generated_at

    def test_rejects_wrong_schema_version(self, small_report):
        data = small_report.to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(PerfError):
            report_from_dict(data)

    def test_rejects_malformed_payloads(self, small_report):
        with pytest.raises(PerfError):
            report_from_dict([1, 2, 3])
        data = small_report.to_dict()
        del data["records"]
        with pytest.raises(PerfError):
            report_from_dict(data)
        data = small_report.to_dict()
        del data["records"][0]["elapsed_s"]
        with pytest.raises(PerfError):
            report_from_dict(data)

    def test_load_errors(self, tmp_path):
        with pytest.raises(PerfError):
            load_report(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(PerfError):
            load_report(bad)


def _tweak(report: PerfReport, index: int, **changes) -> PerfReport:
    records = list(report.records)
    data = {**records[index].__dict__, **changes}
    records[index] = PerfRecord(**data)
    return PerfReport(records=tuple(records), params=report.params)


class TestRegressionGate:
    def test_self_comparison_is_ok(self, small_report):
        comparison = compare_reports(small_report, small_report)
        assert isinstance(comparison, Comparison)
        assert comparison.ok
        assert not comparison.regressions
        assert "OK" in comparison.render()

    def test_time_regression_fails(self, small_report):
        slow = _tweak(
            small_report, 0, elapsed_s=small_report.records[0].elapsed_s * 10
        )
        comparison = compare_reports(slow, small_report)
        assert not comparison.ok
        assert any(d.metric == "elapsed_s" for d in comparison.regressions)
        assert "REGRESSION" in comparison.render()

    def test_time_within_tolerance_passes(self, small_report):
        slightly_slow = _tweak(
            small_report, 0, elapsed_s=small_report.records[0].elapsed_s * 2
        )
        assert compare_reports(slightly_slow, small_report).ok

    def test_count_regression_fails(self, small_report):
        chatty = _tweak(
            small_report,
            0,
            messages_total=small_report.records[0].messages_total * 2,
        )
        comparison = compare_reports(chatty, small_report)
        assert not comparison.ok
        assert any(
            d.metric == "messages_total" for d in comparison.regressions
        )

    def test_lost_coverage_fails(self, small_report):
        shrunk = PerfReport(
            records=small_report.records[1:], params=small_report.params
        )
        comparison = compare_reports(shrunk, small_report)
        assert not comparison.ok
        assert comparison.missing == (small_report.records[0].key,)

    def test_new_records_are_informational(self, small_report):
        shrunk_baseline = PerfReport(
            records=small_report.records[1:], params=small_report.params
        )
        comparison = compare_reports(small_report, shrunk_baseline)
        assert comparison.ok
        assert comparison.added == (small_report.records[0].key,)

    def test_mismatched_workloads_are_rejected(self, small_report):
        other = PerfReport(
            records=small_report.records,
            params={**small_report.params, "n_events": 999_999},
        )
        with pytest.raises(PerfError, match="not comparable"):
            compare_reports(other, small_report)
        # Hand-built fixtures without params skip the guard.
        bare = PerfReport(records=small_report.records)
        assert compare_reports(bare, small_report).ok

    def test_repeats_do_not_block_comparison(self, small_report):
        other = PerfReport(
            records=small_report.records,
            params={**small_report.params, "repeats": 5},
        )
        assert compare_reports(other, small_report).ok

    def test_zero_pickle_invariant_fails_shm_leak(self, small_report):
        """A zero-copy backend reporting pickled event payload regresses
        no matter what the baseline recorded."""
        index = next(
            i for i, r in enumerate(small_report.records)
            if r.scenario == "sharded-uniform-shm"
        )
        leaky = _tweak(small_report, index, pickle_bytes_per_event=4.2)
        comparison = compare_reports(leaky, small_report)
        assert not comparison.ok
        offenders = [
            d for d in comparison.regressions
            if d.metric == "pickle_bytes_per_event"
        ]
        assert len(offenders) == 1
        assert offenders[0].scenario == "sharded-uniform-shm"
        assert "pickle_bytes_per_event" in comparison.render()
        assert compare_reports(small_report, small_report).ok

    def test_query_metrics_are_recorded(self, small_report):
        """Schema v3 query metrics are populated for the query scenarios."""
        query_records = [
            r for r in small_report.records
            if r.scenario in ("sharded-query-heavy", "sharded-mixed-rw")
        ]
        assert query_records
        for record in query_records:
            assert record.query_seconds_cold > 0.0
            assert record.query_seconds_cached >= 0.0
            assert record.query_seconds_cached <= record.query_seconds_cold
            # Queries share syncs within a quiescent period.
            assert record.syncs_per_query < 1.0

    def test_query_cache_invariant_fails_slow_cached(self, small_report):
        """A query-heavy record whose cached query is not 10x faster than
        cold regresses regardless of the baseline."""
        index = next(
            i for i, r in enumerate(small_report.records)
            if r.scenario == "sharded-query-heavy"
        )
        cold = small_report.records[index].query_seconds_cold
        slow = _tweak(small_report, index, query_seconds_cached=cold / 2)
        comparison = compare_reports(slow, small_report)
        assert not comparison.ok
        offenders = [
            d for d in comparison.regressions
            if d.metric == "query_seconds_cached"
        ]
        assert len(offenders) == 1
        assert offenders[0].scenario == "sharded-query-heavy"

    def test_mixed_rw_invariant_fails_sync_per_query(self, small_report):
        """A mixed-rw record syncing once (or more) per query regresses."""
        index = next(
            i for i, r in enumerate(small_report.records)
            if r.scenario == "sharded-mixed-rw"
        )
        chatty = _tweak(small_report, index, syncs_per_query=1.0)
        comparison = compare_reports(chatty, small_report)
        assert not comparison.ok
        offenders = [
            d for d in comparison.regressions
            if d.metric == "syncs_per_query"
        ]
        assert len(offenders) == 1
        assert offenders[0].scenario == "sharded-mixed-rw"

    def test_render_markdown_ok_and_regressed(self, small_report):
        ok = render_markdown(
            compare_reports(small_report, small_report), small_report
        )
        assert "### Perf regression gate" in ok
        assert "**OK**" in ok
        assert "Query-path metrics" in ok
        assert "sharded-query-heavy" in ok
        assert "sharded-mixed-rw" in ok

        slow = _tweak(
            small_report, 0, elapsed_s=small_report.records[0].elapsed_s * 100
        )
        bad = render_markdown(compare_reports(slow, small_report), slow)
        assert "**FAIL**" in bad
        assert "elapsed_s" in bad

    def test_custom_tolerances(self, small_report):
        slow = _tweak(
            small_report, 0, elapsed_s=small_report.records[0].elapsed_s * 4
        )
        assert not compare_reports(slow, small_report).ok
        assert compare_reports(
            slow, small_report, Tolerances(time_factor=5.0)
        ).ok
        assert Tolerances().factor_for("elapsed_s") == 2.5
        assert Tolerances().factor_for("messages_total") == 1.25


class TestPerfCli:
    ARGS = [
        "--n", "300", "--sites", "2", "--sample-size", "2", "--window", "8",
        "--scenario", "uniform", "--scenario", "sliding-churn",
    ]

    def test_run_writes_valid_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert main(["perf", "run", *self.ARGS, "--out", str(out)]) == 0
        report = load_report(out)
        assert report.schema_version == SCHEMA_VERSION
        assert {r.scenario for r in report.records} == {
            "uniform", "sliding-churn",
        }
        assert "wrote" in capsys.readouterr().out

    def test_compare_ok_and_regressed(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        main(["perf", "run", *self.ARGS, "--out", str(out)])
        assert main(["perf", "compare", str(out), str(out)]) == 0
        assert "OK" in capsys.readouterr().out
        data = json.loads(out.read_text())
        data["records"][0]["elapsed_s"] *= 100
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(data))
        assert main(["perf", "compare", str(regressed), str(out)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_baseline_writes_default_path(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["perf", "baseline", *self.ARGS]) == 0
        assert (tmp_path / "benchmarks" / "baseline.json").exists()

    def test_baseline_defaults_mirror_ci_workload(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["perf", "baseline"])
        assert (args.n, args.repeats) == (8_000, 2)

    def test_mismatched_workload_compare_is_a_cli_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        small = tmp_path / "small.json"
        big = tmp_path / "big.json"
        base = ["--sites", "2", "--sample-size", "2", "--scenario", "uniform"]
        main(["perf", "run", "--n", "200", *base, "--out", str(small)])
        main(["perf", "run", "--n", "400", *base, "--out", str(big)])
        assert main(["perf", "compare", str(big), str(small)]) == 2
        assert "not comparable" in capsys.readouterr().err

    def test_unknown_scenario_is_a_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["perf", "run", "--scenario", "nope"]) == 2
        assert "unknown perf scenario" in capsys.readouterr().err

    def test_profile_prints_hot_spots(self, capsys):
        from repro.cli import main

        assert main([
            "perf", "profile", "sharded-uniform",
            "--n", "500", "--sites", "2", "--sample-size", "2",
            "--shards", "2", "--variant", "sharded:infinite", "--top", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "variant=sharded:infinite" in out
        assert "cumulative" in out
        assert "observe_batch" in out

    def test_profile_picks_first_applicable_variant(self, capsys):
        from repro.cli import main

        assert main([
            "perf", "profile", "uniform", "--n", "300", "--sites", "2",
            "--sample-size", "2", "--top", "3",
        ]) == 0
        # sorted(registry)[0] applicable to the uniform scenario
        assert "variant=broadcast" in capsys.readouterr().out

    @pytest.mark.parametrize("retired", ["process", "thread"])
    def test_profile_rejects_retired_executors(self, retired, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([
                "perf", "profile", "sharded-uniform", "--executor", retired,
            ])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err

    def test_profile_errors_are_cli_errors(self, capsys):
        from repro.cli import main

        assert main(["perf", "profile", "nope"]) == 2
        assert "unknown perf scenario" in capsys.readouterr().err
        assert main([
            "perf", "profile", "sharded-uniform", "--variant", "infinite",
        ]) == 2
        assert "does not apply" in capsys.readouterr().err


class TestBatchSpeedup:
    @pytest.mark.speedup
    def test_vectorized_batch_is_3x_on_infinite_20k(self):
        """The acceptance floor: observe_batch >= 3x a single-observe loop
        on the 20k-element infinite-window micro-benchmark (the median
        ratio of interleaved pairs, each on a fresh system, damps the
        host's speed shifts; see :func:`repro.perf.paired_speedup`).  The
        collector stays on, as it always has for this floor: the batch
        path's allocations trigger collections, and switching them off
        raised the measured ratio by ~10%."""
        import time

        from repro import make_sampler
        from repro.perf import ScenarioParams, get_scenario, paired_speedup

        events = get_scenario("uniform").build(
            ScenarioParams(n_events=20_000, num_sites=8, seed=7)
        )
        systems = {}

        def build():
            return make_sampler(
                "infinite",
                num_sites=8,
                sample_size=16,
                seed=5,
                algorithm="mix64",
            )

        def time_single():
            system = systems["single"] = build()
            observe = system.observe
            started = time.perf_counter()
            for site, element in events:
                observe(site, element)
            return time.perf_counter() - started

        def time_batch():
            system = systems["batch"] = build()
            started = time.perf_counter()
            system.observe_batch(events)
            return time.perf_counter() - started

        speedup = paired_speedup(time_single, time_batch, gc_off=False)
        assert systems["single"].sample() == systems["batch"].sample()
        assert systems["single"].stats() == systems["batch"].stats()
        assert speedup >= 3.0, f"batch only {speedup:.2f}x faster"

    @pytest.mark.speedup
    def test_columnar_ingest_is_10x_single_observe_on_sharded_uniform_100k(self):
        """The columnar acceptance floor: an EventBatch through the
        Engine → ShardedSampler → core pipeline must be >= 10x a loop of
        single ``Engine.observe`` calls on the sharded-uniform workload
        at n=100k (measured 23-31x on 2 vCPUs; the median ratio of
        interleaved pairs with GC off damps noise).  A key list takes the
        same pipeline as the batch, so the per-event path is the
        reference.  The columnar batch is rebuilt per run so the
        hash-column cache never carries over between timings."""
        import time

        from repro import make_sampler
        from repro.perf import ScenarioParams, get_scenario, paired_speedup
        from repro.runtime.engine import Engine

        params = ScenarioParams(n_events=100_000, num_sites=8, seed=7)
        keys = get_scenario("sharded-uniform").build(params)
        columnar_scenario = get_scenario("sharded-uniform-columnar")
        samplers = {}

        def build(name):
            sampler = samplers[name] = make_sampler(
                "sharded:infinite",
                num_sites=8,
                sample_size=16,
                shards=4,
                seed=5,
                algorithm="mix64",
            )
            return Engine(sampler, policy="hash", seed=params.seed)

        def time_single():
            observe = build("single").observe
            started = time.perf_counter()
            for key in keys:
                observe(key)
            return time.perf_counter() - started

        def time_columnar():
            engine = build("columnar")
            batch = columnar_scenario.build(params)
            started = time.perf_counter()
            engine.observe_batch(batch)
            return time.perf_counter() - started

        speedup = paired_speedup(time_single, time_columnar)
        single, columnar = samplers["single"], samplers["columnar"]
        assert single.sample() == columnar.sample()
        assert single.stats() == columnar.stats()
        assert single.state_dict() == columnar.state_dict()
        assert speedup >= 10.0, f"columnar only {speedup:.2f}x faster"


    @pytest.mark.speedup
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="measured multi-core speedup needs >= 4 cores",
    )
    def test_shm_executor_is_2x_at_w4_on_sharded_uniform_shm(self):
        """The zero-copy acceptance floor: persistent workers over
        shared-memory columns (W=4) must beat the serial backend by
        >= 2.0x wall-clock at n=500k: no per-batch pickle tax, no state
        round-trip, only plan metadata crosses the pipe.  The columnar
        batch is rebuilt per run (hash-column caches must not
        carry over) and the workers are spawned before timing so
        start-up cost stays out of the measured window."""
        import time

        from repro import make_sampler
        from repro.perf import ScenarioParams, get_scenario, paired_speedup
        from repro.runtime.engine import Engine

        params = ScenarioParams(n_events=500_000, num_sites=8, seed=7)
        scenario = get_scenario("sharded-uniform-shm")
        samplers, elapsed = {}, {}

        def build(executor):
            previous = samplers.pop(executor, None)
            if previous is not None:
                previous.close()
            sampler = samplers[executor] = make_sampler(
                "sharded:infinite",
                num_sites=8,
                sample_size=16,
                shards=4,
                seed=5,
                algorithm="mix64",
                executor=executor,
                workers=4,
            )
            return sampler, Engine(sampler, policy="hash", seed=params.seed)

        def timed(executor):
            sampler, engine = build(executor)
            if executor == "shm":
                sampler.executor.warmup()
            batch = scenario.build(params)
            started = time.perf_counter()
            engine.observe_batch(batch)
            elapsed[executor] = time.perf_counter() - started
            return elapsed[executor]

        try:
            speedup = paired_speedup(
                lambda: timed("serial"), lambda: timed("shm")
            )
            shm, serial = samplers["shm"], samplers["serial"]
            assert shm.sample() == serial.sample()
            assert shm.stats() == serial.stats()
            # The zero-copy contract held for the whole timed drive.
            assert shm.executor.pickle_bytes == 0
            assert shm.critical_path_seconds <= elapsed["shm"]
            assert speedup >= 2.0, (
                f"SharedMemoryExecutor only {speedup:.2f}x over serial "
                f"at W=4 (last pair {elapsed['serial'] * 1e3:.1f} ms vs "
                f"{elapsed['shm'] * 1e3:.1f} ms)"
            )
        finally:
            for sampler in samplers.values():
                sampler.close()


class TestCommittedBaseline:
    def test_baseline_file_is_valid_and_covers_all_variants(self):
        import pathlib

        baseline = load_report(
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "baseline.json"
        )
        assert baseline.schema_version == SCHEMA_VERSION
        assert {r.variant for r in baseline.records} == set(sampler_variants())
        assert {r.scenario for r in baseline.records} == set(perf_scenarios())
