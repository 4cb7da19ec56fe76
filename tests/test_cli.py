"""Tests for the command-line interface."""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out


class TestRun:
    def test_run_table(self, capsys):
        code = main(
            ["run", "table5_1", "--scale", "tiny", "--runs", "1", "--datasets", "oc48"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "table5_1" in out
        assert "4,000" in out

    def test_run_with_csv(self, capsys, tmp_path):
        csv_dir = tmp_path / "csv"
        code = main(
            [
                "run",
                "table5_1",
                "--scale",
                "tiny",
                "--runs",
                "1",
                "--datasets",
                "oc48",
                "--csv",
                str(csv_dir),
            ]
        )
        assert code == 0
        files = list(csv_dir.glob("*.csv"))
        assert len(files) == 1
        assert "elements" in files[0].read_text()

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig_nope", "--scale", "tiny"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_seed_changes_nothing_for_table(self, capsys):
        # Table 5.1 counts are seed-independent (calibrated generators).
        main(["run", "table5_1", "--scale", "tiny", "--seed", "1", "--datasets", "oc48"])
        first = capsys.readouterr().out
        main(["run", "table5_1", "--scale", "tiny", "--seed", "2", "--datasets", "oc48"])
        second = capsys.readouterr().out
        get_counts = lambda s: [
            line for line in s.splitlines() if "oc48" in line
        ]
        assert get_counts(first) == get_counts(second)


class TestDatasets:
    def test_lists_profiles(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "oc48:paper" in out
        assert "42,268,510" in out
        assert "enron:tiny" in out


class TestVariants:
    def test_lists_sharded_wrappers_with_routing(self, capsys):
        from repro import sampler_variants

        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        for name in sampler_variants():
            assert name in out
        assert "sharded:infinite" in out
        assert "hash-partition" in out
        assert "explicit-site" in out


class TestDemo:
    def test_demo_runs(self, capsys):
        code = main(
            ["demo", "--dataset", "oc48", "--scale", "tiny", "--sample-size", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "distinct-count estimate" in out
        assert "messages" in out

    def test_demo_sharded(self, capsys):
        code = main(
            [
                "demo",
                "--dataset",
                "oc48",
                "--scale",
                "tiny",
                "--sample-size",
                "8",
                "--shards",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "variant=sharded:infinite" in out
        assert "3 coordinator groups" in out
        assert "critical-path" in out

    def test_demo_sharded_parallel_workers(self, capsys):
        code = main(
            [
                "demo",
                "--dataset",
                "oc48",
                "--scale",
                "tiny",
                "--sample-size",
                "8",
                "--shards",
                "2",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "variant=sharded:infinite" in out
        assert "shm executor" in out
        assert "measured over 2 worker processes" in out

    def test_demo_chaos_under_shm_is_a_usage_error(self, capsys):
        # Chaos rewires the groups onto an asynchronous transport, which
        # the shm workers cannot rebuild: the typed error exits 2.
        code = main(
            [
                "demo",
                "--dataset",
                "oc48",
                "--scale",
                "tiny",
                "--shards",
                "2",
                "--workers",
                "2",
                "--chaos-drop",
                "0.1",
            ]
        )
        assert code == 2
        assert "asynchronous transport" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", ["process", "thread"])
    def test_demo_rejects_retired_executors(self, retired, capsys):
        # Only serial and shm remain; the old names are usage errors.
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", "--shards", "2", "--executor", retired])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err

    def test_demo_workers_alone_wrap_into_sharded(self, capsys):
        # --workers without --shards still runs the sharded wrapper
        # (shards=1) so the shm backend has groups to fan out.
        code = main(
            [
                "demo",
                "--dataset",
                "oc48",
                "--scale",
                "tiny",
                "--sample-size",
                "4",
                "--workers",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "variant=sharded:infinite" in out
        assert "1 coordinator groups" in out

    def test_demo_sharded_sliding(self, capsys):
        code = main(
            [
                "demo",
                "--dataset",
                "oc48",
                "--scale",
                "tiny",
                "--variant",
                "sliding",
                "--window",
                "16",
                "--shards",
                "2",
            ]
        )
        assert code == 0
        assert "variant=sharded:sliding" in capsys.readouterr().out

    def test_demo_unknown_dataset(self, capsys):
        assert main(["demo", "--dataset", "oc768", "--scale", "tiny"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestBounds:
    def test_bounds_output(self, capsys):
        assert main(["bounds", "--k", "5", "--s", "10", "--d", "1000"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 4" in out and "Lemma 9" in out
        assert "4.000" in out  # the optimality gap

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
