"""Fixture-based tests for the ``repro lint`` rule engine.

Every rule (RPR001–RPR008) has a fixture under ``tests/lint_fixtures/``
with known violations on known lines, plus must-NOT-fire counterparts in
the same file, so these tests pin both halves of each rule's contract.
The suite also covers the suppression syntax, the JSON report schema,
the CLI subcommand, and — the acceptance criterion that matters most —
a self-check that the real ``src/`` tree is clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    JSON_SCHEMA_VERSION,
    all_rules,
    get_rules,
    run_lint,
)
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_SRC = Path(__file__).parent.parent / "src"


def lint_fixture(name: str, *rules: str):
    return run_lint([FIXTURES / name], rules=rules or None)


def codes(report) -> list[str]:
    return [v.rule for v in report.violations]


class TestRegistry:
    def test_all_eight_rules_registered(self):
        assert [r.code for r in all_rules()] == [
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
            "RPR008",
        ]

    def test_every_rule_is_documented(self):
        for rule in all_rules():
            assert rule.name
            assert rule.summary
            assert rule.severity in ("error", "warning")

    def test_rule_selection_is_case_insensitive_and_deduplicated(self):
        selected = get_rules(["rpr005", "RPR005", "RPR001"])
        assert [r.code for r in selected] == ["RPR005", "RPR001"]

    def test_unknown_rule_code_raises(self):
        with pytest.raises(ConfigurationError, match="unknown lint rule"):
            get_rules(["RPR999"])
        with pytest.raises(ConfigurationError, match="unknown lint rule"):
            run_lint([FIXTURES / "clean_module.py"], rules=["NOPE"])

    def test_missing_path_raises(self):
        with pytest.raises(ConfigurationError, match="no such file"):
            run_lint([FIXTURES / "does_not_exist.py"])
        with pytest.raises(ConfigurationError, match="at least one path"):
            run_lint([])


class TestRPR001TupleMaterialization:
    def test_fires_on_each_materialization_shape(self):
        report = lint_fixture("rpr001_tuple_materialization.py", "RPR001")
        assert codes(report) == ["RPR001"] * 4
        messages = " ".join(v.message for v in report.violations)
        assert ".to_events()" in messages
        assert ".from_events()" in messages
        assert "zip(*...)" in messages

    def test_tuple_paths_stay_free_to_transpose(self):
        report = lint_fixture("rpr001_tuple_materialization.py", "RPR001")
        # observe_batch's zip(*events) on line 21 must not be flagged.
        assert all(v.line != 21 for v in report.violations)


class TestRPR002PickleSafety:
    def test_fires_on_resources_and_shipped_caches(self):
        report = lint_fixture("rpr002_pickle_safety.py", "RPR002")
        assert codes(report) == ["RPR002"] * 5
        messages = [v.message for v in report.violations]
        assert any("LeakyExecutor._lock" in m for m in messages)
        assert any("LeakyExecutor._pool" in m for m in messages)
        assert any("ShmHolder._block" in m for m in messages)
        assert any("'_hash_columns'" in m for m in messages)
        assert any("'_items_list'" in m for m in messages)

    def test_override_exempts_the_class(self):
        report = lint_fixture("rpr002_pickle_safety.py", "RPR002")
        assert not any("SafeExecutor" in v.message for v in report.violations)
        assert not any(
            "SafeShmHolder" in v.message for v in report.violations
        )


class TestRPR003RegistryCompleteness:
    def test_orphan_facade_fires_twice(self):
        project = FIXTURES / "rpr003_project"
        report = run_lint([project / "src"], rules=["RPR003"], root=project)
        assert codes(report) == ["RPR003"] * 2
        messages = [v.message for v in report.violations]
        assert all("OrphanSampler" in m for m in messages)
        assert any("registers variants" in m for m in messages)
        assert any("test_protocol_conformance" in m for m in messages)

    def test_root_is_inferred_from_fixture_pyproject(self):
        # No explicit root: the nearest pyproject.toml is the fixture's.
        report = run_lint([FIXTURES / "rpr003_project" / "src"], rules=["RPR003"])
        assert codes(report) == ["RPR003"] * 2

    def test_helpers_bases_and_abstract_classes_exempt(self):
        project = FIXTURES / "rpr003_project"
        report = run_lint([project / "src"], rules=["RPR003"], root=project)
        for exempt in ("_HelperSampler", "SamplerFacadeBase", "AbstractSampler",
                       "CoveredSampler"):
            assert not any(exempt in v.message for v in report.violations)

    def test_conformance_half_skipped_without_root(self, tmp_path):
        # A lone hierarchy outside any project: no registry modules are
        # scanned and no conformance file exists, so nothing can fire.
        lone = tmp_path / "lone.py"
        lone.write_text(
            "class Sampler:\n    pass\n\n"
            "class LoneSampler(Sampler):\n    pass\n"
        )
        report = run_lint([lone], rules=["RPR003"])
        assert report.violations == ()


class TestRPR004SnapshotSymmetry:
    def test_fires_in_both_directions(self):
        report = lint_fixture("rpr004_snapshot_symmetry.py", "RPR004")
        assert codes(report) == ["RPR004"] * 2
        messages = " ".join(v.message for v in report.violations)
        assert "'orphan'" in messages and "never consumes" in messages
        assert "'phantom'" in messages and "never writes" in messages

    def test_symmetric_pair_is_clean(self):
        report = lint_fixture("rpr004_snapshot_symmetry.py", "RPR004")
        assert not any(
            "SymmetricSampler" in v.message for v in report.violations
        )

    def test_fires_on_node_hook_pairs(self):
        # A facade base persists the shared layout; subclasses persist
        # their own node fields through hook pairs checked the same way.
        report = lint_fixture("rpr004_node_hooks.py", "RPR004")
        assert codes(report) == ["RPR004"] * 2
        assert [v.line for v in report.violations] == [11, 22]
        messages = " ".join(v.message for v in report.violations)
        assert "_site_state writes state key 'valid_until'" in messages
        assert "_load_coordinator consumes state key 'mode'" in messages

    def test_symmetric_node_hooks_are_clean(self):
        report = lint_fixture("rpr004_node_hooks.py", "RPR004")
        assert not any(
            "SymmetricFacade" in v.message for v in report.violations
        )


class TestRPR005Determinism:
    def test_fires_on_each_nondeterminism_shape(self):
        report = lint_fixture("rpr005_determinism.py", "RPR005")
        assert codes(report) == ["RPR005"] * 7
        messages = " ".join(v.message for v in report.violations)
        assert "wall-clock" in messages
        assert "global-RNG" in messages
        assert "numpy global RNG" in messages
        assert "default_rng() without a seed" in messages
        assert "hash-order dependent" in messages
        assert "builtin hash() salts" in messages

    def test_seeded_and_sorted_constructs_are_clean(self):
        report = lint_fixture("rpr005_determinism.py", "RPR005")
        # deterministic_ok and Key (its __hash__ calls hash()) span
        # lines 29-46; nothing there may fire.
        assert all(v.line < 29 for v in report.violations)


class TestRPR006ExecutorSharedState:
    def test_fires_on_worker_side_mutation(self):
        report = lint_fixture("rpr006_executor_state.py", "RPR006")
        assert codes(report) == ["RPR006"] * 3
        messages = " ".join(v.message for v in report.violations)
        assert "writes through parameter 'group'" in messages
        assert "mutates module global 'COUNTER'" in messages
        assert "declares global COUNTER_TOTAL" in messages

    def test_local_rebuild_pattern_is_clean(self):
        report = lint_fixture("rpr006_executor_state.py", "RPR006")
        assert not any(
            "good_worker" in v.message for v in report.violations
        )

    def test_fires_on_process_target_worker(self):
        # Persistent workers start as Process(target=...), never through
        # pool dispatch; the rule must still find and check them.
        report = lint_fixture("rpr006_process_target.py", "RPR006")
        assert codes(report) == ["RPR006"]
        assert [v.line for v in report.violations] == [9]
        assert "'leaky_worker_main' mutates module global 'SEEN'" in (
            report.violations[0].message
        )

    def test_clean_process_target_worker_is_clean(self):
        report = lint_fixture("rpr006_process_target.py", "RPR006")
        assert not any(
            "clean_worker_main" in v.message for v in report.violations
        )

    def test_fires_on_thread_target_worker(self, tmp_path):
        # Thread(target=...) is collected like Process(target=...): on a
        # thread the global write is a data race, not a private copy.
        module = tmp_path / "thread_target.py"
        module.write_text(
            "import threading\n"
            "\n"
            "HITS = {\"n\": 0}\n"
            "\n"
            "\n"
            "def pump():\n"
            "    HITS[\"n\"] += 1\n"
            "\n"
            "\n"
            "def start():\n"
            "    threading.Thread(target=pump, daemon=True).start()\n"
        )
        report = run_lint([module], rules=["RPR006"])
        assert codes(report) == ["RPR006"]
        assert [v.line for v in report.violations] == [7]
        assert "'pump' mutates module global 'HITS'" in (
            report.violations[0].message
        )


class TestRPR007ShmUnlinkPairing:
    def test_fires_on_unguarded_and_module_level_creation(self):
        report = lint_fixture("rpr007_shm_lifecycle.py", "RPR007")
        assert codes(report) == ["RPR007"] * 3
        assert [v.line for v in report.violations] == [8, 45, 56]
        messages = " ".join(v.message for v in report.violations)
        assert "leaky_create" in messages
        assert "nested_unlink_does_not_protect" in messages
        assert "module-level" in messages

    def test_guarded_finally_and_attach_shapes_are_clean(self):
        report = lint_fixture("rpr007_shm_lifecycle.py", "RPR007")
        messages = " ".join(v.message for v in report.violations)
        assert "guarded_create" not in messages
        assert "finally_create" not in messages
        assert "attach_only" not in messages


class TestRPR008QueryPathPythonSort:
    def test_fires_on_sort_and_sorted_in_query_fast_paths(self):
        report = lint_fixture("rpr008_query_sort.py", "RPR008")
        assert codes(report) == ["RPR008"] * 3
        assert [v.line for v in report.violations] == [9, 13, 21]
        messages = " ".join(v.message for v in report.violations)
        assert "'sample'" in messages
        assert "'sample_columns'" in messages
        assert "'_merge_groups'" in messages

    def test_numpy_kernels_and_non_query_sorts_are_clean(self):
        report = lint_fixture("rpr008_query_sort.py", "RPR008")
        lines = {v.line for v in report.violations}
        # GoodMergingSampler.sample (np.argsort/np.sort) and
        # rebuild_index (outside the fast path) must not fire.
        assert all(line <= 21 for line in lines)


class TestSuppressions:
    def test_same_line_previous_line_and_wildcard(self):
        report = lint_fixture("suppressed_lines.py", "RPR005")
        # Four violations exist; three carry suppressions, one survives.
        assert codes(report) == ["RPR005"]
        assert report.violations[0].line == 13

    def test_file_level_disable(self):
        report = lint_fixture("suppressed_file.py", "RPR005")
        assert report.violations == ()

    def test_suppression_is_rule_specific(self):
        # disable=RPR005 must not silence other rules on that line.
        report = lint_fixture("suppressed_lines.py")
        assert codes(report) == ["RPR005"]


class TestReportAndEngine:
    def test_clean_module_is_clean(self):
        report = lint_fixture("clean_module.py")
        assert report.ok
        assert report.violations == ()
        assert report.files_checked == 1

    def test_json_schema(self):
        report = lint_fixture("rpr005_determinism.py", "RPR005")
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == JSON_SCHEMA_VERSION
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["rules"] == ["RPR005"]
        assert len(payload["violations"]) == 7
        record = payload["violations"][0]
        assert set(record) == {
            "rule", "severity", "path", "line", "col", "message",
        }
        assert record["rule"] == "RPR005"
        assert record["severity"] == "error"

    def test_violations_sorted_by_location(self):
        report = run_lint(
            [FIXTURES / "rpr005_determinism.py",
             FIXTURES / "rpr001_tuple_materialization.py"],
        )
        keys = [(v.path, v.line, v.col, v.rule) for v in report.violations]
        assert keys == sorted(keys)

    def test_render_format(self):
        report = lint_fixture("rpr004_snapshot_symmetry.py", "RPR004")
        line = report.render().splitlines()[0]
        assert "rpr004_snapshot_symmetry.py:" in line
        assert "RPR004 [error]" in line

    def test_syntax_error_becomes_parse_violation(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        ok = tmp_path / "fine.py"
        ok.write_text("x = 1\n")
        report = run_lint([tmp_path])
        assert report.files_checked == 2
        assert codes(report) == ["PARSE"]
        assert not report.ok


class TestCLI:
    def test_lint_fixture_exits_nonzero(self, capsys):
        rc = main(
            ["lint", str(FIXTURES / "rpr005_determinism.py"),
             "--rule", "RPR005"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR005" in out and "7 violation(s)" in out

    def test_lint_clean_exits_zero(self, capsys):
        rc = main(["lint", str(FIXTURES / "clean_module.py")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format(self, capsys):
        rc = main(
            ["lint", str(FIXTURES / "clean_module.py"), "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["schema_version"] == JSON_SCHEMA_VERSION

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                     "RPR006", "RPR007", "RPR008"):
            assert code in out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        rc = main(["lint", str(FIXTURES / "clean_module.py"),
                   "--rule", "RPR999"])
        assert rc != 0


class TestSelfCheck:
    def test_repro_src_is_clean(self):
        report = run_lint([REPO_SRC])
        assert report.ok, report.render()
        assert report.violations == (), report.render()
        assert report.files_checked > 50
