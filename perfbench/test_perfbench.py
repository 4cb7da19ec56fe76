"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run every workload at tiny size, check the printed result against
``BENCHMARK.json``, and show that the correctness checks catch a
corrupted sample or checkpoint, that the peak memory keeps memory freed
before it is read, and that inner coverage leaves out the self time of
the outermost spans.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro import Engine, EventBatch, UnitHasher, make_sampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def no_duplicates(pairs: list[tuple[str, object]]) -> dict[str, object]:
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def tiny_result(workload: str, trace: int, seed: int = 3) -> dict:
    done = run_bench(
        ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr
    return json.loads(
        done.stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicates
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_once_with_its_unit(workload, trace):
    result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_counts_repeat_exactly_for_a_seed():
    first, second = (tiny_result("window-churn", 0, seed=5) for _ in range(2))
    for name in ("messages_per_event", "state_entries"):
        assert first["metrics"][name] == second["metrics"][name]


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(
        tmp_path, "--workload", "ingest-bulk", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode not in (0, None)
    assert '"metrics"' not in done.stdout


# -- the correctness checks catch corruption ---------------------------------


def small_sampler():
    sampler = make_sampler(
        "sharded:infinite", num_sites=4, sample_size=8, seed=9,
        algorithm="mix64", shards=2,
    )
    keys = [np.arange(i * 500, i * 500 + 700) for i in range(4)]
    engine = Engine(sampler, policy="hash", seed=9)
    for batch in keys:
        engine.observe_batch(EventBatch(batch))
    return sampler, keys


def test_check_sample_passes_and_catches_a_corrupted_sample():
    sampler, keys = small_sampler()
    hasher = sampler.sampling_hasher
    reference = checks.bottom_s(keys, 8, hasher)
    pairs = sampler.sample().pairs
    assert checks.check_sample(pairs, reference, hasher) == []
    (h, item), rest = pairs[0], pairs[1:]
    assert checks.check_sample(((h, item + 1), *rest), reference, hasher)
    assert checks.check_sample(rest, reference, hasher)
    assert checks.check_sample(((h, rest[0][1]), *rest), reference, hasher)


def test_check_restore_catches_a_corrupted_checkpoint():
    sampler, _ = small_sampler()
    text = json.dumps(checks.checkpoints.snapshot(sampler))
    pairs = sampler.sample().pairs
    assert checks.check_restore(text, pairs) == []
    state = json.loads(text)
    group = state["state"]["groups"][0]["system"]
    group["sample"][0][0] /= 2
    assert checks.check_restore(json.dumps(state), pairs)
    assert checks.check_restore(text[: len(text) // 2], pairs)


def test_window_reference_agrees_with_the_oracle():
    stream = workloads.KeyStream(workloads.tiny(workloads.WORKLOADS["window-churn"]), 4)
    hasher = UnitHasher(1, "mix64")
    assert checks.check_window_reference(stream.keys, 40, 32, 16, hasher) == []


def test_a_corrupted_checkpoint_fails_the_run(monkeypatch):
    workload = workloads.tiny(workloads.WORKLOADS["ingest-bulk"])
    honest = workloads.Run.checkpoint

    def corrupt(run):
        state = json.loads(honest(run))
        state["state"]["groups"][0]["system"]["sample"][0][0] /= 2
        return json.dumps(state)

    monkeypatch.setattr(workloads.Run, "checkpoint", corrupt)
    report = workloads.measure(workload, 2, 0.2)
    assert any("checkpoint" in problem for problem in report.problems)


# -- the layer and memory figures --------------------------------------------


def test_peak_rss_counts_memory_freed_before_the_read():
    assert workloads.reset_peak_rss()
    before = workloads.peak_rss_mb()
    transient = np.ones(64 * 2**20, dtype=np.uint8)  # touched, so resident
    del transient
    assert workloads.peak_rss_mb() >= before + 60


def test_inner_coverage_leaves_out_the_outermost_self_time(monkeypatch):
    class Layers:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.01)

    monkeypatch.setattr(
        tracer, "SPANS", [(Layers, "outer", "outer_ms"), (Layers, "inner", "inner_ms")]
    )
    spans = tracer.Tracer()
    spans.install()
    try:
        spans.phase, spans.recording = "step", True
        Layers().outer()
    finally:
        spans.uninstall()
    self_time = spans.phase_time("step")
    assert self_time["outer_ms"] >= 0.02 and self_time["inner_ms"] >= 0.01
    assert spans.nested["step"] == pytest.approx(self_time["inner_ms"])
