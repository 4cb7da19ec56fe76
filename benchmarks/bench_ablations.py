"""Benchmarks: the beyond-paper ablation experiments."""

from __future__ import annotations

from conftest import run_once

from repro.experiments import ExperimentConfig, run_experiment


def test_ablation_theory(benchmark):
    config = ExperimentConfig(scale="tiny", runs=3)
    results = run_once(benchmark, run_experiment, "ablation_theory", config)
    (result,) = results
    measured = result.series_by_name("measured").ys
    upper = result.series_by_name("upper_lemma4").ys
    lower = result.series_by_name("lower_lemma9").ys
    for m, u, lo in zip(measured, upper, lower):
        assert lo <= m <= u * 1.2  # bound holds up to run noise
    ratios = result.series_by_name("measured/lower").ys
    assert all(3.0 < r < 5.5 for r in ratios)


def test_ablation_sync(benchmark, bench_config):
    results = run_once(benchmark, run_experiment, "ablation_sync", bench_config)
    for result in results:
        exact = result.series_by_name("lazy_exact").ys
        paper = result.series_by_name("lazy_paper").ys
        push = result.series_by_name("local_push").ys
        # Exact and paper coordinators cost about the same.
        for e, p in zip(exact, paper):
            assert abs(e - p) / max(e, p) < 0.3
        # All three series decrease with the window.
        for ys in (exact, paper, push):
            assert ys[-1] < ys[0]


def test_ablation_cache(benchmark, bench_config):
    results = run_once(benchmark, run_experiment, "ablation_cache", bench_config)
    for result in results:
        messages = result.series_by_name("messages").ys
        suppressed = result.series_by_name("suppressed_reports").ys
        # Cache 0 is the paper algorithm; any cache only removes messages.
        assert all(m <= messages[0] for m in messages)
        assert suppressed[0] == 0
        assert suppressed[-1] >= suppressed[1]


def test_ablation_obs1(benchmark, bench_config):
    results = run_once(benchmark, run_experiment, "ablation_obs1", bench_config)
    for result in results:
        measured = result.series_by_name("measured").ys
        obs1 = result.series_by_name("obs1_bound").ys
        lemma4 = result.series_by_name("lemma4_bound").ys
        xs = result.series_by_name("measured").xs
        by_method = dict(zip(xs, zip(measured, obs1, lemma4)))
        # Observation 1 never exceeds Lemma 4; equality under flooding.
        for method, (_m, o, l4) in by_method.items():
            assert o <= l4 * 1.0001, method
        # Random distribution: measured within the first-occurrence bound
        # (duplicates rarely land under the threshold at random k=5).
        m_rand, o_rand, _ = by_method["random"]
        assert m_rand <= o_rand * 1.5


def test_ablation_hash(benchmark, bench_config):
    results = run_once(benchmark, run_experiment, "ablation_hash", bench_config)
    for result in results:
        values = [series.ys[0] for series in result.series]
        assert max(values) / min(values) < 1.3, (
            "message counts should not depend on the hash family"
        )
