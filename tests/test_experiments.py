"""Tests for the experiment harness: config, runner, report, registry,
and the shape properties of every figure at tiny scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sliding import SlidingWindowSystem
from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    FigureResult,
    Series,
    checkpoints_for,
    get_experiment,
    prepare_stream,
    run_experiment,
    run_infinite_once,
    run_sliding_once,
)
from repro.streams.partition import make_distributor
from treap_oracle import TreapDominanceSet

TINY = ExperimentConfig(scale="tiny", runs=1, datasets=("oc48",))
TINY2 = ExperimentConfig(scale="tiny", runs=2, datasets=("oc48",))


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.scale == "small"
        assert config.effective_runs == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scale="gigantic")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(runs=-1)

    def test_with_(self):
        config = ExperimentConfig().with_(scale="tiny")
        assert config.scale == "tiny"

    def test_run_seeds_independent(self):
        config = ExperimentConfig(runs=3)
        seeds = config.run_seeds()
        assert len(seeds) == 3
        states = [s.generate_state(1)[0] for s in seeds]
        assert len(set(states)) == 3

    def test_effective_runs_override(self):
        assert ExperimentConfig(runs=7).effective_runs == 7


class TestRunnerHelpers:
    def test_checkpoints(self):
        cps = checkpoints_for(100, count=10)
        assert cps[-1] == 100
        assert all(a < b for a, b in zip(cps, cps[1:]))
        assert checkpoints_for(0) == []
        assert checkpoints_for(5, count=10) == [1, 2, 3, 4, 5]

    def test_prepare_stream(self):
        elements, hashes, n_distinct = prepare_stream(
            "oc48", "tiny", np.random.default_rng(0), hash_seed=5
        )
        assert len(elements) == len(hashes) == 4000
        assert n_distinct == 410
        assert all(0.0 <= h < 1.0 for h in hashes[:100])

    def test_run_infinite_once_fields(self):
        rng = np.random.default_rng(1)
        elements, hashes, _ = prepare_stream("oc48", "tiny", rng, 7)
        out = run_infinite_once(
            elements,
            hashes,
            3,
            5,
            make_distributor("random", 3),
            rng,
            7,
            checkpoints=[1000, 4000],
        )
        assert out.messages > 0
        assert [x for x, _ in out.trace] == [1000, 4000]
        assert out.trace[-1][1] == out.messages
        assert out.distinct_total == 410
        assert len(out.distinct_per_site) == 3
        assert sum(out.distinct_per_site) >= out.distinct_total
        assert len(out.sample) == 5

    def test_run_infinite_once_flooding_per_site(self):
        rng = np.random.default_rng(2)
        elements, hashes, _ = prepare_stream("oc48", "tiny", rng, 8)
        out = run_infinite_once(
            elements, hashes, 2, 5, make_distributor("flooding", 2), rng, 8
        )
        assert out.distinct_per_site == [410, 410]

    def test_run_infinite_unknown_system(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigurationError):
            run_infinite_once(
                [1], [0.5], 1, 1, make_distributor("random", 1), rng, 0,
                system="quantum",
            )

    def test_run_sliding_once_fields(self):
        rng = np.random.default_rng(4)
        elements = list(range(2000))
        out = run_sliding_once(
            elements, 4, 50, rng, hash_seed=9, record_series=True
        )
        assert out.messages > 0
        assert out.mem_mean > 0
        assert out.mem_max >= out.mem_mean
        assert out.num_slots == 400
        assert len(out.mem_series) == 400


class TestReport:
    def test_series_validation(self):
        with pytest.raises(ValueError):
            Series("x", [1, 2], [1.0])
        with pytest.raises(ValueError):
            Series("x", [1], [1.0], errs=[0.1, 0.2])

    def test_render_contains_data(self):
        result = FigureResult(
            figure_id="figX",
            title="Test",
            x_label="n",
            y_label="messages",
            series=[Series("a", [1, 2], [10.0, 20.0]), Series("b", [1, 2], [3.0, 4.0])],
            notes="note",
        )
        text = result.render()
        assert "figX" in text and "note" in text
        assert "10.0" in text and "4.0" in text.replace("4.000", "4.0")

    def test_render_empty(self):
        result = FigureResult("f", "t", "x", "y")
        assert "(no data)" in result.render()

    def test_csv(self):
        result = FigureResult(
            "f", "t", "x", "y", series=[Series("a", [1], [2.5])]
        )
        csv = result.to_csv()
        assert csv.splitlines() == ["x,a", "1,2.5"]

    def test_series_by_name(self):
        result = FigureResult(
            "f", "t", "x", "y", series=[Series("a", [1], [2.5])]
        )
        assert result.series_by_name("a").ys == [2.5]
        with pytest.raises(KeyError):
            result.series_by_name("zz")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for artifact in (
            ["table5_1"] + [f"fig5_{i}" for i in range(1, 11)]
        ):
            assert artifact in EXPERIMENTS, f"missing {artifact}"

    def test_ablations_registered(self):
        for ablation in (
            "ablation_theory",
            "ablation_sync",
            "ablation_hash",
        ):
            assert ablation in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig9_99")


class TestExperimentShapes:
    """Each experiment at tiny scale reproduces the paper's qualitative
    shape.  These are the repository's headline assertions."""

    def test_table5_1(self):
        (result,) = run_experiment("table5_1", TINY)
        assert result.series_by_name("elements").ys == [4000]
        assert result.series_by_name("distinct").ys == [410]
        ratio = result.series_by_name("ratio").ys[0]
        paper = result.series_by_name("paper_ratio").ys[0]
        assert abs(ratio - paper) < 0.003

    def test_fig5_1_flooding_dominates(self):
        (result,) = run_experiment("fig5_1", TINY)
        flood = result.series_by_name("flooding").ys
        rand = result.series_by_name("random").ys
        rr = result.series_by_name("round_robin").ys
        # Flooding well above random at the end; random ≈ round robin.
        assert flood[-1] > 2 * rand[-1]
        assert abs(rand[-1] - rr[-1]) / rand[-1] < 0.25
        # Cumulative counts are non-decreasing and concave-ish.
        assert all(a <= b for a, b in zip(flood, flood[1:]))

    def test_fig5_2_linear_in_s(self):
        (result,) = run_experiment("fig5_2", TINY)
        for name in ("flooding", "random"):
            ys = result.series_by_name(name).ys
            assert all(a < b for a, b in zip(ys, ys[1:])), name
        # Flooding slope ≈ k x random slope (generous band).
        flood = result.series_by_name("flooding").ys
        rand = result.series_by_name("random").ys
        assert flood[-1] / rand[-1] > 2

    def test_fig5_3_flooding_linear_random_flat(self):
        (result,) = run_experiment("fig5_3", TINY)
        flood = result.series_by_name("flooding").ys
        rand = result.series_by_name("random").ys
        ks = result.series_by_name("flooding").xs
        # Flooding roughly proportional to k.
        assert flood[-1] / flood[0] > 0.5 * ks[-1] / ks[0]
        # Random nearly flat: less than 2.5x over a 25x site range.
        assert rand[-1] / rand[0] < 2.5

    def test_fig5_4_broadcast_dominates(self):
        (result,) = run_experiment("fig5_4", TINY)
        ours = result.series_by_name("ours").ys
        broadcast = result.series_by_name("broadcast").ys
        assert broadcast[-1] > 2 * ours[-1]

    def test_fig5_5_broadcast_dominates_across_s(self):
        (result,) = run_experiment("fig5_5", TINY)
        ours = result.series_by_name("ours").ys
        broadcast = result.series_by_name("broadcast").ys
        assert all(b > o for o, b in zip(ours, broadcast))

    def test_fig5_6_decreasing_in_dominate_rate(self):
        (result,) = run_experiment("fig5_6", TINY2)
        ours = result.series_by_name("ours").ys
        broadcast = result.series_by_name("broadcast").ys
        # Our algorithm benefits from locality: fewer messages as one site
        # dominates (its threshold view stays fresh).
        assert ours[-1] < ours[0]
        # Broadcast's cost is provably distribution-independent: with
        # synced thresholds, reports depend only on the union stream order,
        # so its curve is flat in the dominate rate.
        assert max(broadcast) - min(broadcast) < 0.05 * max(broadcast)
        # And Broadcast dominates our algorithm throughout.
        assert all(b > o for o, b in zip(ours, broadcast))

    def test_fig5_7_memory_grows_sublinearly(self):
        (result,) = run_experiment("fig5_7", TINY)
        mean = result.series_by_name("mean").ys
        ws = result.series_by_name("mean").xs
        assert mean[-1] > mean[0] * 0.9  # grows (or saturates)
        # Far sublinear: 32x window -> < 4x memory.
        assert mean[-1] / mean[0] < 4
        assert all(m < w for m, w in zip(mean, ws))

    def test_fig5_8_messages_decrease_with_window(self):
        (result,) = run_experiment("fig5_8", TINY)
        ys = result.series_by_name("messages").ys
        assert ys[-1] < ys[0]

    def test_fig5_9_memory_decreases_with_sites(self):
        (result,) = run_experiment("fig5_9", TINY)
        ys = result.series_by_name("mean").ys
        assert ys[-1] < ys[0]

    def test_fig5_10_messages_increase_with_sites(self):
        (result,) = run_experiment("fig5_10", TINY)
        ys = result.series_by_name("messages").ys
        assert ys[-1] > ys[0]

    def test_ablation_theory_bounds(self):
        (result,) = run_experiment(
            "ablation_theory", ExperimentConfig(scale="tiny", runs=3)
        )
        ratio = result.series_by_name("measured/lower").ys
        assert all(3.0 < r < 5.5 for r in ratio), ratio

    def test_sliding_figures_equal_with_the_treap_oracle(self, monkeypatch):
        # The paper keeps each s = 1 site's candidates in a treap, the
        # package in SortedDominanceSet(1): memory (Fig 5.7) and messages
        # (Fig 5.8) must not change with the treap oracle in every site.
        figures = ("fig5_7", "fig5_8")
        built = [run_experiment(figure, TINY) for figure in figures]
        make_site = SlidingWindowSystem._make_site
        treap_sites = []

        def treap_site(system, site_id):
            site = make_site(system, site_id)
            site.candidates = TreapDominanceSet(1)
            treap_sites.append(site)
            return site

        monkeypatch.setattr(SlidingWindowSystem, "_make_site", treap_site)
        oracle = [run_experiment(figure, TINY) for figure in figures]
        assert treap_sites
        assert oracle == built

    def test_ablation_sync_ordering(self):
        (result,) = run_experiment("ablation_sync", TINY)
        exact = result.series_by_name("lazy_exact").ys
        paper = result.series_by_name("lazy_paper").ys
        # Exact and paper modes are within ~25% of each other.
        for e, p in zip(exact, paper):
            assert abs(e - p) / max(e, p) < 0.25

    def test_ablation_hash_similar_counts(self):
        (result,) = run_experiment("ablation_hash", TINY2)
        values = [s.ys[0] for s in result.series]
        assert max(values) / min(values) < 1.3
