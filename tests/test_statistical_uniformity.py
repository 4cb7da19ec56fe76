"""Statistical tests of the defining property of a *distinct* sample:
every distinct element is equally likely to be sampled, regardless of its
frequency in the stream.

These tests aggregate over many independent hash seeds and apply
chi-square / proportion bounds with p ~ 0.001 critical values; they are
deterministic given the seed list (no flaky randomness).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import (
    DistinctSamplerSystem,
    SharedMemoryExecutor,
    SlidingWindowBottomS,
    SlidingWindowSystem,
    make_sampler,
)


class TestInfiniteWindowUniformity:
    def test_inclusion_uniform_over_distinct(self):
        # 30 distinct elements, wildly different frequencies; sample size 3.
        universe, s, trials = 30, 3, 400
        counts: Counter = Counter()
        for seed in range(trials):
            system = DistinctSamplerSystem(3, s, seed=seed)
            rng = np.random.default_rng(seed)
            # Element e appears (e+1)^2 times: 1 to 900 occurrences.
            stream = [e for e in range(universe) for _ in range((e + 1) ** 2 % 37 + 1)]
            rng.shuffle(stream)
            for element in stream:
                system.observe(int(rng.integers(0, 3)), element)
            for member in system.sample():
                counts[member] += 1
        total = sum(counts.values())
        assert total == trials * s
        expected = total / universe
        chi2 = sum(
            (counts.get(e, 0) - expected) ** 2 / expected
            for e in range(universe)
        )
        # 29 dof; p=0.001 critical ≈ 58.3.
        assert chi2 < 58.3, f"chi2={chi2:.1f}"

    def test_heavy_hitter_not_favoured(self):
        # One element with 99% of occurrences must be sampled no more
        # often than any rare element (s=1 → P = 1/universe each).
        universe, trials = 20, 600
        hot_hits = 0
        for seed in range(trials):
            system = DistinctSamplerSystem(2, 1, seed=seed * 7 + 1)
            stream = [0] * 500 + list(range(1, universe))
            rng = np.random.default_rng(seed)
            rng.shuffle(stream)
            for element in stream:
                system.observe(int(rng.integers(0, 2)), element)
            hot_hits += system.sample() == [0]
        share = hot_hits / trials
        # Expected 1/20 = 0.05; 3.3-sigma bound ≈ 0.05 ± 0.030.
        assert 0.02 < share < 0.08, share

    def test_sample_without_replacement(self):
        # The s members are always distinct elements.
        system = DistinctSamplerSystem(2, 10, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            system.observe(int(rng.integers(0, 2)), int(rng.integers(0, 100)))
        members = system.sample()
        assert len(members) == len(set(members)) == 10

    def test_distribution_strategy_does_not_bias(self):
        # The sampled set depends only on (hash fn, distinct set) — never
        # on how elements were routed to sites.
        for seed in range(10):
            elements = list(range(200))
            sampled = []
            for strategy in ("one_site", "round_robin", "flood"):
                system = DistinctSamplerSystem(4, 5, seed=seed)
                for i, element in enumerate(elements):
                    if strategy == "one_site":
                        system.observe(0, element)
                    elif strategy == "round_robin":
                        system.observe(i % 4, element)
                    else:
                        system.flood(element)
                sampled.append(tuple(system.sample()))
            assert len(set(sampled)) == 1


class TestParallelShardedUniformity:
    """The defining distinct-sample property must survive the parallel
    path: merged sharded samples ingested through the
    SharedMemoryExecutor are uniform over the distinct elements,
    regardless of frequency — the multi-core mirror of the serial
    chi-square test above."""

    def test_merged_sample_inclusion_uniform_under_shm_executor(self):
        universe, s, trials = 24, 3, 150
        counts: Counter = Counter()
        # One shared executor across the seed sweep; each trial's sampler
        # is fresh (new hash seed) but rides the same two worker processes.
        executor = SharedMemoryExecutor(workers=2)
        try:
            for seed in range(trials):
                sampler = make_sampler(
                    "sharded:infinite",
                    num_sites=2,
                    sample_size=s,
                    shards=2,
                    seed=seed,
                    executor="shm",
                    workers=2,
                )
                sampler.executor = executor
                rng = np.random.default_rng(seed)
                # Element e appears 1 to 7 times: skewed frequencies.
                stream = [
                    e for e in range(universe) for _ in range((e + 1) ** 2 % 7 + 1)
                ]
                rng.shuffle(stream)
                sites = rng.integers(0, 2, len(stream)).tolist()
                sampler.observe_batch(list(zip(sites, stream)))
                members = sampler.sample().items
                assert len(members) == s
                for member in members:
                    counts[member] += 1
        finally:
            executor.close()
        total = sum(counts.values())
        assert total == trials * s
        expected = total / universe
        chi2 = sum(
            (counts.get(e, 0) - expected) ** 2 / expected
            for e in range(universe)
        )
        # 23 dof; p=0.001 critical ≈ 49.7.
        assert chi2 < 49.7, f"chi2={chi2:.1f}"


class TestSlidingWindowUniformity:
    def test_uniform_over_live_window(self):
        # Fixed schedule, varying hash seeds: each live element equally
        # likely to be the (s=1) sample.
        universe, trials = 15, 600
        counts: Counter = Counter()
        schedule = []
        rng = np.random.default_rng(42)
        for slot in range(1, 40):
            schedule.append(
                (slot, [(int(rng.integers(0, 2)), int(e)) for e in rng.integers(0, universe, 2)])
            )
        # Live set at the final slot is schedule-determined.
        window = 20
        final_slot = schedule[-1][0]
        live = set()
        for slot, arrivals in schedule:
            if slot > final_slot - window:
                live.update(e for _, e in arrivals)
        for seed in range(trials):
            system = SlidingWindowSystem(num_sites=2, window=window, seed=seed)
            for slot, arrivals in schedule:
                system.advance(slot)
                system.observe_batch(arrivals)
            counts[system.sample().first] += 1
        expected = trials / len(live)
        chi2 = sum(
            (counts.get(e, 0) - expected) ** 2 / expected for e in live
        )
        # len(live)-1 dof; generous p≈0.001 bound.
        dof = len(live) - 1
        assert chi2 < dof + 3.3 * (2 * dof) ** 0.5 + 10, f"chi2={chi2:.1f}, dof={dof}"

    @pytest.mark.parametrize(
        "variant", ["sliding", "sliding-local-push"]
    )
    def test_general_s_inclusion_uniform_over_live_window(self, variant):
        # The bottom-s window sample must include every live distinct
        # element with equal probability s/|live|, regardless of arrival
        # frequency — chi-square over many independent hash seeds,
        # mirroring the infinite-window uniformity test.
        universe, s, trials = 18, 3, 300
        window = 20
        counts: Counter = Counter()
        schedule = []
        rng = np.random.default_rng(7)
        for slot in range(1, 40):
            # Heavily skewed arrivals: low ids repeat far more often.
            arrivals = [
                (int(rng.integers(0, 2)), int(e * e) % universe)
                for e in rng.integers(0, universe, 3)
            ]
            schedule.append((slot, arrivals))
        final_slot = schedule[-1][0]
        live = set()
        for slot, arrivals in schedule:
            if slot > final_slot - window:
                live.update(e for _, e in arrivals)
        assert len(live) > s
        for seed in range(trials):
            system = make_sampler(
                variant, num_sites=2, window=window, sample_size=s, seed=seed
            )
            for slot, arrivals in schedule:
                system.advance(slot)
                system.observe_batch(arrivals)
            members = system.sample().items
            assert len(members) == s
            assert set(members) <= live
            for member in members:
                counts[member] += 1
        total = sum(counts.values())
        assert total == trials * s
        expected = total / len(live)
        chi2 = sum(
            (counts.get(e, 0) - expected) ** 2 / expected for e in live
        )
        dof = len(live) - 1
        bound = dof + 3.3 * (2 * dof) ** 0.5 + 10  # generous p ~ 0.001
        assert chi2 < bound, f"{variant}: chi2={chi2:.1f}, dof={dof}"

    def test_bottom_s_without_replacement(self):
        system = SlidingWindowBottomS(
            num_sites=2, window=30, sample_size=5, seed=3
        )
        rng = np.random.default_rng(1)
        for slot in range(1, 100):
            arrivals = [
                (int(rng.integers(0, 2)), int(rng.integers(0, 50)))
                for _ in range(3)
            ]
            system.advance(slot)
            system.observe_batch(arrivals)
        members = system.sample().items
        assert len(members) == len(set(members)) == 5
