"""Tests for with-replacement samplers (parallel single-sample copies)."""

from __future__ import annotations

import numpy as np
import pytest
from collections import Counter

from repro import (
    SlidingWindowWithReplacement,
    WithReplacementSampler,
)
from repro.errors import ConfigurationError


class TestInfiniteWithReplacement:
    def test_sample_shape(self):
        sampler = WithReplacementSampler(num_sites=3, sample_size=5, seed=1)
        assert sampler.sample() == [None] * 5  # nothing observed yet
        rng = np.random.default_rng(0)
        for _ in range(500):
            sampler.observe(int(rng.integers(0, 3)), int(rng.integers(0, 80)))
        draws = sampler.sample()
        assert len(draws) == 5
        assert all(draw is not None for draw in draws)
        assert sampler.sample_size == 5

    def test_copies_are_independent(self):
        # Different hash functions: the 5 draws rarely all coincide.
        sampler = WithReplacementSampler(num_sites=2, sample_size=5, seed=2)
        for element in range(200):
            sampler.observe(element % 2, element)
        assert len(set(sampler.sample())) > 1

    def test_messages_aggregate(self):
        sampler = WithReplacementSampler(num_sites=2, sample_size=3, seed=3)
        for element in range(100):
            sampler.observe(0, element)
        assert sampler.total_messages == sum(
            copy.total_messages for copy in sampler.copies
        )
        assert sampler.total_messages > 0

    def test_each_draw_is_min_hash(self):
        # Copy i's draw is the min-hash element under hash function i.
        sampler = WithReplacementSampler(num_sites=2, sample_size=4, seed=4)
        elements = list(range(150))
        for element in elements:
            sampler.observe(element % 2, element)
        for copy, draw in zip(sampler.copies, sampler.sample()):
            hasher = copy.hasher
            want = min(elements, key=hasher.unit)
            assert draw == want

    def test_uniformity_over_trials(self):
        # Aggregate draw frequencies over seeds: roughly uniform over the
        # distinct population (chi-square sanity bound).
        universe = 20
        counts = Counter()
        trials = 150
        for seed in range(trials):
            sampler = WithReplacementSampler(num_sites=2, sample_size=2, seed=seed)
            for element in range(universe):
                sampler.observe(element % 2, element)
                sampler.observe((element + 1) % 2, element)  # duplicates
            for draw in sampler.sample():
                counts[draw] += 1
        total = sum(counts.values())
        expected = total / universe
        chi2 = sum(
            (counts.get(e, 0) - expected) ** 2 / expected for e in range(universe)
        )
        # 19 dof; p=0.001 critical ≈ 43.8.
        assert chi2 < 45, f"chi2={chi2}, counts={counts}"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WithReplacementSampler(num_sites=2, sample_size=0)


class TestSlidingWithReplacement:
    def test_window_semantics(self):
        sampler = SlidingWindowWithReplacement(
            num_sites=2, window=5, sample_size=3, seed=5
        )
        sampler.advance(1)
        sampler.observe_batch([(0, "a")])
        assert sampler.sample() == ["a", "a", "a"]
        for slot in range(2, 10):
            sampler.advance(slot)
        assert sampler.sample() == [None, None, None]

    def test_messages_aggregate(self):
        sampler = SlidingWindowWithReplacement(
            num_sites=2, window=10, sample_size=2, seed=6
        )
        rng = np.random.default_rng(1)
        for slot in range(1, 200):
            sampler.advance(slot)
            sampler.observe_batch(
                [(int(rng.integers(0, 2)), int(rng.integers(0, 30)))]
            )
        assert sampler.total_messages == sum(
            copy.total_messages for copy in sampler.copies
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowWithReplacement(num_sites=2, window=5, sample_size=0)


def _driven(window: int, seed: int):
    sampler = (
        SlidingWindowWithReplacement(num_sites=2, window=window, sample_size=3, seed=4)
        if window
        else WithReplacementSampler(num_sites=2, sample_size=3, seed=4)
    )
    rng = np.random.default_rng(seed)
    for slot in range(1, 6 + seed):
        sampler.advance(slot)
        sampler.observe_batch(
            [(int(rng.integers(0, 2)), int(rng.integers(0, 40))) for _ in range(6)]
        )
    return sampler


def _drop_a_copy(state):
    state["copies"] = state["copies"][:2]


def _break_the_third_copy(state):
    del state["copies"][2]["system"]


class TestAtomicRestore:
    """A restore that fails leaves the sampler exactly as it was: the
    copy count is checked and every copy loads into a fresh twin before
    any field of the sampler changes."""

    @pytest.mark.parametrize(
        "defect", [_drop_a_copy, _break_the_third_copy], ids=["copies", "third"]
    )
    @pytest.mark.parametrize("window", [0, 6], ids=["infinite", "sliding"])
    def test_failed_restore_leaves_the_sampler_untouched(self, window, defect):
        state = _driven(window, seed=1).state_dict()
        defect(state)
        target = _driven(window, seed=2)
        before = target.state_dict()
        with pytest.raises(ConfigurationError, match="malformed"):
            target.load_state(state)
        assert target.state_dict() == before

    @pytest.mark.parametrize("window", [0, 6], ids=["infinite", "sliding"])
    def test_restore_round_trips(self, window):
        source, target = _driven(window, seed=1), _driven(window, seed=2)
        target.load_state(source.state_dict())
        assert target.state_dict() == source.state_dict()
        assert target.sample() == source.sample()
