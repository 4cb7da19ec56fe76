"""Tests for harmonic numbers, the paper's bounds, and stats helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    EULER_GAMMA,
    Summary,
    harmonic,
    harmonic_diff,
    lower_bound_total,
    optimality_gap,
    ratio_to_bound,
    sliding_window_space,
    summarize,
    upper_bound_observation1,
    upper_bound_per_site,
    upper_bound_total,
)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(2) == pytest.approx(1.5)
        assert harmonic(4) == pytest.approx(25 / 12)

    def test_large_matches_asymptotic(self):
        n = 10_000_000
        approx = math.log(n) + EULER_GAMMA
        assert harmonic(n) == pytest.approx(approx, rel=1e-8)

    def test_continuity_at_table_boundary(self):
        # Exact table ends at 1e6; the asymptotic must join smoothly.
        below = harmonic(1_000_000)
        above = harmonic(1_000_001)
        assert 0 < above - below < 2e-6

    def test_diff(self):
        assert harmonic_diff(100, 10) == pytest.approx(
            harmonic(100) - harmonic(10)
        )
        assert harmonic_diff(5, 5) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            harmonic_diff(5, 10)


class TestBounds:
    def test_per_site_small_d(self):
        assert upper_bound_per_site(10, 5) == 10.0  # 2 * d_i when d_i <= s

    def test_per_site_formula(self):
        s, d = 10, 1000
        want = 2 * s + 2 * s * (harmonic(d) - harmonic(s))
        assert upper_bound_per_site(s, d) == pytest.approx(want)

    def test_total_is_k_times_per_site(self):
        assert upper_bound_total(7, 10, 500) == pytest.approx(
            7 * upper_bound_per_site(10, 500)
        )

    def test_observation1_tighter_when_partitioned(self):
        k, s, d = 10, 10, 10_000
        flooded = upper_bound_total(k, s, d)
        partitioned = upper_bound_observation1(k, s, [d // k] * k)
        assert partitioned < flooded

    def test_observation1_equals_lemma4_when_flooded(self):
        k, s, d = 5, 10, 1000
        assert upper_bound_observation1(k, s, [d] * k) == pytest.approx(
            upper_bound_total(k, s, d)
        )

    def test_observation1_length_check(self):
        with pytest.raises(ValueError):
            upper_bound_observation1(3, 10, [100, 100])

    def test_lower_bound_formula(self):
        k, s, d = 5, 10, 1000
        want = 0.5 * k * s * (harmonic(d) - harmonic(s) + 1)
        assert lower_bound_total(k, s, d) == pytest.approx(want)

    def test_lower_bound_small_d(self):
        assert lower_bound_total(8, 10, 4) == 8.0  # k*d/4 regime

    def test_gap_approaches_four(self):
        # upper/lower = 4 * (1 + H_d - H_s) / (H_d - H_s + 1) = 4 exactly
        # in this parameterization.
        assert optimality_gap(5, 10, 10_000) == pytest.approx(4.0)
        assert optimality_gap(100, 20, 10**6) == pytest.approx(4.0)

    def test_bounds_monotone_in_d(self):
        values = [upper_bound_total(5, 10, d) for d in (100, 1000, 10_000)]
        assert values == sorted(values)
        lows = [lower_bound_total(5, 10, d) for d in (100, 1000, 10_000)]
        assert lows == sorted(lows)

    def test_sliding_window_space(self):
        assert sliding_window_space(0) == 0.0
        assert sliding_window_space(100) == pytest.approx(harmonic(100))
        with pytest.raises(ValueError):
            sliding_window_space(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            upper_bound_total(0, 10, 100)
        with pytest.raises(ValueError):
            upper_bound_total(5, 0, 100)
        with pytest.raises(ValueError):
            upper_bound_total(5, 10, -1)


class TestStats:
    def test_summarize_single(self):
        summary = summarize([5.0])
        assert summary == Summary(mean=5.0, std=0.0, low=5.0, high=5.0, n=1)

    def test_summarize_many(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.std == pytest.approx(1.0)
        assert summary.low < 2.0 < summary.high
        assert summary.n == 3

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ratio_to_bound(self):
        assert ratio_to_bound(8.0, 4.0) == 2.0
        assert ratio_to_bound(8.0, 0.0) == math.inf
