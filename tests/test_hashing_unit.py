"""Tests for UnitHasher, SeededHashFamily, and the vectorized fast path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    HASH_ALGORITHMS,
    SeededHashFamily,
    UnitHasher,
    unit_hash_array,
)


class TestUnitRange:
    @pytest.mark.parametrize("algorithm", ["murmur2", "murmur3"])
    @given(st.one_of(st.integers(0, 2**63), st.text(max_size=30)))
    @settings(max_examples=100)
    def test_in_unit_interval(self, algorithm, element):
        h = UnitHasher(5, algorithm)
        value = h.unit(element)
        assert 0.0 <= value < 1.0

    def test_callable_alias(self):
        h = UnitHasher(1)
        assert h("x") == h.unit("x")

    def test_unit_many(self):
        h = UnitHasher(1)
        assert h.unit_many(["a", "b"]) == [h.unit("a"), h.unit("b")]


class TestDeterminismAndSeeds:
    def test_same_seed_same_hash(self):
        assert UnitHasher(9).unit("x") == UnitHasher(9).unit("x")

    def test_different_seed_different_hash(self):
        assert UnitHasher(1).unit("x") != UnitHasher(2).unit("x")

    def test_algorithms_differ(self):
        vals = {
            algorithm: UnitHasher(3, algorithm).unit(12345)
            for algorithm in ("murmur2", "murmur3", "mix64")
        }
        assert len(set(vals.values())) == 3

    def test_equality_and_hashability(self):
        assert UnitHasher(1, "murmur2") == UnitHasher(1, "murmur2")
        assert UnitHasher(1, "murmur2") != UnitHasher(2, "murmur2")
        assert UnitHasher(1, "murmur2") != UnitHasher(1, "murmur3")
        assert len({UnitHasher(1), UnitHasher(1)}) == 1

    @pytest.mark.parametrize("algorithm", ["sha256", "python"])
    def test_unknown_algorithm_rejected(self, algorithm):
        with pytest.raises(ValueError):
            UnitHasher(0, algorithm)


class TestMix64:
    def test_int_only(self):
        h = UnitHasher(0, "mix64")
        with pytest.raises(TypeError):
            h.unit("not an int")

    @given(st.lists(st.integers(0, 2**62), min_size=1, max_size=200), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_vectorized_matches_scalar(self, ids, seed):
        h = UnitHasher(seed, "mix64")
        arr = unit_hash_array(np.array(ids, dtype=np.int64), seed)
        for i, value in zip(ids, arr.tolist()):
            assert value == h.unit(i)


class TestUniformity:
    """Hash outputs should look Uniform(0,1) — KS-style check."""

    @pytest.mark.parametrize("algorithm", ["murmur2", "murmur3", "mix64"])
    def test_ks_statistic(self, algorithm):
        h = UnitHasher(17, algorithm)
        n = 4000
        values = np.sort([h.unit(i) for i in range(n)])
        grid = np.arange(1, n + 1) / n
        ks = np.max(np.abs(values - grid))
        # Critical value at alpha=0.001 is ~1.95/sqrt(n) ≈ 0.031.
        assert ks < 0.035, f"{algorithm} KS statistic too large: {ks}"

    def test_mean_and_variance(self):
        h = UnitHasher(23)
        values = np.array([h.unit(i) for i in range(4000)])
        assert abs(values.mean() - 0.5) < 0.02
        assert abs(values.var() - 1 / 12) < 0.01


class TestFamily:
    def test_members_deterministic(self):
        fam = SeededHashFamily(7)
        assert fam.member(3) == fam.member(3)

    def test_members_independentish(self):
        fam = SeededHashFamily(7)
        h0, h1 = fam.member(0), fam.member(1)
        # Different members hash the same element differently.
        assert h0.unit("x") != h1.unit("x")

    def test_members_iterator(self):
        fam = SeededHashFamily(7)
        members = list(fam.members(5))
        assert len(members) == 5
        assert members[2] == fam.member(2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SeededHashFamily(0).member(-1)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            SeededHashFamily(0, "md5")

    def test_family_correlation_low(self):
        # Samples under different members should be nearly uncorrelated.
        fam = SeededHashFamily(11)
        h0, h1 = fam.member(0), fam.member(1)
        a = np.array([h0.unit(i) for i in range(2000)])
        b = np.array([h1.unit(i) for i in range(2000)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.08
