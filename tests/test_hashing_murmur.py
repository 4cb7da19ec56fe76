"""Tests for the from-scratch MurmurHash implementations.

The MurmurHash3 x64 128-bit vectors are the published outputs of Austin
Appleby's reference MurmurHash3.cpp; the MurmurHash64A values are
stability pins recorded from this implementation.  Both pin the hashes
so refactors cannot silently change them (which would invalidate every
recorded experiment).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.murmur import (
    fmix64,
    fmix64_array,
    murmur2_64a,
    murmur3_128_x64,
)

_FOX = b"The quick brown fox jumps over the lazy dog"


class TestReferenceVectors:
    """Pin known-good outputs of each hash function."""

    # Published MurmurHash3_x64_128 outputs, as (h1, h2).
    @pytest.mark.parametrize(
        "data, seed, want",
        [
            (b"", 1, (0x4610ABE56EFF5CB5, 0x51622DAA78F83583)),
            (b"hello", 0, (0xCBD8A7B341BD9B02, 0x5B1E906A48AE1D19)),
            (_FOX, 0, (0xE34BBC7BBC071B6C, 0x7A433CA9C49A9347)),
        ],
        ids=["empty-seed1", "hello", "quick-fox"],
    )
    def test_murmur3_128_x64(self, data, seed, want):
        assert murmur3_128_x64(data, seed) == want

    def test_fmix64_zero(self):
        assert fmix64(0) == 0

    def test_fmix64_known(self):
        # fmix64(1) from the reference finalizer.
        assert fmix64(1) == 0xB456BCFC34C2CB2C

    # Self-recorded vectors (stability pins, not external references).
    @pytest.mark.parametrize(
        "data, seed, want",
        [
            (b"", 1, 0xC6A4A7935BD064DC),
            (b"hello", 0, 0x1E68D17C457BF117),
            (_FOX, 0, 0x5589CA33042A861B),
        ],
        ids=["empty-seed1", "hello", "quick-fox"],
    )
    def test_murmur2_64a_stability(self, data, seed, want):
        assert murmur2_64a(data, seed) == want

    def test_murmur2_64a_distinct_seeds(self):
        assert murmur2_64a(b"hello", 0) != murmur2_64a(b"hello", 1)


class TestShapes:
    """Output ranges and structural behaviour."""

    @pytest.mark.parametrize("n", range(0, 25))
    def test_murmur2_64a_all_tail_lengths(self, n):
        out = murmur2_64a(bytes(range(n)), 7)
        assert 0 <= out <= 0xFFFFFFFFFFFFFFFF

    @pytest.mark.parametrize("n", range(0, 33))
    def test_murmur3_128_all_tail_lengths(self, n):
        h1, h2 = murmur3_128_x64(bytes(range(n)), 7)
        assert 0 <= h1 <= 0xFFFFFFFFFFFFFFFF
        assert 0 <= h2 <= 0xFFFFFFFFFFFFFFFF

    def test_length_sensitivity(self):
        # Same prefix, different length => different hash.
        assert murmur2_64a(b"aaaa", 0) != murmur2_64a(b"aaaaa", 0)


class TestProperties:
    """Hypothesis-driven properties."""

    @given(st.binary(max_size=64), st.integers(0, 2**64 - 1))
    @settings(max_examples=200)
    def test_murmur2_64a_deterministic(self, data, seed):
        assert murmur2_64a(data, seed) == murmur2_64a(data, seed)

    @given(st.binary(max_size=64))
    def test_murmur3_128_halves_differ(self, data):
        h1, h2 = murmur3_128_x64(data, 0)
        # The two lanes agree only with negligible probability; allow the
        # empty-input degenerate case.
        if len(data) > 0:
            assert h1 != h2 or h1 == 0

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=300)
    def test_fmix64_bijective_locally(self, x):
        # Bijection implies distinct neighbours map to distinct outputs.
        if x > 0:
            assert fmix64(x) != fmix64(x - 1)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=100))
    def test_fmix64_array_matches_scalar(self, keys):
        arr = fmix64_array(np.array(keys, dtype=np.uint64))
        for key, got in zip(keys, arr.tolist()):
            assert got == fmix64(key)


class TestAvalanche:
    """Bit-flip diffusion: flipping one input bit changes ~half the output."""

    def test_fmix64_avalanche(self):
        rng = np.random.default_rng(1)
        total = 0.0
        trials = 200
        for _ in range(trials):
            x = int(rng.integers(0, 2**63))
            bit = int(rng.integers(0, 64))
            diff = fmix64(x) ^ fmix64(x ^ (1 << bit))
            total += bin(diff).count("1")
        mean_flips = total / trials
        assert 24 <= mean_flips <= 40, f"poor avalanche: {mean_flips}"
