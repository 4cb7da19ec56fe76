"""Micro-benchmarks for the hot paths.

These measure raw throughput of the pieces that dominate experiment
runtimes: hashing, site ingestion, dominance-set maintenance and bottom-k
offers.
"""

from __future__ import annotations

import numpy as np
from conftest import scenario_events

from repro import make_sampler
from repro.hashing import UnitHasher, unit_hash_array
from repro.structures.bottomk import BottomK
from repro.structures.dominance import SortedDominanceSet

_N = 20_000


def test_hash_murmur2_strings(benchmark):
    hasher = UnitHasher(1, "murmur2")
    items = [f"10.0.{i % 256}.{i // 256}>172.16.0.1" for i in range(2000)]

    def run():
        unit = hasher.unit
        for item in items:
            unit(item)

    benchmark(run)


def test_hash_mix64_vectorized(benchmark):
    ids = np.arange(_N, dtype=np.int64)
    benchmark(unit_hash_array, ids, 7)


def test_infinite_ingest_fast_path(benchmark):
    sites, elements = zip(*scenario_events("uniform", _N, 8, seed=0))
    hashes = unit_hash_array(np.array(elements), 5).tolist()

    def run():
        system = make_sampler(
            "infinite", num_sites=8, sample_size=16, seed=5, algorithm="mix64"
        )
        site_objs = system.sites
        network = system.network
        for element, h, site in zip(elements, hashes, sites):
            site_objs[site].observe_hashed(element, h, network)
        return system.total_messages

    messages = benchmark(run)
    assert messages > 0


def test_sliding_ingest(benchmark):
    events = scenario_events("sliding-churn", 10_000, 5, seed=1, window=200)

    def run():
        system = make_sampler(
            "sliding", num_sites=5, window=200, seed=3, algorithm="mix64"
        )
        system.observe_batch(events)
        return system.total_messages

    messages = benchmark(run)
    assert messages > 0


def test_dominance_sorted(benchmark):
    rng = np.random.default_rng(2)
    arrivals = rng.integers(0, 2000, 5000).tolist()
    hashes = unit_hash_array(np.arange(2000), 9).tolist()

    def run():
        ds = SortedDominanceSet(1)
        for t, element in enumerate(arrivals):
            ds.expire(t)
            ds.observe(element, t + 300, hashes[element])
        return len(ds)

    assert benchmark(run) >= 1


def test_bottomk_offer(benchmark):
    hashes = unit_hash_array(np.arange(_N), 11).tolist()

    def run():
        bk = BottomK(64)
        for element, h in enumerate(hashes):
            bk.offer(h, element)
        return bk.threshold()

    threshold = benchmark(run)
    assert 0 < threshold < 1
