"""Batch vs single-item vs columnar ingestion through the unified protocol.

Quantifies the ingestion-path ladder on one stream:

* a loop of per-item ``observe`` calls (the slow floor);
* event-list ``observe_batch``: the list becomes one
  :class:`~repro.core.events.EventBatch` per call, then NumPy bulk
  hashing + chunked threshold pre-filtering (the >= 3x acceptance floor
  in ``tests/test_perf.py``);
* columnar ``observe_batch`` over a prebuilt ``EventBatch`` — the same
  path without the list-to-column conversion (the sharded-workload
  columnar pipeline is gated >= 10x a single-observe loop in
  ``tests/test_perf.py``).

All three paths produce byte-identical coordinator state (asserted in
the batch-equivalence tests).  The workload comes from the shared
scenario registry (:mod:`repro.perf.scenarios`) — the same ``uniform``
recipe the ``repro perf`` suite measures and CI gates.
"""

from __future__ import annotations

from conftest import scenario_batch, scenario_events

from repro import make_sampler

_N = 20_000
_SITES = 8
_SAMPLE = 16


def _workload():
    return scenario_events("uniform", _N, _SITES, seed=7)


def _build():
    return make_sampler(
        "infinite", num_sites=_SITES, sample_size=_SAMPLE, seed=5,
        algorithm="mix64",
    )


def test_single_item_observe(benchmark):
    events = _workload()

    def run():
        system = _build()
        observe = system.observe
        for site, element in events:
            observe(site, element)
        return system.total_messages

    messages = benchmark(run)
    assert messages > 0


def test_observe_batch(benchmark):
    events = _workload()

    def run():
        system = _build()
        system.observe_batch(events)
        return system.total_messages

    messages = benchmark(run)
    assert messages > 0


def test_observe_columnar(benchmark):
    # Workload generation stays outside the timer (like the other two
    # series); only the cheap EventBatch wrap is rebuilt per iteration,
    # so the hash-column cache is cold every run but the rng work is not
    # being measured.
    source = scenario_batch("uniform", _N, _SITES, seed=7)
    items, sites = source.items, source.sites

    def run():
        from repro import EventBatch

        system = _build()
        system.observe_batch(EventBatch(items, sites=sites))
        return system.total_messages

    messages = benchmark(run)
    assert messages > 0
