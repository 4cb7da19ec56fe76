"""Correctness checks the benchmark runs after each timed phase.

Every reference here is computed by the benchmark itself from the
regenerated key stream, never read back from the sampler:

* infinite-window workloads: the bottom-s of all distinct keys ingested,
  ranked by the sampler's own sampling hash;
* ``window-churn``: the bottom-s of the distinct keys whose last arrival
  falls in the final ``window`` slots, a function that is itself checked
  against :class:`repro.CentralizedWindowSampler` on a stream prefix.

A check returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

import importlib
import json
from typing import Any, Callable, Iterable

import numpy as np

from repro import CentralizedWindowSampler, UnitHasher
from repro.hashing.unit import unit_hash_array

checkpoints = importlib.import_module("repro.core.snapshot")

Pairs = tuple[tuple[float, Any], ...]


def bottom_s(
    key_batches: Iterable[np.ndarray], sample_size: int, hasher: UnitHasher
) -> tuple[np.ndarray, np.ndarray]:
    """The ``sample_size`` smallest-hash distinct keys of a key stream.

    Returns ``(hashes, keys)`` ascending by hash.  Each batch is hashed
    with the vectorized ``mix64`` kernel and merged into a running
    bottom-s, so memory stays O(batch + s) however long the stream.
    """
    best_hashes = np.empty(0, dtype=np.float64)
    best_keys = np.empty(0, dtype=np.int64)
    for keys in key_batches:
        hashes = unit_hash_array(keys, hasher.seed)
        if best_hashes.size == sample_size:
            keep = hashes <= best_hashes[-1]
            keys, hashes = keys[keep], hashes[keep]
        keys = np.concatenate((best_keys, keys))
        hashes = np.concatenate((best_hashes, hashes))
        keys, first = np.unique(keys, return_index=True)
        hashes = hashes[first]
        order = np.argsort(hashes, kind="stable")[:sample_size]
        best_hashes, best_keys = hashes[order], keys[order]
    return best_hashes, best_keys


def check_sample(
    pairs: Pairs, reference: tuple[np.ndarray, np.ndarray], hasher: UnitHasher
) -> list[str]:
    """A sample's ``(hash, item)`` pairs against a reference bottom-s.

    The hash column must equal the reference's exactly, every item must
    hash (scalar path) to its reported hash, and items must be distinct;
    so which of two equal-hash keys fills the last slot is left free.
    """
    problems = []
    hashes = [h for h, _ in pairs]
    items = [item for _, item in pairs]
    if hashes != reference[0].tolist():
        problems.append(
            f"sample hashes differ from the reference bottom-{len(reference[0])}"
            f" ({len(hashes)} vs {len(reference[0])} entries)"
        )
    if len(set(items)) != len(items):
        problems.append("sample holds a duplicate item")
    wrong = [item for h, item in pairs if hasher.unit(item) != h]
    if wrong:
        problems.append(f"{len(wrong)} sample items do not hash to their pair")
    return problems


def check_restore(text: str, expected: Pairs) -> list[str]:
    """``restore()`` of a JSON checkpoint must answer ``expected``."""
    try:
        restored = checkpoints.restore(json.loads(text))
    except Exception as exc:  # a corrupt checkpoint is a failed check
        return [f"checkpoint does not restore: {type(exc).__name__}: {exc}"]
    try:
        if restored.sample().pairs != expected:
            return ["restored checkpoint answers a different sample"]
        return []
    finally:
        close = getattr(restored, "close", None)
        if close is not None:
            close()


def check_window_reference(
    keys_at: Callable[[int], np.ndarray],
    last_slot: int,
    window: int,
    sample_size: int,
    hasher: UnitHasher,
) -> list[str]:
    """Cross-check the window reference against the package's oracle.

    Feeds slots ``0..last_slot`` (one key batch per slot) to
    :class:`~repro.CentralizedWindowSampler` and compares its sample with
    :func:`bottom_s` over the final ``window`` slots.
    """
    oracle = CentralizedWindowSampler(window, sample_size, hasher)
    for slot in range(last_slot + 1):
        for key in keys_at(slot).tolist():
            oracle.observe(key, slot)
    first = max(0, last_slot - window + 1)
    _, keys = bottom_s(
        (keys_at(slot) for slot in range(first, last_slot + 1)),
        sample_size,
        hasher,
    )
    if oracle.sample() != keys.tolist():
        return ["window reference disagrees with CentralizedWindowSampler"]
    return []
