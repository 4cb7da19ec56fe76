"""Internal helpers shared by the figure modules."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import ExperimentConfig

__all__ = ["mean", "averaged", "run_rngs"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (plain, no numpy boxing)."""
    return sum(values) / len(values)


def averaged(per_run: Sequence[Sequence[float]]) -> list[float]:
    """Element-wise mean across runs: ``per_run[run][point] -> [point]``."""
    n_points = len(per_run[0])
    for series in per_run:
        if len(series) != n_points:
            raise ValueError("runs produced different numbers of points")
    return [mean([series[i] for series in per_run]) for i in range(n_points)]


def run_rngs(
    config: ExperimentConfig,
) -> list[tuple[np.random.Generator, int]]:
    """One ``(rng, hash_seed)`` pair per run.

    Each run gets an independent stream/assignment RNG *and* an independent
    hash function, mirroring the paper's fully independent repetitions.
    """
    pairs = []
    for seq in config.run_seeds():
        children = seq.spawn(2)
        rng = np.random.default_rng(children[0])
        hash_seed = int(children[1].generate_state(1)[0])
        pairs.append((rng, hash_seed))
    return pairs
