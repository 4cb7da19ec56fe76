"""Experiment registry: ids → runners.

Every paper table/figure plus the ablations is registered here; the CLI
and the benchmark suite resolve experiments by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError
from . import (
    ablations,
    fig5_1,
    fig5_2,
    fig5_3,
    fig5_4,
    fig5_5,
    fig5_6,
    fig5_7,
    fig5_8,
    fig5_9,
    fig5_10,
    table5_1,
)
from .config import ExperimentConfig
from .report import FigureResult

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True, slots=True)
class Experiment:
    """A registered experiment.

    Attributes:
        experiment_id: Registry key (e.g. ``"fig5_4"``).
        description: One-line summary of what it reproduces.
        runner: Callable producing the figure results.
    """

    experiment_id: str
    description: str
    runner: Callable[[ExperimentConfig], list[FigureResult]]


EXPERIMENTS: dict[str, Experiment] = {
    e.experiment_id: e
    for e in [
        Experiment(
            "table5_1",
            "Dataset summary: elements and distinct elements",
            table5_1.run,
        ),
        Experiment(
            "fig5_1",
            "Messages vs elements: flooding / random / round-robin (k=5, s=10)",
            fig5_1.run,
        ),
        Experiment(
            "fig5_2", "Messages vs sample size s (k=5)", fig5_2.run
        ),
        Experiment(
            "fig5_3", "Messages vs number of sites k (s=10)", fig5_3.run
        ),
        Experiment(
            "fig5_4",
            "Ours vs Algorithm Broadcast over the stream (k=100, s=20)",
            fig5_4.run,
        ),
        Experiment(
            "fig5_5", "Ours vs Broadcast across sample sizes (k=100)", fig5_5.run
        ),
        Experiment(
            "fig5_6",
            "Ours vs Broadcast across dominate rates (k=100, s=20)",
            fig5_6.run,
        ),
        Experiment(
            "fig5_7", "Sliding windows: per-site memory vs window size (k=10)",
            fig5_7.run,
        ),
        Experiment(
            "fig5_8", "Sliding windows: messages vs window size (k=10)", fig5_8.run
        ),
        Experiment(
            "fig5_9", "Sliding windows: per-site memory vs sites (w=100)",
            fig5_9.run,
        ),
        Experiment(
            "fig5_10", "Sliding windows: messages vs sites (w=100)", fig5_10.run
        ),
        Experiment(
            "ablation_theory",
            "Measured messages vs Lemma 4 upper / Lemma 9 lower bounds",
            ablations.run_theory,
        ),
        Experiment(
            "ablation_sync",
            "Sliding windows: lazy feedback vs local push",
            ablations.run_sync,
        ),
        Experiment(
            "ablation_hash",
            "Hash algorithm comparison (murmur2/murmur3/mix64)",
            ablations.run_hash,
        ),
        Experiment(
            "ablation_cache",
            "Duplicate-suppression caches: messages vs cache size",
            ablations.run_cache,
        ),
        Experiment(
            "ablation_obs1",
            "Observation 1 vs Lemma 4 vs measured messages",
            ablations.run_obs1,
        ),
    ]
}


def get_experiment(experiment_id: str) -> Experiment:
    """Resolve an experiment by id.

    Raises:
        ConfigurationError: For unknown ids.
    """
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    experiment_id: str, config: ExperimentConfig
) -> list[FigureResult]:
    """Run a registered experiment."""
    return get_experiment(experiment_id).runner(config)
