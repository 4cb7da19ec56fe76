"""Core data structures: bottom-k sets and dominance sets (one
implementation, :class:`SortedDominanceSet`; the tests keep the paper's
treap as its differential oracle)."""

from .bottomk import BottomK
from .dominance import (
    DominanceEntry,
    DominanceSet,
    SortedDominanceSet,
    brute_force_survivors,
)

__all__ = [
    "BottomK",
    "DominanceEntry",
    "DominanceSet",
    "SortedDominanceSet",
    "brute_force_survivors",
]
