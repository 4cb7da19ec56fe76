"""Bottom-k set: the ``k`` smallest-hash distinct elements seen so far.

This is the coordinator's sample ``P`` in Algorithm 2 and the whole state of
the centralized reference sampler: a capacity-bounded set of
``(hash, element)`` pairs keeping the smallest hashes, with O(log k)
updates.  Because the capacity is the sample size ``s`` (tens to a few
hundred), a sorted list with binary search is both simple and fast.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import islice
from operator import ge
from typing import Any, Optional

import numpy as np
import numpy.typing as npt

__all__ = ["BottomK"]


class BottomK:
    """Maintains the ``capacity`` smallest-hash distinct elements.

    Args:
        capacity: Maximum number of retained elements (the sample size).

    Raises:
        ValueError: If ``capacity < 1``.
    """

    __slots__ = ("capacity", "_pairs", "_hashes", "_columns_cache")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"BottomK capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._pairs: list[tuple[float, Any]] = []  # sorted ascending by hash
        self._hashes: dict[Any, float] = {}
        # Lazily-built columnar view of _pairs; dropped on any mutation.
        # Accepted offers become rare once the threshold tightens, so in
        # read-heavy phases repeated merges reuse the same arrays.
        self._columns_cache: Optional[
            tuple[npt.NDArray[np.float64], list[Any]]
        ] = None

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, element: Any) -> bool:
        return element in self._hashes

    @property
    def is_full(self) -> bool:
        """True once ``capacity`` elements are retained."""
        return len(self._pairs) >= self.capacity

    def threshold(self) -> float:
        """The current acceptance threshold ``u``.

        Equals 1.0 while the set is not yet full, afterwards the largest
        retained hash (the ``s``-th smallest hash seen so far) — exactly the
        coordinator's ``u`` in Algorithm 2.
        """
        if not self.is_full:
            return 1.0
        return self._pairs[-1][0]

    def offer(self, hash_value: float, element: Any) -> tuple[bool, Optional[Any]]:
        """Offer an element for inclusion.

        Args:
            hash_value: ``h(element)`` in ``[0, 1)``.
            element: The element itself.

        Returns:
            ``(accepted, evicted)``: ``accepted`` is True iff the set
            changed; ``evicted`` is the element pushed out (or None).
            Re-offering a retained element is a no-op (duplicates in the
            stream never change a distinct sample).
        """
        if element in self._hashes:
            return False, None
        if self.is_full and hash_value >= self._pairs[-1][0]:
            return False, None
        insort(self._pairs, (hash_value, element))
        self._hashes[element] = hash_value
        self._columns_cache = None
        evicted = None
        if len(self._pairs) > self.capacity:
            _, evicted = self._pairs.pop()
            del self._hashes[evicted]
        return True, evicted

    def load(self, hashes: list[float], elements: list[Any]) -> None:
        """Replace the contents with parallel ``hashes`` and ``elements``,
        given in the ascending ``(hash, element)`` order :meth:`offer`
        keeps.

        Raises:
            ValueError: If an element repeats, the rows exceed the
                capacity, or they break that order (the set is then left
                as it was).
        """
        index = dict(zip(elements, hashes))
        if len(index) < len(elements):
            raise ValueError("rows repeat an element")
        if len(index) > self.capacity:
            raise ValueError(
                f"{len(index)} rows exceed the capacity {self.capacity}"
            )
        pairs = list(zip(hashes, elements))
        if any(map(ge, pairs, islice(pairs, 1, None))):
            raise ValueError("rows are not in ascending (hash, element) order")
        self._pairs = pairs
        self._hashes = index
        self._columns_cache = None

    def discard(self, element: Any) -> bool:
        """Remove ``element`` if present; returns whether it was present."""
        h = self._hashes.pop(element, None)
        if h is None:
            return False
        idx = bisect_left(self._pairs, (h, element))
        # Hash collisions are possible in principle; scan the equal-hash run.
        while idx < len(self._pairs) and self._pairs[idx][0] == h:
            if self._pairs[idx][1] == element:
                del self._pairs[idx]
                self._columns_cache = None
                return True
            idx += 1
        raise AssertionError("BottomK index out of sync")  # pragma: no cover

    def elements(self) -> list[Any]:
        """Retained elements, ascending by hash."""
        return [element for _, element in self._pairs]

    def pairs(self) -> list[tuple[float, Any]]:
        """Retained ``(hash, element)`` pairs, ascending by hash."""
        return list(self._pairs)

    def columns(self) -> tuple[npt.NDArray[np.float64], list[Any]]:
        """Retained pairs as ``(hash column, element list)``, ascending.

        One C-level transpose of the sorted backing list, cached until
        the next mutation — the query-time merge consumes this instead
        of :meth:`pairs` so no per-pair tuple is materialized on the hot
        path and quiescent re-merges skip the transpose entirely.
        Callers must not mutate the returned arrays.
        """
        if self._columns_cache is None:
            if not self._pairs:
                self._columns_cache = (np.empty(0, dtype=np.float64), [])
            else:
                hashes, elements = zip(*self._pairs)
                self._columns_cache = (
                    np.asarray(hashes, dtype=np.float64),
                    list(elements),
                )
        return self._columns_cache

    def min_pair(self) -> Optional[tuple[float, Any]]:
        """The smallest ``(hash, element)`` pair, or None if empty."""
        return self._pairs[0] if self._pairs else None

    def clear(self) -> None:
        """Drop all retained elements."""
        self._pairs.clear()
        self._hashes.clear()
        self._columns_cache = None

    def check_invariants(self) -> None:
        """Assert sortedness, capacity, and index consistency (for tests)."""
        assert len(self._pairs) <= self.capacity
        assert len(self._pairs) == len(self._hashes)
        for a, b in zip(self._pairs, self._pairs[1:]):
            assert a <= b, "bottom-k order broken"
        for h, e in self._pairs:
            assert self._hashes[e] == h
