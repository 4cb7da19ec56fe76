"""Columnar event batches: the zero-tuple ingest representation.

High-rate ingestion used to cross every layer boundary as a Python list
of ``(site, item)`` tuples: the engine zipped routing output back into
tuples, the sharded facade split shards with a per-item append loop, and
each sampler core re-extracted the item column just to hash it again.
:class:`EventBatch` replaces that with NumPy columns that flow from the
stream generators to the sampler cores untouched:

* ``items`` — the element ids (``int64``; exotic element types take the
  tuple path instead).
* ``sites`` — optional per-event site ids.  A site-less batch is a *raw*
  key stream whose routing decision is still pending; the
  :class:`~repro.runtime.engine.Engine` attaches the column.
* ``slots`` — optional per-event slot stamps (all events stamped, or
  none; a mixed stream keeps the tuple representation).

Each layer that hashes — engine routing, shard partitioning, the
sampling hash itself — asks :meth:`EventBatch.hash_column` for its
:class:`~repro.hashing.unit.UnitHasher`'s column.  Columns are computed
in one vectorized pass (``mix64``) or one scalar sweep (other
algorithms) and cached on the batch, so row subsets created by
:meth:`EventBatch.select` *slice* the already-computed hashes instead of
rehashing: the sharded facade warms the shared sampling-hash column once
per run and every coordinator group reuses its slice.

Equivalence with the tuple path is structural: :meth:`from_events` /
:meth:`to_events` are exact inverses, and every consumer's
``observe_columns`` fast path is pinned against the tuple-batch and
single-``observe`` paths by ``tests/test_batch_equivalence.py``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError
from ..hashing.unit import UnitHasher, unit_hash_array

__all__ = ["EventBatch"]

#: One int64 column (items, sites, or slots).
IntColumn = npt.NDArray[np.int64]

#: One float64 unit-hash column.
HashColumn = npt.NDArray[np.float64]


def _as_int64(values: npt.ArrayLike, name: str) -> IntColumn:
    """Coerce a column to ``int64`` without ever silently truncating."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ConfigurationError(
            f"{name} column must be one-dimensional, got shape {arr.shape}"
        )
    if arr.dtype == np.int64:
        return arr
    if arr.dtype == np.bool_ or not np.issubdtype(arr.dtype, np.integer):
        raise ConfigurationError(
            f"{name} column must be an integer array, got dtype {arr.dtype} "
            "(non-integer elements take the tuple-event path)"
        )
    if (
        np.issubdtype(arr.dtype, np.unsignedinteger)
        and arr.size
        and int(arr.max()) > np.iinfo(np.int64).max
    ):
        raise ConfigurationError(
            f"{name} column has values outside the int64 range "
            "(out-of-range integers take the tuple-event path)"
        )
    return arr.astype(np.int64)


class EventBatch:
    """A batch of ingestion events in columnar (structure-of-arrays) form.

    Args:
        items: Element ids (integer array-like; coerced to ``int64``).
        sites: Optional per-event site ids (same length).  ``None``
            means routing has not happened yet.
        slots: Optional per-event slot stamps (same length).  ``None``
            means every event is delivered at the current slot.

    Raises:
        ConfigurationError: For non-integer columns or length mismatches.

    ``len(batch)`` is the event count and two batches compare equal iff
    their columns match element-for-element (cached hash columns are
    derived data and never participate).
    """

    __slots__ = ("items", "sites", "slots", "_hash_columns", "_items_list",
                 "_sites_list")

    def __init__(
        self,
        items: npt.ArrayLike,
        sites: Optional[npt.ArrayLike] = None,
        slots: Optional[npt.ArrayLike] = None,
    ) -> None:
        self.items = _as_int64(items, "items")
        n = self.items.size
        self.sites = None if sites is None else _as_int64(sites, "sites")
        self.slots = None if slots is None else _as_int64(slots, "slots")
        for name, column in (("sites", self.sites), ("slots", self.slots)):
            if column is not None and column.size != n:
                raise ConfigurationError(
                    f"{name} column has {column.size} rows, items has {n}"
                )
        #: hasher -> float64 unit-hash column, computed at most once.
        self._hash_columns: dict[UnitHasher, HashColumn] = {}
        self._items_list: Optional[list[int]] = None
        self._sites_list: Optional[list[int]] = None

    # -- converters ----------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Sequence[int]]) -> "EventBatch":
        """Build a batch from tuple events (the exact tuple-path inverse).

        Accepts a uniform sequence of ``(site, item)`` or
        ``(site, item, slot)`` events over plain int64-range integer
        items — the same gate as the ``mix64`` vectorizer, so anything
        this refuses must take the tuple path anyway.

        Raises:
            ConfigurationError: For mixed arities or non-``int`` items.
        """
        events = events if isinstance(events, list) else list(events)
        if not events:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        arities = set(map(len, events))
        if arities == {2}:
            sites, items = zip(*events)
            slots = None
        elif arities == {3}:
            sites, items, slots = zip(*events)
        else:
            raise ConfigurationError(
                "EventBatch.from_events needs uniform (site, item) or "
                "(site, item, slot) events; mixed shapes keep the tuple path"
            )
        if set(map(type, items)) != {int}:
            raise ConfigurationError(
                "EventBatch holds int64 element ids; other element types "
                "keep the tuple path"
            )
        try:
            item_column = np.array(items, dtype=np.int64)
        except OverflowError:
            raise ConfigurationError(
                "EventBatch holds int64 element ids; out-of-range integers "
                "keep the tuple path"
            ) from None
        return cls(
            item_column,
            np.array(sites, dtype=np.int64),
            None if slots is None else np.array(slots, dtype=np.int64),
        )

    def to_events(self) -> list[tuple[int, ...]]:
        """The equivalent tuple-event list (the generic-loop fallback).

        Raises:
            ConfigurationError: If the batch carries no site column (a
                raw key stream must be routed through an Engine first).
        """
        self.require_sites()
        if self.slots is None:
            return list(zip(self.sites_list(), self.items_list()))
        return list(
            zip(self.sites_list(), self.items_list(), self.slots.tolist())
        )

    # -- derived batches (columns shared, hashes never recomputed) -----------

    def with_sites(self, sites: npt.ArrayLike) -> "EventBatch":
        """A new batch over the same rows with ``sites`` attached.

        The engine's routing step: items/slots and every cached hash
        column are shared with the parent (same rows, same hashes).
        """
        batch = EventBatch(self.items, sites, self.slots)
        batch._hash_columns = self._hash_columns
        batch._items_list = self._items_list
        return batch

    def select(self, index: npt.ArrayLike) -> "EventBatch":
        """The row subset ``index`` (boolean mask or index array).

        Order-preserving for sorted/boolean indices; cached hash columns
        are sliced, not recomputed — the sharded split relies on this.
        """
        batch = EventBatch(
            self.items[index],
            None if self.sites is None else self.sites[index],
            None if self.slots is None else self.slots[index],
        )
        batch._hash_columns = {
            hasher: column[index]
            for hasher, column in self._hash_columns.items()
        }
        return batch

    def slot_runs(self) -> Iterator[tuple[Optional[int], "EventBatch"]]:
        """Group the batch into same-slot runs, mirroring
        :func:`~repro.core.protocol.iter_event_runs`.

        Yields ``(slot, run)`` pairs where ``run`` carries no slot column
        (its events are all delivered after one ``advance(slot)``); a
        slot-less batch yields itself once under ``slot=None``.
        """
        if self.slots is None:
            yield None, self
            return
        n = self.items.size
        if not n:
            return
        slots = self.slots
        boundaries = (np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist()
        start = 0
        for stop in [*boundaries, n]:
            run = EventBatch(
                self.items[start:stop],
                None if self.sites is None else self.sites[start:stop],
            )
            run._hash_columns = {
                hasher: column[start:stop]
                for hasher, column in self._hash_columns.items()
            }
            yield int(slots[start]), run
            start = stop

    # -- hash columns --------------------------------------------------------

    def hash_column(self, hasher: UnitHasher) -> HashColumn:
        """The unit-hash column under ``hasher``, computed at most once.

        Element-for-element equal to ``[hasher.unit(e) for e in items]``:
        ``mix64`` vectorizes through
        :func:`~repro.hashing.unit.unit_hash_array`, every other
        algorithm takes one scalar sweep.  Each layer's hasher (engine
        routing, shard routing, sampling) gets its own cached column.
        """
        column = self._hash_columns.get(hasher)
        if column is None:
            if hasher.algorithm == "mix64":
                column = unit_hash_array(self.items, hasher.seed)
            else:
                column = np.array(
                    hasher.unit_many(self.items_list()), dtype=np.float64
                )
            self._hash_columns[hasher] = column
        return column

    def adopt_hash_column(self, hasher: UnitHasher, column: HashColumn) -> None:
        """Install a precomputed unit-hash column for ``hasher``.

        The zero-copy ingest path: a shared-memory worker reconstructs a
        batch over views into the parent's shm blocks and adopts the
        parent-warmed sampling-hash slice instead of rehashing.  The
        column must be element-for-element what :meth:`hash_column`
        would compute — callers ship slices of a column that *was*
        computed by :meth:`hash_column`, so this holds by construction.
        The adopted column may be a view into externally managed memory
        (it is only read during delivery, never retained by the cores).

        Raises:
            ConfigurationError: On a length mismatch with ``items``.
        """
        if column.shape != self.items.shape:
            raise ConfigurationError(
                f"hash column has shape {column.shape}, items has "
                f"{self.items.shape}"
            )
        self._hash_columns[hasher] = column

    def first_occurrence_indices(self) -> IntColumn:
        """Indices of the first occurrence of each ``(site, item)`` pair,
        ascending — the vectorized form of the same-slot dedup loop the
        sliding cores run on synchronous networks."""
        pairs = np.stack((self.require_sites(), self.items), axis=1)
        _, first = np.unique(pairs, axis=0, return_index=True)
        first.sort()
        return first

    # -- row views -----------------------------------------------------------

    def require_sites(self) -> IntColumn:
        """The site column, or a clear error for a still-unrouted batch."""
        if self.sites is None:
            raise ConfigurationError(
                "EventBatch has no site column; route it through an "
                "Engine (or attach one with with_sites) before delivery"
            )
        return self.sites

    def items_list(self) -> list[int]:
        """The item column as plain Python ints (cached)."""
        if self._items_list is None:
            self._items_list = self.items.tolist()
        return self._items_list

    def sites_list(self) -> list[int]:
        """The site column as plain Python ints (cached)."""
        sites = self.require_sites()
        if self._sites_list is None:
            self._sites_list = sites.tolist()
        return self._sites_list

    # -- dunder --------------------------------------------------------------

    def __reduce__(self) -> tuple[Any, ...]:
        # Cached hash columns and row-view lists are derived data the
        # receiving side (a deepcopy, a snapshot tool) recomputes on
        # demand, so pickling ships only the defining columns.
        return (EventBatch, (self.items, self.sites, self.slots))

    def __len__(self) -> int:
        return self.items.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented

        def column_eq(a: Optional[IntColumn], b: Optional[IntColumn]) -> bool:
            if a is None or b is None:
                return a is None and b is None
            return bool(np.array_equal(a, b))

        return (
            column_eq(self.items, other.items)
            and column_eq(self.sites, other.sites)
            and column_eq(self.slots, other.slots)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventBatch(n={self.items.size}, "
            f"sites={'yes' if self.sites is not None else 'no'}, "
            f"slots={'yes' if self.slots is not None else 'no'})"
        )
