"""Columnar event batches: the one ingest representation.

Every batch of arrivals reaches the sampler cores as an
:class:`EventBatch` of NumPy columns.  Stream emitters build one
directly; a Python event list goes through :meth:`EventBatch.from_events`
(what every ``observe_batch`` does).  The columns flow to the cores
untouched:

* ``items`` — the elements.  ``int64`` when every element is a plain
  ``int`` in int64 range, otherwise a 1-D ``object`` column holding the
  elements as given (strings, tuples, bools, out-of-range ints).
* ``sites`` — optional per-event site ids.  A site-less batch is a *raw*
  key stream whose routing decision is still pending; the
  :class:`~repro.runtime.engine.Engine` attaches the column.
* ``slots`` — optional per-event slot stamps (all events or none).
  :data:`CURRENT_SLOT` marks an event delivered at the sampler's current
  slot, the unstamped prefix of an event list.

Each layer that hashes — engine routing, shard partitioning, the
sampling hash itself — asks :meth:`EventBatch.hash_column` for its
:class:`~repro.hashing.unit.UnitHasher`'s column.  Columns are computed
in one vectorized pass (``mix64`` over ``int64`` items) or one scalar
sweep (object items, other algorithms) and cached on the batch, so row
subsets created by :meth:`EventBatch.select` *slice* the
already-computed hashes instead of rehashing: the sharded facade warms
the shared sampling-hash column once per run and every coordinator
group reuses its slice.

Every consumer's ``observe_columns`` is pinned against the
single-``observe`` path, for int and object items alike, by
``tests/test_batch_equivalence.py``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError
from ..hashing.unit import UnitHasher, unit_hash_array

__all__ = ["EventBatch", "CURRENT_SLOT", "check_integer"]

#: One int64 column (items, sites, or slots).
IntColumn = npt.NDArray[np.int64]

#: The items column: ``int64``, or ``object`` for any other elements.
ItemColumn = npt.NDArray[Any]

#: One float64 unit-hash column.
HashColumn = npt.NDArray[np.float64]

#: The slot stamp of an event delivered at the sampler's current slot
#: without advancing (never a real slot).
CURRENT_SLOT = int(np.iinfo(np.int64).min)


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
            "(pass other elements as a Python sequence)"
        )
    if (
        np.issubdtype(arr.dtype, np.unsignedinteger)
        and arr.size
        and int(arr.max()) > np.iinfo(np.int64).max
    ):
        raise ConfigurationError(
            f"{name} column has values outside the int64 range "
            "(pass them as a Python sequence)"
        )
    return arr.astype(np.int64)


def check_integer(value: Any, name: str) -> None:
    """Require ``value`` (a site id, a slot stamp or an integer config
    field) to be an ``int`` or a NumPy integer.

    A float would otherwise be truncated, a numeric string be parsed as
    a number, and a bool be taken as 0 or 1.

    Raises:
        ConfigurationError: For a bool, a float, a string or anything else.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} {value!r} is not an integer")


def _site_column(sites: Any) -> IntColumn:
    """The site column for a sequence of site ids, each of which
    :func:`check_integer` accepts, scanned once when every id is a plain
    ``int`` (an array takes :func:`_as_int64`)."""
    sites = sites if isinstance(sites, (list, tuple)) else list(sites)
    if not set(map(type, sites)) <= {int}:
        for site_id in sites:
            check_integer(site_id, "site id")
    try:
        return np.array(sites, dtype=np.int64)
    except OverflowError as exc:
        raise ConfigurationError(
            f"event sites must be int64-range integers: {exc}"
        ) from None


def _item_column(items: Any) -> ItemColumn:
    """The items column for ``items``.

    Arrays keep their type (``object``) or are coerced to ``int64``, so
    derived batches never rescan.  A Python sequence is scanned once: it
    becomes ``int64`` iff every element is a plain ``int`` in int64
    range.  The type test is exact (``type(e) is int``): it keeps
    ``bool`` (NumPy would turn ``True`` into ``1``) and ``np.integer``
    (the scalar ``mix64`` hasher rejects it) in the object column.  The
    object column comes from ``np.fromiter``, which stays 1-D even for
    equal-length tuple elements.
    """
    if isinstance(items, np.ndarray):
        if items.dtype != object:
            return _as_int64(items, "items")
        if items.ndim != 1:
            raise ConfigurationError(
                f"items column must be one-dimensional, got shape {items.shape}"
            )
        return items
    items = items if isinstance(items, (list, tuple)) else list(items)
    if set(map(type, items)) <= {int}:
        try:
            return np.array(items, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(items, dtype=object, count=len(items))


class EventBatch:
    """A batch of ingestion events in columnar (structure-of-arrays) form.

    Args:
        items: The elements: an array (integer or ``object`` dtype) or a
            Python sequence of any elements (see :func:`_item_column`).
        sites: Optional per-event site ids (same length).  ``None``
            means routing has not happened yet.
        slots: Optional per-event slot stamps (same length).  ``None``
            means every event is delivered at the current slot.

    Raises:
        ConfigurationError: For non-integer site/slot columns, non-integer
            item arrays, or length mismatches.

    ``len(batch)`` is the event count and two batches compare equal iff
    their columns match element-for-element (cached hash columns are
    derived data and never participate).
    """

    __slots__ = ("items", "sites", "slots", "_hash_columns", "_items_list",
                 "_sites_list")

    def __init__(
        self,
        items: Any,
        sites: Optional[npt.ArrayLike] = None,
        slots: Optional[npt.ArrayLike] = None,
    ) -> None:
        self.items = _item_column(items)
        n = self.items.size
        if sites is None:
            self.sites = None
        elif isinstance(sites, np.ndarray):
            self.sites = _as_int64(sites, "sites")
        else:
            self.sites = _site_column(sites)
        self.slots = None if slots is None else _as_int64(slots, "slots")
        for name, column in (("sites", self.sites), ("slots", self.slots)):
            if column is not None and column.size != n:
                raise ConfigurationError(
                    f"{name} column has {column.size} rows, items has {n}"
                )
        #: hasher -> float64 unit-hash column, computed at most once.
        self._hash_columns: dict[UnitHasher, HashColumn] = {}
        self._items_list: Optional[list[Any]] = None
        self._sites_list: Optional[list[int]] = None

    # -- converters ----------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Sequence[Any]]) -> "EventBatch":
        """Build a batch from tuple events (the ``observe_batch`` adapter).

        Accepts what the single-event loop accepts: ``(site, item)`` is
        delivered at the current slot and ``(site, item, slot, ...)``
        advances to ``slot`` first (later fields are ignored).  A 2-tuple
        after a stamped event joins that event's slot; a leading
        unstamped prefix is stamped :data:`CURRENT_SLOT`.  Items may be
        of any type.

        Raises:
            ConfigurationError: For an event with fewer than two fields,
                a site id or a slot :func:`check_integer` refuses, or
                sites and slots that are not int64-range integers.
        """
        events = events if isinstance(events, list) else list(events)
        if not events:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        lengths = set(map(len, events))
        if min(lengths) < 2:
            raise ConfigurationError(
                "events must be (site, item) or (site, item, slot)"
            )
        slots: Optional[Sequence[Any]] = None
        if len(lengths) == 1:
            sites, items, *stamps = zip(*events)
            if stamps:
                slots = stamps[0]
        else:
            sites = tuple(event[0] for event in events)
            items = tuple(event[1] for event in events)
            stamp: Any = CURRENT_SLOT
            filled = []
            for event in events:
                if len(event) != 2:
                    stamp = event[2]
                filled.append(stamp)
            slots = filled
        site_column = _site_column(sites)
        if slots is not None and not set(map(type, slots)) <= {int}:
            for slot in slots:
                check_integer(slot, "slot")
        try:
            slot_column = (
                None if slots is None else np.array(slots, dtype=np.int64)
            )
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"event slots must be int64-range integers: {exc}"
            ) from None
        return cls(items, site_column, slot_column)

    def to_events(self) -> list[tuple[Any, ...]]:
        """The equivalent tuple-event list; a :data:`CURRENT_SLOT` row
        becomes a 2-tuple, so uniform event lists round-trip exactly.

        Raises:
            ConfigurationError: If the batch carries no site column (a
                raw key stream must be routed through an Engine first).
        """
        self.require_sites()
        pairs = zip(self.sites_list(), self.items_list())
        if self.slots is None:
            return list(pairs)
        return [
            (site, item) if slot == CURRENT_SLOT else (site, item, slot)
            for (site, item), slot in zip(pairs, self.slots.tolist())
        ]

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
        """Group the batch into runs of consecutive equal slot stamps.

        Yields ``(slot, run)`` pairs where ``run`` carries no slot column
        (its events are all delivered after one ``advance(slot)``); a
        :data:`CURRENT_SLOT` run and a slot-less batch (yielded once,
        itself) come under ``slot=None``: delivered without advancing.
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
            slot = int(slots[start])
            yield (None if slot == CURRENT_SLOT else slot), run
            start = stop

    # -- hash columns --------------------------------------------------------

    def hash_column(self, hasher: UnitHasher) -> HashColumn:
        """The unit-hash column under ``hasher``, computed at most once.

        Element-for-element equal to ``[hasher.unit(e) for e in items]``,
        errors included (``mix64`` raises the scalar path's TypeError on
        a non-integer element): ``mix64`` over ``int64`` items vectorizes
        through :func:`~repro.hashing.unit.unit_hash_array`; object items
        and every other algorithm take one scalar sweep.  Each layer's
        hasher (engine routing, shard routing, sampling) gets its own
        cached column.
        """
        column = self._hash_columns.get(hasher)
        if column is None:
            if hasher.algorithm == "mix64" and self.items.dtype == np.int64:
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
        batch over views into the parent's shm arena and adopts the
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
        ascending — the same-slot dedup the sliding cores run on
        synchronous networks.  Pairs compare under Python equality (so
        an object column's ``True`` repeats ``1``), as ``dict.fromkeys``
        does."""
        first: dict[tuple[int, Any], int] = {}
        pairs = zip(self.sites_list(), self.items_list())
        for index, pair in enumerate(pairs):
            first.setdefault(pair, index)
        return np.fromiter(first.values(), dtype=np.int64, count=len(first))

    # -- row views -----------------------------------------------------------

    def require_sites(self) -> IntColumn:
        """The site column, or a clear error for a still-unrouted batch."""
        if self.sites is None:
            raise ConfigurationError(
                "EventBatch has no site column; route it through an "
                "Engine (or attach one with with_sites) before delivery"
            )
        return self.sites

    def check_sites(self, num_sites: int) -> None:
        """Require every site id to be in ``[0, num_sites)``, in one
        vectorized test.

        Raises:
            ConfigurationError: For a batch with no site column, or a
                site id outside the range.
        """
        sites = self.require_sites()
        # Viewed unsigned, a negative id lies above every bound.
        if sites.size and int(sites.view(np.uint64).max()) >= num_sites:
            bad = sites[(sites < 0) | (sites >= num_sites)][0]
            raise ConfigurationError(
                f"site id {int(bad)} is outside [0, {num_sites})"
            )

    def items_list(self) -> list[Any]:
        """The item column as Python objects (cached)."""
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

        def column_eq(
            a: Optional[npt.NDArray[Any]], b: Optional[npt.NDArray[Any]]
        ) -> bool:
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
