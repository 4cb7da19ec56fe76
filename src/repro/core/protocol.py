"""The unified sampler protocol: one lifecycle for every sampler variant.

Every consumer (CLI, experiment drivers, benchmarks, persistence) drives
every sampler family through the same surface, with no special cases
per sampler class.  This module defines that single API:

* :class:`Sampler` — the abstract base every system facade inherits.
  Lifecycle: :meth:`~Sampler.observe` / :meth:`~Sampler.observe_batch`
  ingest events, :meth:`~Sampler.advance` moves slotted time forward
  (a no-op for infinite-window samplers), :meth:`~Sampler.sample`
  returns a :class:`SampleResult`, and :meth:`~Sampler.stats` returns a
  :class:`SamplerStats`.  Persistence goes through
  :meth:`~Sampler.state_dict` / :meth:`~Sampler.load_state` plus the
  :attr:`~Sampler.config` property, which together let
  :mod:`repro.core.snapshot` checkpoint and restore *any* registered
  variant without knowing its class.
* :class:`SampleResult` — a frozen value object carrying the sample
  items, their ``(hash, item)`` pairs, the acceptance threshold, and
  window metadata.  It behaves as a read-only sequence of items so that
  existing comparisons against plain lists keep working.
* :class:`SamplerStats` — uniform cost accounting: messages by
  direction, bytes, per-site memory, and slots processed.
* :class:`SamplerConfig` — the declarative construction recipe consumed
  by :func:`repro.core.api.make_sampler`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.message import MessageKind
from ..netsim.network import MessageStats, Network
from .events import EventBatch

if TYPE_CHECKING:  # runtime.topology imports this module back at call time
    from ..runtime.topology import Topology

__all__ = [
    "SampleResult",
    "SamplerStats",
    "SamplerConfig",
    "Sampler",
    "EXECUTORS",
]

_INF = float("inf")

#: Execution backend names accepted by ``SamplerConfig.executor`` (see
#: :mod:`repro.runtime.executor` for the implementations).
EXECUTORS = ("serial", "shm")


# ---------------------------------------------------------------------------
# Value objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleResult:
    """The current sample, uniformly shaped across every variant.

    Attributes:
        items: Sample members, ascending by hash.  Without-replacement
            samples hold ``min(s, d)`` distinct items; with-replacement
            samples hold exactly ``s`` slots whose entries may be None
            while a copy has not yet seen an element.
        pairs: ``(hash, item)`` pairs for the members whose hash is
            known, ascending by hash (with-replacement: one pair per
            non-empty copy).
        threshold: The acceptance threshold ``u`` that a new element's
            hash must undercut to be reported (None when the variant has
            no single global threshold, e.g. with-replacement).
        sample_size: The configured sample size ``s``.
        window: Window size in slots, or None for infinite-window.
        slot: The slot the sample is current for (None before any
            slotted time exists / for infinite-window samplers).
        with_replacement: Whether items are independent draws.

    The object is also a read-only sequence over ``items`` and compares
    equal to plain lists/tuples of the same items, so pre-protocol call
    sites (``system.sample() == [...]``) keep working.
    """

    items: tuple[Any, ...]
    pairs: tuple[tuple[float, Any], ...] = ()
    threshold: Optional[float] = None
    sample_size: int = 1
    window: Optional[int] = None
    slot: Optional[int] = None
    with_replacement: bool = False

    # -- sequence behaviour over ``items`` --------------------------------

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.items)

    def __contains__(self, item: Any) -> bool:
        return item in self.items

    def __getitem__(self, index: Any) -> Any:
        return self.items[index]

    def __bool__(self) -> bool:
        return bool(self.items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SampleResult):
            return self.items == other.items and self.pairs == other.pairs
        if isinstance(other, (list, tuple)):
            return list(self.items) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.items)

    @property
    def first(self) -> Optional[Any]:
        """The minimum-hash member, or None if the sample is empty."""
        return self.items[0] if self.items else None


@dataclass(frozen=True)
class SamplerStats:
    """Uniform cost accounting across every sampler variant.

    Attributes:
        messages_total: All messages exchanged so far (the paper's cost
            metric).
        messages_to_coordinator: Site → coordinator messages.
        messages_to_sites: Coordinator → site messages.
        bytes_total: Sum of message sizes.
        per_site_memory: Current memory footprint per site, in stored
            entries (candidate-set sizes for sliding variants; 1 scalar
            threshold for infinite-window sites; summed across copies
            for with-replacement samplers).
        slots_processed: Distinct time slots advanced through (0 for a
            sampler that was never driven with slots).
    """

    messages_total: int
    messages_to_coordinator: int
    messages_to_sites: int
    bytes_total: int
    per_site_memory: tuple[int, ...]
    slots_processed: int

    @property
    def num_sites(self) -> int:
        """Number of sites k."""
        return len(self.per_site_memory)

    @property
    def memory_total(self) -> int:
        """Total entries held across all sites."""
        return sum(self.per_site_memory)


@dataclass(frozen=True)
class SamplerConfig:
    """Declarative recipe for :func:`repro.core.api.make_sampler`.

    Snapshots written by earlier releases also record a ``structure``
    field (the s = 1 sites' candidate store, now always
    :class:`~repro.structures.dominance.SortedDominanceSet`);
    :func:`repro.core.snapshot.restore` drops it.

    Attributes:
        variant: Registry key (see ``repro.core.api.sampler_variants()``):
            ``"infinite"``, ``"sliding"`` (Algorithms 3–4 at ``s = 1``,
            their lazy-feedback generalization at ``s > 1``),
            ``"sliding-local-push"``, ``"with-replacement"``,
            ``"broadcast"``, or ``"caching"``, plus the ``"sharded:*"``
            wrappers.  Snapshots naming the retired
            ``"sliding-feedback"`` restore as ``"sliding"`` (see
            :mod:`repro.core.snapshot`).
        num_sites: Number of distributed sites k (>= 1).
        sample_size: Sample size s (>= 1).
        window: Window size w in slots; 0 means infinite window.
            Sliding variants require ``window >= 1``.
        seed: Hash seed (fix it for reproducible runs).
        algorithm: Hash algorithm name (see ``repro.hashing``).
        coordinator_mode: ``"exact"``/``"paper"`` for the s = 1 sliding
            system (see :mod:`repro.core.sliding`).
        cache_size: Per-site LRU capacity for the ``"caching"`` variant
            (None selects the variant default, ``sample_size``).
        shards: Number of independent coordinator groups S (>= 1).  Only
            ``sharded:*`` variants accept ``shards > 1`` (see
            :mod:`repro.runtime.sharded`).
        executor: Execution backend for the sharded batch-ingest path
            (see :data:`EXECUTORS` and :mod:`repro.runtime.executor`):
            ``"serial"`` (in-process, the default) or ``"shm"``
            (persistent worker processes over zero-copy shared-memory
            columns).  ``"shm"`` applies to ``sharded:*`` variants only.
        workers: Worker-process count W for the ``"shm"`` executor
            (0 = auto); ignored by the serial executor.
    """

    variant: str = "infinite"
    num_sites: int = 1
    sample_size: int = 1
    window: int = 0
    seed: int = 0
    algorithm: str = "murmur2"
    coordinator_mode: str = "exact"
    cache_size: Optional[int] = None
    shards: int = 1
    executor: str = "serial"
    workers: int = 0

    def validate(self) -> "SamplerConfig":
        """Check variant-independent invariants; returns self.

        Raises:
            ConfigurationError: On any out-of-range field.
        """
        if self.num_sites < 1:
            raise ConfigurationError(
                f"num_sites must be >= 1, got {self.num_sites}"
            )
        if self.sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {self.sample_size}"
            )
        if self.window < 0:
            raise ConfigurationError(f"window must be >= 0, got {self.window}")
        if self.cache_size is not None and self.cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable), used by snapshots."""
        return asdict(self)


# ---------------------------------------------------------------------------
# State-dict encoding helpers (JSON-safe, no pickle)
# ---------------------------------------------------------------------------


def encode_expiry(value: float) -> Optional[float]:
    """Encode an expiry stamp; ``inf`` becomes None for strict JSON."""
    return None if value == _INF else value


def decode_expiry(value: Optional[float]) -> float:
    """Inverse of :func:`encode_expiry`."""
    return _INF if value is None else value


def revive_element(element: Any) -> Any:
    """Undo JSON's tuple→list coercion for tuple-valued elements."""
    if isinstance(element, list):
        return tuple(revive_element(item) for item in element)
    return element


def parse_counter(value: Any) -> int:
    """A persisted event counter: a non-negative ``int`` (not a bool).

    Raises:
        TypeError, ValueError: For anything else.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"counter {value!r} is not an int")
    if value < 0:
        raise ValueError(f"counter {value} is negative")
    return value


def parse_slot(value: Any) -> Optional[int]:
    """A persisted slot: None (never slotted) or a plain ``int``.

    Raises:
        TypeError: For a bool, a float, a string or anything else.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"slot {value!r} is not an int")
    return value


def parse_threshold(value: Any) -> float:
    """A persisted threshold or sample hash: a number in ``[0, 1]`` (NaN
    rejected).

    Raises:
        TypeError, ValueError: For anything else.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"threshold {value!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"threshold {value!r} is not in [0, 1]")
    return float(value)


def stats_state(network: Network) -> dict[str, Any]:
    """Capture a network's message counters as a JSON-safe dict."""
    stats = network.stats
    return {
        "total_messages": stats.total_messages,
        "total_bytes": stats.total_bytes,
        "site_to_coordinator": stats.site_to_coordinator,
        "coordinator_to_site": stats.coordinator_to_site,
        "by_kind": {kind.name: count for kind, count in stats.by_kind.items()},
    }


def parse_stats_state(state: dict[str, Any]) -> MessageStats:
    """The counters captured by :func:`stats_state`, as fresh stats."""
    stats = MessageStats(
        total_messages=parse_counter(state["total_messages"]),
        total_bytes=parse_counter(state["total_bytes"]),
        site_to_coordinator=parse_counter(state["site_to_coordinator"]),
        coordinator_to_site=parse_counter(state["coordinator_to_site"]),
    )
    for name, count in state["by_kind"].items():
        stats.by_kind[MessageKind[name]] = parse_counter(count)
    return stats


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------

#: An ingestion event: ``(site_id, item)`` delivered at the current slot,
#: or ``(site_id, item, slot)`` advancing time first.
Event = Union[tuple[Any, ...], Sequence[Any]]


class Sampler(ABC):
    """Abstract base class for every distributed sampler facade.

    Single-group facades build a :class:`~repro.runtime.topology.Topology`
    and call :meth:`_init_runtime` at the end of their ``__init__``;
    composite facades (with-replacement copies, sharded groups) own no
    topology of their own and call :meth:`_init_protocol` directly,
    overriding :meth:`message_stats`.  Subclasses implement the small
    hook surface (:meth:`_deliver`, :meth:`_advance_to`, :meth:`sample`,
    :meth:`config`, :meth:`_state`, :meth:`_load`, and optionally
    :meth:`_deliver_columns`); the base class provides the uniform
    lifecycle and accounting on top.
    """

    # -- construction ------------------------------------------------------

    def _init_protocol(self) -> None:
        """Initialize the lifecycle bookkeeping (call last in __init__)."""
        self._last_slot: Optional[int] = None
        self._slots_processed = 0

    def _init_runtime(self, topology: "Topology") -> None:
        """Adopt a wired :class:`~repro.runtime.topology.Topology`.

        The topology becomes the canonical owner of the transport and the
        node roster; :attr:`network`, :attr:`coordinator`, and
        :attr:`sites` read through it.
        """
        self.topology = topology
        self._init_protocol()

    # -- runtime delegation ------------------------------------------------

    @property
    def network(self) -> Network:
        """The topology's transport (canonical; settable for rewiring)."""
        return self.topology.network

    @network.setter
    def network(self, network: Network) -> None:
        # DelayedNetwork.rewire swaps the transport under a live system;
        # routing the assignment through the topology keeps it canonical.
        self.topology.adopt_network(network)

    @property
    def coordinator(self) -> Any:
        """The topology's coordinator node."""
        return self.topology.coordinator

    @property
    def sites(self) -> list[Any]:
        """The topology's site roster, indexed by site id."""
        return self.topology.sites

    # -- lifecycle ---------------------------------------------------------

    def observe(self, site_id: int, item: Any, *, slot: Optional[int] = None) -> None:
        """Deliver ``item`` to site ``site_id``.

        Args:
            site_id: Destination site (0-based).
            item: The stream element.
            slot: Optional slot stamp; when given, time is advanced to
                ``slot`` (as by :meth:`advance`) before delivery.
        """
        if slot is not None:
            self.advance(slot)
        self._deliver(site_id, item)

    def observe_batch(self, events: Iterable[Event]) -> int:
        """Deliver a batch of events; returns the number delivered.

        Each event is ``(site_id, item)`` — delivered at the current
        slot — or ``(site_id, item, slot)``, as for :meth:`observe`.
        The list becomes one :class:`~repro.core.events.EventBatch`
        (:meth:`~repro.core.events.EventBatch.from_events`) and takes
        :meth:`observe_columns`; a batch passes straight through.
        """
        batch = (
            events
            if isinstance(events, EventBatch)
            else EventBatch.from_events(events)
        )
        return self.observe_columns(batch)

    def observe_columns(self, batch: EventBatch) -> int:
        """Deliver a columnar batch; returns the number delivered.

        Replays the batch run by run: each same-slot run advances to its
        slot (when stamped), then :meth:`_deliver_columns` delivers it.
        A non-monotone stamp raises once the earlier runs are delivered,
        exactly as a loop of :meth:`observe` calls would.
        """
        batch.require_sites()
        for slot, run in batch.slot_runs():
            if slot is not None:
                self.advance(slot)
            self._deliver_columns(run)
        return len(batch)

    def report_bound(self) -> Optional[float]:
        """An upper bound on every site's report threshold, or None.

        A sampler returns a bound ``b`` only if a site reports an arrival
        only when its :attr:`sampling_hasher` hash is below the site's
        threshold ``u_i``, every ``u_i <= b``, and no ``u_i`` rises
        within a batch.  An arrival hashing at or above ``b`` then
        changes no state anywhere, and :meth:`reportable_rows` drops it
        before routing.  The default, None, fits every variant where
        each arrival can change state: the sliding family, and
        with-replacement, whose copies hash differently.
        """
        return None

    @property
    def sampling_hasher(self) -> UnitHasher:
        """The hash that :meth:`report_bound` bounds (samplers that return
        a bound only)."""
        raise NotImplementedError(f"{type(self).__name__} has no report bound")

    def reportable_rows(self, batch: EventBatch) -> Optional[npt.NDArray[np.intp]]:
        """The rows of ``batch`` a site could still report, or None for
        all of them.

        The filter at the top of the ingest pipeline: the rows of an
        unstamped batch whose sampling hash is below :meth:`report_bound`
        (one cached hash column, which the kept rows' ``select`` slices
        for the layers below).  Dropping the others is exact, since none
        of them could be reported later in the batch either.  A stamped
        batch is never filtered: every slot it names still advances, even
        one whose rows are all silent.
        """
        if batch.slots is not None:
            return None
        bound = self.report_bound()
        if bound is None or bound >= 1.0:
            return None
        rows = np.flatnonzero(batch.hash_column(self.sampling_hasher) < bound)
        return None if rows.size == len(batch) else rows

    def advance(self, slot: int) -> None:
        """Advance slotted time to ``slot`` and run boundary maintenance.

        Idempotent per slot; slots must be non-decreasing.  For
        infinite-window samplers this only tracks the slot counter.

        Raises:
            ProtocolError: If ``slot`` is before the current slot (time
                never rewinds in the synchronized-clock model).
        """
        slot = int(slot)
        if self._last_slot is not None:
            if slot < self._last_slot:
                raise ProtocolError(
                    f"slots must be non-decreasing: now at {self._last_slot}, "
                    f"got {slot}"
                )
            if slot == self._last_slot:
                return
        self._advance_to(slot)
        self._last_slot = slot
        self._slots_processed += 1

    @abstractmethod
    def sample(self) -> SampleResult:
        """The current sample as a :class:`SampleResult`."""

    def sample_columns(self) -> tuple[npt.NDArray[np.float64], list[Any]]:
        """The current sample as parallel columns, ascending by hash.

        Returns ``(hashes, items)`` where ``hashes`` is a float64 array
        and ``items`` the matching elements, both in the same ascending
        hash order :meth:`sample` reports.  This is the merge-side fast
        path for composite facades (:class:`~repro.runtime.sharded
        .ShardedSampler` concatenates the groups' columns and selects
        the global bottom-``s`` with array kernels instead of sorting
        tuples).  The default builds the columns from :meth:`sample`;
        cores whose sample store already holds a sorted backing list
        override it to slice that list directly.
        """
        pairs = self.sample().pairs
        if not pairs:
            return np.empty(0, dtype=np.float64), []
        hashes, items = zip(*pairs)
        return np.asarray(hashes, dtype=np.float64), list(items)

    def message_stats(self) -> MessageStats:
        """THE message-cost counters (canonical, via the runtime topology).

        Composite facades override this with an aggregate over their
        groups' topologies; every other cost accessor
        (:meth:`stats`, :attr:`total_messages`) derives from it.
        """
        return self.topology.message_stats()

    def stats(self) -> SamplerStats:
        """Uniform cost counters as a :class:`SamplerStats`."""
        stats = self.message_stats()
        return SamplerStats(
            messages_total=stats.total_messages,
            messages_to_coordinator=stats.site_to_coordinator,
            messages_to_sites=stats.coordinator_to_site,
            bytes_total=stats.total_bytes,
            per_site_memory=tuple(self._per_site_memory()),
            slots_processed=self._slots_processed,
        )

    # -- hooks -------------------------------------------------------------

    @abstractmethod
    def _deliver(self, site_id: int, item: Any) -> None:
        """Deliver one item to a site at the current slot."""

    def _deliver_columns(self, run: EventBatch) -> None:
        """Deliver one routed same-slot run at the current slot.

        The default delivers row by row through :meth:`_deliver`; cores
        override it to hash the run once (a cached column) and filter.
        """
        for site_id, item in zip(run.sites_list(), run.items_list()):
            self._deliver(site_id, item)

    def _advance_to(self, slot: int) -> None:
        """Move protocol time to ``slot`` (infinite window: nothing to do)."""

    def _per_site_memory(self) -> list[int]:
        """Per-site entry counts; sliding sites expose ``memory_size``."""
        return [getattr(site, "memory_size", 1) for site in self.sites]

    # -- introspection -----------------------------------------------------

    @property
    @abstractmethod
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` that reconstructs this sampler."""

    @property
    def current_slot(self) -> Optional[int]:
        """The last slot advanced to (None if never slotted)."""
        return self._last_slot

    @property
    def num_sites(self) -> int:
        """Number of sites k."""
        return len(self.sites)

    @property
    def total_messages(self) -> int:
        """Total messages exchanged so far (the paper's cost metric)."""
        return self.message_stats().total_messages

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Full logical state as a JSON-serializable dict (no pickle)."""
        return {
            "protocol": {
                "last_slot": self._last_slot,
                "slots_processed": self._slots_processed,
            },
            "network": stats_state(self.network),
            "system": self._state(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`.

        The lifecycle fields and message counters are parsed first and
        assigned only after :meth:`_load` succeeds, so a malformed state
        leaves them as they were.

        Raises:
            ConfigurationError: If the state dict is malformed.
        """
        try:
            protocol = state["protocol"]
            system = state["system"]
            last_slot = parse_slot(protocol["last_slot"])
            slots_processed = parse_counter(protocol["slots_processed"])
            stats = parse_stats_state(state["network"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(f"malformed sampler state: {exc}") from exc
        self._load(system)
        self._last_slot = last_slot
        self._slots_processed = slots_processed
        self.network.stats = stats

    @abstractmethod
    def _state(self) -> dict[str, Any]:
        """Variant-specific state (JSON-serializable)."""

    @abstractmethod
    def _load(self, state: dict[str, Any]) -> None:
        """Restore variant-specific state captured by :meth:`_state`."""
