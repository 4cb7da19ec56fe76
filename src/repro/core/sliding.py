"""Sliding-window distributed distinct sampling (paper Algorithms 3 & 4).

Maintains, over a time-based window of ``w`` slots, the live distinct
element with the *smallest hash* (the paper presents sample size ``s = 1``;
see :mod:`repro.core.sliding_feedback` for the ``s >= 1`` generalization,
:mod:`repro.core.sliding_general` for its one-way local-push ablation, and
:mod:`repro.core.with_replacement` for with-replacement samples of any
size).  :class:`SlidingFacadeBase` holds the facade plumbing all three
sliding systems share.

Protocol sketch (paper Section 4.1):

* Each **site** keeps a dominance-pruned candidate set ``T_i`` (everything
  that could still become the window minimum — expected size
  ``O(log |D_i|)`` by Lemma 10) plus its view ``(e_i, u_i, t_i)`` of the
  global sample: element, hash, and the slot at which it *expires*.
* On an arrival ``e`` at slot ``t``: refresh/insert ``(e, t + w)`` in
  ``T_i``; report to the coordinator iff ``h(e) < u_i``.
* The **coordinator** keeps one ``(e*, u*, t*)``.  A report replaces it iff
  the reported hash is smaller **or** the current sample has expired; the
  reply always carries the (possibly new) global sample *and its expiry* —
  the lazy-feedback trick that lets every synced site wake up exactly when
  the global sample dies, instead of requiring a broadcast.
* At each slot boundary a site whose view has expired (``t_i <= now``)
  falls back to its local candidate set: it selects the min-hash entry of
  ``T_i``, pushes it, and adopts the coordinator's reply.

Expiry convention: an element observed at slot ``t`` is live for queries at
slots ``t .. t+w-1`` and carries expiry stamp ``t + w``; "live at ``now``"
means ``expiry > now``.  (The thesis' pseudocode is off by one against its
own window definition ``S_i^w(t) = arrivals in (t-w, t]``; we follow the
definition.)

**Coordinator modes — a reproduction finding.**  Algorithm 4 as printed
keeps a *single* tuple ``(e*, t*)``.  That loses information: if the
coordinator abandons sample ``a`` for a smaller-hash report ``b`` whose
expiry is *earlier* (``b`` arrived before ``a`` did — e.g. a fallback push
of an older element), then when ``b`` dies only sites synced to ``b`` wake
up; ``a`` survives solely at its observing site, which sleeps until ``a``'s
own expiry — so for a period the coordinator serves a live but
*non-minimal* element, i.e. not the defined distinct sample.  (The thesis
proves space and message bounds for this algorithm but never a sliding-
window correctness lemma; the gap is real and our differential tests
trigger it within a few hundred slots.)  The repair is the paper's own
device one level up: the coordinator keeps a *dominance set* of reported
entries (expected size ``O(log d_w)``) instead of one tuple.  Both variants
are provided:

* ``coordinator_mode="exact"`` (default) — dominance-set coordinator;
  after each slot's processing the sample provably equals the minimum-hash
  live distinct element (the tests check this against a brute-force
  oracle at every slot).
* ``coordinator_mode="paper"`` — the literal Algorithm 4 single tuple;
  the sample is always a *live* window element and re-synchronizes at
  fallback storms, but can transiently be non-minimal.

Message costs of the two modes are nearly identical (see the
``ablation_sync`` experiment); the figures use ``exact``.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.clock import SlotClock
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology
from ..structures.dominance import DominanceEntry, SortedDominanceSet
from .events import EventBatch
from .protocol import (
    Sampler,
    SampleResult,
    SamplerConfig,
    decode_expiry,
    encode_expiry,
    parse_counter,
    parse_slot,
    parse_threshold,
    revive_element,
)

if TYPE_CHECKING:
    from ..streams.partition import HashDistributor

__all__ = [
    "SlidingFacadeBase",
    "SlidingWindowSite",
    "SlidingWindowCoordinator",
    "SlidingWindowSystem",
]

_INF = math.inf


def require_positive(**values: int) -> None:
    """Raise :class:`ConfigurationError` unless every value is >= 1."""
    for name, value in values.items():
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")


def _rows(candidates) -> Optional[list[list[Any]]]:
    """A candidate set as JSON-safe ``[element, expiry, hash]`` rows."""
    if candidates is None:
        return None
    return [[e.element, e.expiry, e.hash] for e in candidates.entries()]


def _load_rows(candidates, rows: Optional[list[list[Any]]]) -> None:
    """Fill a fresh node's ``candidates`` set with snapshot ``rows`` (the
    inverse of :func:`_rows`), validating every row before one batch
    :meth:`~repro.structures.dominance.DominanceSet.load`.

    Raises:
        TypeError: For a row whose expiry is not a plain ``int``.
        ValueError: For a row whose hash is not a float in ``[0, 1)``
            (NaN and infinities included), rows that repeat an element,
            or rows for a node without a candidate set.
    """
    if candidates is None:
        if rows is not None:
            raise ValueError("entries given for a node without a candidate set")
        return
    parsed = []
    for element, expiry, h in rows:
        h = float(h)
        if not 0.0 <= h < 1.0:
            raise ValueError(f"entry hash {h!r} is not in [0, 1)")
        parsed.append((revive_element(element), _parse_expiry(expiry), h))
    candidates.load(parsed)


def _parse_expiry(value: Any) -> int:
    """A persisted row expiry: a plain ``int``, as :func:`parse_slot`
    reads a slot (``int()`` would turn 8.9 into 8 and ``"7"`` into 7).
    One type test, since restores parse every candidate row.

    Raises:
        TypeError: For None, a bool, a float, a string or anything else.
    """
    if type(value) is not int:
        raise TypeError(f"expiry {value!r} is not an int")
    return value


def expiry_rows(record: dict[Any, int]) -> list[list[Any]]:
    """An ``element -> expiry`` record as JSON-safe ``[element, expiry]``
    rows, in the record's insertion order."""
    return [[element, expiry] for element, expiry in record.items()]


def expiry_record(rows) -> dict[Any, int]:
    """The inverse of :func:`expiry_rows`; expiries parse strictly."""
    return {
        revive_element(element): _parse_expiry(expiry) for element, expiry in rows
    }


def _adopt(node: Any, parsed: Any) -> None:
    """Move every field of ``parsed``, a fresh twin built by the same
    factory, onto the live ``node``."""
    for name in type(node).__slots__:
        setattr(node, name, getattr(parsed, name))


class SlidingFacadeBase(Sampler):
    """Shared facade plumbing for the sliding-window systems.

    The ``s = 1`` system (:class:`SlidingWindowSystem`), its general-``s``
    generalization (:mod:`repro.core.sliding_feedback`) and the one-way
    local-push ablation (:mod:`repro.core.sliding_general`) differ only in
    their protocol nodes.  Validation, the slot clock, delivery with its
    columnar fast path, the bottom-``s`` query, the snapshot layout and
    the resharding hook are identical and live here.

    Candidate sets prune lazily (:mod:`repro.structures.dominance`).  The
    columnar path settles every site and coordinator set once at the end
    of each delivered same-slot run, so the deferred sweeps are paid
    inside ingest and a checkpoint reads clean sets.

    Subclasses implement :meth:`_make_coordinator` and :meth:`_make_site`
    and persist their own node fields through :meth:`_site_state` /
    :meth:`_load_site` (plus :meth:`_coordinator_state` /
    :meth:`_load_coordinator` where the coordinator has any); a restore
    loads into fresh nodes from the two factories, so node fields live
    in ``__slots__``.  Nodes
    expose ``candidates`` (a dominance set; None for a coordinator that
    keeps none), ``reports_received`` / :attr:`SITE_COUNTERS`, site
    ``observe_hashed(element, h, now, network)`` and ``tick(now,
    network)``, and coordinator ``absorb(element, h, expiry)`` and
    ``sample_entries(now)``.

    Args:
        num_sites: Number of sites k.
        window: Window size w in slots (>= 1).
        sample_size: Sample size s (>= 1).
        seed: Hash seed (ignored if ``hasher`` given).
        algorithm: Hash algorithm name.
        hasher: Optional shared pre-built hasher.
    """

    #: Registry name recorded in :attr:`config`.
    VARIANT = "sliding"
    #: State-dict key holding the current slot.
    CLOCK_KEY = "clock"
    #: Site attributes counting protocol events: persisted with the site,
    #: and kept as totals by a reshard.
    SITE_COUNTERS: tuple[str, ...] = ("reports_sent", "fallbacks")
    #: When a same-slot repeat of a ``(site, element)`` pair is dropped
    #: before delivery: ``"always"``, ``"never"``, or ``"synchronous"``
    #: (only while every reply lands before the next delivery, i.e. on a
    #: synchronous network).  Each subclass documents why its rule is
    #: exact; the batch-equivalence tests check it against the event loop.
    SAME_SLOT_REPEATS = "never"

    def __init__(
        self,
        num_sites: int,
        window: int,
        sample_size: int = 1,
        seed: int = 0,
        algorithm: str = "murmur2",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        require_positive(window=window, sample_size=sample_size)
        self.hasher = hasher if hasher is not None else UnitHasher(seed, algorithm)
        self.window = window
        self.sample_size = sample_size
        self.clock = SlotClock(0)
        self._init_runtime(
            Topology.build(
                coordinator=self._make_coordinator(),
                site_factory=self._make_site,
                num_sites=num_sites,
            )
        )

    @abstractmethod
    def _make_coordinator(self) -> Any:
        """Build the coordinator node (``self.clock`` already exists)."""

    @abstractmethod
    def _make_site(self, site_id: int) -> Any:
        """Build the site node at address ``site_id``."""

    # -- protocol hooks ----------------------------------------------------

    def _advance_to(self, slot: int) -> None:
        """Slot boundary: advance the clock and run site maintenance."""
        self.clock.advance_to(slot)
        network = self.network
        for site in self.sites:
            site.tick(slot, network)

    def _deliver(self, site_id: int, element: Any) -> None:
        """Deliver an arrival at the current slot."""
        self.sites[site_id].observe_hashed(
            element, self.hasher.unit(element), self.clock.now, self.network
        )

    def _drops_repeats(self) -> bool:
        """Whether :attr:`SAME_SLOT_REPEATS` applies on this network."""
        rule = self.SAME_SLOT_REPEATS
        return rule == "always" or (
            rule == "synchronous" and self.network.synchronous
        )

    def _deliver_columns(self, run: EventBatch) -> None:
        """Deliver one same-slot run with its cached hash column, first
        dropping exact ``(site, element)`` repeats where
        :attr:`SAME_SLOT_REPEATS` allows."""
        if not len(run):
            return
        hashes = run.hash_column(self.hasher).tolist()
        site_ids = run.sites_list()
        items = run.items_list()
        if self._drops_repeats():
            first = run.first_occurrence_indices().tolist()
            site_ids = [site_ids[j] for j in first]
            items = [items[j] for j in first]
            hashes = [hashes[j] for j in first]
        now = self.clock.now
        network = self.network
        sites = self.sites
        for site_id, item, h in zip(site_ids, items, hashes):
            sites[site_id].observe_hashed(item, h, now, network)
        self._settle()

    def _settle(self) -> None:
        """Run every candidate set's pending dominance sweep (one per set)."""
        candidates = self.coordinator.candidates
        if candidates is not None:
            candidates.settle()
        for site in self.sites:
            site.candidates.settle()

    def sample(self) -> SampleResult:
        """The current window's bottom-s distinct sample."""
        entries = self.coordinator.sample_entries(self.clock.now)
        threshold = (
            entries[-1].hash if len(entries) == self.sample_size else 1.0
        )
        return SampleResult(
            items=tuple(entry.element for entry in entries),
            pairs=tuple((entry.hash, entry.element) for entry in entries),
            threshold=threshold,
            sample_size=self.sample_size,
            window=self.window,
            slot=self.current_slot,
        )

    def per_site_memory(self) -> list[int]:
        """Current candidate-set sizes, one per site (Fig 5.7/5.9 metric)."""
        return self._per_site_memory()

    # -- protocol: construction recipe + persistence -----------------------

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant=self.VARIANT,
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            window=self.window,
            seed=self.hasher.seed,
            algorithm=self.hasher.algorithm,
        )

    def _state(self) -> dict[str, Any]:
        coordinator = self.coordinator
        # A sample read expires the coordinator's dead entries; do the
        # same here, so a snapshot is the same whether a read ran first.
        coordinator.sample_entries(self.clock.now)
        return {
            self.CLOCK_KEY: self.clock.now,
            "coordinator": {
                "reports_received": coordinator.reports_received,
                **self._coordinator_state(coordinator),
                "entries": _rows(coordinator.candidates),
            },
            "sites": [
                {
                    "entries": _rows(site.candidates),
                    **self._site_state(site),
                    **{name: getattr(site, name) for name in self.SITE_COUNTERS},
                }
                for site in self.sites
            ],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output whose clock agrees with its
        ``protocol.last_slot`` and is not negative.

        Every windowed variant keeps the slot clock at the last slot
        advanced to: a fresh sampler has ``last_slot`` None and clock 0,
        and after ``advance(7)`` both read 7.  The clock starts at 0 and
        never moves back (a fresh ``advance(-3)`` raises
        :class:`~repro.errors.ProtocolError`), so no such slot is
        negative.  A state that breaks either rule would load, and then
        its next ``advance`` could move the clock backwards.

        Raises:
            ConfigurationError: For a clock that is not
                ``protocol.last_slot`` (0 when that is None), a negative
                slot, or as :meth:`~repro.core.protocol.Sampler.load_state`
                does; the sampler is left untouched.
        """
        try:
            last_slot = parse_slot(state["protocol"]["last_slot"])
            now = parse_slot(state["system"][self.CLOCK_KEY])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sampler state: {exc!r}") from exc
        expected = 0 if last_slot is None else last_slot
        if now != expected:
            raise ConfigurationError(
                f"malformed sampler state: clock {now!r} disagrees with "
                f"protocol.last_slot {last_slot!r}"
            )
        if now < 0:
            raise ConfigurationError(
                f"malformed sampler state: slot {now} is before the clock's "
                "start at 0"
            )
        super().load_state(state)

    def _load(self, state: dict[str, Any]) -> None:
        """Restore :meth:`_state` output.  The clock is *set*, so an
        earlier checkpoint rewinds a live system.

        Every node is parsed into a fresh twin from :meth:`_make_site` /
        :meth:`_make_coordinator` first, and the live nodes take the
        parsed fields only once all of them have parsed, so a malformed
        state leaves the system untouched.

        Raises:
            ConfigurationError: For missing keys, wrong types, or a site
                list of the wrong length.
        """
        try:
            now = parse_slot(state[self.CLOCK_KEY])
            if now is None:
                raise TypeError("clock is None")
            coord_state = state["coordinator"]
            coordinator = self._make_coordinator()
            coordinator.reports_received = parse_counter(
                coord_state["reports_received"]
            )
            _load_rows(coordinator.candidates, coord_state["entries"])
            self._load_coordinator(coordinator, coord_state)
            site_states = list(state["sites"])
            if len(site_states) != self.num_sites:
                raise ValueError(
                    f"expected {self.num_sites} sites, got {len(site_states)}"
                )
            sites = []
            for live, site_state in zip(self.sites, site_states):
                site = self._make_site(live.site_id)
                _load_rows(site.candidates, site_state["entries"])
                self._load_site(site, site_state)
                for name in self.SITE_COUNTERS:
                    setattr(site, name, parse_counter(site_state[name]))
                sites.append(site)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(
                f"malformed {self.VARIANT} state: {exc!r}"
            ) from exc
        self.clock.reset_to(now)
        _adopt(self.coordinator, coordinator)
        for live, site in zip(self.sites, sites):
            _adopt(live, site)

    def _coordinator_state(self, coordinator: Any) -> dict[str, Any]:
        """Coordinator fields beyond its counter and candidates."""
        return {}

    def _load_coordinator(self, coordinator: Any, state: dict[str, Any]) -> None:
        """Restore :meth:`_coordinator_state` output into ``coordinator``."""

    @abstractmethod
    def _site_state(self, site: Any) -> dict[str, Any]:
        """A site's protocol fields beyond its candidates and counters."""

    @abstractmethod
    def _load_site(self, site: Any, state: dict[str, Any]) -> None:
        """Restore :meth:`_site_state` output into ``site``."""

    # -- elastic resharding ------------------------------------------------

    @staticmethod
    def repartition(
        groups: Sequence["SlidingFacadeBase"],
        targets: Sequence["SlidingFacadeBase"],
        router: "HashDistributor",
    ) -> None:
        """Seed freshly built ``targets`` with the live state of ``groups``.

        The hook behind :mod:`repro.runtime.reshard`.  An entry pruned by
        s-dominance had s smaller-hash, later-expiry entries in its old
        group, so while it is live it is never in the *global* bottom-s:
        re-partitioning the surviving entries preserves the facade-level
        merge at every future slot, even though a single group's
        restricted sample may differ from a from-scratch run's.  Survivor
        sets are insertion-order independent, so every entry still live
        at the groups' latest slot goes to the target ``router`` assigns
        it: its coordinator absorbs coordinator and site entries alike
        (knowing more live entries than a from-scratch run is safe:
        queries take the bottom-s of the live set either way), and a site
        entry also lands at the same-index target site, keeping physical
        locality.  Target sites keep their fresh report-everything state,
        which costs a transient burst of extra reports and loses nothing,
        and the groups' event counters land, summed, on ``targets[0]``.
        """
        route = router.assign_one
        now = max(group.clock.now for group in groups)
        for target in targets:
            target.clock.reset_to(now)
        for group in groups:
            coordinator = group.coordinator
            retained = (
                coordinator.sample_entries(now)
                if coordinator.candidates is None
                else coordinator.candidates.entries()
            )
            for entry in retained:
                if entry.expiry > now:
                    targets[route(entry.element)].coordinator.absorb(
                        entry.element, entry.hash, entry.expiry
                    )
        first = targets[0]
        for i, site in enumerate(first.sites):
            for group in groups:
                for entry in group.sites[i].candidates.entries():
                    if entry.expiry > now:
                        target = targets[route(entry.element)]
                        target.coordinator.absorb(
                            entry.element, entry.hash, entry.expiry
                        )
                        target.sites[i].candidates.observe(
                            entry.element, entry.expiry, entry.hash
                        )
            for name in first.SITE_COUNTERS:
                setattr(
                    site,
                    name,
                    sum(getattr(group.sites[i], name) for group in groups),
                )
        first.coordinator.reports_received = sum(
            group.coordinator.reports_received for group in groups
        )


class SlidingWindowSite:
    """Algorithm 3: the per-site sliding-window protocol.

    The candidate set ``T_i`` is a :class:`SortedDominanceSet` of order 1,
    which keeps exactly the entries of the paper's treap (see
    :mod:`repro.structures.dominance`).

    Args:
        site_id: Network address.
        window: Window size w in slots (>= 1).
    """

    __slots__ = (
        "site_id",
        "window",
        "candidates",
        "sample_element",
        "u_local",
        "sample_expiry",
        "reports_sent",
        "fallbacks",
    )

    def __init__(self, site_id: int, window: int) -> None:
        require_positive(window=window)
        self.site_id = site_id
        self.window = window
        self.candidates = SortedDominanceSet(1)
        self.sample_element: Optional[Any] = None
        self.u_local = 1.0
        self.sample_expiry: float = _INF
        self.reports_sent = 0
        self.fallbacks = 0

    @property
    def memory_size(self) -> int:
        """Current candidate-set size |T_i| (the paper's memory metric)."""
        return len(self.candidates)

    def tick(self, now: int, network: Network) -> None:
        """Slot-boundary maintenance (Algorithm 3 lines 21-25).

        If the site's view of the global sample has expired, fall back to
        the local candidate set: select the min-hash live entry, adopt it
        provisionally, and push it to the coordinator (whose reply, handled
        synchronously, re-syncs ``(e_i, u_i, t_i)`` to the global sample).
        """
        if self.sample_expiry > now:
            return
        self.fallbacks += 1
        self.candidates.expire(now)
        entry = self.candidates.min_entry()
        if entry is None:
            # Nothing live locally; accept the next arrival unconditionally.
            self.sample_element = None
            self.u_local = 1.0
            self.sample_expiry = _INF
            return
        self.sample_element = entry.element
        self.u_local = entry.hash
        self.sample_expiry = entry.expiry
        self.reports_sent += 1
        network.send(
            self.site_id,
            COORDINATOR,
            MessageKind.SW_REPORT,
            (entry.element, entry.hash, entry.expiry, self.site_id),
        )

    def observe_hashed(
        self, element: Any, h: float, now: int, network: Network
    ) -> None:
        """Process an arrival in slot ``now`` with its precomputed hash
        (Algorithm 3 lines 3-15)."""
        expiry = now + self.window
        self.candidates.expire(now)
        self.candidates.observe(element, expiry, h)
        if h < self.u_local:
            self.reports_sent += 1
            network.send(
                self.site_id,
                COORDINATOR,
                MessageKind.SW_REPORT,
                (element, h, expiry, self.site_id),
            )

    def handle_message(self, message: Message, network: Network) -> None:
        """Adopt the coordinator's sample reply (Algorithm 3 lines 16-20)."""
        if message.kind is not MessageKind.SW_SAMPLE:
            raise ProtocolError(
                f"sliding-window site {self.site_id} cannot handle {message.kind!r}"
            )
        element, h, expiry = message.payload
        self.sample_element = element
        self.u_local = h
        self.sample_expiry = expiry
        # Algorithm 3 line 18: the global sample joins the local candidates,
        # pruning local entries it dominates (they can never be the global
        # minimum while it lives).
        self.candidates.observe(element, expiry, h)


class SlidingWindowCoordinator:
    """The coordinator's sliding-window protocol.

    Two modes (see the module docstring for the background):

    * ``"exact"`` — reported entries accumulate in a dominance set; the
      sample is its live minimum.  Replies carry that minimum and *its*
      expiry.
    * ``"paper"`` — the literal Algorithm 4 single tuple ``(e*, u*, t*)``,
      replaced iff a report hashes lower or the tuple has expired.

    Args:
        clock: Shared slot clock (used to detect sample expiry).
        mode: ``"exact"`` or ``"paper"``.
    """

    __slots__ = (
        "clock",
        "mode",
        "candidates",
        "sample_element",
        "u_star",
        "sample_expiry",
        "reports_received",
    )

    def __init__(self, clock: SlotClock, mode: str = "exact") -> None:
        if mode not in ("exact", "paper"):
            raise ConfigurationError(
                f"coordinator mode must be 'exact' or 'paper', got {mode!r}"
            )
        self.clock = clock
        self.mode = mode
        self.candidates = SortedDominanceSet(1) if mode == "exact" else None
        self.sample_element: Optional[Any] = None
        self.u_star = 1.0
        self.sample_expiry: float = -1.0  # expired from the start
        self.reports_received = 0

    def _refresh_exact(self, now: int) -> None:
        self.candidates.expire(now)
        entry = self.candidates.min_entry()
        if entry is None:
            self.sample_element = None
            self.u_star = 1.0
            self.sample_expiry = -1.0
        else:
            self.sample_element = entry.element
            self.u_star = entry.hash
            self.sample_expiry = entry.expiry

    def absorb(self, element: Any, h: float, expiry: int) -> None:
        """Merge one entry: into the dominance set (exact), or by Algorithm
        4's rule — replace iff it hashes lower or the tuple expired (paper)."""
        if self.candidates is not None:
            self.candidates.observe(element, expiry, h)
        elif self.sample_expiry <= self.clock.now or h < self.u_star:
            self.sample_element = element
            self.u_star = h
            self.sample_expiry = expiry

    def handle_message(self, message: Message, network: Network) -> None:
        """Absorb a site report; always reply with the global sample."""
        if message.kind is not MessageKind.SW_REPORT:
            raise ProtocolError(f"coordinator cannot handle {message.kind!r}")
        element, h, expiry, site_id = message.payload
        self.reports_received += 1
        self.absorb(element, h, expiry)
        if self.candidates is not None:
            self._refresh_exact(self.clock.now)
        network.send(
            COORDINATOR,
            site_id,
            MessageKind.SW_SAMPLE,
            (self.sample_element, self.u_star, self.sample_expiry),
        )

    def sample_entries(self, now: int) -> list[DominanceEntry]:
        """The window's distinct sample at slot ``now``: one entry, or none
        if the window is empty (or, in paper mode, the tuple expired with
        no replacement)."""
        if self.candidates is not None:
            self._refresh_exact(now)
        if self.sample_expiry <= now:
            return []
        return [DominanceEntry(self.sample_element, self.sample_expiry, self.u_star)]


class SlidingWindowSystem(SlidingFacadeBase):
    """Facade: k sliding-window sites + coordinator on one network (s = 1).

    Drive it slot by slot::

        system = SlidingWindowSystem(num_sites=10, window=100, seed=7)
        for slot, arrivals in schedule:          # arrivals: [(site, elem)]
            system.advance(slot)
            system.observe_batch(arrivals)
            sample = system.sample()             # SampleResult (s = 1)

    Args:
        num_sites: Number of sites k.
        window: Window size w in slots.
        seed: Hash seed (ignored if ``hasher`` given).
        algorithm: Hash algorithm name.
        coordinator_mode: ``"exact"`` (default, provably correct) or
            ``"paper"`` (literal Algorithm 4) — see the module docstring.
        hasher: Optional shared pre-built hasher.
    """

    #: For ``s = 1`` the site threshold ``u_i`` is non-increasing within a
    #: slot (every reply carries a hash no larger than the reported one),
    #: so a same-slot repeat can never report and its candidate refresh is
    #: a no-op.  That needs the reply to land *before* the repeat, so a
    #: delay-tolerant network keeps repeats: there the loop re-reports.
    SAME_SLOT_REPEATS = "synchronous"

    def __init__(
        self,
        num_sites: int,
        window: int,
        seed: int = 0,
        algorithm: str = "murmur2",
        coordinator_mode: str = "exact",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        self.coordinator_mode = coordinator_mode
        super().__init__(num_sites, window, 1, seed, algorithm, hasher)

    def _make_coordinator(self) -> SlidingWindowCoordinator:
        return SlidingWindowCoordinator(self.clock, self.coordinator_mode)

    def _make_site(self, site_id: int) -> SlidingWindowSite:
        return SlidingWindowSite(site_id, self.window)

    @property
    def config(self) -> SamplerConfig:
        """The base recipe plus the coordinator mode."""
        return replace(super().config, coordinator_mode=self.coordinator_mode)

    def _coordinator_state(
        self, coordinator: SlidingWindowCoordinator
    ) -> dict[str, Any]:
        return {
            "sample": [
                coordinator.sample_element,
                coordinator.u_star,
                encode_expiry(coordinator.sample_expiry),
            ]
        }

    def _load_coordinator(
        self, coordinator: SlidingWindowCoordinator, state: dict[str, Any]
    ) -> None:
        element, u_star, expiry = state["sample"]
        coordinator.sample_element = revive_element(element)
        coordinator.u_star = parse_threshold(u_star)
        # -1.0 marks a coordinator without a live sample; JSON keeps it a
        # float, and every expiry it ever holds otherwise is an int.
        if not (type(expiry) is float and expiry == -1.0):
            expiry = _parse_expiry(expiry)
        coordinator.sample_expiry = expiry

    def _site_state(self, site: SlidingWindowSite) -> dict[str, Any]:
        return {
            "sample_element": site.sample_element,
            "u_local": site.u_local,
            "sample_expiry": encode_expiry(site.sample_expiry),
        }

    def _load_site(self, site: SlidingWindowSite, state: dict[str, Any]) -> None:
        site.sample_element = revive_element(state["sample_element"])
        site.u_local = parse_threshold(state["u_local"])
        site.sample_expiry = decode_expiry(parse_slot(state["sample_expiry"]))
