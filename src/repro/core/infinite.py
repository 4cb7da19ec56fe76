"""Infinite-window distributed distinct sampling (paper Algorithms 1 & 2).

The sample is defined as the elements achieving the ``s`` smallest values
of a shared hash ``h : U -> [0,1)`` over all distinct elements observed
anywhere — a *bottom-s* sketch of the union stream.  Distributively:

* The **coordinator** (Algorithm 2) keeps the sample ``P`` (a
  :class:`~repro.structures.bottomk.BottomK`) and the threshold
  ``u`` = ``s``-th smallest hash seen so far (1.0 until ``s`` distinct
  elements have been seen).
* Each **site** (Algorithm 1) keeps a single float ``u_i`` — its *lazily
  synchronized* view of ``u``.  It reports an element iff ``h(e) < u_i``;
  every report is answered with the fresh ``u``, so ``u_i >= u`` always
  (``u`` never increases in the infinite-window case).

Every site→coordinator report triggers exactly one coordinator→site reply,
so total messages = 2 × reports, matching the paper's accounting
(Equation 3.1).

Implementation notes:

* **Threshold nuance.**  Algorithm 2 as printed updates ``u`` only when
  ``|P| > s`` forces an eviction, leaving ``u = 1`` when ``|P| == s``.
  Lemma 1's proof instead characterizes ``u`` as *the min(s,d)-th smallest
  hash seen so far*, which equals ``max{h(f) | f in P}`` as soon as ``P``
  is full.  We implement the Lemma 1 semantics (the tighter threshold);
  it filters a few useless reports right after the sample fills and is
  required for the exactness property the tests check (coordinator sample
  ≡ centralized bottom-s at all times).
* **Duplicate reports.**  A repeat occurrence of an element that currently
  sits in the sample with ``h(e) < u`` *is* reported again (the site has
  O(1) memory and cannot remember having sent it).  For ``s = 1`` this
  never happens (``h(e) = u`` fails the strict test); for ``s > 1`` it is
  an inherent cost of Algorithms 1–2 as written, visible on duplicate-heavy
  streams.  The message-bound analysis (Lemma 2) counts first occurrences
  only; see ``analysis.bounds`` and EXPERIMENTS.md for the discussion.

:class:`BottomSFacadeBase` holds the facade plumbing this system shares
with the Broadcast baseline (:mod:`repro.core.broadcast`) and the
duplicate-suppressing core (:mod:`repro.core.caching`): construction,
hash-once delivery through the threshold pre-filter, the bottom-s
queries, the snapshot layout and resharding.  The three differ only in
their nodes.
"""

from __future__ import annotations

from abc import abstractmethod
from operator import itemgetter
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.message import COORDINATOR, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology
from ..structures.bottomk import BottomK
from .events import EventBatch
from .legacy import upgrade_bottom_s
from .protocol import (
    Sampler,
    SampleResult,
    SamplerConfig,
    parse_counter,
    parse_threshold,
    revive_element,
)

if TYPE_CHECKING:
    from ..streams.partition import HashDistributor

__all__ = [
    "BottomSFacadeBase",
    "InfiniteWindowSite",
    "InfiniteWindowCoordinator",
    "DistinctSamplerSystem",
]

#: Elements per threshold refresh in
#: :meth:`BottomSFacadeBase.process_batch` (any value yields identical
#: protocol behaviour).
PROCESS_CHUNK = 1024


def parse_site_list(rows: Any, num_sites: int) -> list[Any]:
    """A persisted per-site list: exactly one entry per site.

    Raises:
        TypeError, ValueError: For a non-list or a wrong length.
    """
    if not isinstance(rows, list):
        raise TypeError(f"per-site entries must be a list, got {type(rows).__name__}")
    if len(rows) != num_sites:
        raise ValueError(f"expected {num_sites} site entries, got {len(rows)}")
    return rows


class _ParsedSystem(NamedTuple):
    """A parsed :meth:`BottomSFacadeBase._state`: the fields its
    ``_load`` assigns to the live nodes."""

    store: BottomK
    counters: dict[str, int]
    site_fields: list[dict[str, Any]]


def _parse_systems(groups: Sequence[Any], states: Sequence[Any]) -> list[_ParsedSystem]:
    """Parse each group's :meth:`~BottomSFacadeBase._state` output,
    hashing the elements of every group's sample in one
    :meth:`~repro.core.events.EventBatch.hash_column` pass (the groups
    share one sampling hash).  A state in an earlier layout is first
    rewritten into the current one
    (:func:`~repro.core.legacy.upgrade_bottom_s`).  The groups are left
    untouched.

    Raises:
        ConfigurationError: For any state :meth:`BottomSFacadeBase._load`
            refuses.
    """
    sections = []
    elements: list[Any] = []
    for group, state in zip(groups, states):
        state = upgrade_bottom_s(state, group.hasher)
        try:
            sample, counters = group._load_coordinator(state)
            site_fields = group._load_sites(state)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed {group.VARIANT} state: {exc!r}"
            ) from exc
        sections.append((group, len(elements), sample, counters, site_fields))
        elements.extend(sample)
    try:
        hashes = EventBatch(elements).hash_column(groups[0].hasher).tolist()
    except TypeError as exc:
        raise ConfigurationError(
            f"malformed {groups[0].VARIANT} state: {exc}"
        ) from exc
    parsed = []
    for group, start, sample, counters, site_fields in sections:
        store = BottomK(group.sample_size)
        try:
            store.load(hashes[start : start + len(sample)], sample)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed {group.VARIANT} state: {exc}"
            ) from exc
        u = store.threshold()
        if any(fields["u_local"] < u for fields in site_fields):
            raise ConfigurationError(
                f"malformed {group.VARIANT} state: a site threshold is below "
                f"the coordinator's {u!r}, which it never undercuts"
            )
        parsed.append(_ParsedSystem(store, counters, site_fields))
    return parsed


class InfiniteWindowSite:
    """Algorithm 1: the per-site protocol.

    State is exactly one float, ``u_local`` — the site's view of the
    global threshold (paper: O(1) memory per site).  The facade hashes
    each arrival once and hands the site its hash.

    Args:
        site_id: This site's network address (0-based).
    """

    __slots__ = ("site_id", "u_local")

    #: The message kind that carries a fresh threshold to the site.
    FEEDBACK = MessageKind.THRESHOLD

    def __init__(self, site_id: int) -> None:
        self.site_id = site_id
        self.u_local = 1.0  # initialized to 1 (Algorithm 1 line 1)

    def observe_hashed(self, element: Any, h: float, network: Network) -> None:
        """Report ``element`` (whose hash is ``h``) iff ``h < u_local``."""
        if h < self.u_local:
            network.send(
                self.site_id, COORDINATOR, MessageKind.REPORT, (element, h, self.site_id)
            )

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        """Adopt the refreshed threshold (Algorithm 1 lines 5-6)."""
        if kind is not self.FEEDBACK:
            raise ProtocolError(f"site {self.site_id} cannot handle {kind!r}")
        self.u_local = payload


class InfiniteWindowCoordinator:
    """Algorithm 2: the coordinator protocol.

    Args:
        sample_size: Desired sample size s (>= 1).

    Raises:
        ConfigurationError: If ``sample_size < 1``.
    """

    __slots__ = ("sample_store", "reports_received", "reports_accepted")

    def __init__(self, sample_size: int) -> None:
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.sample_store = BottomK(sample_size)
        self.reports_received = 0
        self.reports_accepted = 0

    @property
    def threshold(self) -> float:
        """Current global threshold u (the min(s,d)-th smallest hash)."""
        return self.sample_store.threshold()

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        """Process a site report and always reply with the fresh u."""
        if kind is not MessageKind.REPORT:
            raise ProtocolError(f"coordinator cannot handle {kind!r}")
        element, h, site_id = payload
        self.reports_received += 1
        accepted, _evicted = self.sample_store.offer(h, element)
        if accepted:
            self.reports_accepted += 1
        # Algorithm 2 line 11: reply regardless of acceptance.
        network.send(
            COORDINATOR, site_id, MessageKind.THRESHOLD, self.sample_store.threshold()
        )

    def sample(self) -> list[Any]:
        """The current distinct sample (size min(s, d)), ascending by hash."""
        return self.sample_store.elements()

    def sample_pairs(self) -> list[tuple[float, Any]]:
        """The current ``(hash, element)`` pairs, ascending by hash."""
        return self.sample_store.pairs()


class BottomSFacadeBase(Sampler):
    """Shared facade plumbing for the infinite-window bottom-s systems.

    Algorithms 1–2 (:class:`DistinctSamplerSystem`), the Broadcast
    baseline and the caching core differ only in their nodes: the site
    trigger and the coordinator's feedback policy.  Construction,
    hash-once delivery with its threshold pre-filter, the bottom-s
    queries, the snapshot layout and the resharding hook are identical
    and live here.

    Subclasses implement :meth:`_make_coordinator` and :meth:`_make_site`.
    Coordinators expose ``sample_store`` (a
    :class:`~repro.structures.bottomk.BottomK`) and the
    :attr:`COORDINATOR_COUNTERS`; sites expose ``site_id``, ``u_local``
    and ``observe_hashed(element, h, network)``, and a synchronous reply
    may only lower ``u_local`` (what makes :meth:`process_batch` exact).
    Site fields beyond the threshold persist through :meth:`_sites_state`
    / :meth:`_load_sites`.

    Args:
        num_sites: Number of sites k (>= 1).
        sample_size: Sample size s (>= 1).
        seed: Seed for the shared hash function (ignored if ``hasher``
            given).
        algorithm: Hash algorithm name (see ``repro.hashing``).
        hasher: Optional pre-built hasher shared with other components
            (e.g. a centralized oracle in differential tests).

    Raises:
        ConfigurationError: For non-positive ``num_sites``/``sample_size``.
    """

    #: Registry name recorded in :attr:`config`.
    VARIANT = "infinite"
    #: Coordinator attributes counting protocol events: persisted beside
    #: the sample, and kept as totals by a reshard.
    COORDINATOR_COUNTERS: tuple[str, ...] = ("reports_received", "reports_accepted")
    #: Site attributes counting protocol events: persisted by
    #: :meth:`_sites_state`, and kept as one total by a reshard.
    SITE_COUNTERS: tuple[str, ...] = ()

    def __init__(
        self,
        num_sites: int,
        sample_size: int,
        seed: int = 0,
        algorithm: str = "murmur2",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        self.hasher = hasher if hasher is not None else UnitHasher(seed, algorithm)
        self.sample_size = sample_size
        self._init_runtime(
            Topology.build(
                coordinator=self._make_coordinator(num_sites),
                site_factory=self._make_site,
                num_sites=num_sites,
            )
        )

    @abstractmethod
    def _make_coordinator(self, num_sites: int) -> Any:
        """Build the coordinator node (``self.sample_size`` is set)."""

    @abstractmethod
    def _make_site(self, site_id: int) -> Any:
        """Build the site node at address ``site_id``."""

    # -- ingestion ---------------------------------------------------------

    def _deliver(self, site_id: int, element: Any) -> None:
        """Hash ``element`` once and deliver it to site ``site_id``."""
        self.sites[site_id].observe_hashed(
            element, self.hasher.unit(element), self.network
        )

    def observe_hashed(self, site_id: int, element: Any, h: float) -> None:
        """Fast path with a precomputed hash (``h == hasher.unit(element)``;
        experiment drivers vectorize hashing over whole streams).

        Raises:
            ConfigurationError: For a site id outside ``[0, k)``.
        """
        self._check_site(site_id)
        self.sites[site_id].observe_hashed(element, h, self.network)

    def flood(self, element: Any) -> None:
        """Deliver ``element`` to every site (the "flooding" distribution)."""
        self.flood_hashed(element, self.hasher.unit(element))

    def flood_hashed(self, element: Any, h: float) -> None:
        """Deliver a pre-hashed element to every site ("flooding")."""
        network = self.network
        for site in self.sites:
            site.observe_hashed(element, h, network)

    @property
    def sampling_hasher(self) -> UnitHasher:
        """The shared sampling hash ``h`` (the site thresholds' hash)."""
        return self.hasher

    def report_bound(self) -> float:
        """The largest site threshold ``max_i u_i``.

        A site reports only below its own ``u_i`` (a caching site tests
        the threshold before its LRU, so a row at or above it never
        touches the cache), and ``u_i`` never rises within a batch (see
        :meth:`process_batch`), so a row hashing at or above this bound
        is silent everywhere.
        """
        return max(site.u_local for site in self.sites)

    def _deliver_columns(self, run: EventBatch) -> None:
        """Columnar delivery: the run's cached hash column (one NumPy
        pass under ``mix64``) through the :meth:`process_batch`
        threshold pre-filter."""
        if not len(run):
            return
        self.process_batch(
            run.sites, run.items_list(), run.hash_column(self.hasher)
        )

    def process_batch(self, site_ids: Any, elements: Any, hashes: Any) -> int:
        """Vectorized bulk ingestion (semantically identical to a loop of
        :meth:`observe_hashed`, verified by the equivalence tests).

        This is the second, per-site filter.  The first,
        :meth:`~repro.core.protocol.Sampler.reportable_rows`, drops the
        rows at or above :meth:`report_bound` (the largest ``u_i``)
        before an unstamped batch is routed, so behind an
        :class:`~repro.runtime.engine.Engine` the batch arriving here
        holds only those rows.  Both rest on one fact.

        Exploits monotonicity: within a batch a site's threshold ``u_i``
        only ever *decreases* — a synchronous reply carries the
        coordinator's non-increasing ``u``, and a queued one lands only
        at pump time, outside the batch — so any element with
        ``h >= u_i``-as-of-now can never be reported later in the batch
        either (a caching site tests the threshold before its cache, so
        such an element never touches the cache).  The batch is swept in
        chunks; before each chunk the live thresholds are re-read and
        NumPy filters out the provably silent elements wholesale, so only
        the surviving candidates walk the slow path (which still
        re-checks against the live threshold — it may have dropped
        further mid-chunk).  Once the sample stabilizes, whole chunks of
        :data:`PROCESS_CHUNK` elements are skipped with a single vector
        compare.

        Args:
            site_ids: Per-element site assignment (array-like of int).
            elements: The elements themselves (any type; delivered as-is).
            hashes: Matching unit hashes (array-like of float).

        Returns:
            The number of elements that took the slow path.
        """
        site_arr = np.asarray(site_ids, dtype=np.intp)
        hash_arr = np.asarray(hashes, dtype=np.float64)
        n = len(hash_arr)
        if not (len(site_arr) == n == len(elements)):
            raise ConfigurationError(
                "site_ids, elements, and hashes must have equal lengths"
            )
        network = self.network
        sites = self.sites
        slow = 0
        element_list = (
            elements if isinstance(elements, list) else list(elements)
        )
        for start in range(0, n, PROCESS_CHUNK):
            stop = min(start + PROCESS_CHUNK, n)
            # Thresholds as of chunk start; u_i never increases, so
            # elements filtered out here are silent for the whole chunk.
            thresholds = np.array([site.u_local for site in sites])
            chunk_sites = site_arr[start:stop]
            chunk_hashes = hash_arr[start:stop]
            hits = np.flatnonzero(chunk_hashes < thresholds[chunk_sites])
            if not hits.size:
                continue
            slow += hits.size
            # Rows leave NumPy in one conversion per column, not one
            # scalar per element.
            for j, site_id, h in zip(
                (hits + start).tolist(),
                chunk_sites[hits].tolist(),
                chunk_hashes[hits].tolist(),
            ):
                sites[site_id].observe_hashed(element_list[j], h, network)
        return slow

    # -- queries -----------------------------------------------------------

    def sample(self) -> SampleResult:
        """The coordinator's current distinct sample."""
        pairs = tuple(self.coordinator.sample_store.pairs())
        return SampleResult(
            items=tuple(element for _, element in pairs),
            pairs=pairs,
            threshold=self.threshold,
            sample_size=self.sample_size,
            window=None,
            slot=self.current_slot,
        )

    def sample_pairs(self) -> list[tuple[float, Any]]:
        """The coordinator's ``(hash, element)`` pairs, ascending by hash."""
        return self.coordinator.sample_store.pairs()

    def sample_columns(self) -> tuple[np.ndarray, list[Any]]:
        """Merge-side fast path: slice the coordinator's sorted store
        directly (no :class:`~repro.core.protocol.SampleResult`, no
        per-pair tuples)."""
        return self.coordinator.sample_store.columns()

    @property
    def threshold(self) -> float:
        """The coordinator's current threshold u."""
        return self.coordinator.sample_store.threshold()

    # -- protocol: construction recipe + persistence -----------------------

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant=self.VARIANT,
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            seed=self.hasher.seed,
            algorithm=self.hasher.algorithm,
        )

    def _state(self) -> dict[str, Any]:
        return {**self._coordinator_state(), **self._sites_state()}

    def _load(self, state: Any) -> None:
        """Restore :meth:`_state` output, or the parsed form
        :meth:`load_states` hands each group.

        The sample, the counters and every site's fields are parsed
        first, and the sample's elements hashed in one pass; the live
        nodes take them only once all of them have parsed, so a malformed
        state leaves the system untouched.  The ``[hash, element]`` rows
        earlier snapshots stored load through
        :func:`~repro.core.legacy.upgrade_bottom_s`.

        Raises:
            ConfigurationError: For a missing key, a sample that is not
                one column of distinct elements the hasher takes, in
                ascending ``(hash, element)`` order, at most ``s`` of them;
                a stored hash that is not the recomputed one; a counter
                that is not
                a non-negative int; a site threshold that is not a number
                in ``[0, 1]`` or is below the coordinator's (a site only
                ever adopts a past ``u``, and ``u`` never rises); or a
                site list of the wrong length.
        """
        if not isinstance(state, _ParsedSystem):
            [state] = _parse_systems([self], [state])
        coordinator = self.coordinator
        coordinator.sample_store = state.store
        for name, value in state.counters.items():
            setattr(coordinator, name, value)
        for site, fields in zip(self.sites, state.site_fields):
            for name, value in fields.items():
                setattr(site, name, value)

    @staticmethod
    def load_states(groups: Sequence[Sampler], states: Sequence[Any]) -> None:
        """Restore each group's :meth:`state_dict` as :meth:`load_state`
        does, hashing every group's sample in one pass.

        The groups share one sampling hash (a sharded sampler's do).
        Every group's system state parses first, then each group loads
        its lifecycle fields and takes its parsed system.
        """
        try:
            systems = [state["system"] for state in states]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed sampler state: {exc!r}") from exc
        for group, state, parsed in zip(groups, states, _parse_systems(groups, systems)):
            group.load_state({**state, "system": parsed})

    def _coordinator_state(self) -> dict[str, Any]:
        """The coordinator's persisted fields: the sample stored by column,
        ``[elements]``, its one column the elements in the store's
        ascending ``(hash, element)`` order (a restore recomputes the hash
        column), and the counters."""
        coordinator = self.coordinator
        return {
            "sample": [coordinator.sample_store.elements()],
            **{name: getattr(coordinator, name) for name in self.COORDINATOR_COUNTERS},
        }

    def _load_coordinator(
        self, state: dict[str, Any]
    ) -> tuple[list[Any], dict[str, int]]:
        """Parse :meth:`_coordinator_state` output into the sample's
        elements (the caller hashes them) and the counters."""
        rows = state["sample"]
        if not isinstance(rows, list):
            raise TypeError(f"sample must be a list, got {type(rows).__name__}")
        (column,) = rows
        if not isinstance(column, list):
            raise TypeError(
                f"sample column must be a list, got {type(column).__name__}"
            )
        elements = [revive_element(element) for element in column]
        counters = {
            name: parse_counter(state[name]) for name in self.COORDINATOR_COUNTERS
        }
        return elements, counters

    def _sites_state(self) -> dict[str, Any]:
        """The sites' persisted fields: one threshold per site."""
        return {"site_thresholds": [site.u_local for site in self.sites]}

    def _load_sites(self, state: dict[str, Any]) -> list[dict[str, Any]]:
        """Parse :meth:`_sites_state` output into one ``attribute ->
        value`` dict per site (the caller assigns them)."""
        thresholds = parse_site_list(state["site_thresholds"], self.num_sites)
        return [{"u_local": parse_threshold(u)} for u in thresholds]

    # -- elastic resharding ------------------------------------------------

    @staticmethod
    def repartition(
        groups: Sequence["BottomSFacadeBase"],
        targets: Sequence["BottomSFacadeBase"],
        router: "HashDistributor",
    ) -> None:
        """Seed freshly built ``targets`` with the samples of ``groups``.

        The hook behind :mod:`repro.runtime.reshard`.  Every group shares
        the sampling hash and owns a disjoint key set, so the union of the
        groups' bottom-s stores is a superset of the global bottom-s.  One
        routing pass sends each retained ``(hash, element)`` pair to its
        new group, and each target keeps the s smallest pairs it receives:
        the union of the targets' stores is again a superset of the global
        bottom-s, so the facade merge — the s smallest of the union — is
        unchanged at the reshard instant and under continued ingest.
        Target sites take their new store's threshold (the soft
        site-state rule: any value >= the true u is safe) and keep their
        other fresh fields (a caching site starts with an empty cache).
        The groups' coordinator counters land, summed, on ``targets[0]``,
        and their site counters on its site 0.
        """
        pairs = [pair for group in groups for pair in group.sample_pairs()]
        routed: list[list[tuple[float, Any]]] = [[] for _ in targets]
        if pairs:
            batch = EventBatch([element for _, element in pairs])
            shard_ids = router.assignments_for_batch(batch).tolist()
            for g, pair in zip(shard_ids, pairs):
                routed[g].append(pair)
        for target, rows in zip(targets, routed):
            store = target.coordinator.sample_store
            rows.sort(key=itemgetter(0))
            for h, element in rows[: store.capacity]:
                store.offer(h, element)
            u = store.threshold()
            for site in target.sites:
                site.u_local = u
        first = targets[0]
        for name in first.COORDINATOR_COUNTERS:
            total = sum(getattr(group.coordinator, name) for group in groups)
            setattr(first.coordinator, name, total)
        for name in first.SITE_COUNTERS:
            total = sum(
                getattr(site, name) for group in groups for site in group.sites
            )
            setattr(first.sites[0], name, total)


class DistinctSamplerSystem(BottomSFacadeBase):
    """Facade wiring ``k`` sites and a coordinator over a simulated network.

    This is the main entry point for infinite-window distributed distinct
    sampling (prefer constructing it through
    ``repro.make_sampler("infinite", ...)``)::

        system = DistinctSamplerSystem(num_sites=5, sample_size=10, seed=42)
        for site, element in my_stream:
            system.observe(site, element)
        print(system.sample().items)       # uniform distinct sample
        print(system.stats().messages_total)  # the paper's cost metric

    Takes the :class:`BottomSFacadeBase` arguments.
    """

    def _make_coordinator(self, num_sites: int) -> InfiniteWindowCoordinator:
        return InfiniteWindowCoordinator(self.sample_size)

    def _make_site(self, site_id: int) -> InfiniteWindowSite:
        return InfiniteWindowSite(site_id)
