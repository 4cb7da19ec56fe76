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
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology
from ..structures.bottomk import BottomK
from .events import EventBatch
from .protocol import Sampler, SampleResult, SamplerConfig, revive_element

__all__ = [
    "BottomSFacadeBase",
    "InfiniteWindowSite",
    "InfiniteWindowCoordinator",
    "DistinctSamplerSystem",
]

#: Elements per threshold refresh in
#: :meth:`DistinctSamplerSystem.process_batch` (any value yields
#: identical protocol behaviour).
PROCESS_CHUNK = 1024


class InfiniteWindowSite:
    """Algorithm 1: the per-site protocol.

    State is exactly one float, ``u_local`` — the site's view of the
    global threshold (paper: O(1) memory per site).

    Args:
        site_id: This site's network address (0-based).
        hasher: The shared hash function h.
    """

    __slots__ = ("site_id", "hasher", "u_local")

    def __init__(self, site_id: int, hasher: UnitHasher) -> None:
        self.site_id = site_id
        self.hasher = hasher
        self.u_local = 1.0  # initialized to 1 (Algorithm 1 line 1)

    def observe(self, element: Any, network: Network) -> None:
        """Process one local stream element (hashes internally)."""
        h = self.hasher.unit(element)
        if h < self.u_local:
            network.send(
                self.site_id, COORDINATOR, MessageKind.REPORT, (element, h, self.site_id)
            )

    def observe_hashed(self, element: Any, h: float, network: Network) -> None:
        """Fast path: process an element whose hash is precomputed.

        The caller guarantees ``h == hasher.unit(element)``; experiment
        drivers vectorize hashing over whole streams and use this entry.
        """
        if h < self.u_local:
            network.send(
                self.site_id, COORDINATOR, MessageKind.REPORT, (element, h, self.site_id)
            )

    def handle_message(self, message: Message, network: Network) -> None:
        """Receive the refreshed threshold (Algorithm 1 lines 5-6)."""
        if message.kind is not MessageKind.THRESHOLD:
            raise ProtocolError(
                f"site {self.site_id} cannot handle {message.kind!r}"
            )
        self.u_local = message.payload


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

    def handle_message(self, message: Message, network: Network) -> None:
        """Process a site report and always reply with the fresh u."""
        if message.kind is not MessageKind.REPORT:
            raise ProtocolError(
                f"coordinator cannot handle {message.kind!r}"
            )
        element, h, site_id = message.payload
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

    The infinite-window system and the broadcast/caching baselines differ
    only in protocol logic (site trigger and feedback policy); everything
    else — delivery hooks, the :class:`BottomK`-backed sample/threshold
    queries, and the sample's snapshot rows — is identical and lives here.
    Subclasses need a coordinator exposing ``sample_store``
    (a :class:`~repro.structures.bottomk.BottomK`), sites exposing
    ``observe``/``observe_hashed``, and the standard
    :meth:`~repro.core.protocol.Sampler` hook surface for the rest.
    """

    def _deliver(self, site_id: int, element: Any) -> None:
        """Deliver ``element`` to site ``site_id`` (protocol hook)."""
        self.sites[site_id].observe(element, self.network)

    def observe_hashed(self, site_id: int, element: Any, h: float) -> None:
        """Fast path with a precomputed hash (see site docs)."""
        self.sites[site_id].observe_hashed(element, h, self.network)

    def flood_hashed(self, element: Any, h: float) -> None:
        """Deliver a pre-hashed element to every site ("flooding")."""
        network = self.network
        for site in self.sites:
            site.observe_hashed(element, h, network)

    def _deliver_columns(self, run: EventBatch) -> None:
        """Deliver one routed run through the precomputed-hash site entry
        (subclasses override it to add protocol-specific pre-filtering)."""
        if not len(run):
            return
        hashes = run.hash_column(self.hasher).tolist()
        network = self.network
        sites = self.sites
        for site_id, item, h in zip(run.sites_list(), run.items_list(), hashes):
            sites[site_id].observe_hashed(item, h, network)

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

    @property
    def sample_size(self) -> int:
        """Configured sample size s."""
        return self.coordinator.sample_store.capacity

    # -- persistence helpers -----------------------------------------------

    def _sample_rows(self) -> list:
        """The sample as JSON-safe ``[hash, element]`` snapshot rows."""
        return [[h, element] for h, element in self.sample_pairs()]

    def _load_sample_rows(self, rows: Any) -> None:
        """Rebuild the coordinator's sample store from snapshot rows
        (``state.get("sample")``; None when the key is missing).

        Every row is parsed into a fresh store first; the live store is
        replaced only once all of them parse, so a malformed sample
        leaves the sampler untouched.

        Raises:
            ConfigurationError: For a missing or non-list sample, a row
                that is not ``[hash, element]``, a hash that is not a
                float in ``[0, 1)`` (NaN included), or rows that repeat
                an element or overflow the sample.
        """
        store = BottomK(self.sample_size)
        try:
            if not isinstance(rows, list):
                raise TypeError(
                    f"sample must be a list of rows, got {type(rows).__name__}"
                )
            for h, element in rows:
                h = float(h)
                if not 0.0 <= h < 1.0:
                    raise ValueError(f"sample hash {h!r} is not in [0, 1)")
                accepted, _ = store.offer(h, revive_element(element))
                if not accepted:
                    raise ValueError(
                        "sample contains duplicates or unsorted entries"
                    )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed snapshot sample: {exc}") from exc
        self.coordinator.sample_store = store


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

    def __init__(
        self,
        num_sites: int,
        sample_size: int,
        seed: int = 0,
        algorithm: str = "murmur2",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        self.hasher = hasher if hasher is not None else UnitHasher(seed, algorithm)
        self._init_runtime(
            Topology.build(
                coordinator=InfiniteWindowCoordinator(sample_size),
                site_factory=lambda i: InfiniteWindowSite(i, self.hasher),
                num_sites=num_sites,
            )
        )

    # -- ingestion -------------------------------------------------------

    def _deliver_columns(self, run: EventBatch) -> None:
        """Columnar delivery: the run's cached hash column (one NumPy
        pass under ``mix64``) through the :meth:`process_batch`
        threshold pre-filter."""
        if not len(run):
            return
        self.process_batch(
            run.sites, run.items_list(), run.hash_column(self.hasher)
        )

    def process_batch(self, site_ids, elements, hashes) -> int:
        """Vectorized bulk ingestion (semantically identical to a loop of
        :meth:`observe_hashed`, verified by the equivalence tests).

        Exploits monotonicity: each site's threshold ``u_i`` only ever
        *decreases*, so any element with ``h >= u_i``-as-of-now can never
        be reported later in the batch either.  The batch is swept in
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
            candidate_mask = (
                hash_arr[start:stop] < thresholds[site_arr[start:stop]]
            )
            for i in np.flatnonzero(candidate_mask).tolist():
                j = start + i
                sites[site_arr[j]].observe_hashed(
                    element_list[j], float(hash_arr[j]), network
                )
                slow += 1
        return slow

    def flood(self, element: Any) -> None:
        """Deliver ``element`` to every site (the "flooding" distribution)."""
        self.flood_hashed(element, self.hasher.unit(element))

    # -- protocol: construction recipe + persistence -----------------------

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant="infinite",
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            seed=self.hasher.seed,
            algorithm=self.hasher.algorithm,
        )

    def _state(self) -> dict[str, Any]:
        return {
            "sample": self._sample_rows(),
            "site_thresholds": [site.u_local for site in self.sites],
            "reports_received": self.coordinator.reports_received,
            "reports_accepted": self.coordinator.reports_accepted,
        }

    def _load(self, state: dict[str, Any]) -> None:
        self._load_sample_rows(state.get("sample"))
        thresholds = state.get("site_thresholds")
        if thresholds is None:
            # Soft site state: any value >= the true u is safe.
            u = self.coordinator.sample_store.threshold()
            for site in self.sites:
                site.u_local = u
        else:
            for site, u in zip(self.sites, thresholds):
                site.u_local = float(u)
        self.coordinator.reports_received = int(state.get("reports_received", 0))
        self.coordinator.reports_accepted = int(state.get("reports_accepted", 0))
