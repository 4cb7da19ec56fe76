"""Sharded scale-out: S independent coordinator groups, one key space each.

The single-coordinator topology is the scalability ceiling of every
protocol in this package: one node absorbs every report.  The standard
production remedy is *hash-partitioned sharding*: run ``S`` independent
coordinator groups, deterministically route each key to exactly one group
(an independent routing hash — :class:`~repro.streams.partition.HashDistributor`),
and merge at query time.

Exactness is preserved because all groups share the *same sampling hash*
``h`` while owning *disjoint* key sets: group ``g`` maintains, by its own
protocol's guarantee, the bottom-``s`` of the distinct keys routed to it,
so the union of the groups' samples is a superset of the global
bottom-``s``, and the query-time merge (sort the union by hash, keep the
``s`` smallest) is exactly the bottom-``s`` of the whole key space.  The
differential tests pin both halves: each group against a centralized
oracle restricted to that group's keys, and the merge against the
unrestricted oracle.

Every group is a full sampler of the base variant with the *same* site
count ``k`` — modeling the usual deployment where each physical ingest
node runs one site per shard group — so per-site memory aggregates by
summing site ``i`` across groups.

Cost model and execution backends: groups run on independent hardware in
the deployment this models, and *how* the simulation executes them is a
pluggable :class:`~repro.runtime.executor.ExecutionBackend`
(``SamplerConfig.executor``).  Under the default
:class:`~repro.runtime.executor.SerialExecutor` the groups ingest
sequentially in-process and per-group wall-clock is accumulated in
:attr:`ShardedSampler.group_ingest_seconds`, so the scale-out metric —
the **critical path**, i.e. the slowest group
(:attr:`ShardedSampler.critical_path_seconds`) — is a *simulated*
quantity.  Under ``executor="shm"`` each group's batch plan really runs
concurrently and the per-group timers hold measured wall-clock:
persistent worker processes own their groups across batches and map the
batch's columns from shared memory (zero-copy *and* multi-core; a query
fetches the groups' sample columns and state, and the parent's group
objects load that state only when something needs them).  Both backends are
bit-identical, because every group replays the same per-group delivery
order under the same shared sampling hash.  Message counts, by
contrast, are a real total either way: sharding does not reduce (and
with ``S`` full-size samples slightly increases) the paper's message
metric; what it buys is per-coordinator load ~``1/S`` and, under the
shm backend, real multi-core ingest throughput.

With-replacement samplers are not shardable this way: their per-copy
samples are independent draws under *different* hash functions, so a
bottom-s merge across disjoint key spaces has no meaning there.  Compose
the other way around if needed (``s`` parallel sharded ``s=1`` groups).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace
from typing import Any, Optional, Sequence

import numpy as np
import numpy.typing as npt

from ..core.events import EventBatch
from ..core.protocol import (
    Sampler,
    SampleResult,
    SamplerConfig,
    SamplerStats,
    parse_counter,
    parse_slot,
)
from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.network import MessageStats
from ..streams.partition import HashDistributor
from .executor import Fetched, GroupPlan, make_executor
from .topology import aggregate_sampler_stats, merge_message_stats

__all__ = ["ShardedSampler", "shard_router", "load_groups"]

#: Salt for the key→group routing layer.  Distinct from the
#: :class:`HashDistributor` default so that an Engine hash-routing sites
#: with the same seed stays statistically independent of the shard
#: assignment (otherwise each group would only ever see a 1/S slice of
#: the sites).
_SHARD_SALT = 0x51A2DED0C0FFEE42


def shard_router(config: SamplerConfig, shards: int) -> HashDistributor:
    """The key→group router of a ``shards``-group sampler of ``config``."""
    return HashDistributor(
        shards, seed=config.seed, algorithm=config.algorithm, salt=_SHARD_SALT
    )


def load_groups(config: SamplerConfig, group_states: Sequence[Any]) -> list[Sampler]:
    """Fresh groups of ``config``'s base variant holding ``group_states``
    (one ``state_dict()`` each), loaded by one call of their family's
    ``load_states`` hook.

    Raises:
        ConfigurationError: For a malformed group state.
    """
    from ..core.api import make_groups  # lazy: core.api imports the runtime

    groups = make_groups(config, len(group_states))
    type(groups[0]).load_states(groups, group_states)
    return groups


class ShardedSampler(Sampler):
    """S hash-partitioned coordinator groups behind one Sampler facade.

    Built through the registry (``make_sampler("sharded:<variant>",
    shards=S, ...)``); the groups are full samplers of the base variant
    sharing one sampling hash, and this facade owns only the routing and
    the query-time merge.

    Args:
        groups: The ``S`` coordinator groups (same variant, same seed,
            same site count).
        config: The facade's construction recipe (``variant`` is the
            ``sharded:<base>`` registry key; ``shards == len(groups)``;
            ``executor``/``workers`` select the execution backend).

    Raises:
        ConfigurationError: If ``groups`` is empty or its length does not
            match ``config.shards``.
    """

    def __init__(self, groups: list[Sampler], config: SamplerConfig) -> None:
        groups = list(groups)
        if not groups:
            raise ConfigurationError("shards must be >= 1, got 0")
        if len(groups) != config.shards:
            raise ConfigurationError(
                f"config.shards is {config.shards} but {len(groups)} "
                "groups were built"
            )
        self._groups = groups
        self._config = config
        self._router = shard_router(config, len(groups))
        #: Cumulative batch-ingest wall-clock per group, in seconds —
        #: in-process timers under the serial executor, the workers' own
        #: measurements under the shm executor.
        self.group_ingest_seconds = [0.0] * len(groups)
        #: The execution backend (swappable; e.g. tests share one
        #: :class:`~repro.runtime.executor.SharedMemoryExecutor` across
        #: many short-lived samplers).
        self.executor = make_executor(config)
        #: Monotonic per-group mutation counters.  Every path that can
        #: change a group's sample — single observe, advance, snapshot
        #: restore, or a batch plan shipped to an executor — bumps the
        #: owning group's counter, and the cached merged sample below is
        #: keyed on the whole vector, so a stale cache entry can only be
        #: dropped, never served.  Bumps are deliberately conservative
        #: (plan-build time, before execution): over-counting costs one
        #: cache miss, under-counting would be a correctness bug.
        self._group_generation = [0] * len(groups)
        self._merge_key: Optional[tuple[tuple[int, ...], Optional[int]]] = None
        self._merge_result: Optional[SampleResult] = None
        self._synced_key: Optional[tuple[int, ...]] = None
        #: Query-side observability: total queries answered (cached or
        #: cold) and executor syncs actually issued — the perf suite
        #: reports their ratio as ``syncs_per_query``.
        self.query_count = 0
        self.sync_count = 0
        self._init_protocol()

    def close(self) -> None:
        """Release the execution backend's resources (worker processes).

        Idempotent, and a no-op for the serial backend.  The shm backend
        first syncs every live session's worker-held group state back
        into its sampler, so no ingested data is lost by closing; the
        sampler remains usable — the next batch respawns the workers.
        """
        self.executor.close()

    def __getstate__(self) -> dict[str, Any]:
        # A copy takes the group objects, so worker-held state comes home
        # first; the copy's executor starts with no session.
        self.executor.sync(self)
        return self.__dict__

    def __enter__(self) -> "ShardedSampler":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- routing -------------------------------------------------------------

    @property
    def groups(self) -> list[Sampler]:
        """The S coordinator groups, each object holding its current state.

        Under the shm backend, worker-held state is synced into the
        group objects first (see :meth:`_sync_if_stale`).  The plan,
        ingest, merge and snapshot paths read the raw list instead.
        """
        self._sync_if_stale(load=True)
        return self._groups

    @property
    def shards(self) -> int:
        """Number of coordinator groups S."""
        return len(self._groups)

    @property
    def sampling_hasher(self) -> UnitHasher:
        """The shared sampling hash ``h`` (every group owns an equal
        hasher — same seed, same algorithm — so a hash column warmed
        under this instance is a cache hit for all of them)."""
        hasher: UnitHasher = self._groups[0].hasher
        return hasher

    def shard_of(self, item: Any) -> int:
        """The group that owns ``item``'s key (deterministic)."""
        return self._router.assign_one(item)

    # -- lifecycle -----------------------------------------------------------

    def _deliver(self, site_id: int, item: Any) -> None:
        """Deliver one item to its owning group's site (protocol hook)."""
        self.executor.invalidate(self)
        shard = self.shard_of(item)
        self._group_generation[shard] += 1
        self._groups[shard]._deliver(site_id, item)

    def _advance_to(self, slot: int) -> None:
        """Slot boundary: every group advances (independent maintenance)."""
        self.executor.invalidate(self)
        self._bump_all_generations()
        for group in self._groups:
            group.advance(slot)

    def report_bound(self) -> Optional[float]:
        """The largest group bound, or None if any group has none.

        No sync or fetch.  A group's bound is the one its worker replied
        with after its last batch
        (:meth:`~repro.runtime.executor.ExecutionBackend.live_bounds`),
        or else its raw object's.  Under the shm backend a group with no
        reply since the last adopt is as its object holds it, so the
        result equals the serial backend's.  (A raw object older than
        its worker's group would still be an upper bound: shm runs only
        on synchronous transports, where ``u_i`` only falls.)
        """
        live = self.executor.live_bounds(self)
        bound = 0.0
        for g, group in enumerate(self._groups):
            group_bound = live[g] if g in live else group.report_bound()
            if group_bound is None:
                return None
            bound = max(bound, group_bound)
        return bound

    def observe_columns(self, batch: EventBatch) -> int:
        """Partitioned ingestion: array-sliced shard split, zero tuples.

        A site id outside ``[0, k)`` raises first, before any row is
        filtered or delivered (one vectorized test).  An unstamped batch
        then drops the rows no group could report
        (:meth:`~repro.core.protocol.Sampler.reportable_rows`), so a
        batch that arrives already routed is filtered before its shard
        split, as an :class:`~repro.runtime.engine.Engine` filters before
        routing.  Each same-slot run is then routed with one vectorized
        shard-hash pass
        and :meth:`~repro.core.events.EventBatch.select` slices it into
        per-group sub-runs, which every group takes through its
        ``_deliver_columns`` (no second site-id test) — in-process under
        the serial executor, in the group's persistent worker process
        under the shm executor.
        Both backends warm the shared *sampling*-hash column once per
        run, so no group ever rehashes.  Groups share no state, so
        per-group order (which both backends preserve) is all that
        matters — equivalence with the event loop is pinned by the
        batch-equivalence and property tests.  Per-group wall-clock
        accumulates in :attr:`group_ingest_seconds`.
        """
        batch.check_sites(self.num_sites)
        n = len(batch)
        rows = self.reportable_rows(batch)
        if rows is not None:
            batch = batch.select(rows)
        if len(batch):
            self.executor.ingest_columns(self, batch)
        return n

    # -- per-group plans (the shm backend's unit of shipment) ----------------

    def _plan_advance(
        self, plans: list[GroupPlan], slot: int, state: list[Any]
    ) -> None:
        """Append an ``advance`` task to every group's plan, replicating
        :meth:`~repro.core.protocol.Sampler.advance` semantics (monotone,
        idempotent) against ``state = [pending_last_slot, advances]``."""
        slot = int(slot)
        last = state[0]
        if last is not None:
            if slot < last:
                raise ProtocolError(
                    f"slots must be non-decreasing: now at {last}, "
                    f"got {slot}"
                )
            if slot == last:
                return
        for tasks in plans:
            tasks.append((slot, None))
        state[0] = slot
        state[1] += 1

    def _plan_columns(
        self, batch: EventBatch
    ) -> tuple[list[GroupPlan], Optional[int], int]:
        """Per-group ``(slot, None) | (None, run)`` plans for a whole
        batch, plus the facade's pending slot bookkeeping.

        Slot stamps are validated up front (a non-monotone stamp raises
        *before* any delivery), so a plan that builds is safe to ship.
        The shared sampling-hash column is warmed once per run in the
        parent, before routing, and the per-group ``select`` *slices* it,
        so shm workers adopt views of one warmed column rather than
        rehashing.
        """
        plans: list[GroupPlan] = [[] for _ in self._groups]
        state: list[Any] = [self._last_slot, 0]
        hasher = self.sampling_hasher
        for slot, run in batch.slot_runs():
            if slot is not None:
                self._plan_advance(plans, slot, state)
            if not len(run):
                continue
            run.hash_column(hasher)
            if len(self._groups) == 1:
                plans[0].append((None, run))
                continue
            shard_ids = self._router.assignments_for_batch(run)
            for shard in range(len(self._groups)):
                index = np.flatnonzero(shard_ids == shard)
                if index.size:
                    plans[shard].append((None, run.select(index)))
        self._bump_planned(plans)
        return plans, state[0], state[1]

    def _bump_planned(self, plans: list[GroupPlan]) -> None:
        """Invalidate the merge cache for every group a plan will touch.

        Called at plan-build time, before the backend executes: if the
        execution later fails the cache is merely cold, never stale.
        """
        for shard, tasks in enumerate(plans):
            if tasks:
                self._group_generation[shard] += 1

    def _bump_all_generations(self) -> None:
        generations = self._group_generation
        for shard in range(len(generations)):
            generations[shard] += 1

    def _commit_slots(self, last_slot: Optional[int], advances: int) -> None:
        """Adopt the slot bookkeeping of a successfully executed plan
        (the groups advanced inside their workers)."""
        if last_slot is not None:
            self._last_slot = last_slot
        self._slots_processed += advances

    def _deliver_columns(self, run: EventBatch) -> None:
        if not len(run):
            return
        timings = self.group_ingest_seconds
        groups = self._groups
        if len(groups) == 1:
            self._group_generation[0] += 1
            started = time.perf_counter()
            groups[0]._deliver_columns(run)
            timings[0] += time.perf_counter() - started
            return
        shard_ids = self._router.assignments_for_batch(run)
        # Warm the shared sampling-hash column on the full run so the
        # per-group select() slices it instead of rehashing per group.
        run.hash_column(groups[0].hasher)
        for shard in range(len(groups)):
            index = np.flatnonzero(shard_ids == shard)
            if not index.size:
                continue
            sub_run = run.select(index)
            self._group_generation[shard] += 1
            started = time.perf_counter()
            groups[shard]._deliver_columns(sub_run)
            timings[shard] += time.perf_counter() - started

    # -- queries -------------------------------------------------------------

    def _generation_key(self) -> tuple[int, ...]:
        return tuple(self._group_generation)

    def _sync_if_stale(self, load: bool = False) -> dict[int, Fetched]:
        """Bring worker-held group state home for a read.

        ``sample()``/``threshold``/``state_dict()`` need only each group's
        sample columns and state: they read the executor's fetched,
        unloaded copies (returned here) in place of the stale group
        objects.  ``stats()``, ``message_stats()`` and reads of
        :attr:`groups` need the objects, so ``load=True`` also loads the
        fetched states into them and returns ``{}``.  The executor asks
        only the groups dirtied since its last fetch, so reads between
        two mutations share one round trip; ``sync_count`` counts those
        quiescent periods.
        """
        key = self._generation_key()
        if self._synced_key != key:
            self.sync_count += 1
            self._synced_key = key
        if load:
            self.executor.sync(self)
            return {}
        return self.executor.fetch(self)

    def invalidate_merge_cache(self) -> None:
        """Drop the cached merged sample (benchmark/test hook).

        The next :meth:`sample` recomputes the merge from the group
        columns; the shared executor sync is *not* forced (it stays a
        no-op while no group mutated), so timing a query after this
        isolates the cold-merge cost.
        """
        self._merge_key = None
        self._merge_result = None

    def sample(self) -> SampleResult:
        """Query-time merge: bottom-s over the union of group samples.

        The merged :class:`~repro.core.protocol.SampleResult` is cached
        keyed on the per-group generation vector plus the current slot —
        repeated queries over a quiescent sampler (the
        :attr:`threshold` accessor, ``stats``-then-``sample`` call
        sequences, read-heavy serving traffic) return the cached object
        in O(1) with no executor sync and no re-merge.  A cold query
        merges the groups' sorted hash columns with array kernels; ties
        break deterministically by (hash, group, in-group index).
        """
        self.query_count += 1
        key = (self._generation_key(), self._last_slot)
        if self._merge_result is not None and self._merge_key == key:
            return self._merge_result
        result = self._merge_groups(self._sync_if_stale())
        self._merge_key = key
        self._merge_result = result
        return result

    def _merge_groups(self, fetched: dict[int, Fetched]) -> SampleResult:
        """Cold merge: vectorized bottom-s over the group columns, taking
        a fetched group's columns in place of its stale object's."""
        s = self._config.sample_size
        columns = [
            fetched[g][0] if g in fetched else group.sample_columns()
            for g, group in enumerate(self._groups)
        ]
        hashes = np.concatenate([hash_column for hash_column, _ in columns])
        items: list[Any] = []
        for _, group_items in columns:
            items.extend(group_items)
        order: npt.NDArray[np.intp]
        if hashes.size > s:
            # argpartition alone is free to order equal hashes that
            # straddle the pivot either way; re-ranking every pair tied
            # with the pivot through a stable argsort pins truncation to
            # the (hash, group, index) order — which is exactly ascending
            # position in the group-major concatenation, each group's
            # column already being sorted.
            pivot = hashes[np.argpartition(hashes, s - 1)[s - 1]]
            candidates = np.flatnonzero(hashes <= pivot)
            order = candidates[np.argsort(hashes[candidates], kind="stable")]
            order = order[:s]
        else:
            order = np.argsort(hashes, kind="stable")
        top_hashes: list[float] = hashes[order].tolist()
        top_items = [items[position] for position in order.tolist()]
        threshold = top_hashes[-1] if len(top_hashes) == s else 1.0
        return SampleResult(
            items=tuple(top_items),
            pairs=tuple(zip(top_hashes, top_items)),
            threshold=threshold,
            sample_size=s,
            window=self._config.window or None,
            slot=self.current_slot,
        )

    @property
    def threshold(self) -> float:
        """The merged sample's acceptance threshold (served from the
        merge cache — no executor sync, no re-merge while quiescent)."""
        return self.sample().threshold

    # -- cost accounting -----------------------------------------------------

    def message_stats(self) -> MessageStats:
        """Aggregate message counters across all S group transports."""
        self.query_count += 1
        self._sync_if_stale(load=True)
        return merge_message_stats(
            group.message_stats() for group in self._groups
        )

    def stats(self) -> SamplerStats:
        """Uniform cost counters, aggregated across the groups.

        ``per_site_memory[i]`` sums physical site ``i``'s footprint over
        its S shard-local sites (one per group).
        """
        self.query_count += 1
        self._sync_if_stale(load=True)
        return aggregate_sampler_stats(self._groups, self._slots_processed)

    @property
    def ingest_seconds(self) -> float:
        """Total batch-ingest wall-clock summed over groups (serial cost)."""
        return sum(self.group_ingest_seconds)

    @property
    def critical_path_seconds(self) -> float:
        """Batch-ingest wall-clock of the slowest group.

        The scale-out metric: groups are independent and run on separate
        hardware in the deployment this simulates, so elapsed time there
        is the per-group maximum, not the in-process serial sum.
        """
        return max(self.group_ingest_seconds)

    # -- introspection -------------------------------------------------------

    @property
    def num_sites(self) -> int:
        """Number of physical sites k (each runs one site per group)."""
        return self._groups[0].num_sites

    @property
    def sample_size(self) -> int:
        """Configured sample size s."""
        return self._config.sample_size

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this sampler."""
        return self._config

    # -- elastic resharding --------------------------------------------------

    def reshard(self, new_shards: int) -> "ShardedSampler":
        """Re-partition the S groups into ``new_shards`` groups, live.

        No resampling: every group shares the same sampling hash, so the
        live groups' retained state is re-routed into fresh groups under
        a new-count :class:`HashDistributor`
        (:func:`~repro.runtime.reshard.repartition_groups`; each family's
        ``repartition`` hook states its exactness argument).  Any query
        after the reshard — and after arbitrary continued ingest — is
        bit-identical to a fresh ``new_shards`` sampler fed the same
        stream.  Per-group ingest timers restart at zero; aggregate
        message/report counters are preserved as totals.

        Returns ``self`` (re-configured in place, so existing references
        and executor sharing stay valid).

        Raises:
            ConfigurationError: For ``new_shards < 1`` or a variant whose
                groups cannot be re-partitioned.
        """
        from .reshard import repartition_groups

        new_shards = int(new_shards)
        if new_shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {new_shards}")
        if new_shards == len(self._groups):
            return self
        # Pull worker-held state home first: the live groups must be
        # canonical, and the old worker-side groups must not survive the
        # shard-count change.
        self.executor.invalidate(self)
        config = replace(self._config, shards=new_shards)
        self._groups = repartition_groups(self._groups, config, new_shards)
        self.executor.release(self)
        self._config = config
        self._router = shard_router(config, new_shards)
        self.group_ingest_seconds = [0.0] * new_shards
        self._group_generation = [0] * new_shards
        self._merge_key = None
        self._merge_result = None
        self._synced_key = None
        return self

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        # A fetched group's state is unpickled afresh on every call, so
        # no caller shares the executor's kept copy.
        fetched = self._sync_if_stale()
        return {
            "protocol": {
                "last_slot": self._last_slot,
                "slots_processed": self._slots_processed,
            },
            "groups": [
                pickle.loads(fetched[g][1]) if g in fetched else group.state_dict()
                for g, group in enumerate(self._groups)
            ],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a sharded snapshot — taken at *any* shard count.

        The snapshot's groups load into freshly built groups
        (:func:`load_groups`), which are swapped in only once every one
        has loaded, so a failure leaves the sampler as it was.  A snapshot
        whose group count differs from this sampler's is re-partitioned on
        the way (:func:`~repro.runtime.reshard.repartition_group_states`),
        so an S=4 snapshot restores into an S=8 or S=2 sampler exactly.
        As after :meth:`reshard`, the restored groups run on the default
        transport.

        Raises:
            ConfigurationError: For a malformed snapshot, including one
                whose groups' slots are not ``protocol.last_slot`` (every
                ``advance`` moves the facade and all groups together); the
                sampler is left exactly as it was.
        """
        from .reshard import repartition_group_states

        try:
            protocol = state["protocol"]
            group_states = state["groups"]
            last_slot = parse_slot(protocol["last_slot"])
            slots_processed = parse_counter(protocol["slots_processed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sampler state: {exc}") from exc
        if not isinstance(group_states, list):
            raise ConfigurationError(
                "malformed sampler state: 'groups' must be a list, got "
                f"{type(group_states).__name__}"
            )
        count = len(self._groups)
        if len(group_states) == count:
            groups = load_groups(self._config, group_states)
        else:
            groups = repartition_group_states(group_states, self._config, count)
        if any(group.current_slot != last_slot for group in groups):
            raise ConfigurationError(
                "malformed sampler state: a group's slot differs from "
                f"protocol.last_slot {last_slot!r}"
            )
        # Worker-held copies describe the groups being replaced.
        self.executor.release(self)
        self._groups = groups
        self._last_slot = last_slot
        self._slots_processed = slots_processed
        self._bump_all_generations()

    def _state(self) -> dict[str, Any]:  # pragma: no cover - unused
        raise NotImplementedError

    def _load(self, state: dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError
