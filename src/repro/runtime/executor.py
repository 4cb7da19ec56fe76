"""Execution backends for the sharded scale-out ingest path.

:class:`~repro.runtime.sharded.ShardedSampler` runs S independent
coordinator groups over disjoint key spaces.  An :class:`ExecutionBackend`
makes the ingest strategy a configuration choice (``SamplerConfig.executor``):

* :class:`SerialExecutor` — the default: every group's sub-batch is
  delivered in-process, run-major, sharing one warmed sampling-hash
  column.  ``critical_path_seconds`` stays a *simulated* quantity (max of
  per-group serial timers).
* :class:`SharedMemoryExecutor` — the parallel backend: persistent
  worker processes plus zero-copy columns.  See the protocol below.

The persistent-worker protocol (``executor="shm"``)
---------------------------------------------------

``W`` long-lived worker processes each own ``groups[g] for g % W == w``
of every participating sampler and talk to the parent over a duplex pipe
with strict request/reply framing.  Per sampler, a *session* tracks
where the canonical group state lives:

* ``adopt`` — on a session's first batch (or after any parent-side
  mutation), the parent ships the groups' config and each group's
  ``state_dict`` to its worker once; the worker rebuilds its groups
  (:func:`~repro.runtime.sharded.load_groups`) and keeps them alive
  across batches.  State crosses the pipe to the workers here and
  nowhere else.
* ``ingest_columns`` — the one ingest command.  The parent routes the
  batch (one vectorized pass), warms the shared sampling-hash column,
  concatenates the per-group sub-runs straight into the executor's
  *arena*, one ``/dev/shm`` segment reused by every batch (sites, hashes
  and ``int64`` items at offsets 0, 8n and 16n — written once), and
  sends only *plan metadata*: the arena name, ``n`` and per-group
  ``(slot, None) | (None, (offset, length))`` tasks.  An ``object`` item
  column has no fixed-width layout, so it travels pickled in the
  metadata instead (counted in ``pickle_bytes``).  Each worker keeps the
  arena mapped across commands, builds
  :class:`~repro.core.events.EventBatch` views over it (zero copies, the
  parent-warmed hash slice adopted via ``adopt_hash_column``), replays,
  drops the views and replies, per group, with its measured ingest
  seconds and its ``report_bound()`` after the batch.  A worker with an
  empty plan gets no command.
* *live bounds* — the session keeps each group's replied bound until
  the next adopt and serves it (:meth:`~SharedMemoryExecutor.live_bounds`)
  only while the workers hold the canonical groups.  It is the worker
  group's live ``max u_i``: reads never raise a threshold, and every
  parent-side mutation, restore, reshard, recovery and close makes the
  parent's objects canonical again.  So
  :meth:`~repro.runtime.sharded.ShardedSampler.report_bound`, which
  prefers it to the parent's possibly stale copy, equals the serial
  backend's at every point, and the silent-row filter drops as much.
* ``collect`` — the one read command.  A read's
  :meth:`~SharedMemoryExecutor.fetch` sends it to the workers holding
  *dirty* groups (those that ingested since the last fetch), at most
  once per quiescent period.  For each such group the worker replies
  ``(sample_columns(), pickle.dumps(state_dict()))``.
  The parent does not load that state: the session keeps the pickled
  bytes as the group's canonical parent-side copy and marks the group's
  parent object stale.  ``sample()``/``threshold`` merge the fetched
  columns, and ``state_dict()`` unpickles a fresh dict from the kept
  bytes on every call.
* *load* — the stale object is loaded from the kept bytes only when
  something needs the object itself: ``stats()``/``message_stats()``,
  reads of ``ShardedSampler.groups``, pickling the sampler, ``reshard``,
  ``close`` and parent-side mutation.  :meth:`~SharedMemoryExecutor.sync`
  is that entry point: fetch, then load every kept state.  Parent-side
  mutation (``observe``, ``advance``, ``load_state``) additionally
  *invalidates* the session so the next batch re-adopts.

Results are **bit-identical** across both backends: plans are built by
the same routing pass, groups share no state, the workers replay the
exact serial per-group delivery order, and the sampling hash is a pure
function of (seed, algorithm, item) wherever it is computed.  A fetch
reads each group's sample before its state, as a serial query does, and
a sliding core's snapshot applies the same expiry a sample read applies,
so reads never make the two backends' states drift apart.  The property
suite in ``tests/test_properties.py`` pins ``sample()``, ``threshold``,
``report_bound()``, ``stats()``, ``message_stats()`` and the full
``state_dict`` across backends for every ``sharded:*`` variant, with
reads interleaved between batches.

Failure and lifecycle semantics of the shm backend (crash-replay):

* Between a fetch and the next load, a group's canonical parent-side
  state is the kept pickled ``state_dict()``; the parent object is
  stale.  Every batch plan shipped since the group's last fetch (or
  adopt) is **retained in a per-group replay log until the next fetch
  acknowledges it**.  When a worker dies, the executor tears the
  remaining workers down and rebuilds every worker-held group in the
  parent: it loads the kept state, if any, then replays only the plans
  logged after that fetch — the recovered groups are **bit-identical to
  a never-crashed run** (same delivery order, same shared sampling
  hash), so no acknowledged data is ever lost.  Ingest calls simply
  succeed; the ``recoveries`` counter records that a replay happened,
  and the next batch respawns workers and re-adopts.  Only a
  *deterministic* in-worker protocol error (a poisoned plan) still
  raises — replaying it in-process raises the same underlying error.
* The replay log is trimmed at every fetch and adopt and, to bound
  memory on read-free workloads, the executor also fetches (without
  loading) every ``checkpoint_batches`` batches per session.
* The arena is created on the first batch with rows and reused until
  ``close()``.  A batch that does not fit replaces it with a segment at
  least twice as large (:data:`ARENA_MIN_BYTES` at first) and unlinks
  the old one at once; workers re-map when a frame names a new arena.
  Overwriting it is safe because every worker has replied to the
  previous batch, and the replay log holds the parent's own plans,
  never arena views.  ``close()`` and crash teardown unlink it.  The
  arena and the worker processes are also bound to the executor's life
  through ``weakref.finalize`` (which hooks interpreter exit like
  ``atexit``) and the workers are daemonic, so neither an
  un-``close()``d executor nor a hard exit leaks ``/dev/shm`` segments
  or processes.
* Executors are context managers: ``with SharedMemoryExecutor() as ex:``
  guarantees ``close()`` (which first syncs every live session's state
  back into its sampler).

Two documented backend differences.  A non-monotone slot stamp raises
*before* any delivery under the shm backend (plans are built up front),
while the serial generic loop has already delivered the earlier runs by
the time it raises.  And workers rebuild groups on the config's default
synchronous network, so the shm backend rejects every batch of a
sampler whose groups were rewired onto an asynchronous transport
(``DelayedNetwork``/``ChaosNetwork``) with :class:`ConfigurationError`
before touching any state — keep the serial backend for
delayed-transport studies.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
import weakref
from abc import ABC, abstractmethod
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Optional

import numpy as np
import numpy.typing as npt

from ..core.events import EventBatch
from ..core.protocol import EXECUTORS, Sampler, SamplerConfig
from ..errors import ConfigurationError, ExecutorError, ProtocolError
from ..hashing.unit import UnitHasher

if TYPE_CHECKING:  # sharded imports this module; annotate without a cycle
    from .sharded import ShardedSampler

__all__ = [
    "ExecutionBackend",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "make_executor",
]

#: One group's replay plan: ``(slot, None)`` advances, ``(None, run)``
#: delivers a columnar sub-run.
GroupPlan = list[tuple[Optional[int], Any]]

#: A shm worker's task: ``(slot, None)`` advances, ``(None, (offset,
#: length))`` delivers that row range of the batch's shared columns.
RangePlan = list[tuple[Optional[int], Optional[tuple[int, int]]]]

#: ``(group, tasks)`` pairs addressed to one worker.
WorkerPlans = list[tuple[int, Any]]

#: A fetched group: its ``sample_columns()`` and its pickled
#: ``state_dict()``, which the parent keeps without loading.
Fetched = tuple[tuple[npt.NDArray[np.float64], list[Any]], bytes]

#: The smallest arena an executor creates; a batch that does not fit
#: replaces the arena with one at least twice as large.
ARENA_MIN_BYTES = 64 * 1024


def _replay_group(group: Sampler, tasks: GroupPlan) -> float:
    """Replay one group's plan in place; returns the measured seconds.

    The parent's crash-replay — the replay order is exactly the serial
    per-group delivery order, which is what makes the recovered groups
    bit-identical to a never-crashed run.  Each run is a same-slot run
    whose site ids the facade checked, delivered as a worker delivers it.
    """
    started = time.perf_counter()
    for slot, run in tasks:
        if slot is not None:
            group.advance(slot)
        else:
            group._deliver_columns(run)
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Shared-memory plumbing
# ---------------------------------------------------------------------------


def _shm_attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without taking cleanup ownership.

    The parent owns the arena's lifecycle (create, then unlink when it
    is outgrown, closed, torn down or finalized); an attaching worker
    must not let *its* resource tracker claim the segment, or the
    tracker unlinks it a second time at worker exit and spews "leaked
    shared_memory" warnings for segments that were cleaned up
    correctly.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    # Pre-3.13 has no track=False and unconditionally registers every
    # attach with the worker's resource tracker, which then "cleans up"
    # (double-unlinks) the parent-owned segment at worker exit — the
    # long-standing cpython#82300 behavior.  Suppressing the register
    # for the duration of the attach is the standard workaround; the
    # worker loop is single-threaded, so the swap cannot race.
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def _release_block(block: shared_memory.SharedMemory) -> None:
    """Unlink + close one block (idempotent, exception-proof)."""
    try:
        block.unlink()
    except OSError:
        pass
    try:
        block.close()
    except BufferError:  # pragma: no cover - view still exported
        pass


def _create_block(
    owner: object, size: int
) -> tuple[shared_memory.SharedMemory, weakref.finalize]:
    """Create a ``size``-byte shm block that is unlinked with ``owner``.

    Returns the block and its release: a ``weakref.finalize`` that
    unlinks and closes it when called, when ``owner`` is collected, or
    at interpreter exit, whichever comes first.
    """
    block = shared_memory.SharedMemory(create=True, size=size)
    try:
        release = weakref.finalize(owner, _release_block, block)
    except BaseException:
        block.unlink()
        block.close()
        raise
    return block, release


def _arena_views(
    buf: memoryview, rows: int, int_items: bool
) -> tuple[npt.NDArray[Any], npt.NDArray[Any], Optional[npt.NDArray[Any]]]:
    """The arena's layout for an ``n``-row batch, as ``(sites, hashes,
    items)`` views: sites, hashes and ``int64`` items at offsets 0, 8n
    and 16n (no items view for an ``object`` column, which travels
    pickled in the frame)."""
    return (
        np.ndarray((rows,), np.int64, buf),
        np.ndarray((rows,), np.float64, buf, 8 * rows),
        np.ndarray((rows,), np.int64, buf, 16 * rows) if int_items else None,
    )


def _arena_columns(
    mapped: dict[str, shared_memory.SharedMemory],
    meta: tuple[str, int, Optional[npt.NDArray[Any]]],
) -> tuple[npt.NDArray[Any], ...]:
    """A batch's ``(items, sites, hashes)`` columns (worker side).

    The worker keeps one mapping and re-maps when a frame names another
    arena (the parent replaced a full one).
    """
    name, rows, items = meta
    arena = mapped.get(name)
    if arena is None:
        for old in mapped.values():
            try:
                old.close()
            except BufferError:  # pragma: no cover - a core retained a view
                pass
        mapped.clear()
        arena = mapped[name] = _shm_attach(name)
    sites, hashes, int_items = _arena_views(arena.buf, rows, items is None)
    return (items if int_items is None else int_items, sites, hashes)


def _shm_replay_ranges(
    groups: dict[tuple[int, int], Sampler],
    session: int,
    columns: Optional[tuple[npt.NDArray[Any], ...]],
    hasher: UnitHasher,
    plans: WorkerPlans,
) -> dict[int, tuple[float, Optional[float]]]:
    """Replay range plans against zero-copy column views (worker side).

    Every delivery builds an :class:`EventBatch` whose columns are
    *slices of the mapped arena* (or of the pickled object item column)
    and adopts the parent-warmed sampling-hash slice; the cores convert
    to Python lists before retaining anything, so no view outlives the
    command and the next batch may overwrite the arena.  Replies with
    each group's measured seconds and its live ``report_bound()``.
    """
    replies: dict[int, tuple[float, Optional[float]]] = {}
    for g, tasks in plans:
        group = groups[(session, g)]
        started = time.perf_counter()
        for slot, span in tasks:
            if slot is not None:
                group.advance(slot)
            elif columns is not None and span is not None:
                offset, length = span
                run = EventBatch(
                    columns[0][offset : offset + length],
                    columns[1][offset : offset + length],
                )
                run.adopt_hash_column(
                    hasher, columns[2][offset : offset + length]
                )
                group._deliver_columns(run)
        elapsed = time.perf_counter() - started
        replies[g] = (elapsed, group.report_bound())
    return replies


def _fetch_group(group: Sampler) -> Fetched:
    """One group's ``collect`` reply: its sample columns, then its state.

    The sample is read first because a sliding core's read expires dead
    coordinator entries; the state then already reflects the read, as a
    serial group's does after the query.
    """
    columns = group.sample_columns()
    return columns, pickle.dumps(
        group.state_dict(), protocol=pickle.HIGHEST_PROTOCOL
    )


def _shm_dispatch(
    groups: dict[tuple[int, int], Sampler],
    mapped: dict[str, shared_memory.SharedMemory],
    command: str,
    args: Any,
) -> Any:
    """Execute one worker command against the persistent group store.

    ``mapped`` holds the worker's one arena mapping across commands; the
    column views an ``ingest_columns`` builds over it die with this
    frame, before the worker replies.
    """
    from .sharded import load_groups  # lazy: sharded imports this module

    if command == "adopt":
        session, config_dict, states = args
        loaded = load_groups(SamplerConfig(**config_dict), list(states.values()))
        for g, group in zip(states, loaded):
            groups[(session, g)] = group
        return None
    if command == "ingest_columns":
        session, meta, hasher_key, plans = args
        columns = None if meta is None else _arena_columns(mapped, meta)
        hasher = UnitHasher(seed=hasher_key[0], algorithm=hasher_key[1])
        return _shm_replay_ranges(groups, session, columns, hasher, plans)
    if command == "collect":
        session, group_ids = args
        return {g: _fetch_group(groups[(session, g)]) for g in group_ids}
    if command == "drop":
        for key in [k for k in groups if k[0] in args]:
            del groups[key]
        return None
    raise ProtocolError(f"unknown shm worker command {command!r}")


def _shm_worker_main(conn: Connection) -> None:
    """A persistent worker's request/reply loop.

    Holds its share of every session's rebuilt groups across batches;
    exits on the ``close`` command or when the parent's pipe end closes
    (parent death — the workers are daemonic either way).  Errors are
    reported as ``("error", message)`` replies, never silent death.
    """
    groups: dict[tuple[int, int], Sampler] = {}
    mapped: dict[str, shared_memory.SharedMemory] = {}
    while True:
        try:
            command, args = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break
        if command == "close":
            try:
                conn.send_bytes(pickle.dumps(("ok", None)))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        try:
            reply: tuple[str, Any] = (
                "ok",
                _shm_dispatch(groups, mapped, command, args),
            )
        except BaseException as exc:  # reported to the parent, never silent
            reply = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send_bytes(
                pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
            )
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    conn.close()


class _ShmWorker:
    """One persistent worker process plus its parent-side pipe end."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Connection) -> None:
        self.process = process
        self.conn = conn


class _ShmSession:
    """Where one sampler's canonical group state currently lives."""

    __slots__ = (
        "session_id",
        "workers_canonical",
        "dirty",
        "pending",
        "deferred",
        "bounds",
        "batches_since_checkpoint",
    )

    def __init__(self, session_id: int) -> None:
        self.session_id = session_id
        #: True once the workers hold adopted (authoritative) groups.
        self.workers_canonical = False
        #: Group ids whose worker-held copies have advanced past the
        #: parent's since the last fetch.  Empty means fully in sync; a
        #: fetch collects exactly these groups and nothing else.
        self.dirty: set[int] = set()
        #: Per-group replay log: every batch plan shipped since the
        #: group's state was last fetched, retained until a fetch or
        #: adopt acknowledges the worker state back into the parent.  On
        #: a worker crash, replaying ``pending[g]`` (in ship order)
        #: against the parent's copy reproduces the worker-held group
        #: bit for bit — zero acked-data loss.
        self.pending: dict[int, GroupPlan] = {}
        #: Fetched groups whose parent object is stale: their canonical
        #: parent-side state is the kept pickled ``state_dict()``, loaded
        #: into the group object only when something needs the object.
        self.deferred: dict[int, Fetched] = {}
        #: Each group's ``report_bound()`` from its last ingest reply,
        #: since the last adopt: the live bound of the worker-held group,
        #: which reads never raise.  Served only while the workers are
        #: canonical; a group without an entry is as the parent holds it.
        self.bounds: dict[int, Optional[float]] = {}
        #: Batches since the replay log was last trimmed by a fetch;
        #: bounds log memory on read-free workloads (``checkpoint_batches``).
        self.batches_since_checkpoint = 0


def _terminate_workers(workers: list[_ShmWorker]) -> None:
    """Tear worker processes down unconditionally (finalizer-safe)."""
    for worker in workers:
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
    for worker in workers:
        if worker.process.is_alive():
            worker.process.terminate()
    for worker in workers:
        worker.process.join(timeout=1.0)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ExecutionBackend(ABC):
    """How a :class:`~repro.runtime.sharded.ShardedSampler` ingests.

    One backend instance may be shared between samplers; tests reuse a
    single set of shm workers across many short-lived samplers this way
    (the shm backend keys its per-sampler sessions weakly, so sharing is
    safe).

    Serialization accounting: ``pickle_bytes`` counts bytes of requests
    that carry pickled *per-batch event payloads* (``object`` item
    columns) and ``ipc_bytes`` counts every byte that crosses a process
    boundary for any reason (payloads, plan metadata, session state
    exchanges).  The zero-copy claim of the shm backend is therefore
    falsifiable: ``pickle_bytes == 0`` for ``int64`` items, enforced by
    the perf regression gate.
    """

    #: Registry-style name (``config.executor``).
    name: str

    #: Cumulative pickled event-payload bytes (see class docstring).
    pickle_bytes: int = 0
    #: Cumulative bytes crossing a process boundary, any encoding.
    ipc_bytes: int = 0
    #: Crash-replay recoveries performed (see the module docstring's
    #: failure-semantics section).  Always zero for the serial backend.
    recoveries: int = 0

    @abstractmethod
    def ingest_columns(self, sharded: "ShardedSampler", batch: EventBatch) -> int:
        """Deliver a columnar :class:`~repro.core.events.EventBatch`."""

    def fetch(self, sharded: "ShardedSampler") -> dict[int, Fetched]:
        """Worker-held groups' ``(sample columns, pickled state)``, unloaded.

        The read path: ``sample()``/``threshold`` merge the fetched
        columns and ``state_dict()`` unpickles the fetched state, in
        place of the stale parent copies of those groups.  A stateful
        backend makes at most one round trip per quiescent period and
        asks only the groups dirtied since the last fetch.  ``{}`` for
        backends whose parent-side groups are always canonical (serial).
        """
        return {}

    def live_bounds(self, sharded: "ShardedSampler") -> dict[int, Optional[float]]:
        """Fresh ``report_bound()`` values of worker-held groups, by group.

        :meth:`~repro.runtime.sharded.ShardedSampler.report_bound` takes
        these in place of its possibly stale parent-side objects' bounds.
        ``{}`` for backends whose parent-side groups are always canonical
        (serial).
        """
        return {}

    def sync(self, sharded: "ShardedSampler") -> None:
        """Make every group object in ``sharded`` canonical.

        Fetches as :meth:`fetch` does, then loads each fetched state into
        its parent-side group object.  The sharded facade calls this
        where it needs the objects themselves (``stats()``,
        ``message_stats()``, reads of ``groups``, pickling) rather than
        their samples or states.  No-op for backends whose parent-side
        groups are always canonical (serial).
        """

    def invalidate(self, sharded: "ShardedSampler") -> None:
        """Declare the parent's groups canonical again (after syncing).

        The sharded facade calls this before mutating groups in-process
        (single ``observe``, ``advance``, ``load_state``); stateful
        backends must re-adopt on the next batch.
        """

    def release(self, sharded: "ShardedSampler") -> None:
        """Forget a sampler's session entirely (no state transfer).

        Called when ``sharded``'s group objects are about to be replaced
        wholesale (e.g. :meth:`~repro.runtime.sharded.ShardedSampler.reshard`)
        and any worker-held copies are garbage.  Callers that need the
        worker state back must :meth:`sync`/:meth:`invalidate` *first*.
        No-op for stateless backends.
        """

    def close(self) -> None:
        """Release backend resources (idempotent; no-op by default)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


class SerialExecutor(ExecutionBackend):
    """In-process sequential ingest — the default backend.

    Delegates straight back to the facade's run-major delivery loops
    (vectorized shard split, shared warmed hash column), exactly the
    pre-backend behavior.  Per-group timers accumulate around each
    group's in-process delivery, so ``critical_path_seconds`` *simulates*
    the slowest group of a parallel deployment.
    """

    name = "serial"

    def ingest_columns(self, sharded: "ShardedSampler", batch: EventBatch) -> int:
        # The generic run-by-run replay over the facade's run delivery
        # (the facade checked the batch's site ids).
        return sharded._replay_columns(batch)


class SharedMemoryExecutor(ExecutionBackend):
    """Persistent workers over zero-copy shared-memory columns.

    Args:
        workers: Worker-process count ``W``; ``0`` picks
            ``min(8, cpu_count)``.  Group ``g`` lives in worker
            ``g % W`` for every adopted sampler.

    See the module docstring for the full protocol.  The steady-state
    per-batch traffic is plan metadata only — column bytes are written
    once into the executor's persistent ``/dev/shm`` arena, which the
    workers keep mapped, and group state crosses the pipe only on an
    adopt or a read's fetch, never per batch.  ``pickle_bytes`` therefore
    stays 0 for ``int64`` items (``object`` item columns honestly count
    their pickled requests).

    Raises:
        ConfigurationError: For a negative ``workers``.
    """

    name = "shm"

    #: Fetch (without loading) after this many batches per session, so
    #: the crash-replay log cannot grow without bound on read-free
    #: workloads.
    checkpoint_batches: int = 64

    def __init__(self, workers: int = 0) -> None:
        workers = int(workers)
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.workers = workers or min(8, os.cpu_count() or 1)
        self.pickle_bytes = 0
        self.ipc_bytes = 0
        self.recoveries = 0
        self._workers: Optional[list[_ShmWorker]] = None
        self._finalizer: Optional[weakref.finalize] = None
        #: The batch columns' one shared-memory segment, with its release.
        self._arena: Optional[shared_memory.SharedMemory] = None
        self._arena_release: Optional[weakref.finalize] = None
        self._sessions: "weakref.WeakKeyDictionary[Any, _ShmSession]" = (
            weakref.WeakKeyDictionary()
        )
        self._session_counter = 0
        self._dead_sessions: list[int] = []

    # -- worker lifecycle ----------------------------------------------------

    def _ensure_workers(self) -> list[_ShmWorker]:
        if self._workers is None:
            context = multiprocessing.get_context()
            spawned: list[_ShmWorker] = []
            for _ in range(self.workers):
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_shm_worker_main, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                spawned.append(_ShmWorker(process, parent_conn))
            self._workers = spawned
            # Interpreter-exit / GC safety net: daemonic workers die with
            # the parent anyway, but the finalizer also covers an
            # executor that is dropped without close() mid-session.
            self._finalizer = weakref.finalize(
                self, _terminate_workers, spawned
            )
        return self._workers

    def warmup(self) -> None:
        """Spawn the persistent workers outside any timed window."""
        self._ensure_workers()

    def _drop_finalizer(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def _release_arena(self) -> None:
        """Unlink and close the arena now (the next batch makes a new one)."""
        if self._arena_release is not None:
            self._arena_release()
        self._arena = None
        self._arena_release = None

    def _arena_for(self, nbytes: int) -> shared_memory.SharedMemory:
        """The arena, replaced first by one at least twice as large if
        ``nbytes`` does not fit; the old segment is unlinked at once."""
        arena = self._arena
        if arena is not None and arena.size >= nbytes:
            return arena
        size = max(ARENA_MIN_BYTES, nbytes, 2 * arena.size if arena else 0)
        block, release = _create_block(self, size)
        self._release_arena()
        self._arena, self._arena_release = block, release
        return block

    def _on_worker_failure(self) -> None:
        """Crash-replay recovery after a worker death or in-worker error.

        Tears the remaining workers down, then rebuilds every session's
        worker-held groups *in the parent*: each group loads its kept
        fetched state, if any, and replays the batch plans logged since
        (``session.pending``) — the exact serial delivery order the
        worker would have run, so the recovered groups (message counters
        included) are bit-identical to a never-crashed run.  The next
        batch respawns workers and re-adopts.

        A deterministic in-worker error reproduces during the replay and
        propagates to the caller as the real exception; the failing
        session keeps whatever replayed before the error (its pending
        log is cleared either way — the poisoned plan must not loop).
        """
        workers, self._workers = self._workers, None
        self._drop_finalizer()
        self._dead_sessions.clear()
        if workers:
            _terminate_workers(workers)
        self._release_arena()
        replay_error: Optional[BaseException] = None
        for sampler, session in list(self._sessions.items()):
            try:
                if session.workers_canonical:
                    self._load_deferred(sampler, session)
                    for g in sorted(session.pending):
                        elapsed = _replay_group(
                            sampler._groups[g], session.pending[g]
                        )
                        sampler.group_ingest_seconds[g] += elapsed
            except BaseException as exc:
                if replay_error is None:
                    replay_error = exc
            finally:
                session.pending.clear()
                session.deferred.clear()
                session.dirty.clear()
                session.batches_since_checkpoint = 0
                session.workers_canonical = False
        if replay_error is not None:
            raise replay_error

    def close(self) -> None:
        """Sync every live session's state home, then stop the workers.

        Idempotent; the executor remains usable — the next batch
        respawns the workers and re-adopts from the (now loaded)
        parent-side groups.
        """
        if self._workers is None:
            return
        try:
            for sampler, session in list(self._sessions.items()):
                if session.workers_canonical:
                    self.sync(sampler)
                    session.workers_canonical = False
        finally:
            workers, self._workers = self._workers, None
            self._drop_finalizer()
            self._dead_sessions.clear()
            if workers:
                for worker in workers:
                    try:
                        worker.conn.send_bytes(pickle.dumps(("close", None)))
                        if worker.conn.poll(1.0):
                            worker.conn.recv_bytes()
                    except (BrokenPipeError, EOFError, OSError):
                        pass
                _terminate_workers(workers)
            self._release_arena()

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict[str, int]:
        # Workers, pipes, and sessions are OS/process-local resources; a
        # pickled executor carries only its configuration.  Callers must
        # sync before copying a sampler's groups — the facade's
        # __getstate__ does so automatically.
        return {"workers": self.workers}

    def __setstate__(self, state: dict[str, int]) -> None:
        self.workers = state["workers"]
        self.pickle_bytes = 0
        self.ipc_bytes = 0
        self.recoveries = 0
        self._workers = None
        self._finalizer = None
        self._arena = None
        self._arena_release = None
        self._sessions = weakref.WeakKeyDictionary()
        self._session_counter = 0
        self._dead_sessions = []

    # -- request/reply framing ----------------------------------------------

    def _post(self, worker: _ShmWorker, command: str, args: Any) -> int:
        """Send one request; returns the frame size in bytes."""
        blob = pickle.dumps((command, args), protocol=pickle.HIGHEST_PROTOCOL)
        try:
            worker.conn.send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            self._on_worker_failure()
            raise ExecutorError(
                f"shared-memory worker died (send failed: {exc}); the "
                "retained batch plans were replayed into the parent's "
                "groups — no acknowledged data was lost"
            ) from exc
        self.ipc_bytes += len(blob)
        return len(blob)

    def _reply(self, worker: _ShmWorker) -> Any:
        """Await one reply; raises :class:`ExecutorError` on failure."""
        try:
            blob = worker.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            self._on_worker_failure()
            raise ExecutorError(
                "shared-memory worker died mid-batch; the retained batch "
                "plans were replayed into the parent's groups — no "
                "acknowledged data was lost (the next batch respawns "
                "workers and re-adopts)"
            ) from exc
        self.ipc_bytes += len(blob)
        status, value = pickle.loads(blob)
        if status == "error":
            # The worker survived, but its session groups may be
            # partially replayed — rebuild from the parent's canonical
            # copy plus the retained plans (a deterministic plan error
            # reproduces during that replay and propagates instead).
            self._on_worker_failure()
            raise ExecutorError(f"shared-memory worker failed: {value}")
        return value

    # -- sessions ------------------------------------------------------------

    def _session_for(self, sharded: "ShardedSampler") -> _ShmSession:
        session = self._sessions.get(sharded)
        if session is None:
            self._session_counter += 1
            session = _ShmSession(self._session_counter)
            self._sessions[sharded] = session
            # When the sampler is garbage collected its worker-held
            # groups become unreachable garbage too; queue a drop that
            # the next command flushes.
            weakref.finalize(
                sharded, self._dead_sessions.append, session.session_id
            )
        return session

    def _flush_dead_sessions(self, workers: list[_ShmWorker]) -> None:
        if not self._dead_sessions:
            return
        dead, self._dead_sessions = tuple(self._dead_sessions), []
        for worker in workers:
            self._post(worker, "drop", dead)
        for worker in workers:
            self._reply(worker)

    def _adopt_if_needed(
        self,
        sharded: "ShardedSampler",
        session: _ShmSession,
        workers: list[_ShmWorker],
    ) -> None:
        """Ship group state to the workers once per session epoch."""
        if session.workers_canonical:
            return
        per_worker: list[dict[int, dict[str, Any]]] = [{} for _ in workers]
        for g, group in enumerate(sharded._groups):
            per_worker[g % len(workers)][g] = group.state_dict()
        config = sharded._groups[0].config.to_dict()
        posted = []
        for w, states in enumerate(per_worker):
            if states:
                self._post(workers[w], "adopt", (session.session_id, config, states))
                posted.append(w)
        for w in posted:
            self._reply(workers[w])
        session.workers_canonical = True
        session.dirty.clear()
        session.bounds.clear()
        # Fresh epoch: the copies just shipped ARE the parent copies, so
        # there is nothing to replay until the next batch.
        session.pending.clear()
        session.batches_since_checkpoint = 0

    def live_bounds(self, sharded: "ShardedSampler") -> dict[int, Optional[float]]:
        """The bounds of the session's last ingest replies, while the
        workers hold the canonical groups; ``{}`` otherwise."""
        session = self._sessions.get(sharded)
        if session is None or not session.workers_canonical:
            return {}
        return session.bounds

    def fetch(self, sharded: "ShardedSampler") -> dict[int, Fetched]:
        """Fetch the *dirty* groups' sample columns and state, unloaded.

        One round trip to the workers holding dirty groups, none while
        nothing ingested since the last fetch.  Each reply is kept as
        that group's canonical parent-side state (``session.deferred``),
        trims the group's replay log and clears its dirty bit; the
        parent's group object is not touched.  Returns every deferred
        group, fetched now or earlier; callers read it and must not
        mutate it.
        """
        session = self._sessions.get(sharded)
        if session is None:
            return {}
        if session.dirty:
            self._collect(sharded, session)
        return session.deferred

    def sync(self, sharded: "ShardedSampler") -> None:
        """Fetch, then load every deferred group into the parent's copy.

        After a sync the parent's group objects are canonical again,
        though the workers stay canonical too: the next batch needs no
        re-adopt.
        """
        session = self._sessions.get(sharded)
        if session is None:
            return
        self.fetch(sharded)
        self._load_deferred(sharded, session)

    @staticmethod
    def _load_deferred(sharded: "ShardedSampler", session: _ShmSession) -> None:
        """Load each deferred group's kept state into its group object
        (one ``load_states`` call)."""
        deferred = session.deferred
        if not deferred:
            return
        kept = list(deferred.items())
        deferred.clear()
        groups = [sharded._groups[g] for g, _ in kept]
        type(groups[0]).load_states(
            groups, [pickle.loads(state) for _, (_, state) in kept]
        )

    def _collect(self, sharded: "ShardedSampler", session: _ShmSession) -> None:
        """The fetch round trip: one ``collect`` per worker holding dirty
        groups, every reply kept in ``session.deferred``."""
        workers = self._workers
        if workers is None:
            # Workers were closed/crashed since the last ingest; crash
            # recovery (or close) already settled the parent copies.
            session.workers_canonical = False
            session.dirty.clear()
            session.pending.clear()
            return
        per_worker: dict[int, list[int]] = {}
        for g in sorted(session.dirty):
            per_worker.setdefault(g % len(workers), []).append(g)
        try:
            posted = []
            for w, group_ids in sorted(per_worker.items()):
                self._post(
                    workers[w], "collect", (session.session_id, group_ids)
                )
                posted.append(w)
            for w in posted:
                for g, fetched in self._reply(workers[w]).items():
                    session.deferred[g] = fetched
                    # The fetched state supersedes the replay log.
                    session.pending.pop(g, None)
        except ExecutorError:
            # A worker died mid-fetch.  _on_worker_failure already loaded
            # the kept states and replayed every still-pending plan into
            # the parent copies, which are canonical again — recovered.
            self.recoveries += 1
            return
        session.dirty.clear()
        session.batches_since_checkpoint = 0

    def invalidate(self, sharded: "ShardedSampler") -> None:
        """Sync, then make the parent's groups canonical again."""
        session = self._sessions.get(sharded)
        if session is None:
            return
        self.sync(sharded)
        session.workers_canonical = False
        # The parent is canonical from here; worker-held copies (and any
        # log entries for them) are garbage until the next adopt.
        session.pending.clear()
        session.batches_since_checkpoint = 0

    def release(self, sharded: "ShardedSampler") -> None:
        """Drop a sampler's session without any state transfer.

        The facade calls this when it is about to replace its group
        objects wholesale (resharding, restoring): the worker-held
        copies describe groups that no longer exist, so they are queued
        for a ``drop`` that the next command flushes.
        """
        session = self._sessions.pop(sharded, None)
        if session is None:
            return
        session.workers_canonical = False
        session.pending.clear()
        session.deferred.clear()
        session.dirty.clear()
        if self._workers is not None:
            self._dead_sessions.append(session.session_id)

    # -- ingest --------------------------------------------------------------

    def ingest_columns(self, sharded: "ShardedSampler", batch: EventBatch) -> int:
        self._require_synchronous(sharded)
        plans, last_slot, advances = sharded._plan_columns(batch)
        self._execute_batch(sharded, plans, sharded.sampling_hasher)
        sharded._commit_slots(last_slot, advances)
        return len(batch)

    @staticmethod
    def _require_synchronous(sharded: "ShardedSampler") -> None:
        """Reject a batch the workers could not replay faithfully.

        Workers rebuild groups from ``(config, state_dict)``, which always
        yields the default synchronous transport, so a group rewired onto
        an asynchronous one (``DelayedNetwork``/``ChaosNetwork``) would
        silently lose it.  Checked before planning: the sampler is left
        exactly as it was.

        Raises:
            ConfigurationError: If any group's network is asynchronous.
        """
        for g, group in enumerate(sharded._groups):
            if not group.network.synchronous:
                raise ConfigurationError(
                    f"shard group {g} runs on {type(group.network).__name__}, "
                    "an asynchronous transport the shm workers cannot "
                    "rebuild; use executor='serial' for delayed-transport "
                    "studies"
                )

    def _execute_batch(
        self,
        sharded: "ShardedSampler",
        plans: list[GroupPlan],
        hasher: UnitHasher,
    ) -> None:
        """Ship one batch to the workers, surviving worker crashes.

        The batch's materialized plans join the session's replay log
        *before* anything is posted, so a crash at any later point is
        recoverable: ``_on_worker_failure`` replays the log (this batch
        included) into the parent's groups and the resulting
        :class:`ExecutorError` is swallowed here — the ingest call
        succeeds with zero acked-data loss.  A crash *before* the plans
        are logged (re-adopt or dead-session flush) leaves the parent at
        its pre-batch state, so this batch is simply replayed in-process
        directly.  Either way ``recoveries`` ticks once.
        """
        logged = False
        try:
            workers = self._ensure_workers()
            self._flush_dead_sessions(workers)
            session = self._session_for(sharded)
            self._adopt_if_needed(sharded, session, workers)
            # Every worker replied to the last batch, so its columns are
            # dead and the arena is free to overwrite.
            meta, range_plans = self._stage_columns(plans, hasher)
            # Object items really do travel pickled in the metadata.
            boxed = meta is not None and meta[2] is not None
            for g, tasks in enumerate(plans):
                if tasks:
                    session.pending.setdefault(g, []).extend(tasks)
            logged = True
            posted = []
            for w, worker_plans in self._plans_by_worker_ranged(
                range_plans, len(workers)
            ):
                sent = self._post(
                    workers[w],
                    "ingest_columns",
                    (
                        session.session_id,
                        meta,
                        (hasher.seed, hasher.algorithm),
                        worker_plans,
                    ),
                )
                if boxed:
                    self.pickle_bytes += sent
                posted.append(w)
            self._collect_replies(sharded, session, workers, posted)
            session.batches_since_checkpoint += 1
            if session.batches_since_checkpoint >= self.checkpoint_batches:
                self._collect(sharded, session)
        except ExecutorError:
            self.recoveries += 1
            if not logged:
                # The crash predates this batch's log entry; the
                # recovery replay restored the pre-batch state, so
                # apply the batch in-process now.
                for g, tasks in enumerate(plans):
                    if tasks:
                        sharded.group_ingest_seconds[g] += _replay_group(
                            sharded._groups[g], tasks
                        )

    def _collect_replies(
        self,
        sharded: "ShardedSampler",
        session: _ShmSession,
        workers: list[_ShmWorker],
        posted: list[int],
    ) -> None:
        for w in posted:
            for g, (elapsed, bound) in self._reply(workers[w]).items():
                sharded.group_ingest_seconds[g] += elapsed
                session.dirty.add(g)
                session.bounds[g] = bound

    @staticmethod
    def _plans_by_worker_ranged(
        range_plans: list[tuple[int, RangePlan]], worker_count: int
    ) -> list[tuple[int, WorkerPlans]]:
        per_worker: dict[int, WorkerPlans] = {}
        for g, tasks in range_plans:
            per_worker.setdefault(g % worker_count, []).append((g, tasks))
        return sorted(per_worker.items())

    def _stage_columns(
        self, plans: list[GroupPlan], hasher: UnitHasher
    ) -> tuple[
        Optional[tuple[str, int, Optional[npt.NDArray[Any]]]],
        list[tuple[int, RangePlan]],
    ]:
        """Lay the batch's columns out once in the arena, indexed by ranges.

        Concatenates every group's sub-run columns (sites, the
        parent-warmed sampling-hash slice — a cache hit, computed once
        for the whole batch — and items) straight into the arena's views
        (:func:`_arena_views`), and rewrites the plans as ``(offset,
        length)`` ranges into them.  Returns ``(meta, range_plans)``;
        ``meta`` is ``(arena name, n, object items or None)``, the
        ``object`` item column having no fixed-width layout, and ``None``
        for an advance-only batch (the arena is not touched).
        """
        chunks_items: list[npt.NDArray[Any]] = []
        chunks_sites: list[npt.NDArray[Any]] = []
        chunks_hash: list[npt.NDArray[Any]] = []
        range_plans: list[tuple[int, RangePlan]] = []
        offset = 0
        for g, tasks in enumerate(plans):
            if not tasks:
                continue
            ranged: RangePlan = []
            for slot, run in tasks:
                if slot is not None:
                    ranged.append((slot, None))
                    continue
                rows = len(run)
                chunks_items.append(run.items)
                chunks_sites.append(run.require_sites())
                chunks_hash.append(run.hash_column(hasher))
                ranged.append((None, (offset, rows)))
                offset += rows
            range_plans.append((g, ranged))
        if offset == 0:
            return None, range_plans
        boxed = any(chunk.dtype == object for chunk in chunks_items)
        arena = self._arena_for((16 if boxed else 24) * offset)
        sites, hashes, items = _arena_views(arena.buf, offset, not boxed)
        np.concatenate(chunks_sites, out=sites)
        np.concatenate(chunks_hash, out=hashes)
        if items is None:
            return (arena.name, offset, np.concatenate(chunks_items)), range_plans
        np.concatenate(chunks_items, out=items)
        return (arena.name, offset, None), range_plans


def make_executor(config: SamplerConfig) -> ExecutionBackend:
    """Build the backend a :class:`SamplerConfig` asks for.

    Raises:
        ConfigurationError: For an unknown ``config.executor`` name.
    """
    if config.executor == "serial":
        return SerialExecutor()
    if config.executor == "shm":
        return SharedMemoryExecutor(config.workers)
    raise ConfigurationError(
        f"unknown executor {config.executor!r}; expected one of {EXECUTORS}"
    )
