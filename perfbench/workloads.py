"""The benchmark's workloads: seeded inputs, set-up and the closed loop.

Each workload drives one sampler from one process through the package's
public API (``make_sampler``, ``Engine``, ``sample()``,
``snapshot``/``restore``).  Keys, slots and the starting checkpoint are
generated here with NumPy from the run's seed, so the traffic cannot
change when the program's own stream generators do.  Generation and the
correctness references run outside every timed window and outside
``setup_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import multiprocessing
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro import Engine, EventBatch, SamplerConfig, make_sampler

import checks
from tracer import Tracer

#: ``snapshot``/``restore`` are looked up on their module at call time, so
#: the traced run can wrap them.  (``repro.core.snapshot`` the attribute is
#: the function; the module is only reachable through ``sys.modules``.)
checkpoints = importlib.import_module("repro.core.snapshot")

#: Sites k, coordinator groups S and hash algorithm shared by all workloads.
NUM_SITES = 8
SHARDS = 4
ALGORITHM = "mix64"
#: The deployment's sampling/routing seed and the key universe's id layout
#: are fixed; ``--seed`` draws the traffic.  Which keys are heavy and where
#: they hash then stays put, so counts vary little from seed to seed.
SAMPLER_SEED = 2015
UNIVERSE_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single caller with no think time.

    A step ingests ``batch`` keys through ``Engine.observe_batch`` (one
    slot per step when ``window`` is set), takes one fresh ``sample()``,
    then ``cached_reads`` reads of the unchanged sample.
    """

    name: str
    variant: str
    sample_size: int
    batch: int
    universe: int
    window: int = 0
    #: Zipf exponent of key popularity; 0 draws keys uniformly.
    zipf: float = 0.0
    executor: str = "serial"
    workers: int = 0
    #: Shard count of the starting checkpoint (re-partitioned to SHARDS).
    source_shards: int = SHARDS
    checkpoint_every: int = 64
    cached_reads: int = 0
    #: Steps in the seeded warm prefix the starting checkpoint holds.
    prefix_steps: int = 64
    #: Untimed steps between set-up and the timed phase.
    warmup_steps: int = 32
    #: Timed steps over which the deterministic counts are taken; a run
    #: keeps stepping past ``--seconds`` until it has done this many.
    count_steps: int = 256
    #: Identical set-ups per run, after one untimed cold one.
    setups: int = 15

    @property
    def windowed(self) -> bool:
        return self.window > 0


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="ingest-bulk",
            variant="sharded:infinite",
            sample_size=64,
            batch=16_384,
            universe=4_000_000,
        ),
        Workload(
            name="window-churn",
            variant="sharded:sliding",
            sample_size=16,
            batch=512,
            universe=200_000,
            window=32,
            zipf=1.2,
        ),
        Workload(
            name="serve-mixed",
            variant="sharded:infinite",
            sample_size=256,
            batch=4_096,
            universe=4_000_000,
            executor="shm",
            workers=2,
            source_shards=2,
            checkpoint_every=16,
            cached_reads=16,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` for the benchmark's tests."""
    return replace(
        workload,
        batch=max(64, workload.batch // 16),
        prefix_steps=8,
        warmup_steps=2,
        count_steps=8,
        checkpoint_every=4,
        setups=3,
    )


class KeyStream:
    """Seeded keys: step ``i``'s batch depends only on ``(seed, i)``."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        if workload.zipf:
            weights = np.arange(1, workload.universe + 1, dtype=np.float64)
            cdf = np.cumsum(weights ** -workload.zipf)
            self._cdf = cdf / cdf[-1]
            self._ids = (
                np.random.default_rng(UNIVERSE_SEED)
                .permutation(workload.universe)
                .astype(np.int64)
            )

    def keys(self, step: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 0, step])
        workload = self.workload
        if workload.zipf:
            ranks = np.searchsorted(
                self._cdf, rng.random(workload.batch), side="right"
            )
            return self._ids[ranks]
        return rng.integers(0, workload.universe, workload.batch, dtype=np.int64)


def reset_peak_rss() -> bool:
    """Restart this process's resident-memory high-water mark (``VmHWM``)
    at its current size; returns False where the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """High-water resident memory (``VmHWM``) of this process plus each of
    its live worker processes: this process's since the last
    :func:`reset_peak_rss`, a worker's since it was forked.  Memory freed
    between two reads still counts, as the kernel keeps the mark."""
    total_kb = 0
    for pid in ["self", *(p.pid for p in multiprocessing.active_children())]:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:  # a worker that just exited holds no memory
            pass
    return total_kb / 1024


@dataclass
class Counters:
    """Operations attempted and failed, with the first few tracebacks."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def attempt(
        self, op: str, fn: Callable[..., Any], *args: Any, ops: int = 1,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` as ``ops`` operations; a raised exception fails them
        all and returns None."""
        self.attempted += ops
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += ops
            if len(self.errors) < 5:
                self.errors.append(f"{op}: {traceback.format_exc()}")
            return None


#: The reference kernel's median time on the host the benchmark was tuned
#: on (a 2-vCPU KVM guest on a Xeon, Python 3.11, NumPy 2.4), in seconds.
REFERENCE_S = 80e-6


class Speed:
    """Tracks the host's current speed with a benchmark-owned kernel.

    On a shared host the speed of this process's CPU shifts by up to 1.6x
    within seconds as neighbours load the machine, and a whole run can
    sit in the slow or the fast state.  The kernel (a NumPy column pass
    plus a per-element Python loop, like the program's hot paths) is
    timed before every step and set-up, outside the timed calls, and each
    timing is scaled by ``REFERENCE_S`` over the mean of the two probes
    that bracket it.  The kernel is the benchmark's own code: a change to
    ``src/`` cannot move it, so a real speed-up shows in full.

    The probe's time is its wall time less the time this thread waited,
    runnable, for the CPU (the scheduler's run delay): time it spends
    behind the program's own worker processes or threads on the pinned
    CPU is not taken for host slowness and credited back to the program.
    Time the host takes the virtual CPU away still counts; thread CPU
    time leaves that out and tracked the host worse.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20261016)
        self._column = rng.integers(0, 2**62, 2048, dtype=np.int64).view(np.uint64)
        self._items = rng.integers(0, 1 << 20, 150).tolist()
        self.probes: list[float] = []
        #: This thread's scheduler statistics: nanoseconds on the CPU, then
        #: nanoseconds runnable but waiting for it, then time slices.
        self._schedstat = open("/proc/thread-self/schedstat", "rb", buffering=0)

    def _run_delay(self) -> float:
        return int(os.pread(self._schedstat.fileno(), 64, 0).split()[1]) / 1e9

    def _kernel(self) -> int:
        x = self._column ^ (self._column >> np.uint64(33))
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        candidates = np.flatnonzero((x >> np.uint64(11)) < np.uint64(1 << 46))
        seen: dict[int, int] = {}
        kept = []
        for item in self._items:
            h = (item * 0x9E3779B1) & 0xFFFFFFFF
            if item not in seen:
                seen[item] = h
                if h < 0x7FFFFFFF:
                    kept.append((h, item))
        kept.sort()
        return candidates.size + len(kept)

    def probe(self) -> int:
        """Time the kernel (best of three); returns the probe count so far,
        the mark of a timing taken before the next probe."""
        best = np.inf
        for _ in range(3):
            started = time.perf_counter()
            waited = self._run_delay()
            self._kernel()
            waited = self._run_delay() - waited
            best = min(best, time.perf_counter() - started - waited)
        self.probes.append(best)
        return len(self.probes)

    def scaled(self, timings: "Timings") -> list[float]:
        """Timings in reference-host seconds."""
        probes, last = self.probes, len(self.probes) - 1
        return [
            seconds * 2 * REFERENCE_S / (probes[mark - 1] + probes[min(mark, last)])
            for seconds, mark in zip(timings.seconds, timings.marks)
        ]


@dataclass
class Timings:
    """Measured seconds of one kind of call, each with its probe mark."""

    seconds: list[float] = field(default_factory=list)
    marks: list[int] = field(default_factory=list)

    def add(self, seconds: float, mark: int) -> None:
        self.seconds.append(seconds)
        self.marks.append(mark)

    def __len__(self) -> int:
        return len(self.seconds)


@dataclass
class Samples:
    """Timings of one timed phase, as measured (see :meth:`Speed.scaled`)."""

    ingest: Timings = field(default_factory=Timings)
    result: Timings = field(default_factory=Timings)
    reads: Timings = field(default_factory=Timings)
    checkpoint: Timings = field(default_factory=Timings)
    setup: Timings = field(default_factory=Timings)


class Run:
    """One benchmark run of one workload: inputs, set-up, steps, checks."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.stream = KeyStream(workload, seed)
        self.counters = Counters()
        self.samples = Samples()
        self.speed = Speed()
        self.problems: list[str] = []
        self.sampler: Any = None
        self.engine: Optional[Engine] = None
        self.next_step = workload.prefix_steps
        self.text, self.source_pairs = self._starting_checkpoint()
        self.last_checkpoint: Optional[tuple[str, Any]] = None
        #: Set by the traced run; checkpoint spans are charged apart.
        self.tracer: Optional[Tracer] = None

    # -- inputs ----------------------------------------------------------------

    def _slot(self, step: int) -> Optional[int]:
        return step if self.workload.windowed else None

    def _starting_checkpoint(self) -> tuple[str, Any]:
        """JSON checkpoint of a sampler fed the seeded warm prefix."""
        workload = self.workload
        sampler = make_sampler(
            SamplerConfig(
                variant=workload.variant,
                num_sites=NUM_SITES,
                sample_size=workload.sample_size,
                window=workload.window,
                seed=SAMPLER_SEED,
                algorithm=ALGORITHM,
                shards=workload.source_shards,
            )
        )
        engine = Engine(sampler, policy="hash", seed=SAMPLER_SEED)
        for step in range(workload.prefix_steps):
            engine.observe_batch(
                EventBatch(self.stream.keys(step)), slot=self._slot(step)
            )
        return json.dumps(checkpoints.snapshot(sampler)), sampler.sample().pairs

    # -- set-up ------------------------------------------------------------------

    def _set_up_once(self) -> tuple[Any, Engine, Any]:
        """Cold start to first answer: parse, restore, warm, attach, read."""
        workload = self.workload
        state = json.loads(self.text)
        if workload.source_shards == SHARDS and workload.executor == "serial":
            sampler = checkpoints.restore(state)
        else:
            config = replace(
                SamplerConfig(**state["config"]),
                shards=SHARDS,
                executor=workload.executor,
                workers=workload.workers,
            )
            sampler = make_sampler(config)
            sampler.load_state(state["state"])
        warmup = getattr(sampler.executor, "warmup", None)
        if warmup is not None:
            warmup()
        engine = Engine(sampler, policy="hash", seed=SAMPLER_SEED)
        return sampler, engine, sampler.sample()

    def set_up(self, timed: int) -> None:
        """One untimed cold set-up, then ``timed`` timed ones; keeps the last."""
        for index in range(timed + 1):
            if self.sampler is not None:
                self.close()
            # The restored sampler resumes the stream where the checkpoint
            # left it, whatever an earlier sampler of this run went on to.
            self.next_step = self.workload.prefix_steps
            self.last_checkpoint = None
            mark = self.speed.probe()
            started = time.perf_counter()
            made = self.counters.attempt("set-up", self._set_up_once)
            elapsed = time.perf_counter() - started
            if made is None:
                continue
            self.sampler, self.engine, first = made
            if index:
                self.samples.setup.add(elapsed, mark)
            if first.pairs != self.source_pairs:
                self.problems.append(
                    "restored sampler answers differently from its source"
                )
        if self.sampler is None:
            raise RuntimeError("every set-up failed")

    def close(self) -> None:
        close = getattr(self.sampler, "close", None)
        if close is not None:
            close()
        self.sampler = None
        self.engine = None

    # -- steps -------------------------------------------------------------------

    def step(self, samples: Optional[Samples]) -> None:
        """One closed-loop step; ``samples=None`` runs it untimed."""
        workload = self.workload
        step = self.next_step
        self.next_step += 1
        batch = EventBatch(self.stream.keys(step))
        slot = self._slot(step)
        sampler, attempt = self.sampler, self.counters.attempt
        mark = self.speed.probe()
        started = time.perf_counter()
        ingested = attempt("ingest", self.engine.observe_batch, batch, slot=slot)
        ingested_at = time.perf_counter()
        result = attempt("read", sampler.sample)
        answered_at = time.perf_counter()
        if samples is not None and ingested is not None and result is not None:
            samples.ingest.add(ingested_at - started, mark)
            samples.result.add(answered_at - started, mark)
        if workload.cached_reads:
            started = time.perf_counter()
            read = attempt(
                "cached read", self._cached_reads, ops=workload.cached_reads
            )
            elapsed = time.perf_counter() - started
            if samples is not None and read is not None:
                samples.reads.add(elapsed / workload.cached_reads, mark)
        if (step - workload.prefix_steps + 1) % workload.checkpoint_every == 0:
            if self.tracer is not None:
                self.tracer.phase = "checkpoint"
            started = time.perf_counter()
            text = attempt("checkpoint", self.checkpoint)
            elapsed = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.phase = "step"
            if text is not None and result is not None:
                self.last_checkpoint = (text, result.pairs)
                if samples is not None:
                    samples.checkpoint.add(elapsed, mark)

    def _cached_reads(self) -> float:
        """Re-read the unchanged sample, alternating ``sample()`` and
        ``threshold``; both are served from the merge cache."""
        for _ in range(self.workload.cached_reads // 2):
            self.sampler.sample()
            threshold = self.sampler.threshold
        return threshold

    def checkpoint(self) -> str:
        return json.dumps(checkpoints.snapshot(self.sampler))

    def counts(self) -> tuple[int, int]:
        """``(total messages, state entries)`` of the live sampler."""
        messages = self.sampler.message_stats().total_messages
        return messages, self.sampler.stats().memory_total

    # -- correctness -------------------------------------------------------------

    def verify(self) -> list[str]:
        """Every correctness check of the run; an empty list passes."""
        workload = self.workload
        sampler = self.sampler
        hasher = sampler.sampling_hasher
        problems = list(self.problems)
        last = self.next_step - 1
        if workload.windowed:
            steps = range(max(0, last - workload.window + 1), last + 1)
            problems += checks.check_window_reference(
                self.stream.keys,
                min(workload.prefix_steps, 2 * workload.window) - 1,
                workload.window,
                workload.sample_size,
                hasher,
            )
        else:
            steps = range(last + 1)
        reference = checks.bottom_s(
            (self.stream.keys(step) for step in steps),
            workload.sample_size,
            hasher,
        )
        problems += checks.check_sample(sampler.sample().pairs, reference, hasher)
        if self.last_checkpoint is None:
            problems.append("the run took no checkpoint")
        else:
            problems += checks.check_restore(*self.last_checkpoint)
        if workload.executor == "shm" and sampler.executor.pickle_bytes:
            problems.append(
                f"shm ingest pickled {sampler.executor.pickle_bytes} bytes"
            )
        return problems


@dataclass
class Report:
    """What one run prints: metrics by name with their units, and verdicts."""

    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    problems: list[str]
    errors: list[str]
    attempted: int
    failed: int


@contextlib.contextmanager
def one_cpu() -> Iterator[None]:
    """Run on one CPU, with every worker process forked meanwhile.

    On the shared 2-vCPU host this benchmark was tuned on, wake-ups that
    cross vCPUs made the shm workload's step latency swing by 30% from run
    to run (medians 3.9-5.2 ms unpinned, 4.1-4.5 ms pinned); pinning also
    keeps the speed probe on the CPU that does the work.  Multi-core
    speed-up is therefore not what this benchmark measures.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def timed_phase(
    run: Run, samples: Samples, seconds: float, min_steps: int,
    each: Optional[Callable[[int], None]] = None,
) -> int:
    """Step for ``seconds`` (and at least ``min_steps``); returns the count."""
    started = time.perf_counter()
    done = 0
    while done < min_steps or time.perf_counter() - started < seconds:
        run.step(samples)
        done += 1
        if each is not None:
            each(done)
    run.speed.probe()  # brackets the last step
    return done


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def measure(workload: Workload, seed: int, seconds: float) -> Report:
    """One untraced run: the end-to-end metrics and the correctness verdict."""
    with one_cpu():
        run = Run(workload, seed)
        peak_reset = reset_peak_rss()  # the inputs made so far do not count
        run.set_up(workload.setups)
        messages_before = run.sampler.message_stats().total_messages
        for _ in range(workload.warmup_steps):
            run.step(None)
        counted: dict[str, int] = {}

        def each(done: int) -> None:
            if done == workload.count_steps:
                counted["messages"], counted["entries"] = run.counts()

        steps = timed_phase(run, run.samples, seconds, workload.count_steps, each)
        peak_mb = peak_rss_mb()  # before the checks' references are built
        problems = run.verify()
        run.close()
    samples, scaled = run.samples, run.speed.scaled
    events = (workload.warmup_steps + workload.count_steps) * workload.batch
    result = scaled(samples.result)
    metrics = {
        "setup_s": (statistics.median(scaled(samples.setup)), "s"),
        "ingest_eps": (
            workload.batch / statistics.median(scaled(samples.ingest)), "events/s"
        ),
        "result_ms_p50": (1e3 * quantile(result, 0.5), "ms"),
        "result_ms_p90": (1e3 * quantile(result, 0.9), "ms"),
        "checkpoint_ms_p50": (
            1e3 * statistics.median(scaled(samples.checkpoint)), "ms"
        ),
        "messages_per_event": (
            (counted["messages"] - messages_before) / events, "msg/event"
        ),
        "state_entries": (counted["entries"], "count"),
        "peak_rss_mb": (peak_mb, "MB"),
        "success_ratio": (
            1 - run.counters.failed / run.counters.attempted, "ratio"
        ),
    }
    notes = [
        f"samples: setup_s {len(samples.setup)} set-ups; ingest_eps and "
        f"result_ms_* {len(samples.result)} steps "
        f"({len(samples.result) // 10} beyond p90); checkpoint_ms_p50 "
        f"{len(samples.checkpoint)} checkpoints",
        f"counts: messages_per_event over {workload.warmup_steps} warm-up + "
        f"{workload.count_steps} timed steps ({events} events); "
        f"state_entries after them; {steps} timed steps in all",
        f"peak_rss_mb: high-water mark of this process since "
        f"{'set-up began' if peak_reset else 'it started'}, plus the live "
        f"workers' since their fork",
        f"speed: timings scaled to the reference host by a median factor of "
        f"{REFERENCE_S / statistics.median(run.speed.probes):.3f} "
        f"({len(run.speed.probes)} probes)",
    ]
    return Report(
        metrics, notes, problems, run.counters.errors,
        run.counters.attempted, run.counters.failed,
    )


#: Message kinds the sampler variants here send, for the per-kind rates.
MESSAGE_KINDS = ("report", "threshold", "sw_report", "sw_sample")

#: Per-step layer self times (ms) the traced run reports.
STEP_LAYERS = (
    "runtime.engine.self_ms",
    "streams.partition.route_ms",
    "hashing.hash_ms",
    "runtime.sharded.plan_ms",
    "runtime.sharded.merge_ms",
    "runtime.executor.ingest_ms",
    "runtime.executor.wait_ms",
    "runtime.executor.sync_ms",
    "core.infinite.ingest_ms",
    "core.sliding_feedback.ingest_ms",
    "core.sliding_feedback.advance_ms",
    "structures.dominance.observe_ms",
    "structures.dominance.expire_ms",
    "structures.dominance.bottom_ms",
    "netsim.network.send_ms",
    "structures.bottomk.offer_ms",
)

#: Traced set-ups per traced run (after one cold one).
TRACED_SETUPS = 3


def _counters(sampler: Any) -> dict[str, Any]:
    """The program's own counters, read between steps."""
    executor = sampler.executor
    queries, syncs = sampler.query_count, sampler.sync_count
    by_kind = sampler.message_stats().by_kind
    return {
        "queries": queries,
        "syncs": syncs,
        "kinds": {kind.value: count for kind, count in by_kind.items()},
        "ipc_bytes": executor.ipc_bytes,
        "pickle_bytes": executor.pickle_bytes,
        "busy_s": sum(sampler.group_ingest_seconds),
    }


def _dominance_entries(sampler: Any) -> int:
    """Entries held in every s-dominance set (sites and coordinators)."""
    total = 0
    for group in sampler.groups:
        for node in (*group.sites, group.coordinator):
            candidates = getattr(node, "candidates", None)
            if candidates is not None:
                total += len(candidates)
    return total


def trace(workload: Workload, seed: int, seconds: float) -> Report:
    """One traced run: per-layer metrics, coverage and tracing overhead.

    The first half of ``seconds`` steps untraced (the base of the tracing
    overhead, and the cached-read timing, which spans would swamp); the
    second half steps with every span of :data:`tracer.SPANS` recording.
    """
    tracer = Tracer()
    with one_cpu():
        run = Run(workload, seed)
        run.set_up(1)
        for _ in range(workload.warmup_steps):
            run.step(None)
        untraced = Samples()
        timed_phase(run, untraced, seconds / 2, workload.checkpoint_every)
        run.close()
        tracer.install()
        try:
            tracer.recording = True
            run.set_up(TRACED_SETUPS)
            tracer.recording = False
            for _ in range(workload.warmup_steps):
                run.step(None)
            before = _counters(run.sampler)
            tracer.counts.clear()
            tracer.phase = "step"
            tracer.recording = True
            run.tracer = tracer
            traced = Samples()
            steps = timed_phase(run, traced, seconds / 2, workload.checkpoint_every)
            tracer.recording = False
            run.tracer = None
        finally:
            tracer.uninstall()
        after = _counters(run.sampler)
        entries = _dominance_entries(run.sampler)
        recoveries = run.sampler.executor.recoveries
        workers = run.sampler.executor.name != "serial"
        problems = run.verify()
        run.close()
    events = steps * workload.batch
    scaled = run.speed.scaled
    step_s = sum(traced.result.seconds) + workload.cached_reads * sum(
        traced.reads.seconds
    )
    spans = tracer.phase_time("step")
    setup_spans = tracer.phase_time("setup")
    checkpoint_spans = tracer.phase_time("checkpoint")
    setups = TRACED_SETUPS + 1
    hits, misses = tracer.counts["cache_hits"], tracer.counts["cache_misses"]
    queries = after["queries"] - before["queries"]
    metrics: dict[str, tuple[float, str]] = {
        layer: (1e3 * spans.get(layer, 0.0) / steps, "ms") for layer in STEP_LAYERS
    }
    metrics.update({
        "hashing.passes_per_event": (
            tracer.counts["hashed_rows"] / events, "passes/event"
        ),
        "runtime.sharded.cached_read_us": (
            1e6 * statistics.median(scaled(untraced.reads)) if untraced.reads else 0.0,
            "us",
        ),
        "runtime.sharded.cache_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "runtime.executor.syncs_per_query": (
            (after["syncs"] - before["syncs"]) / max(1, queries), "syncs/query"
        ),
        "runtime.executor.worker_busy_ms": (
            1e3 * (after["busy_s"] - before["busy_s"]) / steps if workers else 0.0,
            "ms",
        ),
        "runtime.executor.ipc_bytes_per_event": (
            (after["ipc_bytes"] - before["ipc_bytes"]) / events, "B/event"
        ),
        "runtime.executor.pickle_bytes_per_event": (
            (after["pickle_bytes"] - before["pickle_bytes"]) / events, "B/event"
        ),
        "runtime.executor.recoveries": (recoveries, "count"),
        "core.infinite.candidates_per_event": (
            tracer.counts["candidates"] / events, "cand/event"
        ),
        "structures.dominance.entries": (entries, "count"),
        "core.snapshot.snapshot_ms": (
            1e3 * checkpoint_spans.get("core.snapshot.snapshot_ms", 0.0)
            / max(1, len(traced.checkpoint)),
            "ms",
        ),
        "core.snapshot.restore_ms": (
            1e3 * setup_spans.get("core.snapshot.restore_ms", 0.0) / setups, "ms"
        ),
        "core.snapshot.bytes": (len(run.last_checkpoint[0]), "B"),
        "runtime.reshard.repartition_ms": (
            1e3 * setup_spans.get("runtime.reshard.repartition_ms", 0.0) / setups,
            "ms",
        ),
    })
    for kind in MESSAGE_KINDS:
        sent = after["kinds"].get(kind, 0) - before["kinds"].get(kind, 0)
        metrics[f"netsim.network.messages_per_event.{kind}"] = (
            sent / events, "msg/event"
        )
    untraced_eps = workload.batch / statistics.median(scaled(untraced.ingest))
    traced_eps = workload.batch / statistics.median(scaled(traced.ingest))
    metrics.update({
        "trace.step_ms": (1e3 * step_s / steps, "ms"),
        "trace.coverage": (sum(spans.values()) / step_s, "ratio"),
        "trace.inner_coverage": (tracer.nested["step"] / step_s, "ratio"),
        "trace.untraced_ingest_eps": (untraced_eps, "events/s"),
        "trace.overhead": (untraced_eps / traced_eps - 1, "ratio"),
    })
    notes = [
        f"traced: {steps} steps ({events} events), {len(traced.checkpoint)} "
        f"checkpoints, {setups} set-ups; untraced: {len(untraced.result)} steps",
        f"{'layer':40s} {'ms/step':>9s} {'share':>7s}",
    ]
    for layer in sorted(spans, key=spans.get, reverse=True):
        share = spans[layer] / step_s
        notes.append(
            f"{layer:40s} {1e3 * spans[layer] / steps:9.4f} {share:7.1%}"
        )
    return Report(
        metrics, notes, problems, run.counters.errors,
        run.counters.attempted, run.counters.failed,
    )
