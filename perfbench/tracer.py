"""Layer spans for the traced run, installed from the benchmark's side.

:class:`Tracer` wraps the public entry points that bound each layer of
the package (``Engine.observe_batch``, ``Network.send``,
``SortedDominanceSet.observe``, ...) with nested spans.  A span's self
time is its duration minus the time its child spans cover, and it is
charged to the layer metric named in :data:`SPANS`.  Nothing in ``src/``
changes: the wrappers are set on the classes and modules at install time
and removed by :meth:`Tracer.uninstall`.

Spans are parent-side only.  Worker processes forked while the wrappers
are installed inherit them, so the tracer stops recording in a forked
child; worker time is read from ``group_ingest_seconds`` instead.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from multiprocessing.connection import Connection
from typing import Any, Callable

from repro import DistinctSamplerSystem, Engine, EventBatch, SlidingWindowBottomSFeedback
from repro.core.infinite import BottomSFacadeBase
from repro.netsim.network import Network
from repro.runtime import SerialExecutor, SharedMemoryExecutor, ShardedSampler
from repro.streams.partition import HashDistributor
from repro.structures.bottomk import BottomK
from repro.structures.dominance import SortedDominanceSet

_snapshot = importlib.import_module("repro.core.snapshot")
_reshard = importlib.import_module("repro.runtime.reshard")
_events = importlib.import_module("repro.core.events")

#: ``(owner, attribute, layer metric)``: every wrapped entry point and the
#: per-layer metric its self time is charged to.
SPANS: list[tuple[Any, str, str]] = [
    (Engine, "observe_batch", "runtime.engine.self_ms"),
    (HashDistributor, "assignments_for_batch", "streams.partition.route_ms"),
    (EventBatch, "hash_column", "hashing.hash_ms"),
    (_events, "unit_hash_array", "hashing.hash_ms"),
    (EventBatch, "select", "runtime.sharded.plan_ms"),
    (ShardedSampler, "observe_columns", "runtime.sharded.plan_ms"),
    (ShardedSampler, "sample", "runtime.sharded.merge_ms"),
    (ShardedSampler, "load_state", "core.snapshot.restore_ms"),
    (SerialExecutor, "ingest_columns", "runtime.executor.ingest_ms"),
    (SharedMemoryExecutor, "ingest_columns", "runtime.executor.ingest_ms"),
    (SharedMemoryExecutor, "sync", "runtime.executor.sync_ms"),
    (Connection, "recv_bytes", "runtime.executor.wait_ms"),
    (BottomSFacadeBase, "observe_columns", "core.infinite.ingest_ms"),
    (DistinctSamplerSystem, "process_batch", "core.infinite.ingest_ms"),
    (SlidingWindowBottomSFeedback, "observe_columns", "core.sliding_feedback.ingest_ms"),
    (SlidingWindowBottomSFeedback, "advance", "core.sliding_feedback.advance_ms"),
    (Network, "send", "netsim.network.send_ms"),
    (SortedDominanceSet, "observe", "structures.dominance.observe_ms"),
    (SortedDominanceSet, "expire", "structures.dominance.expire_ms"),
    (SortedDominanceSet, "bottom", "structures.dominance.bottom_ms"),
    (BottomK, "offer", "structures.bottomk.offer_ms"),
    (_snapshot, "snapshot", "core.snapshot.snapshot_ms"),
    (_snapshot, "restore", "core.snapshot.restore_ms"),
    (_reshard, "repartition_group_states", "runtime.reshard.repartition_ms"),
]

_MISSING = object()


class Tracer:
    """Nested spans with self time, accumulated per phase and layer."""

    def __init__(self) -> None:
        #: ``(phase, layer) -> seconds`` of span self time.
        self.self_time: defaultdict[tuple[str, str], float] = defaultdict(float)
        #: ``phase -> seconds`` inside spans nested in an outermost span.
        #: The outermost spans wrap whole timed calls, so their self time
        #: takes up whatever no inner span catches; this leaves it out.
        self.nested: defaultdict[str, float] = defaultdict(float)
        #: Counts taken at span boundaries, keyed by name.
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: Where span time is charged ("setup", "step", "checkpoint").
        self.phase = "setup"
        self.recording = False
        self._stack: list[list[float]] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self._last_sample: Any = None
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False

    def phase_time(self, phase: str) -> dict[str, float]:
        """Self seconds per layer metric recorded in ``phase``."""
        return {
            layer: seconds
            for (where, layer), seconds in self.self_time.items()
            if where == phase
        }

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer in SPANS:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(original, layer, attr))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def _wrap(self, original: Callable[..., Any], layer: str, attr: str) -> Any:
        stack = self._stack
        clock = time.perf_counter
        observe = getattr(self, f"_observe_{attr}", None)

        @functools.wraps(original)
        def span(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return original(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self.self_time[self.phase, layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.nested[self.phase] += frame[0]
            if observe is not None:
                observe(result)
            return result

        return span

    # -- counts at span boundaries -------------------------------------------

    def _observe_unit_hash_array(self, result: Any) -> None:
        self.counts["hashed_rows"] += len(result)

    def _observe_process_batch(self, result: Any) -> None:
        self.counts["candidates"] += result

    def _observe_sample(self, result: Any) -> None:
        # A cached read returns the very object the last merge built.
        hit = result is self._last_sample
        self.counts["cache_hits" if hit else "cache_misses"] += 1
        self._last_sample = result
