"""The shared distributed-runtime layer.

Everything the protocol facades used to duplicate lives here, once:

* :class:`~repro.runtime.topology.Topology` — node registration, site
  addressing, and coordinator wiring over a pluggable
  :class:`~repro.netsim.network.Network` transport, plus the canonical
  message-cost accessors.
* :class:`~repro.runtime.engine.Engine` — single/batch observe routing
  with policies (explicit site, round-robin, hash-partition), reusing
  :mod:`repro.streams.partition` semantics.
* :class:`~repro.runtime.sharded.ShardedSampler` — S independent
  coordinator groups over a hash-partitioned key space with query-time
  bottom-s merge (registered as ``sharded:<variant>``).
* :mod:`~repro.runtime.executor` — the two execution backends for the
  sharded ingest path: :class:`~repro.runtime.executor.SerialExecutor`
  (in-process, simulated critical path) and
  :class:`~repro.runtime.executor.SharedMemoryExecutor` (persistent
  worker processes over zero-copy ``/dev/shm`` columns; measured
  critical path) — bit-identical to each other.

Layering: ``streams → runtime (engine) → protocol cores → runtime
(topology) → netsim transports``.  The runtime depends only on
``core.protocol``, ``netsim``, ``streams``, and ``hashing``; the concrete
protocol facades depend on the runtime, never the other way around — new
topologies (multi-process, async) plug in behind the same interfaces.
"""

from .engine import ROUTING_POLICIES, Engine
from .executor import (
    ExecutionBackend,
    SerialExecutor,
    SharedMemoryExecutor,
    make_executor,
)
from .sharded import ShardedSampler
from .topology import Topology, merge_message_stats

__all__ = [
    "Engine",
    "ExecutionBackend",
    "ROUTING_POLICIES",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "ShardedSampler",
    "Topology",
    "make_executor",
    "merge_message_stats",
]
