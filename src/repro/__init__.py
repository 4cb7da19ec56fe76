"""repro — Distinct Random Sampling from a Distributed Stream.

A from-scratch Python reproduction of Chung & Tirthapura's distributed
distinct sampling system (M.S. thesis, Iowa State, 2013; IPDPS 2015):
continuous maintenance, at a coordinator, of a uniform random sample of the
*distinct* elements observed across ``k`` distributed stream-monitoring
sites, with provably near-optimal message complexity — plus the sliding-
window extension, the Broadcast baseline, lower-bound machinery, and the
full experimental harness for the paper's Table 5.1 and Figures 5.1–5.10.

Quickstart::

    from repro import make_sampler

    system = make_sampler("infinite", num_sites=5, sample_size=10, seed=42)
    system.observe(0, "alice")      # site 0 saw "alice"
    system.observe(3, "bob")        # site 3 saw "bob"
    system.observe(1, "alice")      # duplicates never skew the sample
    print(system.sample().items)    # uniform sample of distinct elements
    print(system.stats().messages_total)  # the paper's cost metric

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from ._version import __version__
from .core import (
    BroadcastSamplerSystem,
    CachingSamplerSystem,
    CentralizedDistinctSampler,
    CentralizedWindowSampler,
    DistinctSamplerSystem,
    EventBatch,
    Sampler,
    SampleResult,
    SamplerConfig,
    SamplerStats,
    SamplerVariant,
    SlidingWindowBottomS,
    SlidingWindowBottomSFeedback,
    SlidingWindowSystem,
    SlidingWindowWithReplacement,
    WithReplacementSampler,
    get_variant,
    make_sampler,
    register_variant,
    restore,
    sampler_variants,
    snapshot,
)
from .errors import (
    ConfigurationError,
    DatasetError,
    EstimationError,
    ExecutorError,
    ProtocolError,
    ReproError,
)
from .hashing import SeededHashFamily, UnitHasher
from .runtime import (
    Engine,
    SerialExecutor,
    SharedMemoryExecutor,
    ShardedSampler,
    Topology,
)

__all__ = [
    "__version__",
    "EventBatch",
    "Sampler",
    "SampleResult",
    "SamplerConfig",
    "SamplerStats",
    "SamplerVariant",
    "make_sampler",
    "register_variant",
    "sampler_variants",
    "get_variant",
    "DistinctSamplerSystem",
    "SlidingWindowBottomSFeedback",
    "BroadcastSamplerSystem",
    "CachingSamplerSystem",
    "snapshot",
    "restore",
    "SlidingWindowSystem",
    "SlidingWindowBottomS",
    "WithReplacementSampler",
    "SlidingWindowWithReplacement",
    "CentralizedDistinctSampler",
    "CentralizedWindowSampler",
    "Engine",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "ShardedSampler",
    "Topology",
    "UnitHasher",
    "SeededHashFamily",
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "ExecutorError",
    "DatasetError",
    "EstimationError",
]
