"""Message types exchanged between sites and the coordinator.

The paper's cost model counts *messages*; each message carries a constant
number of machine words ("message size is constant, assuming that each
stream element can be stored in a constant number of bytes").  We model a
message as a small immutable record (a named tuple, the cheapest to build
on every send) with a kind tag and a payload tuple, and account both
message counts and approximate byte sizes.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

__all__ = ["MessageKind", "Message", "COORDINATOR"]

#: Address of the coordinator node on the simulated network.
COORDINATOR: int = -1


class MessageKind(enum.Enum):
    """Wire-protocol message kinds across all implemented algorithms."""

    #: Infinite window, site -> coordinator: candidate element (Alg. 1 line 4).
    REPORT = "report"
    #: Infinite window, coordinator -> site: refreshed threshold u (Alg. 2 line 11).
    THRESHOLD = "threshold"
    #: Broadcast baseline, coordinator -> all sites: new global threshold u.
    BROADCAST = "broadcast"
    #: Sliding window, site -> coordinator: (element, expiry) (Alg. 3 lines 13/24).
    SW_REPORT = "sw_report"
    #: Sliding window, coordinator -> site: (sample, expiry) (Alg. 4 line 6).
    SW_SAMPLE = "sw_sample"
    #: Frequency-sensitive DRS baseline, site -> coordinator.
    DRS_REPORT = "drs_report"
    #: Frequency-sensitive DRS baseline, coordinator -> site.
    DRS_THRESHOLD = "drs_threshold"

    # Members are singletons compared by identity, so identity hashing
    # agrees with equality and runs in C (``Enum`` hashes the name), which
    # every per-kind count pays on each send.
    __hash__ = object.__hash__


class Message(NamedTuple):
    """A single message on the simulated network.

    Attributes:
        src: Sender address (site index, or :data:`COORDINATOR`).
        dst: Receiver address.
        kind: Protocol message kind.
        payload: Kind-specific tuple (e.g. ``(element, hash)`` for REPORT).
        size_bytes: Approximate on-wire size; defaults to a constant-size
            envelope consistent with the paper's cost model.
    """

    src: int
    dst: int
    kind: MessageKind
    payload: Any
    size_bytes: int = 16
