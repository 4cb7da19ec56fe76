"""Message kinds, and the record a queueing network keeps of a message.

The paper's cost model counts *messages*; each message carries a constant
number of machine words ("message size is constant, assuming that each
stream element can be stored in a constant number of bytes").  A message
is a kind tag and a payload tuple, and the network accounts both message
counts and approximate byte sizes.

The synchronous :class:`~repro.netsim.network.Network` hands a node the
kind and the payload and builds nothing else.  :class:`Message` is the
record :class:`~repro.netsim.delayed.DelayedNetwork` and
:class:`~repro.netsim.chaos.ChaosNetwork` queue per link, where the
addresses and the size must travel with the payload until delivery.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

__all__ = ["MessageKind", "Message", "COORDINATOR"]

#: Address of the coordinator node on the simulated network.
COORDINATOR: int = -1


class MessageKind(enum.Enum):
    """Wire-protocol message kinds across all implemented algorithms.

    Each kind's ``index`` is its position in declaration order: its slot
    in the int list a network counts kinds in
    (:class:`~repro.netsim.network.KindCounts`).
    """

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

    def __init__(self, value: str) -> None:
        # Members are built in declaration order, each after the last one
        # joined the class.
        self.index = len(type(self).__members__)

    # Members are singletons compared by identity, so identity hashing
    # agrees with equality and runs in C (``Enum`` hashes the name).
    __hash__ = object.__hash__


class Message(NamedTuple):
    """A message queued on a delaying network.

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
