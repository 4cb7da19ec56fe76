"""Distributed-system simulation substrate.

Implements the paper's system model (Ch. 2): ``k`` sites plus one
coordinator on a synchronous, zero-delay network.  The network's purpose is
exact *message accounting* — the paper's performance metric.
"""

from .chaos import ChaosNetwork
from .clock import SlotClock
from .delayed import DelayedNetwork
from .message import COORDINATOR, Message, MessageKind
from .network import KindCounts, MessageStats, Network
from .node import Node

__all__ = [
    "COORDINATOR",
    "Message",
    "MessageKind",
    "Network",
    "DelayedNetwork",
    "ChaosNetwork",
    "MessageStats",
    "KindCounts",
    "Node",
    "SlotClock",
]
