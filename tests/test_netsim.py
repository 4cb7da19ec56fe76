"""Tests for the network simulation substrate."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from collections import Counter

import pytest

from repro.errors import ProtocolError
from repro.netsim import (
    COORDINATOR,
    Message,
    MessageKind,
    Network,
    SlotClock,
)


class Recorder:
    """Minimal node that records the ``(kind, payload)`` it receives."""

    def __init__(self):
        self.received: list[tuple[MessageKind, object]] = []

    def handle_message(self, kind, payload, network):
        self.received.append((kind, payload))


class Echoer:
    """Node that answers every report (tests reentrancy)."""

    def __init__(self, address, reply_to):
        self.address = address
        self.reply_to = reply_to

    def handle_message(self, kind, payload, network):
        if kind is not MessageKind.REPORT:
            return
        network.send(self.address, self.reply_to, MessageKind.THRESHOLD, 0.5)


class PingPonger:
    """Malicious node pair that loops forever (tests the depth guard)."""

    def __init__(self, address, peer):
        self.address = address
        self.peer = peer

    def handle_message(self, kind, payload, network):
        network.send(self.address, self.peer, MessageKind.REPORT, None)


class TestRouting:
    def test_register_and_send(self):
        net = Network()
        node = Recorder()
        net.register(0, node)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.7)
        assert node.received == [(MessageKind.THRESHOLD, 0.7)]

    def test_duplicate_address_rejected(self):
        net = Network()
        net.register(0, Recorder())
        with pytest.raises(ProtocolError):
            net.register(0, Recorder())

    def test_unknown_destination(self):
        net = Network()
        with pytest.raises(ProtocolError):
            net.send(0, 99, MessageKind.REPORT, None)

    def test_node_at(self):
        net = Network()
        node = Recorder()
        net.register(3, node)
        assert net.node_at(3) is node
        with pytest.raises(ProtocolError):
            net.node_at(4)

    def test_addresses(self):
        net = Network()
        net.register(1, Recorder())
        net.register(COORDINATOR, Recorder())
        assert set(net.addresses) == {1, COORDINATOR}

    def test_reentrant_reply(self):
        net = Network()
        site = Recorder()
        coordinator = Echoer(COORDINATOR, reply_to=0)
        net.register(0, site)
        net.register(COORDINATOR, coordinator)
        net.send(0, COORDINATOR, MessageKind.REPORT, ("e", 0.1, 0))
        assert len(site.received) == 1  # got the echo
        assert net.stats.total_messages == 2

    def test_depth_guard(self):
        net = Network()
        net.register(0, PingPonger(0, 1))
        net.register(1, PingPonger(1, 0))
        with pytest.raises(ProtocolError, match="nested"):
            net.send(0, 1, MessageKind.REPORT, None)


class TestAccounting:
    def test_direction_counters(self):
        net = Network()
        net.register(0, Recorder())
        net.register(COORDINATOR, Recorder())
        net.send(0, COORDINATOR, MessageKind.REPORT, None)
        net.send(0, COORDINATOR, MessageKind.REPORT, None)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        stats = net.stats
        assert stats.total_messages == 3
        assert stats.site_to_coordinator == 2
        assert stats.coordinator_to_site == 1

    def test_byte_accounting(self):
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5, size_bytes=24)
        assert net.stats.total_bytes == 24

    def test_rejected_send_counts_nothing(self):
        # Regression: counters used to move BEFORE the destination was
        # validated, so a rejected send inflated every statistic.
        net = Network()
        net.register(0, Recorder())
        net.send(0, 0, MessageKind.REPORT, None, size_bytes=8)
        with pytest.raises(ProtocolError, match="no node registered"):
            net.send(0, 99, MessageKind.REPORT, None, size_bytes=8)
        stats = net.stats
        assert stats.total_messages == 1
        assert stats.total_bytes == 8
        assert net.kind_count(MessageKind.REPORT) == 1

    def test_kind_counters(self):
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        net.send(COORDINATOR, 0, MessageKind.BROADCAST, 0.5)
        net.send(COORDINATOR, 0, MessageKind.BROADCAST, 0.4)
        assert net.kind_count(MessageKind.BROADCAST) == 2
        assert net.kind_count(MessageKind.THRESHOLD) == 1
        assert net.kind_count(MessageKind.REPORT) == 0

    def test_kind_counts_survive_a_pickle_into_another_process(self):
        # Workers ship MessageStats pickled.  Kinds hash by identity, which
        # differs between processes, so the receiving side must rebuild
        # the per-kind counts under its own members.
        net = Network()
        net.register(0, Recorder())
        net.register(COORDINATOR, Recorder())
        for kind, times in ((MessageKind.SW_REPORT, 3), (MessageKind.SW_SAMPLE, 2)):
            for _ in range(times):
                net.send(0, COORDINATOR, kind, None)
        script = (
            "import pickle, sys\n"
            "from repro.netsim import MessageKind\n"
            "stats = pickle.loads(sys.stdin.buffer.read())\n"
            "assert stats.by_kind[MessageKind.SW_REPORT] == 3\n"
            "assert stats.by_kind[MessageKind.SW_SAMPLE] == 2\n"
            "stats.by_kind[MessageKind.SW_REPORT] += 1\n"
            "sys.stdout.buffer.write(pickle.dumps(stats))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(net.stats),
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        back = pickle.loads(done.stdout)
        assert back.total_messages == 5
        assert back.site_to_coordinator == 5
        assert back.total_bytes == 80
        assert dict(back.by_kind) == {
            MessageKind.SW_REPORT: 4,
            MessageKind.SW_SAMPLE: 2,
        }

    def test_kind_counts_read_like_a_counter(self):
        # Kinds count in an int list indexed by kind; reads keep the
        # Counter's shape: unsent kinds read 0 and are not listed.
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.BROADCAST, 0.5)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        net.send(COORDINATOR, 0, MessageKind.BROADCAST, 0.4)
        by_kind = net.stats.by_kind
        expected = Counter({MessageKind.THRESHOLD: 1, MessageKind.BROADCAST: 2})
        assert by_kind == expected
        assert dict(by_kind) == dict(expected)
        assert sorted(by_kind.items(), key=str) == sorted(expected.items(), key=str)
        assert len(by_kind) == 2
        assert by_kind[MessageKind.REPORT] == 0
        assert MessageKind.REPORT not in by_kind
        assert MessageKind.BROADCAST in by_kind
        assert by_kind.get("BROADCAST", 0) == 0
        by_kind[MessageKind.REPORT] += 2
        assert by_kind.counts[MessageKind.REPORT.index] == 2
        assert by_kind.by_name() == {"REPORT": 2, "THRESHOLD": 1, "BROADCAST": 2}
        assert [kind.index for kind in MessageKind] == list(range(len(MessageKind)))

    def test_messages_are_immutable_named_records(self):
        message = Message(0, COORDINATOR, MessageKind.REPORT, ("e", 0.5))
        assert message.size_bytes == 16
        assert (message.src, message.dst, message.kind) == (
            0,
            COORDINATOR,
            MessageKind.REPORT,
        )
        with pytest.raises(AttributeError):
            message.kind = MessageKind.THRESHOLD

    def test_broadcast_counts_per_destination(self):
        net = Network()
        for i in range(5):
            net.register(i, Recorder())
        sent = net.broadcast(COORDINATOR, range(5), MessageKind.BROADCAST, 0.1)
        assert sent == 5
        assert net.stats.total_messages == 5
        assert net.stats.coordinator_to_site == 5

    def test_reset_stats(self):
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        net.reset_stats()
        assert net.stats.total_messages == 0
        # Topology preserved.
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        assert net.stats.total_messages == 1

    def test_snapshot_is_independent(self):
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        snap = net.snapshot()
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        assert snap.total_messages == 1
        assert net.stats.total_messages == 2


class TestClock:
    def test_advance(self):
        clock = SlotClock()
        assert clock.now == 0
        clock.advance_to(5)
        assert clock.now == 5
        clock.advance_to(5)  # idempotent
        assert clock.now == 5

    def test_tick(self):
        clock = SlotClock(3)
        assert clock.tick() == 4
        assert clock.now == 4

    def test_no_rewind(self):
        clock = SlotClock(10)
        with pytest.raises(ProtocolError):
            clock.advance_to(9)
