"""Unit tests for the chaos-mode transport (drop/duplicate/reorder/dead
sites).  The protocol-level convergence guarantees live in
``test_properties.py``; this file pins the transport mechanics: seeded
determinism, counting semantics, and the dead-site blackhole rules."""

from __future__ import annotations

import pytest

from repro import CentralizedDistinctSampler, DistinctSamplerSystem
from repro.errors import ConfigurationError, ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import COORDINATOR, ChaosNetwork, MessageKind


class Collector:
    def __init__(self):
        self.payloads = []

    def handle_message(self, kind, payload, network):
        self.payloads.append(payload)


def linked_net(**kwargs):
    net = ChaosNetwork(**kwargs)
    node = Collector()
    net.register(0, node)
    net.register(1, Collector())
    return net, node


class TestValidation:
    @pytest.mark.parametrize("field", ["drop", "duplicate", "reorder"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_probabilities_are_checked(self, field, value):
        with pytest.raises(ConfigurationError, match="probability"):
            ChaosNetwork(**{field: value})

    def test_unknown_profile_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown link profile"):
            ChaosNetwork(link_profiles={(0, 1): {"lose": 0.5}})

    def test_profile_probability_checked(self):
        with pytest.raises(ConfigurationError, match="probability"):
            ChaosNetwork(link_profiles={(0, 1): {"drop": 2.0}})

    def test_unknown_destination_rejected_uncounted(self):
        net, _ = linked_net()
        with pytest.raises(ProtocolError, match="no node registered"):
            net.send(COORDINATOR, 99, MessageKind.REPORT, None)
        assert net.stats.total_messages == 0
        assert net.dropped_messages == 0


class TestDropDuplicateReorder:
    def test_certain_drop_counts_send_but_delivers_nothing(self):
        net, node = linked_net(drop=1.0)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        # The sender paid for the message (it was sent), the network ate it.
        assert net.stats.total_messages == 1
        assert net.dropped_messages == 1
        assert net.in_flight == 0
        assert net.pump() == 0
        assert node.payloads == []

    def test_certain_duplication_delivers_twice(self):
        net, node = linked_net(duplicate=1.0)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        assert net.stats.total_messages == 1  # the copy is the network's fault
        assert net.duplicated_messages == 1
        assert net.in_flight == 2
        assert net.pump() == 2
        assert node.payloads == [0.5, 0.5]

    def test_reorder_perturbs_fifo_and_counts(self):
        net, node = linked_net(reorder=1.0, seed=3)
        for i in range(6):
            net.send(COORDINATOR, 0, MessageKind.THRESHOLD, i)
        assert net.pump() == 6
        assert sorted(node.payloads) == [0, 1, 2, 3, 4, 5]
        assert node.payloads != [0, 1, 2, 3, 4, 5]
        assert net.reordered_messages > 0

    def test_same_seed_same_fault_schedule(self):
        def run(seed):
            net, node = linked_net(
                drop=0.3, duplicate=0.3, reorder=0.3, seed=seed
            )
            for i in range(40):
                net.send(COORDINATOR, 0, MessageKind.THRESHOLD, i)
            net.pump()
            return (
                node.payloads,
                net.dropped_messages,
                net.duplicated_messages,
                net.reordered_messages,
            )

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_link_profiles_override_defaults(self):
        net, node = linked_net(
            drop=0.0, link_profiles={(COORDINATOR, 1): {"drop": 1.0}}
        )
        assert net.link_profile(COORDINATOR, 0) == (0.0, 0.0, 0.0)
        assert net.link_profile(COORDINATOR, 1) == (1.0, 0.0, 0.0)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.1)
        net.send(COORDINATOR, 1, MessageKind.THRESHOLD, 0.2)
        assert net.dropped_messages == 1
        assert net.pump() == 1
        assert node.payloads == [0.1]


class TestDeadSites:
    def test_kill_requires_registered_address(self):
        net, _ = linked_net()
        with pytest.raises(ProtocolError, match="no node registered"):
            net.kill_site(7)

    def test_dead_source_sends_nothing_and_pays_nothing(self):
        net, node = linked_net()
        net.kill_site(1)
        assert net.dead_sites == frozenset({1})
        net.send(1, 0, MessageKind.REPORT, "from-the-grave")
        assert net.stats.total_messages == 0
        assert net.dropped_messages == 1
        net.pump()
        assert node.payloads == []

    def test_dead_destination_counts_the_send_but_swallows_it(self):
        net, _ = linked_net()
        net.kill_site(0)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        # The sender did send (and pays); the dead node never sees it.
        assert net.stats.total_messages == 1
        assert net.dropped_messages == 1
        assert net.in_flight == 0

    def test_queued_message_dropped_if_destination_dies_before_delivery(self):
        net, node = linked_net()
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        assert net.in_flight == 1
        net.kill_site(0)
        assert net.pump() == 0
        assert net.dropped_messages == 1
        assert node.payloads == []

    def test_revive_restores_delivery_without_replay(self):
        net, node = linked_net()
        net.kill_site(0)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, "lost")
        net.revive_site(0)
        net.revive_site(0)  # idempotent
        assert net.dead_sites == frozenset()
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, "kept")
        net.pump()
        assert node.payloads == ["kept"]


class TestChaosOverProtocol:
    def test_duplication_and_reorder_are_invisible_at_quiescence(self):
        hasher = UnitHasher(23)
        system = DistinctSamplerSystem(3, 5, hasher=hasher)
        ChaosNetwork.rewire(system, duplicate=0.4, reorder=0.4, seed=23)
        oracle = CentralizedDistinctSampler(5, hasher)
        for i in range(1500):
            element = (i * 131) % 240
            system.observe(i % 3, element)
            oracle.observe(element)
        system.network.pump()
        assert system.network.duplicated_messages > 0
        assert system.sample() == oracle.sample()

    def test_chaos_drops_still_count_message_costs(self):
        hasher = UnitHasher(29)
        system = DistinctSamplerSystem(2, 3, hasher=hasher)
        ChaosNetwork.rewire(system, drop=0.5, seed=29)
        for i in range(400):
            system.observe(i % 2, (i * 37) % 90)
        system.network.pump()
        assert system.network.dropped_messages > 0
        # Chaos drops happen in the network, after the sender paid.
        assert system.network.stats.total_messages >= (
            system.network.delivered_messages
        )
