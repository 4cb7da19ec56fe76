"""Hypothesis stateful (rule-based) tests.

These drive long arbitrary interleavings of operations against the core
data structures and the distributed protocol, holding a reference model
alongside and checking equivalence after every step — the strongest
random-testing layer in the suite.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import CentralizedDistinctSampler, DistinctSamplerSystem
from repro.hashing import UnitHasher
from repro.structures.bottomk import BottomK
from repro.structures.dominance import SortedDominanceSet, brute_force_survivors
from treap_oracle import Treap


class BottomKMachine(RuleBasedStateMachine):
    """BottomK vs a sorted-list model under offers and discards."""

    def __init__(self):
        super().__init__()
        self.bk = BottomK(5)
        self.model: dict[int, float] = {}  # element -> hash
        self._next_hash = 0

    def _fresh_hash(self, raw: int) -> float:
        # Deterministic unique hash per element.
        return ((raw * 0x9E3779B1) % (2**32) + 0.5) / 2**32

    @rule(element=st.integers(0, 60))
    def offer(self, element):
        h = self._fresh_hash(element)
        self.bk.offer(h, element)
        if element not in self.model:
            candidate = dict(self.model)
            candidate[element] = h
            kept = sorted(candidate.items(), key=lambda kv: kv[1])[:5]
            self.model = dict(kept)

    @rule(element=st.integers(0, 60))
    def discard(self, element):
        was_present = element in self.model
        assert self.bk.discard(element) == was_present
        self.model.pop(element, None)

    @invariant()
    def agrees_with_model(self):
        self.bk.check_invariants()
        want = [e for e, _ in sorted(self.model.items(), key=lambda kv: kv[1])]
        assert self.bk.elements() == want


class DominanceMachine(RuleBasedStateMachine):
    """SortedDominanceSet vs brute force under observes and expiries.

    Every read is a rule of its own, checked against the brute-force model
    at that moment: the set prunes lazily, so reads must also land while
    inserts await their sweep and the cached bottom-s is stale.
    """

    s = 2

    def __init__(self):
        super().__init__()
        self.ds = SortedDominanceSet(self.s)
        self.live: dict[int, int] = {}  # element -> expiry
        self.now = 0

    def _hash(self, element: int) -> float:
        return ((element * 0x45D9F3B) % (2**32)) / 2**32

    def _want(self) -> list[tuple[int, int, float]]:
        return brute_force_survivors(
            [(e, t, self._hash(e)) for e, t in self.live.items()], self.s
        )

    def _by_hash(self) -> list[tuple[int, int, float]]:
        return sorted(self._want(), key=lambda entry: entry[2])

    # Earlier-expiry observes model a coordinator absorbing fallback pushes.
    @rule(element=st.integers(0, 25), life=st.integers(1, 30))
    def observe(self, element, life):
        expiry = self.now + life
        self.ds.observe(element, expiry, self._hash(element))
        if expiry > self.live.get(element, -1):
            self.live[element] = expiry

    @rule(step=st.integers(1, 10))
    def advance(self, step):
        self.now += step
        self.ds.expire(self.now)
        self.live = {e: t for e, t in self.live.items() if t > self.now}

    @rule()
    def read_entries(self):
        raw = [(e.element, e.expiry, e.hash) for e in self.ds.entries()]
        assert raw == self._want()

    @rule()
    def read_len(self):
        assert len(self.ds) == len(self._want())

    @rule(data=st.data())
    def read_bottom(self, data):
        count = data.draw(st.integers(1, self.s + 1), label="count")
        got = [(e.element, e.expiry, e.hash) for e in self.ds.bottom(count)]
        assert got == self._by_hash()[:count]

    @rule()
    def read_min_entry(self):
        entry = self.ds.min_entry()
        want = self._by_hash()
        if not want:
            assert entry is None
        else:
            assert (entry.element, entry.expiry, entry.hash) == want[0]

    @rule()
    def read_contains(self):
        held = {e for e, _, _ in self._want()}
        assert [e in self.ds for e in range(26)] == [e in held for e in range(26)]

    @rule()
    def structure_holds(self):
        self.ds.check_invariants()


class DominanceMachineS1(DominanceMachine):
    s = 1


class DominanceMachineS16(DominanceMachine):
    s = 16


class TreapMachine(RuleBasedStateMachine):
    """Treap vs a dict model under inserts, removals, and range splits."""

    def __init__(self):
        super().__init__()
        self.treap = Treap()
        self.model: dict[int, float] = {}

    @rule(key=st.integers(0, 100), priority=st.floats(0, 1, allow_nan=False))
    def insert(self, key, priority):
        if key in self.model:
            return
        self.treap.insert(key, priority, value=key)
        self.model[key] = priority

    @rule(key=st.integers(0, 100))
    def remove(self, key):
        if key in self.model:
            assert self.treap.remove(key) == key
            del self.model[key]

    @rule(bound=st.integers(0, 100))
    def split(self, bound):
        removed = self.treap.split_leq(bound)
        assert sorted(n.key for n in removed) == sorted(
            k for k in self.model if k <= bound
        )
        self.model = {k: p for k, p in self.model.items() if k > bound}

    @invariant()
    def consistent(self):
        self.treap.check_invariants()
        assert sorted(n.key for n in self.treap) == sorted(self.model)
        if self.model:
            want = min((p, k) for k, p in self.model.items())[1]
            assert self.treap.min_priority().key == want


class ProtocolMachine(RuleBasedStateMachine):
    """Distributed system vs centralized oracle under arbitrary routing."""

    def __init__(self):
        super().__init__()
        hasher = UnitHasher(4242)
        self.system = DistinctSamplerSystem(4, 6, hasher=hasher)
        self.oracle = CentralizedDistinctSampler(6, hasher)

    @rule(element=st.integers(0, 120), site=st.integers(0, 3))
    def observe(self, element, site):
        self.system.observe(site, element)
        self.oracle.observe(element)

    @rule(element=st.integers(0, 120))
    def flood(self, element):
        self.system.flood(element)
        self.oracle.observe(element)

    @invariant()
    def sample_exact(self):
        assert self.system.sample() == self.oracle.sample()
        assert self.system.threshold == self.oracle.threshold


_settings = settings(max_examples=25, stateful_step_count=40, deadline=None)

TestBottomKMachine = BottomKMachine.TestCase
TestBottomKMachine.settings = _settings
TestDominanceMachine = DominanceMachine.TestCase
TestDominanceMachine.settings = _settings
TestDominanceMachineS1 = DominanceMachineS1.TestCase
TestDominanceMachineS1.settings = _settings
TestDominanceMachineS16 = DominanceMachineS16.TestCase
TestDominanceMachineS16.settings = _settings
TestTreapMachine = TreapMachine.TestCase
TestTreapMachine.settings = _settings
TestProtocolMachine = ProtocolMachine.TestCase
TestProtocolMachine.settings = _settings
