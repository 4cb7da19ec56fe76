"""Tests for the treap (randomized BST) behind the s = 1 oracle in
``treap_oracle.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treap_oracle import Treap


def build(pairs):
    t = Treap()
    for key, priority in pairs:
        t.insert(key, priority, value=f"v{key}")
    return t


class TestBasics:
    def test_empty(self):
        t = Treap()
        assert len(t) == 0
        assert not t
        assert t.min_priority() is None
        assert t.min_key() is None
        assert t.max_key() is None
        assert list(t) == []

    def test_insert_find(self):
        t = build([(5, 0.5), (3, 0.3), (8, 0.8)])
        assert len(t) == 3
        assert t.find(3).value == "v3"
        assert t.find(99) is None
        assert 5 in t
        assert 99 not in t

    def test_inorder_sorted(self):
        t = build([(5, 0.5), (3, 0.3), (8, 0.8), (1, 0.9), (7, 0.1)])
        assert [n.key for n in t] == [1, 3, 5, 7, 8]

    def test_items(self):
        t = build([(2, 0.2), (1, 0.1)])
        assert list(t.items()) == [(1, "v1"), (2, "v2")]

    def test_min_priority_is_root(self):
        t = build([(5, 0.5), (3, 0.01), (8, 0.8)])
        assert t.min_priority().key == 3

    def test_min_max_key(self):
        t = build([(5, 0.5), (3, 0.3), (8, 0.8)])
        assert t.min_key().key == 3
        assert t.max_key().key == 8

    def test_duplicate_key_rejected(self):
        t = build([(1, 0.1)])
        with pytest.raises(KeyError):
            t.insert(1, 0.2)

    def test_remove(self):
        t = build([(5, 0.5), (3, 0.3), (8, 0.8)])
        assert t.remove(3) == "v3"
        assert 3 not in t
        assert len(t) == 2
        t.check_invariants()

    def test_remove_missing(self):
        with pytest.raises(KeyError):
            build([(1, 0.1)]).remove(2)

    def test_clear(self):
        t = build([(1, 0.1), (2, 0.2)])
        t.clear()
        assert len(t) == 0
        assert list(t) == []


class TestNeighbours:
    def test_predecessor_successor(self):
        t = build([(10, 0.1), (20, 0.2), (30, 0.3)])
        assert t.predecessor(20).key == 10
        assert t.predecessor(10) is None
        assert t.predecessor(15).key == 10
        assert t.successor(20).key == 30
        assert t.successor(30) is None
        assert t.successor(25).key == 30

    def test_neighbours_empty(self):
        t = Treap()
        assert t.predecessor(5) is None
        assert t.successor(5) is None


class TestSplit:
    def test_split_leq(self):
        t = build([(i, i / 10) for i in range(10)])
        removed = t.split_leq(4)
        assert [n.key for n in removed] == [0, 1, 2, 3, 4]
        assert [n.key for n in t] == [5, 6, 7, 8, 9]
        assert len(t) == 5
        t.check_invariants()

    def test_split_leq_none_match(self):
        t = build([(5, 0.5)])
        assert t.split_leq(1) == []
        assert len(t) == 1

    def test_split_leq_all_match(self):
        t = build([(1, 0.1), (2, 0.2)])
        assert len(t.split_leq(10)) == 2
        assert len(t) == 0


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.floats(0, 1, allow_nan=False)),
            max_size=120,
            unique_by=lambda p: p[0],
        )
    )
    @settings(max_examples=100)
    def test_invariants_after_inserts(self, pairs):
        t = build(pairs)
        t.check_invariants()
        assert len(t) == len(pairs)
        assert [n.key for n in t] == sorted(p[0] for p in pairs)

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=80,
            unique_by=lambda p: p[0],
        ),
        st.data(),
    )
    @settings(max_examples=100)
    def test_invariants_after_mixed_ops(self, pairs, data):
        t = build(pairs)
        keys = [p[0] for p in pairs]
        to_remove = data.draw(
            st.lists(st.sampled_from(keys), max_size=len(keys), unique=True)
        )
        for key in to_remove:
            t.remove(key)
        t.check_invariants()
        remaining = sorted(set(keys) - set(to_remove))
        assert [n.key for n in t] == remaining
        if remaining:
            min_pri_key = min(
                ((p[1], p[0]) for p in pairs if p[0] in set(remaining))
            )[1]
            assert t.min_priority().key == min_pri_key

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.floats(0, 1, allow_nan=False)),
            max_size=100,
            unique_by=lambda p: p[0],
        ),
        st.integers(0, 500),
    )
    @settings(max_examples=100)
    def test_split_leq_partition(self, pairs, bound):
        t = build(pairs)
        removed = t.split_leq(bound)
        assert all(n.key <= bound for n in removed)
        assert all(n.key > bound for n in t)
        assert len(removed) + len(t) == len(pairs)
        t.check_invariants()

    def test_expected_depth_logarithmic(self):
        # With random priorities the expected depth is O(log n); for
        # n = 2000 the depth should comfortably sit below 60.
        rng = np.random.default_rng(3)
        t = Treap()
        for i in range(2000):
            t.insert(i, float(rng.random()))

        def depth(node):
            if node is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(t.min_priority()) < 60
