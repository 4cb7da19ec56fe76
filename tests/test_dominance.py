"""Differential tests for the dominance sets.

:class:`SortedDominanceSet` and the paper's treap, kept as a test oracle
in ``treap_oracle.py``, are checked against the brute-force s-dominance
filter after arbitrary interleavings of observe/expire operations, and
against each other (s = 1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.dominance import SortedDominanceSet, brute_force_survivors
from treap_oracle import TreapDominanceSet

IMPLS = [SortedDominanceSet, TreapDominanceSet]


def _raw(ds):
    return [(e.element, e.expiry, e.hash) for e in ds.entries()]


class TestBruteForceReference:
    def test_simple_domination(self):
        entries = [("a", 5, 0.9), ("b", 10, 0.1)]
        # a expires before b and hashes above it: dominated.
        assert brute_force_survivors(entries, 1) == [("b", 10, 0.1)]

    def test_equal_expiry_never_dominates(self):
        entries = [("a", 5, 0.9), ("b", 5, 0.1)]
        assert len(brute_force_survivors(entries, 1)) == 2

    def test_s2_needs_two_dominators(self):
        entries = [("a", 5, 0.9), ("b", 10, 0.1), ("c", 11, 0.2)]
        assert brute_force_survivors(entries, 2) == [
            ("b", 10, 0.1),
            ("c", 11, 0.2),
        ]
        assert ("a", 5, 0.9) in brute_force_survivors(entries, 3)


@pytest.mark.parametrize("impl", IMPLS)
class TestBasics:
    def test_empty(self, impl):
        ds = impl(1)
        assert len(ds) == 0
        assert ds.min_entry() is None
        assert ds.bottom(3) == []
        assert "x" not in ds

    def test_observe_and_min(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.5)
        ds.observe("b", 12, 0.2)
        assert ds.min_entry().element == "b"
        assert "a" not in ds  # dominated by b (later expiry, smaller hash)
        assert "b" in ds

    def test_staircase_retained(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.2)
        ds.observe("b", 12, 0.5)  # later expiry, larger hash: both stay
        assert len(ds) == 2
        assert ds.min_entry().element == "a"

    def test_expire(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.2)
        ds.observe("b", 12, 0.5)
        ds.expire(10)  # expiry <= now goes away
        assert "a" not in ds
        assert "b" in ds
        ds.expire(12)
        assert len(ds) == 0

    def test_refresh_extends_life(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.5)
        ds.observe("a", 20, 0.5)
        assert len(ds) == 1
        assert ds.entries()[0].expiry == 20

    def test_refresh_earlier_ignored(self, impl):
        ds = impl(1)
        ds.observe("a", 20, 0.5)
        ds.observe("a", 10, 0.5)
        assert ds.entries()[0].expiry == 20

    def test_newcomer_dominated_not_kept(self, impl):
        ds = impl(1)
        ds.observe("a", 20, 0.1)
        ds.observe("b", 10, 0.9)  # earlier expiry, larger hash: dominated
        assert "b" not in ds
        assert len(ds) == 1

    def test_bottom_order(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.3)
        ds.observe("b", 20, 0.4)
        ds.observe("c", 30, 0.5)
        bottom = ds.bottom(2)
        assert [e.element for e in bottom] == ["a", "b"]


class TestSortedGeneralS:
    def test_s_validation(self):
        with pytest.raises(ValueError):
            SortedDominanceSet(0)

    def test_treap_rejects_s2(self):
        with pytest.raises(ValueError):
            TreapDominanceSet(2)

    def test_s2_keeps_two_smallest_always(self):
        ds = SortedDominanceSet(2)
        rng = np.random.default_rng(0)
        live = {}
        for t in range(1, 300):
            element = int(rng.integers(0, 60))
            h = float(rng.random())
            # Hash must be a function of the element.
            h = (element * 2654435761 % 2**32) / 2**32
            ds.observe(element, t + 25, h)
            live[element] = t + 25
            ds.expire(t)
            live = {e: exp for e, exp in live.items() if exp > t}
            want = sorted(
                ((e * 2654435761 % 2**32) / 2**32, e) for e in live
            )[:2]
            got = [(e.hash, e.element) for e in ds.bottom(2)]
            assert got == want


@pytest.mark.parametrize("impl", IMPLS)
class TestDifferentialVsBruteForce:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 15),  # element id
                st.integers(1, 40),  # arrival slot (expiry = arrival + 10)
            ),
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, impl, arrivals):
        # Hashes are a deterministic function of the element id.
        def h(element):
            return ((element * 0x9E3779B1) % 2**32) / 2**32

        ds = impl(1)
        arrivals = sorted(arrivals, key=lambda a: a[1])
        live: dict[int, int] = {}
        now = 0
        for element, slot in arrivals:
            if slot > now:
                now = slot
                ds.expire(now - 1)  # expire strictly-before entries
            ds.observe(element, slot + 10, h(element))
            live[element] = max(live.get(element, 0), slot + 10)
            current = [
                (e, exp, h(e)) for e, exp in live.items() if exp > now - 1
            ]
            assert _raw(ds) == brute_force_survivors(current, 1)

    def test_cross_implementation_agreement(self, impl):
        rng = np.random.default_rng(7)
        a = SortedDominanceSet(1)
        b = TreapDominanceSet(1)
        for t in range(1, 500):
            for _ in range(int(rng.integers(0, 3))):
                element = int(rng.integers(0, 40))
                h = ((element * 0x9E3779B1) % 2**32) / 2**32
                a.observe(element, t + 15, h)
                b.observe(element, t + 15, h)
            a.expire(t)
            b.expire(t)
            assert _raw(a) == _raw(b)


class TestHashCollisions:
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 8), st.integers(0, 6)),
            max_size=80,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_treap_keeps_colliding_entries_as_sorted_does(self, ops):
        # Three hash values make equal (expiry, hash) keys for distinct
        # elements common, and observes at earlier expiries place entries
        # between existing ones: the treap must keep, order and rank
        # every entry exactly as the sorted list does.
        def h(element):
            return (element % 3) / 3

        sorted_set, treap = SortedDominanceSet(1), TreapDominanceSet(1)
        now = 0
        for is_observe, element, offset in ops:
            if is_observe:
                sorted_set.observe(element, now + offset + 1, h(element))
                treap.observe(element, now + offset + 1, h(element))
            else:
                now += offset
                sorted_set.expire(now)
                treap.expire(now)
            assert _raw(treap) == _raw(sorted_set)
            assert len(treap) == len(sorted_set)
            assert [e.as_tuple() for e in treap.bottom(3)] == [
                e.as_tuple() for e in sorted_set.bottom(3)
            ]
            top, want = treap.min_entry(), sorted_set.min_entry()
            assert (top and top.as_tuple()) == (want and want.as_tuple())
        treap.check_invariants()
        # Loads keep equal keys in the given order, reversed or not.
        rows = [entry.as_tuple() for entry in sorted_set.entries()]
        for given in (rows, rows[::-1]):
            treap.load(given)
            sorted_set.load(given)
            assert _raw(treap) == _raw(sorted_set)


@pytest.mark.parametrize("impl", IMPLS)
class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 50)),
            max_size=50,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_check_invariants(self, impl, arrivals):
        def h(element):
            return ((element * 0x45D9F3B) % 2**32) / 2**32

        ds = impl(1)
        for element, slot in sorted(arrivals, key=lambda a: a[1]):
            ds.expire(slot - 1)
            ds.observe(element, slot + 8, h(element))
            ds.check_invariants()


class TestExpectedSize:
    """Lemma 10: expected size is H_M = O(log M)."""

    def test_size_logarithmic(self):
        rng = np.random.default_rng(5)
        sizes = []
        for trial in range(30):
            ds = SortedDominanceSet(1)
            hashes = rng.random(500)
            # 500 distinct elements, arrival order random, window large.
            for i, h in enumerate(hashes):
                ds.observe(i, 10_000 + i, float(h))
            sizes.append(len(ds))
        mean_size = sum(sizes) / len(sizes)
        # H_500 ≈ 6.79; allow generous slack.
        assert 3.0 <= mean_size <= 12.0, mean_size


class TestLazyPruning:
    """SortedDominanceSet defers its sweep; reads must not be able to tell."""

    def test_raw_list_stays_within_growth_bound(self):
        # 10,000 unread observes: the raw list never exceeds twice the
        # survivor count of its last sweep plus s, however long the run.
        s = 16
        lazy = SortedDominanceSet(s)
        settled = SortedDominanceSet(s)  # read after every observe
        rng = np.random.default_rng(11)
        peak_survivors = peak_raw = 0
        for i in range(10_000):
            h = float(rng.random())
            lazy.observe(i, 1_000 + i // 8, h)
            settled.observe(i, 1_000 + i // 8, h)
            peak_survivors = max(peak_survivors, len(settled))
            raw = len(lazy._entries)  # len(lazy) would sweep
            peak_raw = max(peak_raw, raw)
            assert raw <= 2 * peak_survivors + s
        assert peak_raw < 10 * peak_survivors < 10_000
        assert _raw(lazy) == _raw(settled)

    def test_rehashed_refresh_revives_nothing(self):
        # b's old entry dominates a, its re-hashed refresh would not: an
        # eager set dropped a at once, so the lazy one must not revive it.
        ds = SortedDominanceSet(1)
        ds.observe("x", 30, 0.99)
        assert len(ds) == 1  # settled: room for two unswept inserts
        ds.observe("a", 5, 0.9)
        ds.observe("b", 10, 0.1)
        assert ds._dirty  # a's sweep is still pending
        ds.observe("b", 20, 0.95)
        assert _raw(ds) == [("b", 20, 0.95), ("x", 30, 0.99)]

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 12), st.integers(1, 12)),
            max_size=80,
        ),
        s=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_reads_match_eager_pruning_with_tied_hashes(self, ops, s):
        # Coarse hashes make exact (hash, expiry) ties common; the lazy set
        # must still answer exactly as one swept after every observe.
        def h(element):
            return (element % 4) / 4

        def rows(entries):
            return [(e.element, e.expiry, e.hash) for e in entries]

        lazy, eager = SortedDominanceSet(s), SortedDominanceSet(s)
        now = 0
        for is_observe, a, b in ops:
            if is_observe:
                lazy.observe(a, now + b, h(a))
                eager.observe(a, now + b, h(a))
                eager.settle()
            else:
                now += b
                lazy.expire(now)
                eager.expire(now)
            # Reads of at most s entries leave the sweep pending.
            by_hash = sorted(eager.entries(), key=lambda e: e.hash)
            for count in range(s + 1):
                assert rows(lazy.bottom(count)) == rows(by_hash[:count])
            top = lazy.min_entry()
            assert rows([top] if top else []) == rows(by_hash[:1])
        by_hash = sorted(eager.entries(), key=lambda e: e.hash)
        assert rows(lazy.bottom(s + 1)) == rows(by_hash[: s + 1])
        assert rows(lazy.entries()) == rows(eager.entries())
        lazy.check_invariants()

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 10),
                st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
            ),
            unique=True,
            max_size=60,
        ),
        s=st.sampled_from([1, 2, 3, 16]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_load_equals_observing_each_row(self, rows, s, data):
        # Distinct elements with distinct (expiry, hash) keys, in a random
        # order: one batch load leaves what per-row observes leave.
        def rows_of(entries):
            return [(e.element, e.expiry, e.hash) for e in entries]

        table = [(i, expiry, h) for i, (expiry, h) in enumerate(rows)]
        table = data.draw(st.permutations(table))
        loaded, observed = SortedDominanceSet(s), SortedDominanceSet(s)
        loaded.observe("stale", 99, 0.0)  # load replaces what was there
        loaded.load(table)
        for row in table:
            observed.observe(*row)
        for count in range(s + 2):
            assert rows_of(loaded.bottom(count)) == rows_of(observed.bottom(count))
        top, want = loaded.min_entry(), observed.min_entry()
        assert rows_of([top] if top else []) == rows_of([want] if want else [])
        assert rows_of(loaded.entries()) == rows_of(observed.entries())
        loaded.check_invariants()

    @pytest.mark.parametrize("impl", IMPLS)
    def test_load_rejects_a_repeated_element(self, impl):
        ds = impl(1)
        ds.observe("x", 5, 0.5)
        with pytest.raises(ValueError, match="repeat"):
            ds.load([("a", 3, 0.2), ("b", 4, 0.1), ("a", 6, 0.05)])
        assert _raw(ds) == [("x", 5, 0.5)]
