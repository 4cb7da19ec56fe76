"""Tests for the BottomK structure (the coordinator's sample store)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.bottomk import BottomK


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BottomK(0)

    def test_empty(self):
        bk = BottomK(3)
        assert len(bk) == 0
        assert not bk.is_full
        assert bk.threshold() == 1.0
        assert bk.elements() == []
        assert bk.min_pair() is None

    def test_fill_and_threshold(self):
        bk = BottomK(2)
        assert bk.offer(0.5, "a") == (True, None)
        assert bk.threshold() == 1.0  # not yet full
        assert bk.offer(0.3, "b") == (True, None)
        assert bk.threshold() == 0.5  # full: s-th smallest hash
        assert bk.elements() == ["b", "a"]

    def test_eviction(self):
        bk = BottomK(2)
        bk.offer(0.5, "a")
        bk.offer(0.3, "b")
        accepted, evicted = bk.offer(0.1, "c")
        assert accepted and evicted == "a"
        assert bk.elements() == ["c", "b"]
        assert bk.threshold() == 0.3

    def test_rejection_above_threshold(self):
        bk = BottomK(2)
        bk.offer(0.2, "a")
        bk.offer(0.3, "b")
        assert bk.offer(0.9, "c") == (False, None)
        assert "c" not in bk

    def test_duplicate_is_noop(self):
        bk = BottomK(2)
        bk.offer(0.2, "a")
        assert bk.offer(0.2, "a") == (False, None)
        assert len(bk) == 1

    def test_contains(self):
        bk = BottomK(2)
        bk.offer(0.2, "a")
        assert "a" in bk
        assert "z" not in bk

    def test_discard(self):
        bk = BottomK(3)
        bk.offer(0.2, "a")
        bk.offer(0.4, "b")
        assert bk.discard("a") is True
        assert bk.discard("a") is False
        assert bk.elements() == ["b"]

    def test_min_pair(self):
        bk = BottomK(3)
        bk.offer(0.4, "b")
        bk.offer(0.2, "a")
        assert bk.min_pair() == (0.2, "a")

    def test_clear(self):
        bk = BottomK(2)
        bk.offer(0.2, "a")
        bk.clear()
        assert len(bk) == 0
        assert bk.threshold() == 1.0


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 500)),
            max_size=150,
            # Unique elements AND unique hashes: ties between distinct
            # elements are measure-zero with real hashes, and the structure
            # resolves them first-come (either resolution is a valid
            # bottom-k).
            unique_by=(lambda p: p[1], lambda p: p[0]),
        ),
        st.integers(1, 12),
    )
    @settings(max_examples=120)
    def test_keeps_exactly_bottom_k(self, pairs, capacity):
        bk = BottomK(capacity)
        for h, element in pairs:
            bk.offer(h, element)
        bk.check_invariants()
        expected = sorted(pairs)[:capacity]
        assert bk.pairs() == expected

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 100)),
            max_size=80,
            unique_by=lambda p: p[1],
        )
    )
    @settings(max_examples=80)
    def test_threshold_monotone_nonincreasing(self, pairs):
        bk = BottomK(5)
        last = 1.0
        for h, element in pairs:
            bk.offer(h, element)
            threshold = bk.threshold()
            assert threshold <= last
            last = threshold

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 100)),
            min_size=1,
            max_size=60,
            unique_by=lambda p: p[1],
        ),
        st.data(),
    )
    @settings(max_examples=60)
    def test_discard_consistency(self, pairs, data):
        bk = BottomK(8)
        for h, element in pairs:
            bk.offer(h, element)
        retained = bk.elements()
        if retained:
            victim = data.draw(st.sampled_from(retained))
            assert bk.discard(victim)
            bk.check_invariants()
            assert victim not in bk


class TestLoad:
    """``load`` fills the set in one sort, as offering each row would."""

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.integers(0, 30)
            ),
            max_size=8,
            unique_by=lambda row: row[1],
        ),
        capacity=st.integers(1, 8),
    )
    @settings(max_examples=200)
    def test_load_equals_offering_each_row(self, rows, capacity):
        # Few distinct hashes, so equal-hash rows order by element.
        rows = rows[:capacity]
        offered = BottomK(capacity)
        for h, element in rows:
            offered.offer(h, element)
        loaded = BottomK(capacity)
        ordered = sorted(rows)  # load takes the rows in the store's order
        loaded.load([h for h, _ in ordered], [element for _, element in ordered])
        loaded.check_invariants()
        assert loaded.pairs() == offered.pairs()
        assert loaded.threshold() == offered.threshold()
        assert loaded.columns()[1] == offered.columns()[1]

    @pytest.mark.parametrize(
        "hashes,elements",
        [
            ([0.1, 0.2], ["a", "a"]),
            ([0.1, 0.2, 0.3], ["a", "b", "c"]),
            ([0.2, 0.1], ["a", "b"]),
            ([0.1, 0.1], ["b", "a"]),
        ],
        ids=["repeated-element", "over-capacity", "descending", "tie-descending"],
    )
    def test_bad_rows_raise_and_leave_the_set_alone(self, hashes, elements):
        bk = BottomK(2)
        bk.offer(0.4, "z")
        with pytest.raises(ValueError):
            bk.load(hashes, elements)
        assert bk.pairs() == [(0.4, "z")]
        assert "a" not in bk
