"""Dominance-pruned candidate sets for sliding-window sampling.

A sliding-window site must answer, at any slot, "which live local element
has the smallest hash?" without storing the whole window.  The paper (after
Babcock, Datar & Motwani 2002) keeps only elements that could *ever* become
the minimum: tuple ``(e, t)`` **dominates** ``(e', t')`` iff ``t > t'`` and
``h(e) < h(e')`` — a dominated element can never be the minimum while the
dominating one is live, so it is dropped.  Lemma 10 shows the surviving set
has expected size ``H_M = O(log M)`` for ``M`` live distinct elements.

We generalize to sample size ``s`` (*s-dominance*): an entry is dropped iff
**at least s** entries with strictly later expiry have strictly smaller
hash; the survivors always contain the ``s`` smallest-hash live elements.

One implementation serves every site and coordinator, at every ``s``:
:class:`SortedDominanceSet`, a list sorted by ``(expiry, hash)`` plus an
element index, pruned *lazily*.  An insert only places the entry, and one
O(n log s) right-to-left sweep restores the invariant in a batch, in the
amortized manner of the Datar et al. exponential histogram.  The sweep runs
only when the set is read (``len``, ``in``, ``entries()``,
``check_invariants()``, ``bottom(count > s)``, or :meth:`settle`) and when
an insert takes the raw list past ``2 * n + s`` entries, ``n`` being its
size after the last sweep; so the list never outgrows its settled size by
more than that constant factor, and a set whose entries expire before it
reaches the bound never sweeps at all.  Batching is exact: an entry
dominated by anything is dominated by survivors (whatever dominates its
dominators dominates it too), an expiry never removes a live entry's
dominator (dominators expire later), and a refresh keeps the element's
hash, so the refreshed entry dominates all the old one did (a refresh that
changes the hash settles first).  So one sweep after a batch of inserts
leaves what a sweep after every insert leaves, and
:meth:`~SortedDominanceSet.load` fills a set from snapshot rows the same
way: one sort, one sweep.

:meth:`~SortedDominanceSet.observe_run` takes a whole same-slot run in one
pass: every arrival of a run shares one expiry, later than any entry's, so
its new entries sort by hash alone and extend the list's tail at once.
Where the per-arrival order could show (exact hash ties among the new
entries, a refresh that changes its hash, a run not later than the tail),
it falls back to :meth:`~SortedDominanceSet.observe` per arrival.

At ``s = 1`` the set keeps exactly the entries of the paper's treap
(Section 4.1), hash collisions included.  The tests keep that treap as a
differential oracle (``tests/treap_oracle.py``).

:class:`SortedDominanceSet` also keeps its bottom-s (by hash, then expiry)
incrementally: an insert bisects into it, and only the expiry of a member
or a refresh that may lose its rank forces a recount on the next read.
``bottom(count <= s)`` and ``min_entry()`` read it without sweeping, which
is exact because a dominated entry has ``s`` live entries of smaller hash,
so it never ranks among the ``s`` smallest, and expiry and pruning commute.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Optional, Protocol, Sequence

__all__ = [
    "DominanceEntry",
    "DominanceSet",
    "SortedDominanceSet",
    "brute_force_survivors",
]

_INF = math.inf
#: Sort keys: the raw list's order, the bottom-s order, expiry and hash.
_ORDER = attrgetter("expiry", "hash")
_RANK = attrgetter("hash", "expiry")
_EXPIRY = attrgetter("expiry")
_HASH = attrgetter("hash")
_SECOND = itemgetter(1)


class DominanceEntry:
    """A candidate tuple ``(element, expiry, hash)`` held by a site."""

    __slots__ = ("element", "expiry", "hash")

    def __init__(self, element: Any, expiry: int, hash_value: float) -> None:
        self.element = element
        self.expiry = expiry
        self.hash = hash_value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DominanceEntry({self.element!r}, expiry={self.expiry}, "
            f"hash={self.hash:.6f})"
        )

    def as_tuple(self) -> tuple[Any, int, float]:
        """Return ``(element, expiry, hash)``."""
        return (self.element, self.expiry, self.hash)


class DominanceSet(Protocol):
    """Protocol of a candidate set (:class:`SortedDominanceSet`, and the
    tests' treap oracle)."""

    def observe(self, element: Any, expiry: int, hash_value: float) -> None:
        """Insert ``element`` or refresh its expiry to ``expiry``.

        The entries it dominates, or the entry itself if dominated, leave
        the set before its next read (see :meth:`settle`)."""
        ...

    def settle(self) -> None:
        """Run any pending dominance sweep now rather than on a later read."""
        ...

    def load(self, rows: Iterable[tuple[Any, int, float]]) -> None:
        """Replace the contents with ``(element, expiry, hash)`` rows.

        Keeps the survivors that observing each row in turn into an empty
        set keeps, ordered by ``(expiry, hash)``, ties in the given order.

        Raises:
            ValueError: If two rows carry the same element.
        """
        ...

    def expire(self, now: int) -> None:
        """Drop every entry with ``expiry <= now``."""
        ...

    def min_entry(self) -> Optional[DominanceEntry]:
        """Entry with the smallest hash, or None if empty."""
        ...

    def bottom(self, count: int) -> list[DominanceEntry]:
        """The ``count`` smallest-hash entries, ascending by hash."""
        ...

    def __len__(self) -> int: ...

    def __contains__(self, element: Any) -> bool: ...

    def entries(self) -> list[DominanceEntry]:
        """All entries, ordered by ``(expiry, hash)``."""
        ...


def brute_force_survivors(
    entries: list[tuple[Any, int, float]], s: int = 1
) -> list[tuple[Any, int, float]]:
    """Reference s-dominance filter used by the tests.

    Args:
        entries: ``(element, expiry, hash)`` tuples (unique elements).
        s: Dominance order.

    Returns:
        Surviving tuples sorted by ``(expiry, hash)``: an entry survives iff
        strictly fewer than ``s`` other entries have strictly later expiry
        and strictly smaller hash.
    """
    survivors = []
    for elem, exp, h in entries:
        dominators = sum(
            1 for _, exp2, h2 in entries if exp2 > exp and h2 < h
        )
        if dominators < s:
            survivors.append((elem, exp, h))
    survivors.sort(key=lambda t: (t[1], t[2]))
    return survivors


class SortedDominanceSet:
    """s-dominance set backed by a sorted list, pruned lazily.

    :meth:`observe` only places the entry; the sweep runs on :meth:`settle`,
    on a read, or past the growth bound (see the module docstring).
    :meth:`bottom` up to ``s`` and :meth:`min_entry` never sweep: they read
    the cached bottom-s.

    Args:
        s: Dominance order (sample size the survivors must be able to
            serve).  ``s = 1`` reproduces the paper's structure.

    Raises:
        ValueError: If ``s < 1``.
    """

    __slots__ = ("_s", "_entries", "_index", "_bottom", "_dirty", "_limit")

    def __init__(self, s: int = 1) -> None:
        if s < 1:
            raise ValueError(f"dominance order s must be >= 1, got {s}")
        self._s = s
        # Sorted by (expiry, hash); may hold dominated entries until a sweep.
        self._entries: list[DominanceEntry] = []
        self._index: dict[Any, DominanceEntry] = {}
        # The raw list's bottom-s by (hash, expiry), or None to recount.
        self._bottom: Optional[list[DominanceEntry]] = []
        self._dirty = False  # inserts since the last sweep
        self._limit = s  # raw size that forces a sweep

    @property
    def s(self) -> int:
        """Dominance order."""
        return self._s

    def __len__(self) -> int:
        self.settle()
        return len(self._entries)

    def __contains__(self, element: Any) -> bool:
        self.settle()
        return element in self._index

    def entries(self) -> list[DominanceEntry]:
        self.settle()
        return list(self._entries)

    def observe(self, element: Any, expiry: int, hash_value: float) -> None:
        index = self._index
        old = index.get(element)
        if old is not None:
            if expiry <= old.expiry:
                return  # refresh can only extend life
            if hash_value != old.hash:
                # A re-hashed entry need not dominate what the old one did,
                # which could revive entries a sweep would have dropped.
                self.settle()
                old = index.get(element)
            if old is not None:
                self._unlink(old, hash_value)
        entry = DominanceEntry(element, expiry, hash_value)
        index[element] = entry
        entries = self._entries
        # Most arrivals carry the largest expiry so far; test the tail first
        # to keep the common case O(1) before falling back to binary search.
        if entries and (
            expiry < entries[-1].expiry
            or (expiry == entries[-1].expiry and hash_value < entries[-1].hash)
        ):
            entries.insert(
                bisect_left(entries, (expiry, hash_value), key=_ORDER), entry
            )
        else:
            entries.append(entry)
        best = self._bottom
        if best is not None and (
            len(best) < self._s or hash_value <= best[-1].hash
        ):
            self._offer(entry)
        self._dirty = True
        if len(entries) > self._limit:
            self._sweep()

    def observe_run(
        self, elements: Sequence[Any], expiry: int, hashes: Sequence[float]
    ) -> None:
        """Observe ``elements`` in turn, each with its hash in ``hashes``
        and all at ``expiry``: the state a loop of :meth:`observe` leaves,
        read for read.

        When ``expiry`` is later than every entry's, the run takes one
        pass (see the module docstring); otherwise, or where the loop's
        order could show, it takes the loop.
        """
        if not self._observe_later_run(elements, expiry, hashes):
            observe = self.observe
            for element, h in zip(elements, hashes):
                observe(element, expiry, h)

    def _observe_later_run(
        self, elements: Sequence[Any], expiry: int, hashes: Sequence[float]
    ) -> bool:
        """:meth:`observe_run` in one pass, or False, having changed
        nothing, where that could differ from the loop.

        The pass observes each distinct element of the run once, in hash
        order: a repeat's refresh is a no-op in the loop, and the
        survivors do not depend on the order of inserts.  Every new entry
        is later than the tail, so distinct hashes make appending in hash
        order keep the list sorted by ``(expiry, hash)``, as the loop's
        inserts would, and leave no exact tie for the cached bottom-s to
        rank.  The growth bound is checked once, at the end.
        """
        entries = self._entries
        if entries and entries[-1].expiry >= expiry:
            return False
        index = self._index
        fresh: dict[Any, float] = {}
        for element, h in zip(elements, hashes):
            if element not in fresh:
                old = index.get(element)
                if old is not None and h != old.hash:
                    return False  # the loop settles first; see observe
                fresh[element] = h
        if len(set(fresh.values())) < len(fresh):
            return False
        s = self._s
        for element, h in sorted(fresh.items(), key=_SECOND):
            old = index.get(element)
            if old is not None:
                self._unlink(old, h)
            entry = index[element] = DominanceEntry(element, expiry, h)
            entries.append(entry)
            best = self._bottom
            if best is not None and (len(best) < s or h <= best[-1].hash):
                self._offer(entry)
        if fresh:
            self._dirty = True
            if len(entries) > self._limit:
                self._sweep()
        return True

    def load(self, rows: Iterable[tuple[Any, int, float]]) -> None:
        """Replace the contents in one batch: a stable sort by ``(expiry,
        hash)``, one sweep, and a recount on the next bottom-s read.

        Raises:
            ValueError: If two rows carry the same element (the set is
                then left as it was).
        """
        entries = sorted((DominanceEntry(*row) for row in rows), key=_ORDER)
        index = {entry.element: entry for entry in entries}
        if len(index) < len(entries):
            raise ValueError("rows repeat an element")
        self._entries = entries
        self._index = index
        self._bottom = None
        self._sweep()

    def _unlink(self, old: DominanceEntry, hash_value: float) -> None:
        """Remove ``old`` ahead of its refresh to a later expiry with hash
        ``hash_value``, keeping the cached bottom-s exact."""
        entries = self._entries
        size = len(entries)
        i = bisect_left(entries, (old.expiry, old.hash), key=_ORDER)
        while entries[i] is not old:
            i += 1
        del entries[i]
        best = self._bottom
        if best is None or old.hash > best[-1].hash or old not in best:
            return
        # Every uncached entry hashes at least best[-1].hash, so a refresh
        # hashing below it stays in the bottom-s; otherwise the uncached
        # runner-up may overtake it, so recount on the next read.
        if size <= self._s or (old is not best[-1] and hash_value < best[-1].hash):
            best.remove(old)
        else:
            self._bottom = None

    def _offer(self, entry: DominanceEntry) -> None:
        """Insert a new raw entry into the cached bottom-s if it belongs."""
        best = self._bottom
        key = (entry.hash, entry.expiry)
        i = bisect_left(best, key, key=_RANK)
        if i < len(best) and _RANK(best[i]) == key:
            # An exact tie ranks by list position; leave it to a recount.
            self._bottom = None
        elif len(best) < self._s:
            best.insert(i, entry)
        elif i < len(best):
            best.insert(i, entry)
            best.pop()

    def _recount(self) -> list[DominanceEntry]:
        """Rebuild the cached bottom-s from the raw list."""
        best = self._bottom = sorted(self._entries, key=_HASH)[: self._s]
        return best

    def settle(self) -> None:
        """Drop every s-dominated entry if any insert awaits the sweep."""
        if self._dirty:
            self._sweep()

    def _sweep(self) -> None:
        """Right-to-left sweep dropping s-dominated entries.

        Keeps the ``s`` smallest hashes among entries with *strictly later*
        expiry in an ascending list; entries in the same expiry slot are
        judged as a group before joining it (equal expiry never dominates).
        """
        entries = self._entries
        s = self._s
        if len(entries) > s:
            index = self._index
            smallest: list[float] = []
            cut = _INF  # the s-th smallest hash so far, once there are s
            kept: list[DominanceEntry] = []
            group: list[float] = []
            expiry = None
            for entry in reversed(entries):
                if entry.expiry != expiry:
                    if group:
                        # One C sort per expiry group, not one insort
                        # per hash: the same s smallest either way.
                        smallest += group
                        smallest.sort()
                        del smallest[s:]
                        if len(smallest) == s:
                            cut = smallest[-1]
                        group = []
                    expiry = entry.expiry
                h = entry.hash
                if h > cut:
                    del index[entry.element]
                else:
                    kept.append(entry)
                    if h < cut:
                        group.append(h)
            if len(kept) < len(entries):
                kept.reverse()
                self._entries = entries = kept
        self._dirty = False
        self._limit = 2 * len(entries) + s

    def expire(self, now: int) -> None:
        entries = self._entries
        if not entries or entries[0].expiry > now:
            return
        cut = bisect_right(entries, now, key=_EXPIRY)
        index = self._index
        for entry in entries[:cut]:
            del index[entry.element]
        best = self._bottom
        if best is not None:
            if len(entries) <= self._s:  # the cache holds every entry
                self._bottom = [entry for entry in best if entry.expiry > now]
            elif any(entry.expiry <= now for entry in best):
                self._bottom = None
        del entries[:cut]

    def min_entry(self) -> Optional[DominanceEntry]:
        best = self._bottom
        if best is None:
            best = self._recount()
        return best[0] if best else None

    def bottom(self, count: int) -> list[DominanceEntry]:
        if count > self._s:
            self.settle()
            return sorted(self._entries, key=_HASH)[:count]
        best = self._bottom
        if best is None:
            best = self._recount()
        return best[:count]

    def check_invariants(self) -> None:
        """Assert sortedness, index consistency, the growth bound, the
        cached bottom-s, and (after settling) s-dominance minimality."""
        assert len(self._entries) == len(self._index)
        assert len(self._entries) <= self._limit, "growth bound broken"
        for a, b in zip(self._entries, self._entries[1:]):
            assert (a.expiry, a.hash) <= (b.expiry, b.hash), "sort order broken"
        if self._bottom is not None:
            want = sorted(self._entries, key=_HASH)[: self._s]
            assert self._bottom == want, "cached bottom-s is stale"
        self.settle()
        assert len(self._entries) == len(self._index)
        raw = [(e.element, e.expiry, e.hash) for e in self._entries]
        expected = brute_force_survivors(raw, self._s)
        assert raw == expected, "set contains a dominated entry"
