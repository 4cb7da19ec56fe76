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

Two interchangeable implementations (differentially tested):

* :class:`SortedDominanceSet` — a list sorted by ``(expiry, hash)`` plus an
  element index, pruned *lazily*: an insert only places the entry, and one
  O(n log s) right-to-left sweep restores the invariant in a batch, in the
  amortized manner of the Datar et al. exponential histogram.  The sweep
  runs when the set is read (``len``, ``in``, ``entries()``,
  ``check_invariants()``, ``bottom(count > s)``), when :meth:`settle` is
  called (the sliding facades do so once per delivered same-slot run), and
  when an insert takes the raw list past ``2 * n + s`` entries, ``n`` being
  its size after the last sweep; so the list never outgrows its settled
  size by more than that constant factor.  Batching is exact: an entry
  dominated by anything is dominated by survivors (whatever dominates its
  dominators dominates it too), an expiry never removes a live entry's
  dominator (dominators expire later), and a refresh keeps the element's
  hash, so the refreshed entry dominates all the old one did (a refresh
  that changes the hash settles first).  So one sweep after a batch of
  inserts leaves what a sweep after every insert leaves, and
  :meth:`~SortedDominanceSet.load` fills a set from snapshot rows the same
  way: one sort, one sweep.  Supports any ``s >= 1``.
* :class:`TreapDominanceSet` — the paper's treap (s = 1 only): key
  ``(expiry, hash, tie)``, priority ``hash``; min-hash is the root, expiry
  is an O(log n) split, and dominance pruning exploits the *staircase
  invariant* (surviving hashes never decrease with expiry), removing only
  a contiguous run of predecessors.  It prunes eagerly, so its
  :meth:`settle` is a no-op.  ``tie`` orders distinct elements with equal
  hash and expiry (a hash collision) as the sorted list does.

:class:`SortedDominanceSet` also keeps its bottom-s (by hash, then expiry)
incrementally: an insert bisects into it, and only the expiry of a member
or a refresh that may lose its rank forces a recount on the next read.
``bottom(count <= s)`` and ``min_entry()`` read it without sweeping, which
is exact because a dominated entry has ``s`` live entries of smaller hash,
so it never ranks among the ``s`` smallest, and expiry and pruning commute.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Any, Iterable, Optional, Protocol

from .treap import Treap

__all__ = [
    "DominanceEntry",
    "DominanceSet",
    "SortedDominanceSet",
    "TreapDominanceSet",
    "brute_force_survivors",
]

_INF = math.inf
#: Sort keys: the raw list's order, the bottom-s order, expiry and hash.
_ORDER = attrgetter("expiry", "hash")
_RANK = attrgetter("hash", "expiry")
_EXPIRY = attrgetter("expiry")
_HASH = attrgetter("hash")


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
    """Protocol implemented by both dominance-set variants."""

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
                        for h in group:
                            insort(smallest, h)
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


class TreapDominanceSet:
    """Paper-faithful treap-backed dominance set (s = 1).

    Key: ``(expiry, hash, tie)`` (hash breaks same-slot ties); priority:
    hash, min-heap — so :meth:`min_entry` is the root (on equal hashes the
    treap keeps the smaller key on top, the entry the sorted set ranks
    first).  The staircase invariant (hash never decreases across strictly
    increasing expiry) makes the dominated region after an insert a
    contiguous run of predecessor keys.

    ``tie`` keeps distinct elements with equal hash and expiry apart and
    orders them as :class:`SortedDominanceSet` does: an entry that sorts
    at or after the last one goes after its equals, any other before them.
    """

    __slots__ = ("_treap", "_index", "_ties")

    def __init__(self, s: int = 1) -> None:
        if s != 1:
            raise ValueError(
                "TreapDominanceSet implements the paper's s=1 structure; "
                "use SortedDominanceSet for s > 1"
            )
        self._treap = Treap()
        self._index: dict[Any, tuple[int, float, int]] = {}  # element -> key
        self._ties = 0  # inserts so far, the source of ``tie`` values

    @property
    def s(self) -> int:
        """Dominance order (always 1 for this implementation)."""
        return 1

    def __len__(self) -> int:
        return len(self._treap)

    def settle(self) -> None:
        """No-op: every :meth:`observe` prunes at once."""

    def __contains__(self, element: Any) -> bool:
        return element in self._index

    def entries(self) -> list[DominanceEntry]:
        return [
            DominanceEntry(node.value, node.key[0], node.key[1])
            for node in self._treap
        ]

    def load(self, rows: Iterable[tuple[Any, int, float]]) -> None:
        """Replace the contents by observing each row, stably sorted by
        ``(expiry, hash)``, into an empty treap.

        Raises:
            ValueError: If two rows carry the same element (the set is
                then left as it was).
        """
        rows = sorted(rows, key=lambda row: (row[1], row[2]))
        if len({row[0] for row in rows}) < len(rows):
            raise ValueError("rows repeat an element")
        self._treap = Treap()
        self._index = {}
        for row in rows:
            self.observe(*row)

    def observe(self, element: Any, expiry: int, hash_value: float) -> None:
        old_key = self._index.get(element)
        if old_key is not None:
            if expiry <= old_key[0]:
                return
            self._treap.remove(old_key)

        # Is the newcomer itself dominated?  The minimum hash among strictly
        # later expiries is the first entry of the next expiry band.
        succ = self._treap.successor((expiry, float("inf")))
        if succ is not None and succ.key[1] < hash_value:
            if old_key is not None:
                del self._index[element]
            return

        # Drop now-dominated predecessors: strictly earlier expiry, strictly
        # larger hash.  By the staircase invariant they are a contiguous run.
        while True:
            pred = self._treap.predecessor((expiry, -1.0))
            if pred is None or pred.key[1] <= hash_value:
                break
            del self._index[pred.value]
            self._treap.remove(pred.key)

        self._ties += 1
        last = self._treap.max_key()
        if last is None or (expiry, hash_value) >= last.key[:2]:
            key = (expiry, hash_value, self._ties)
        else:
            key = (expiry, hash_value, -self._ties)
        self._treap.insert(key, hash_value, element)
        self._index[element] = key

    def expire(self, now: int) -> None:
        for node in self._treap.split_leq((now, float("inf"))):
            del self._index[node.value]

    def min_entry(self) -> Optional[DominanceEntry]:
        node = self._treap.min_priority()
        if node is None:
            return None
        return DominanceEntry(node.value, node.key[0], node.key[1])

    def bottom(self, count: int) -> list[DominanceEntry]:
        out = sorted(self.entries(), key=lambda e: e.hash)
        return out[:count]

    def check_invariants(self) -> None:
        """Assert treap invariants plus dominance minimality."""
        self._treap.check_invariants()
        assert len(self._treap) == len(self._index)
        raw = [(e.element, e.expiry, e.hash) for e in self.entries()]
        expected = brute_force_survivors(raw, 1)
        assert sorted(raw, key=lambda t: (t[1], t[2])) == expected
