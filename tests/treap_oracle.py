"""The paper's treap-backed s = 1 candidate set, kept as a test oracle.

The paper stores each site's sliding-window candidate set ``T_i`` in "an
efficient data structure ... a treap".  The package keeps every s = 1 set
in :class:`~repro.structures.dominance.SortedDominanceSet` instead, which
holds exactly the treap's entries, hash collisions included; this module
keeps the treap so the tests can check that claim differentially.  Its
name does not match ``test_*.py``, so pytest imports it without
collecting it.

* :class:`Treap` — a treap (randomized binary search tree), Seidel &
  Aragon (1996).  Keys order the tree (the dominance set keys by
  ``(expiry_time, hash)`` plus a tie-breaker), priorities obey a
  *min*-heap: the node with the smallest priority sits at the root.  Using
  an element's hash value as its priority makes "element with the
  smallest hash" an O(1) root lookup, while expiry-ordered range deletions
  ("drop everything expired") are O(log n) splits — exactly the two
  operations the sliding-window site needs.  It is a classic split/merge
  treap: insert and remove in expected O(log n), the minimum priority in
  O(1) (the root), :meth:`Treap.split_leq` detaches all keys ``<= bound``
  in O(log n), plus in-order iteration, length and membership.  Split and
  merge are recursive; the expected recursion depth is O(log n).
* :class:`TreapDominanceSet` — the paper's s = 1 dominance set on a
  :class:`Treap`, satisfying
  :class:`~repro.structures.dominance.DominanceSet`.
* :func:`treap_backed` — puts the oracle into every site of a fresh
  :class:`~repro.core.sliding.SlidingWindowSystem`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any, Optional

from repro.structures.dominance import DominanceEntry, brute_force_survivors

__all__ = ["Treap", "TreapNode", "TreapDominanceSet", "treap_backed"]


class TreapNode:
    """A single treap node. Internal; exposed for tests and debugging."""

    __slots__ = ("key", "priority", "value", "left", "right")

    def __init__(self, key: Any, priority: float, value: Any) -> None:
        self.key = key
        self.priority = priority
        self.value = value
        self.left: Optional[TreapNode] = None
        self.right: Optional[TreapNode] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TreapNode(key={self.key!r}, priority={self.priority!r})"


def _merge(a: Optional[TreapNode], b: Optional[TreapNode]) -> Optional[TreapNode]:
    """Merge treaps ``a`` and ``b`` where every key in a < every key in b."""
    # Iterative merge: walk down, stitching the smaller-priority root on top.
    if a is None:
        return b
    if b is None:
        return a
    if a.priority <= b.priority:
        root = a
        root.right = _merge(a.right, b)
    else:
        root = b
        root.left = _merge(a, b.left)
    return root


def _split(
    node: Optional[TreapNode], key: Any
) -> tuple[Optional[TreapNode], Optional[TreapNode]]:
    """Split into (keys <= key, keys > key)."""
    if node is None:
        return None, None
    if node.key <= key:
        left, right = _split(node.right, key)
        node.right = left
        return node, right
    left, right = _split(node.left, key)
    node.left = right
    return left, node


class Treap:
    """Ordered map with heap-ordered priorities (min-heap).

    Keys must be mutually comparable; priorities are floats.  Duplicate keys
    are rejected — callers that need multiset behaviour should disambiguate
    the key (the dominance set appends a tie-breaker to ``(expiry, hash)``).
    """

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: Optional[TreapNode] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._root is not None

    # -- queries ---------------------------------------------------------

    def min_priority(self) -> Optional[TreapNode]:
        """Return the node with the smallest priority (the root), or None."""
        return self._root

    def find(self, key: Any) -> Optional[TreapNode]:
        """Return the node with ``key``, or None."""
        node = self._root
        while node is not None:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def __contains__(self, key: Any) -> bool:
        return self.find(key) is not None

    def min_key(self) -> Optional[TreapNode]:
        """Return the node with the smallest key, or None."""
        node = self._root
        if node is None:
            return None
        while node.left is not None:
            node = node.left
        return node

    def max_key(self) -> Optional[TreapNode]:
        """Return the node with the largest key, or None."""
        node = self._root
        if node is None:
            return None
        while node.right is not None:
            node = node.right
        return node

    def predecessor(self, key: Any) -> Optional[TreapNode]:
        """Return the node with the largest key strictly less than ``key``."""
        node = self._root
        best: Optional[TreapNode] = None
        while node is not None:
            if node.key < key:
                best = node
                node = node.right
            else:
                node = node.left
        return best

    def successor(self, key: Any) -> Optional[TreapNode]:
        """Return the node with the smallest key strictly greater than ``key``."""
        node = self._root
        best: Optional[TreapNode] = None
        while node is not None:
            if node.key > key:
                best = node
                node = node.left
            else:
                node = node.right
        return best

    def __iter__(self) -> Iterator[TreapNode]:
        """Yield nodes in key order (iterative in-order traversal)."""
        stack: list[TreapNode] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node
            node = node.right

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs in key order."""
        for node in self:
            yield node.key, node.value

    # -- mutation ----------------------------------------------------------

    def insert(self, key: Any, priority: float, value: Any = None) -> TreapNode:
        """Insert a new ``key`` with ``priority``; returns the new node.

        Raises:
            KeyError: If ``key`` is already present.
        """
        if self.find(key) is not None:
            raise KeyError(f"duplicate treap key: {key!r}")
        node = TreapNode(key, priority, value)
        left, right = _split(self._root, key)
        self._root = _merge(_merge(left, node), right)
        self._size += 1
        return node

    def remove(self, key: Any) -> Any:
        """Remove ``key``; returns its value.

        Raises:
            KeyError: If ``key`` is absent.
        """
        parent: Optional[TreapNode] = None
        node = self._root
        went_left = False
        while node is not None and node.key != key:
            parent = node
            went_left = key < node.key
            node = node.left if went_left else node.right
        if node is None:
            raise KeyError(f"treap key not found: {key!r}")
        merged = _merge(node.left, node.right)
        if parent is None:
            self._root = merged
        elif went_left:
            parent.left = merged
        else:
            parent.right = merged
        self._size -= 1
        return node.value

    def split_leq(self, key: Any) -> list[TreapNode]:
        """Detach and return (in key order) all nodes with key <= ``key``.

        Used for bulk expiry: keys are ``(expiry, hash)`` so
        ``split_leq((now, inf))`` removes everything expiring at or before
        ``now`` in O(log n) plus output size.
        """
        left, right = _split(self._root, key)
        self._root = right
        removed: list[TreapNode] = []
        stack: list[TreapNode] = []
        node = left
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            removed.append(node)
            node = node.right
        self._size -= len(removed)
        return removed

    def clear(self) -> None:
        """Remove all nodes."""
        self._root = None
        self._size = 0

    # -- invariant checking (for tests) ------------------------------------

    def check_invariants(self) -> None:
        """Assert BST-order on keys and min-heap order on priorities.

        Raises:
            AssertionError: If either invariant is violated.
        """
        count = 0
        prev_key = None
        for node in self:
            count += 1
            if prev_key is not None:
                assert prev_key < node.key, "BST key order violated"
            prev_key = node.key
            if node.left is not None:
                assert node.left.priority >= node.priority, "heap order violated"
            if node.right is not None:
                assert node.right.priority >= node.priority, "heap order violated"
        assert count == self._size, "size bookkeeping out of sync"


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


def treap_backed(system: Any) -> Any:
    """Put a fresh :class:`TreapDominanceSet` into every site of
    ``system``, an ``s = 1`` sliding system whose site sets are still
    empty, and return it.  The coordinator keeps its own set: the paper
    puts the treap only at the sites."""
    for site in system.sites:
        assert not len(site.candidates), "the site sets must be empty"
        site.candidates = TreapDominanceSet(1)
    return system
