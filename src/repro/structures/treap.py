"""A treap (randomized binary search tree) — Seidel & Aragon (1996).

The paper stores each site's sliding-window candidate set ``T_i`` in "an
efficient data structure ... a treap".  Keys order the tree (we key by
``(expiry_time, hash)`` plus a tie-breaker), priorities obey a *min*-heap:
the node with the smallest priority sits at the root.  Using an element's hash value as its
priority makes "element with the smallest hash" an O(1) root lookup, while
expiry-ordered range deletions ("drop everything expired") are O(log n)
splits — exactly the two operations the sliding-window site needs.

The implementation is a classic split/merge treap:

* :meth:`Treap.insert` / :meth:`Treap.remove` — expected O(log n)
* :meth:`Treap.min_priority` — O(1) (the root)
* :meth:`Treap.split_leq` — detach all keys ``<= bound`` in O(log n)
* in-order iteration, length, membership

Split and merge are recursive; the expected recursion depth is O(log n) and
node counts in this package's workloads are small (expected O(log window)
per Lemma 10), so clarity wins over micro-optimization here.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any, Optional

__all__ = ["Treap", "TreapNode"]


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
