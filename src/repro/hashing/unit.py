"""Hashing elements to the unit interval ``[0, 1)``.

The sampling algorithms treat ``h(e)`` as an i.i.d. Uniform(0,1) random
variable per distinct element (the "hash-as-randomness" idealization used
throughout the paper's analysis).  :class:`UnitHasher` realizes this with a
seeded 64-bit MurmurHash mapped to a float in ``[0, 1)`` with 53 bits of
precision.

:class:`SeededHashFamily` mints independent :class:`UnitHasher` instances
(distinct seeds derived from a master seed); the with-replacement sampler
uses one family member per parallel copy.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np
import numpy.typing as npt

from .encoding import Element, encode_element
from .murmur import fmix64, fmix64_inplace, murmur2_64a, murmur3_128_x64

__all__ = [
    "UnitHasher",
    "SeededHashFamily",
    "HASH_ALGORITHMS",
    "unit_hash_array",
]

_TWO_53 = float(1 << 53)
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Supported algorithm names for :class:`UnitHasher`.
HASH_ALGORITHMS = ("murmur2", "murmur3", "mix64")


class UnitHasher:
    """Maps elements to floats in ``[0, 1)`` using a seeded hash.

    Instances are immutable and cheap; they are shared between every site
    and the coordinator of a simulated system (the paper's initialization
    step "receive hash function h from the coordinator").

    Args:
        seed: Seed defining this member of the hash family.
        algorithm: One of :data:`HASH_ALGORITHMS`.  ``murmur2`` matches the
            paper's choice (MurmurHash 2.0, 64-bit variant); ``murmur3``
            uses the 128-bit x64 variant's first lane; ``mix64`` accepts
            **integer elements only** and applies the fmix64 finalizer —
            the fast path used by the experiment drivers, with a
            NumPy-vectorized companion :func:`unit_hash_array`.

    Raises:
        ValueError: For an unknown algorithm name.
    """

    __slots__ = ("seed", "algorithm", "_fn")

    _fn: Callable[[Element], int]

    def __init__(self, seed: int = 0, algorithm: str = "murmur2") -> None:
        if algorithm not in HASH_ALGORITHMS:
            raise ValueError(
                f"unknown hash algorithm {algorithm!r}; expected one of {HASH_ALGORITHMS}"
            )
        self.seed = int(seed)
        self.algorithm = algorithm
        if algorithm == "murmur2":
            self._fn = self._hash64_murmur2
        elif algorithm == "murmur3":
            self._fn = self._hash64_murmur3
        else:
            self._fn = self._hash64_mix

    # -- 64-bit integer hash -------------------------------------------------

    def _hash64_murmur2(self, element: Element) -> int:
        return murmur2_64a(encode_element(element), self.seed)

    def _hash64_murmur3(self, element: Element) -> int:
        return murmur3_128_x64(encode_element(element), self.seed)[0]

    def _hash64_mix(self, element: Element) -> int:
        if not isinstance(element, int):
            raise TypeError(
                "the 'mix64' hash algorithm accepts integer elements only; "
                f"got {type(element).__name__}"
            )
        return fmix64((element ^ (self.seed * 0x9E3779B97F4A7C15)) & _MASK64)

    # -- unit interval --------------------------------------------------------

    def unit(self, element: Element) -> float:
        """Map ``element`` to a float in ``[0, 1)``.

        Uses the top 53 bits of the 64-bit hash so the result is exactly
        representable as a double and uniform over the 2^53 grid.
        """
        return (self._fn(element) >> 11) / _TWO_53

    __call__ = unit

    def unit_many(self, elements: Iterable[Element]) -> list[float]:
        """Hash an iterable of elements; convenience for tests/tools."""
        fn = self._fn
        return [(fn(e) >> 11) / _TWO_53 for e in elements]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UnitHasher(seed={self.seed}, algorithm={self.algorithm!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnitHasher)
            and other.seed == self.seed
            and other.algorithm == self.algorithm
        )

    def __hash__(self) -> int:
        return hash((self.seed, self.algorithm))


def unit_hash_array(ids: npt.ArrayLike, seed: int = 0) -> npt.NDArray[np.float64]:
    """Vectorized unit-interval hashes for integer element ids.

    Matches ``UnitHasher(seed, "mix64").unit(id)`` exactly, element-wise —
    experiment drivers pre-hash whole streams with this and feed
    ``observe_hashed`` (see DESIGN.md §6).

    Args:
        ids: Integer element ids (any integer dtype).
        seed: Hash seed (same value as the systems' hashers).

    Returns:
        Float64 array in ``[0, 1)``, same shape as ``ids``.
    """
    keys = np.array(ids, dtype=np.uint64)
    keys ^= np.uint64((seed * 0x9E3779B97F4A7C15) & _MASK64)
    out = np.empty(keys.shape, dtype=np.float64)
    # The output doubles as the mixer's scratch: one temporary per call.
    fmix64_inplace(keys, out.view(np.uint64))
    keys >>= np.uint64(11)
    np.copyto(out, keys, casting="unsafe")
    out /= _TWO_53
    return out


class SeededHashFamily:
    """A family of independent :class:`UnitHasher` members.

    Member seeds are derived from the master seed through fmix64 so that
    consecutive indices yield statistically unrelated hash functions.

    Args:
        master_seed: Seed of the family.
        algorithm: Algorithm passed through to each member.
    """

    __slots__ = ("master_seed", "algorithm")

    def __init__(self, master_seed: int = 0, algorithm: str = "murmur2") -> None:
        if algorithm not in HASH_ALGORITHMS:
            raise ValueError(
                f"unknown hash algorithm {algorithm!r}; expected one of {HASH_ALGORITHMS}"
            )
        self.master_seed = int(master_seed)
        self.algorithm = algorithm

    def member(self, index: int) -> UnitHasher:
        """Return the ``index``-th member of the family (deterministic)."""
        if index < 0:
            raise ValueError("hash family index must be non-negative")
        seed = fmix64((self.master_seed << 16) ^ (index * 0x9E3779B97F4A7C15))
        return UnitHasher(seed=seed, algorithm=self.algorithm)

    def members(self, count: int) -> Iterator[UnitHasher]:
        """Yield the first ``count`` members."""
        for i in range(count):
            yield self.member(i)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SeededHashFamily(master_seed={self.master_seed}, "
            f"algorithm={self.algorithm!r})"
        )
