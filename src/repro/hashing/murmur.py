"""Pure-Python MurmurHash implementations.

The paper's experiments use "MurmurHash 2.0 (Holub)".  We implement, from
scratch:

* :func:`murmur2_32`   — Austin Appleby's original 32-bit MurmurHash2.
* :func:`murmur2_64a`  — MurmurHash64A, the 64-bit variant for 64-bit
  platforms (the one production Java ports expose as ``hash64``).
* :func:`murmur3_32`   — MurmurHash3 x86 32-bit.
* :func:`murmur3_128_x64` — MurmurHash3 x64 128-bit (returned as a pair of
  64-bit halves); its first half is a convenient high-quality 64-bit hash.
* :func:`fmix64`       — the MurmurHash3 64-bit finalizer, useful as a cheap
  integer mixer.

All functions take ``bytes`` and an integer ``seed`` and return unsigned
Python ints.  Arithmetic is done on Python ints with explicit masking to 32
or 64 bits, which is exact (no overflow surprises) and fast enough for the
streaming workloads in this package: per-element cost is constant.

A vectorized batch path for 64-bit *integer* keys is provided in
:func:`fmix64_array` (and :func:`fmix64_inplace`) using NumPy ``uint64``
arithmetic; stream generators use it to pre-hash large element batches.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

__all__ = [
    "murmur2_32",
    "murmur2_64a",
    "murmur3_32",
    "murmur3_128_x64",
    "fmix64",
    "fmix64_array",
    "fmix64_inplace",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def murmur2_32(data: bytes, seed: int = 0) -> int:
    """MurmurHash2, 32-bit output.

    Direct translation of Appleby's reference ``MurmurHash2``; processes the
    input four bytes at a time (little-endian) and finishes with the
    avalanche mix.

    Args:
        data: Key to hash.
        seed: 32-bit seed.

    Returns:
        Unsigned 32-bit hash value.
    """
    m = 0x5BD1E995
    r = 24
    length = len(data)
    h = (seed ^ length) & _MASK32

    i = 0
    # Body: 4-byte little-endian chunks.
    while length - i >= 4:
        k = int.from_bytes(data[i : i + 4], "little")
        k = (k * m) & _MASK32
        k ^= k >> r
        k = (k * m) & _MASK32
        h = (h * m) & _MASK32
        h ^= k
        i += 4

    # Tail: the remaining 0-3 bytes.
    tail = length - i
    if tail >= 3:
        h ^= data[i + 2] << 16
    if tail >= 2:
        h ^= data[i + 1] << 8
    if tail >= 1:
        h ^= data[i]
        h = (h * m) & _MASK32

    h ^= h >> 13
    h = (h * m) & _MASK32
    h ^= h >> 15
    return h


def murmur2_64a(data: bytes, seed: int = 0) -> int:
    """MurmurHash64A — the 64-bit MurmurHash2 variant.

    This is the variant used by most Java "MurmurHash 2.0" ports (including
    the Holub implementation cited by the paper) for 64-bit hashes.

    Args:
        data: Key to hash.
        seed: 64-bit seed.

    Returns:
        Unsigned 64-bit hash value.
    """
    m = 0xC6A4A7935BD1E995
    r = 47
    length = len(data)
    h = (seed ^ ((length * m) & _MASK64)) & _MASK64

    i = 0
    while length - i >= 8:
        k = int.from_bytes(data[i : i + 8], "little")
        k = (k * m) & _MASK64
        k ^= k >> r
        k = (k * m) & _MASK64
        h ^= k
        h = (h * m) & _MASK64
        i += 8

    tail = length - i
    if tail:
        # Remaining 1-7 bytes, little-endian into the low bits.
        k = int.from_bytes(data[i:], "little")
        h ^= k
        h = (h * m) & _MASK64

    h ^= h >> r
    h = (h * m) & _MASK64
    h ^= h >> r
    return h


def _rotl32(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


def _rotl64(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK64


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """MurmurHash3 x86 32-bit.

    Args:
        data: Key to hash.
        seed: 32-bit seed.

    Returns:
        Unsigned 32-bit hash value.
    """
    c1 = 0xCC9E2D51
    c2 = 0x1B873593
    length = len(data)
    h = seed & _MASK32

    i = 0
    while length - i >= 4:
        k = int.from_bytes(data[i : i + 4], "little")
        k = (k * c1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK32
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK32
        i += 4

    tail = length - i
    k = 0
    if tail >= 3:
        k ^= data[i + 2] << 16
    if tail >= 2:
        k ^= data[i + 1] << 8
    if tail >= 1:
        k ^= data[i]
        k = (k * c1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK32
        h ^= k

    h ^= length
    # fmix32
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def fmix64(k: int) -> int:
    """MurmurHash3's 64-bit finalizer (avalanche mixer).

    A bijection on 64-bit integers with excellent avalanche behaviour; used
    standalone to hash integer keys cheaply.

    Args:
        k: 64-bit integer (masked internally).

    Returns:
        Unsigned 64-bit mixed value.
    """
    k &= _MASK64
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    k ^= k >> 33
    return k


def fmix64_array(keys: npt.ArrayLike) -> npt.NDArray[np.uint64]:
    """Vectorized :func:`fmix64` over a ``uint64`` NumPy array.

    Args:
        keys: Array of integer keys; converted to ``uint64``.

    Returns:
        ``uint64`` array of mixed values, same shape as ``keys``.
    """
    k = np.array(keys, dtype=np.uint64)
    fmix64_inplace(k, np.empty_like(k))
    return k


def fmix64_inplace(
    k: npt.NDArray[np.uint64], scratch: npt.NDArray[np.uint64]
) -> None:
    """Apply :func:`fmix64` to every element of ``k`` in place.

    ``scratch``, an array of ``k``'s shape whose contents are overwritten,
    holds the shifted copies, so the mix allocates nothing.  Temporaries
    are not free on the hot path: a 16,384-row batch's 128 KiB arrays sit
    at glibc's mmap threshold, and with one temporary per operation the
    same batches hashed measurably slower in some processes than in
    others, depending on how the heap happened to be laid out.
    """
    shift = np.uint64(33)
    with np.errstate(over="ignore"):
        k ^= np.right_shift(k, shift, out=scratch)
        k *= np.uint64(0xFF51AFD7ED558CCD)
        k ^= np.right_shift(k, shift, out=scratch)
        k *= np.uint64(0xC4CEB9FE1A85EC53)
        k ^= np.right_shift(k, shift, out=scratch)


def murmur3_128_x64(data: bytes, seed: int = 0) -> tuple[int, int]:
    """MurmurHash3 x64 128-bit.

    Args:
        data: Key to hash.
        seed: 64-bit seed (applied to both lanes, as in the reference).

    Returns:
        Tuple ``(h1, h2)`` of unsigned 64-bit halves.
    """
    c1 = 0x87C37B91114253D5
    c2 = 0x4CF5AD432745937F
    length = len(data)
    h1 = seed & _MASK64
    h2 = seed & _MASK64

    i = 0
    while length - i >= 16:
        k1 = int.from_bytes(data[i : i + 8], "little")
        k2 = int.from_bytes(data[i + 8 : i + 16], "little")

        k1 = (k1 * c1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * c2) & _MASK64
        h1 ^= k1
        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & _MASK64
        h1 = (h1 * 5 + 0x52DCE729) & _MASK64

        k2 = (k2 * c2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * c1) & _MASK64
        h2 ^= k2
        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & _MASK64
        h2 = (h2 * 5 + 0x38495AB5) & _MASK64
        i += 16

    tail = data[i:]
    k1 = 0
    k2 = 0
    tl = len(tail)
    if tl >= 9:
        k2 = int.from_bytes(tail[8:], "little")
        k2 = (k2 * c2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * c1) & _MASK64
        h2 ^= k2
    if tl >= 1:
        k1 = int.from_bytes(tail[:8], "little")
        k1 = (k1 * c1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * c2) & _MASK64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = fmix64(h1)
    h2 = fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    return h1, h2
