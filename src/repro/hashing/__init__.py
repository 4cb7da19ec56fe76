"""Hashing substrate: MurmurHash implementations and unit-interval mapping.

The sampling algorithms in :mod:`repro.core` consume a single abstraction,
:class:`~repro.hashing.unit.UnitHasher`, which maps arbitrary stream
elements to floats in ``[0, 1)``.  Everything else in this subpackage
supports that: canonical byte encodings and from-scratch MurmurHash2/3.
"""

from .encoding import Element, encode_element
from .murmur import fmix64, fmix64_array, murmur2_64a, murmur3_128_x64
from .unit import (
    HASH_ALGORITHMS,
    SeededHashFamily,
    UnitHasher,
    unit_hash_array,
)

__all__ = [
    "Element",
    "encode_element",
    "murmur2_64a",
    "murmur3_128_x64",
    "fmix64",
    "fmix64_array",
    "UnitHasher",
    "SeededHashFamily",
    "HASH_ALGORITHMS",
    "unit_hash_array",
]
