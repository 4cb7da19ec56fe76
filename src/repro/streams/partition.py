"""Distribution strategies: how stream elements are dealt to sites.

The paper's Section 5.1 studies three strategies — *flooding* (every
element to every site), *random* (one uniformly random site per element),
and *round-robin* — plus, in Section 5.2, a *dominate-rate* skew where site
0 is ``alpha`` times likelier than any other site to receive an element.

Single-site strategies produce a vectorized per-element site-id array;
flooding is flagged so drivers replicate each element to all sites.

:class:`HashDistributor` is the *content-addressed* strategy the runtime
layer builds on: an element's destination is a pure function of the
element (an independent routing hash), so the same key always lands in the
same partition — the invariant sharded scale-out
(:mod:`repro.runtime.sharded`) and the :class:`~repro.runtime.engine.Engine`
hash-routing policy both rely on.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from ..hashing.murmur import fmix64
from ..hashing.unit import UnitHasher

__all__ = [
    "Distributor",
    "FloodingDistributor",
    "RandomDistributor",
    "RoundRobinDistributor",
    "DominateDistributor",
    "HashDistributor",
    "make_distributor",
]

#: Salt decorrelating routing hashes from the sampling hash family: the
#: same user seed must not make "which partition" and "is it sampled"
#: statistically dependent decisions.
_ROUTE_SALT = 0x5EED0A0B0C0D0E0F


@runtime_checkable
class Distributor(Protocol):
    """Assigns each stream position to one site (or to all, if flooding)."""

    num_sites: int
    floods: bool

    def assignments(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> Optional[np.ndarray]:
        """Per-position site ids (``int64`` array of length ``n``).

        Returns None for flooding distributors (every position goes to all
        sites).
        """
        ...


def _check_sites(num_sites: int) -> None:
    if num_sites < 1:
        raise ConfigurationError(f"num_sites must be >= 1, got {num_sites}")


class FloodingDistributor:
    """Every element is observed by every site (paper's "flooding")."""

    floods = True

    def __init__(self, num_sites: int) -> None:
        _check_sites(num_sites)
        self.num_sites = num_sites

    def assignments(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> Optional[np.ndarray]:
        return None


class RandomDistributor:
    """Each element goes to one uniformly random site."""

    floods = False

    def __init__(self, num_sites: int) -> None:
        _check_sites(num_sites)
        self.num_sites = num_sites

    def assignments(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if rng is None:
            raise ConfigurationError("RandomDistributor requires an rng")
        return rng.integers(0, self.num_sites, size=n, dtype=np.int64)


class RoundRobinDistributor:
    """Element ``j`` goes to site ``j mod k`` (paper's "round-robin")."""

    floods = False

    def __init__(self, num_sites: int) -> None:
        _check_sites(num_sites)
        self.num_sites = num_sites

    def assignments(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        return np.arange(n, dtype=np.int64) % self.num_sites


class DominateDistributor:
    """Site 0 dominates: it is ``alpha`` times likelier than any other site.

    With ``k`` sites, site 0 receives an element with probability
    ``alpha / (alpha + k - 1)`` and each other site with probability
    ``1 / (alpha + k - 1)`` (paper Section 5.2, "dominate rate").

    Args:
        num_sites: Number of sites (k >= 1).
        alpha: Dominate rate (>= 1; 1 reduces to uniform random).
    """

    floods = False

    def __init__(self, num_sites: int, alpha: float) -> None:
        _check_sites(num_sites)
        if alpha < 1:
            raise ConfigurationError(f"dominate rate must be >= 1, got {alpha}")
        self.num_sites = num_sites
        self.alpha = float(alpha)

    def assignments(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if rng is None:
            raise ConfigurationError("DominateDistributor requires an rng")
        k = self.num_sites
        if k == 1:
            return np.zeros(n, dtype=np.int64)
        probs = np.full(k, 1.0 / (self.alpha + k - 1))
        probs[0] = self.alpha / (self.alpha + k - 1)
        return rng.choice(k, size=n, p=probs).astype(np.int64)


class HashDistributor:
    """Content-addressed partitioning: a key's destination is fixed.

    Element ``e`` goes to partition ``floor(h_route(e) * num_sites)``
    where ``h_route`` is a unit hash seeded *independently* of the
    sampling hash (same master seed, salted), so routing never correlates
    with sample membership.  Unlike the positional strategies the
    assignment is a function of the element, not the stream position —
    use :meth:`assignments_for_batch` (or :meth:`assign_one`); the
    positional :meth:`assignments` is rejected by construction.

    Args:
        num_sites: Number of partitions (sites or shard groups).
        seed: Master seed the routing seed is derived from.
        algorithm: Hash algorithm (``"mix64"`` vectorizes over integer
            batches; match the sampler's algorithm so anything the
            sampler can hash, the router can too).
        salt: Distinguishes stacked routing layers.  Two distributors
            with the same seed and salt are the same hash function, so a
            deployment that routes twice (Engine picks the site, a
            sharded sampler picks the coordinator group) must give each
            layer its own salt or the two decisions collapse into one
            and every group sees only a slice of the sites.
    """

    floods = False

    def __init__(
        self,
        num_sites: int,
        seed: int = 0,
        algorithm: str = "murmur2",
        salt: int = _ROUTE_SALT,
    ) -> None:
        _check_sites(num_sites)
        self.num_sites = num_sites
        self.seed = int(seed)
        self.algorithm = algorithm
        self._hasher = UnitHasher(fmix64(self.seed ^ salt), algorithm)

    def assignments(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> Optional[np.ndarray]:
        raise ConfigurationError(
            "HashDistributor is content-addressed; use "
            "assignments_for_batch(EventBatch(items))"
        )

    def assignments_for_batch(self, batch) -> np.ndarray:
        """Partition ids for a columnar :class:`~repro.core.events.EventBatch`.

        Routes off the batch's cached hash column for this distributor's
        hasher — one vectorized pass per batch per routing layer, shared
        with every row subset derived from it.
        """
        return self._partition_ids(batch.hash_column(self._hasher))

    def _partition_ids(self, hashes) -> np.ndarray:
        ids = (np.asarray(hashes) * self.num_sites).astype(np.int64)
        # h < 1 guarantees ids < num_sites mathematically; the clip only
        # guards float rounding at the very top of the unit interval.
        return np.minimum(ids, self.num_sites - 1)

    def assign_one(self, item) -> int:
        """Partition id for a single element (matches the batch path)."""
        return min(
            int(self._hasher.unit(item) * self.num_sites), self.num_sites - 1
        )


def make_distributor(
    name: str, num_sites: int, alpha: float = 1.0, seed: int = 0
) -> Distributor:
    """Construct a distributor by name.

    Args:
        name: ``"flooding"``, ``"random"``, ``"round_robin"``,
            ``"dominate"``, or ``"hash"``.
        num_sites: Number of sites.
        alpha: Dominate rate, used only by ``"dominate"``.
        seed: Routing seed, used only by ``"hash"``.

    Raises:
        ConfigurationError: For an unknown name.
    """
    if name == "flooding":
        return FloodingDistributor(num_sites)
    if name == "random":
        return RandomDistributor(num_sites)
    if name == "round_robin":
        return RoundRobinDistributor(num_sites)
    if name == "dominate":
        return DominateDistributor(num_sites, alpha)
    if name == "hash":
        return HashDistributor(num_sites, seed=seed)
    raise ConfigurationError(
        f"unknown distribution strategy {name!r}; expected flooding, random, "
        "round_robin, dominate, or hash"
    )
