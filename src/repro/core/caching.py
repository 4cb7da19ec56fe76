"""Duplicate-suppressing sites — fixing the s > 1 repeat cost.

Reproduction finding (see :mod:`repro.core.infinite`): with sample size
``s > 1``, Algorithms 1–2 as written re-report every occurrence of an
element whose hash sits strictly below the threshold — typically an
element already *in* the sample.  A site's single float of state cannot
distinguish "would enter the sample" from "already in it", so on
duplicate-heavy streams (the realistic case: OC48 has ~10 occurrences per
distinct flow) the message count carries an extra
``Θ(n·s/d)``-ish term the paper's analysis does not account for.

The minimal repair trades a little site memory for those messages: each
site keeps a bounded LRU set of elements it has recently reported.  A
repeat occurrence found in the cache is provably redundant — the
coordinator has already either sampled that element (dedup on arrival,
Algorithm 2 line 5) or rejected it with a threshold the site has since
adopted — so suppressing the report never changes the coordinator's
state, and the sample remains *exactly* the bottom-s of the union (the
differential tests check this against the oracle).

With ``cache_size = s`` the repeat cost disappears for stationary
streams; the ``ablation_cache`` experiment quantifies the savings curve.
Setting ``cache_size = 0`` reproduces the paper's exact behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology
from .infinite import BottomSFacadeBase, InfiniteWindowCoordinator
from .protocol import SamplerConfig, revive_element

__all__ = ["CachingSite", "CachingSamplerSystem"]


class CachingSite:
    """Algorithm 1 plus a bounded LRU of recently reported elements.

    Args:
        site_id: Network address.
        hasher: Shared hash function.
        cache_size: Maximum elements remembered (0 = paper behaviour).

    Raises:
        ConfigurationError: If ``cache_size < 0``.
    """

    __slots__ = ("site_id", "hasher", "u_local", "cache_size", "_cache",
                 "suppressed")

    def __init__(self, site_id: int, hasher: UnitHasher, cache_size: int) -> None:
        if cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        self.site_id = site_id
        self.hasher = hasher
        self.u_local = 1.0
        self.cache_size = cache_size
        self._cache: OrderedDict[Any, None] = OrderedDict()
        self.suppressed = 0

    def observe(self, element: Any, network: Network) -> None:
        """Process one local stream element."""
        self.observe_hashed(element, self.hasher.unit(element), network)

    def observe_hashed(self, element: Any, h: float, network: Network) -> None:
        """Fast path with a precomputed hash."""
        if h >= self.u_local:
            return
        if self.cache_size:
            cache = self._cache
            if element in cache:
                cache.move_to_end(element)
                self.suppressed += 1
                return
            cache[element] = None
            if len(cache) > self.cache_size:
                cache.popitem(last=False)
        network.send(
            self.site_id, COORDINATOR, MessageKind.REPORT, (element, h, self.site_id)
        )

    def handle_message(self, message: Message, network: Network) -> None:
        """Adopt the refreshed threshold."""
        if message.kind is not MessageKind.THRESHOLD:
            raise ProtocolError(
                f"caching site {self.site_id} cannot handle {message.kind!r}"
            )
        self.u_local = message.payload


class CachingSamplerSystem(BottomSFacadeBase):
    """Facade: infinite-window sampling with duplicate-suppressing sites.

    Behaviourally identical to
    :class:`~repro.core.infinite.DistinctSamplerSystem` — the coordinator's
    sample is the exact bottom-s of the union at all times — but cheaper on
    duplicate-heavy streams.

    Args:
        num_sites: Number of sites k.
        sample_size: Sample size s.
        cache_size: Per-site LRU capacity (``s`` is a good default;
            0 reproduces the paper's algorithm exactly).
        seed: Hash seed (ignored if ``hasher`` given).
        algorithm: Hash algorithm name.
        hasher: Optional shared pre-built hasher.
    """

    def __init__(
        self,
        num_sites: int,
        sample_size: int,
        cache_size: int,
        seed: int = 0,
        algorithm: str = "murmur2",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        self.hasher = hasher if hasher is not None else UnitHasher(seed, algorithm)
        self.cache_size = cache_size
        self._init_runtime(
            Topology.build(
                coordinator=InfiniteWindowCoordinator(sample_size),
                site_factory=lambda i: CachingSite(i, self.hasher, cache_size),
                num_sites=num_sites,
            )
        )

    @property
    def total_suppressed(self) -> int:
        """Reports suppressed by the caches across all sites."""
        return sum(site.suppressed for site in self.sites)

    def _per_site_memory(self) -> list[int]:
        """One threshold float plus the LRU cache contents per site."""
        return [1 + len(site._cache) for site in self.sites]

    # -- protocol: construction recipe + persistence -----------------------

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant="caching",
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            seed=self.hasher.seed,
            algorithm=self.hasher.algorithm,
            cache_size=self.cache_size,
        )

    def _state(self) -> dict[str, Any]:
        return {
            "sample": self._sample_rows(),
            "reports_received": self.coordinator.reports_received,
            "reports_accepted": self.coordinator.reports_accepted,
            "sites": [
                {
                    "u_local": site.u_local,
                    "cache": list(site._cache),
                    "suppressed": site.suppressed,
                }
                for site in self.sites
            ],
        }

    def _load(self, state: dict[str, Any]) -> None:
        self._load_sample_rows(state.get("sample"))
        self.coordinator.reports_received = int(state["reports_received"])
        self.coordinator.reports_accepted = int(state["reports_accepted"])
        for site, site_state in zip(self.sites, state["sites"]):
            site.u_local = float(site_state["u_local"])
            site._cache.clear()
            for element in site_state["cache"]:
                site._cache[revive_element(element)] = None
            site.suppressed = int(site_state["suppressed"])
