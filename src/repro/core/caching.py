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
from dataclasses import replace
from typing import Any, Optional

from ..errors import ConfigurationError
from ..hashing.unit import UnitHasher
from ..netsim.message import COORDINATOR, MessageKind
from ..netsim.network import Network
from .infinite import (
    BottomSFacadeBase,
    InfiniteWindowCoordinator,
    InfiniteWindowSite,
    parse_site_list,
)
from .protocol import SamplerConfig, parse_counter, parse_threshold, revive_element

__all__ = ["CachingSite", "CachingSamplerSystem"]


class CachingSite(InfiniteWindowSite):
    """Algorithm 1 plus a bounded LRU of recently reported elements.

    Args:
        site_id: Network address.
        cache_size: Maximum elements remembered (0 = paper behaviour).

    Raises:
        ConfigurationError: If ``cache_size < 0``.
    """

    __slots__ = ("cache_size", "_cache", "suppressed")

    def __init__(self, site_id: int, cache_size: int) -> None:
        if cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        super().__init__(site_id)
        self.cache_size = cache_size
        self._cache: OrderedDict[Any, None] = OrderedDict()
        self.suppressed = 0

    def observe_hashed(self, element: Any, h: float, network: Network) -> None:
        """Report ``element`` iff ``h < u_local`` and it is not cached."""
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

    VARIANT = "caching"
    SITE_COUNTERS = ("suppressed",)

    def __init__(
        self,
        num_sites: int,
        sample_size: int,
        cache_size: int,
        seed: int = 0,
        algorithm: str = "murmur2",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        self.cache_size = cache_size
        super().__init__(num_sites, sample_size, seed, algorithm, hasher)

    def _make_coordinator(self, num_sites: int) -> InfiniteWindowCoordinator:
        return InfiniteWindowCoordinator(self.sample_size)

    def _make_site(self, site_id: int) -> CachingSite:
        return CachingSite(site_id, self.cache_size)

    @property
    def total_suppressed(self) -> int:
        """Reports suppressed by the caches across all sites."""
        return sum(site.suppressed for site in self.sites)

    def _per_site_memory(self) -> list[int]:
        """One threshold float plus the LRU cache contents per site."""
        return [1 + len(site._cache) for site in self.sites]

    @property
    def config(self) -> SamplerConfig:
        """The base recipe plus the cache size."""
        return replace(super().config, cache_size=self.cache_size)

    def _sites_state(self) -> dict[str, Any]:
        return {
            "sites": [
                {
                    "u_local": site.u_local,
                    "cache": list(site._cache),
                    "suppressed": site.suppressed,
                }
                for site in self.sites
            ]
        }

    def _load_sites(self, state: dict[str, Any]) -> list[dict[str, Any]]:
        fields = []
        for site_state in parse_site_list(state["sites"], self.num_sites):
            rows = site_state["cache"]
            if not isinstance(rows, list):
                raise TypeError(f"site cache must be a list, got {type(rows).__name__}")
            cache: OrderedDict[Any, None] = OrderedDict(
                (revive_element(element), None) for element in rows
            )
            if len(cache) != len(rows) or len(cache) > self.cache_size:
                raise ValueError(
                    f"site cache must hold at most {self.cache_size} distinct elements"
                )
            fields.append(
                {
                    "u_local": parse_threshold(site_state["u_local"]),
                    "_cache": cache,
                    "suppressed": parse_counter(site_state["suppressed"]),
                }
            )
        return fields
