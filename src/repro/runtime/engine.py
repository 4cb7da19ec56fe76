"""Engine: policy-driven ingestion routing over any :class:`Sampler`.

The sampler protocol is *addressed* — every event names the site that
observed it.  Real ingest pipelines usually start one level up, with a raw
item stream and a routing decision still to make.  The engine owns that
decision, with the three policies the paper's experiments use
(:mod:`repro.streams.partition` semantics):

* ``"explicit"`` — events already carry site ids (``(site, item)`` or
  ``(site, item, slot)``); the engine is a pass-through.
* ``"round-robin"`` — item ``j`` of the engine's lifetime goes to site
  ``j mod k`` (the paper's round-robin dealing), so chunked batches
  compose exactly like one long stream.
* ``"hash"`` — content-addressed: item ``e`` always goes to site
  ``hash_route(e) mod-like k`` via
  :class:`~repro.streams.partition.HashDistributor`.  Same key, same
  site — the sticky-routing invariant sharded deployments need.

Routing is vectorized for batches (one NumPy pass under ``mix64``) and
the single/batch paths are equivalent by construction: the batch path
computes exactly the site ids the one-at-a-time path would.  Before
routing, an unstamped batch drops the rows no site could report
(:meth:`~repro.core.protocol.Sampler.reportable_rows`), so on a warmed
infinite-family sampler the router sees only the few candidate rows.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

import numpy as np

from ..core.events import EventBatch
from ..core.protocol import Sampler
from ..errors import ConfigurationError
from ..streams.partition import HashDistributor, RoundRobinDistributor

__all__ = ["Engine", "ROUTING_POLICIES"]

#: Supported routing policy names.
ROUTING_POLICIES = ("explicit", "round-robin", "hash")


class Engine:
    """Routes raw items into a sampler under a named policy.

    Args:
        sampler: Any :class:`~repro.core.protocol.Sampler` (including a
            :class:`~repro.runtime.sharded.ShardedSampler`).
        policy: One of :data:`ROUTING_POLICIES`.
        seed: Routing seed for the ``"hash"`` policy (independent of the
            sampler's hash seed by construction).
        algorithm: Routing hash algorithm; defaults to the sampler's own
            (so anything the sampler can hash, the router can too).

    Raises:
        ConfigurationError: For an unknown policy.
    """

    def __init__(
        self,
        sampler: Sampler,
        policy: str = "hash",
        seed: int = 0,
        algorithm: Optional[str] = None,
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {policy!r}; expected one of "
                f"{ROUTING_POLICIES}"
            )
        self.sampler = sampler
        self.policy = policy
        self._position = 0
        self._distributor: Optional[
            Union[HashDistributor, RoundRobinDistributor]
        ] = None
        if policy == "hash":
            if algorithm is None:
                algorithm = sampler.config.algorithm
            self._distributor = HashDistributor(
                sampler.num_sites, seed=seed, algorithm=algorithm
            )
        elif policy == "round-robin":
            self._distributor = RoundRobinDistributor(sampler.num_sites)

    @property
    def num_sites(self) -> int:
        """Number of sites the engine routes across."""
        return self.sampler.num_sites

    def _hash_distributor(self) -> HashDistributor:
        """The routing distributor, narrowed (``"hash"`` policy only)."""
        distributor = self._distributor
        if not isinstance(distributor, HashDistributor):  # pragma: no cover
            raise ConfigurationError(
                f"no hash distributor under policy {self.policy!r}"
            )
        return distributor

    def site_for(self, item: Any) -> int:
        """The site the *next* observation of ``item`` would be routed to.

        For ``"round-robin"`` this depends on the engine's position (and
        does not advance it); ``"explicit"`` has no routing function.

        Raises:
            ConfigurationError: Under the ``"explicit"`` policy.
        """
        if self.policy == "hash":
            return self._hash_distributor().assign_one(item)
        if self.policy == "round-robin":
            return self._position % self.num_sites
        raise ConfigurationError(
            "the 'explicit' policy carries site ids in the events; "
            "there is no routing function to query"
        )

    def observe(self, item: Any, *, slot: Optional[int] = None) -> None:
        """Route and deliver one raw item (``explicit``: a full event).

        A ``slot`` advances time *before* delivery; under ``explicit``
        an event's own slot stamp is then still honored (so a stamp
        behind the advanced clock raises, exactly as in the batch path).
        """
        if slot is not None:
            self.sampler.advance(slot)
        if self.policy == "explicit":
            if len(item) == 2:
                self.sampler.observe(item[0], item[1])
            else:
                self.sampler.observe(item[0], item[1], slot=item[2])
            return
        site = self.site_for(item)
        self._position += 1
        self.sampler.observe(site, item)

    def observe_batch(self, items: Iterable[Any], *, slot: Optional[int] = None) -> int:
        """Route and deliver a batch of raw items; returns the count.

        Equivalent to ``sampler.advance(slot)`` (when ``slot`` is given —
        it applies once, before any delivery, even for an empty batch)
        followed by looping :meth:`observe` without ``slot``.  The items
        become one :class:`~repro.core.events.EventBatch` (tuple events
        under ``explicit``, via
        :meth:`~repro.core.events.EventBatch.from_events`) and take
        :meth:`observe_columns`; a batch passes straight through.
        """
        batch: EventBatch
        if isinstance(items, EventBatch):
            batch = items
        elif self.policy == "explicit":
            batch = EventBatch.from_events(items)
        else:
            batch = EventBatch(items)
        return self.observe_columns(batch, slot=slot)

    def observe_columns(
        self, batch: EventBatch, *, slot: Optional[int] = None
    ) -> int:
        """Route a columnar batch; site assignments stay NumPy arrays.

        First the sampler's
        :meth:`~repro.core.protocol.Sampler.reportable_rows` drops the
        rows of an unstamped batch that no site could report: one pass of
        the sampling hash, whose column the kept rows carry down, so no
        layer below rehashes them.  Only the kept rows are routed.  The
        distributor computes the site ids :meth:`observe` would (under
        ``round-robin`` a kept row takes the site of its place in the
        whole batch, and the position still advances by the whole batch),
        and :meth:`~repro.core.events.EventBatch.with_sites` attaches
        them for the sampler's ``observe_columns``.  Under ``explicit``
        the batch passes through with its own site column.  Returns the
        input count.
        """
        if slot is not None:
            self.sampler.advance(slot)
        n = len(batch)
        if self.policy == "explicit":
            return self.sampler.observe_columns(batch)
        if not n:
            return 0
        rows = self.sampler.reportable_rows(batch)
        if rows is not None:
            if not rows.size:
                self._position += n
                return n
            batch = batch.select(rows)
        if self.policy == "hash":
            sites = self._hash_distributor().assignments_for_batch(batch)
        else:
            positions = np.arange(n, dtype=np.int64) if rows is None else rows
            sites = (self._position + positions) % self.num_sites
        self._position += n
        self.sampler.observe_columns(batch.with_sites(sites))
        return n
