"""General-s sliding-window sampling with lazy feedback.

The full generalization of Algorithms 3–4 to sample size ``s >= 2`` —
what the ``"sliding"`` registry name builds for ``s > 1`` (``s = 1`` is
the paper's own :class:`~repro.core.sliding.SlidingWindowSystem`) —
combining the two devices this package already has:

* every node (sites *and* the coordinator) maintains an **s-dominance
  set** of live candidates;
* the coordinator's replies carry a *threshold with an expiry*:
  ``u`` = the s-th smallest live hash it knows (1.0 while it knows fewer
  than ``s``), valid until ``t_u`` = the earliest expiry among its
  current bottom-s — the first moment the threshold could *rise*.

Protocol.  A report ``(e, h(e), x, i, lapse)`` carries a last field: None
for an arrival, the site's lapse number for the final push of a lapse,
and :data:`SILENT` for the lapse's other pushes.

* **Site, arrival ``e`` at slot ``t``:** refresh ``(e, t+w)`` in ``T_i``;
  report ``(e, h(e), t+w)`` iff ``h(e) < u_i``.
* **Coordinator, report:** merge into its candidate set; unless the
  report is :data:`SILENT`, reply ``(u, t_u)``, echoing the reported
  element, expiry and lapse field.
* **Site, reply:** adopt ``(u, t_u)`` unless it would raise ``u_i``.  A
  reply echoing the site's current lapse number moves the whole
  ``pending`` record into ``known``, in push order; any other reply
  records just its echoed element as *known* (acknowledged) at the echoed
  expiry, and clears it from ``pending`` if it is pending there.
* **Site, slot boundary:** the site *lapses* if ``t_i <= now`` (threshold
  validity expired) or a push of its previous lapse is still
  unacknowledged.  A lapse numbers itself (``fallbacks``, from 1), resets
  ``u_i`` to 1.0 and pushes the entries of its local bottom-s that are not
  known at their current expiry (one entry if all are, so a fresh
  ``(u, t_u)`` still comes back), each a constant-size message counted
  individually; only the final push asks for a reply.  Those pushes are
  the ``pending`` record, and the known record then holds just the
  acknowledged bottom-s.  Between lapses, a record grown past ``2s`` drops
  its expired entries, since a site whose replies stay valid until
  infinity never lapses.

Delivery takes a same-slot run per site in one pass
(:meth:`SlidingWindowBottomSFeedback._deliver_columns`): each site's
candidate set takes all of its rows at once, then only the rows hashing
below the site's ``u_i`` at the start of the run are checked for a
report, in arrival order.  That is exactly the per-arrival loop: ``u_i``
never rises within a run (see the last paragraph), and no reply handler
reads a site's candidates.

Correctness (checked against a brute-force oracle every slot): suppose
``g`` is in the true global bottom-s at slot ``t`` and lives at site
``j``.  If ``h(g) >= u_j`` with ``t_j > t``, then the coordinator
bottom-s that produced ``(u_j, t_j)`` consists of ``s`` elements, each
with hash ``<= u_j <= h(g)`` and expiry ``>= t_j > t`` — i.e. ``s`` live
elements all hashing below ``g``, contradicting ``g``'s membership.  So
either ``g`` cleared the threshold when it (last) arrived and was
reported fresh, or site ``j``'s validity lapsed by ``t`` and its
fallback covered its local bottom-s, which provably contains ``g``
(s-dominance cannot evict a global bottom-s member).  Either way the
coordinator knows ``g`` with a current expiry.

A lapse skips only entries acknowledged at their current expiry, and
such an entry needs no re-push: the coordinator absorbed ``(g, x)``
before echoing it, so it holds ``g`` at expiry ``x`` or later, or dropped
it as s-dominated — by ``s`` entries of smaller hash that outlive ``x``,
hence live and below ``g`` for as long as ``g`` is, so ``g`` cannot be a
bottom-s member.  The coordinator loses entries only to expiry or to such
domination, so an acknowledgement stays true.  Every skipped push would
have been a no-op absorb, so on the synchronous network each threshold,
lapse and sample is what pushing the whole bottom-s gives; only the
message count falls.

Answering only a lapse's final push changes no state on the synchronous
network.  A lapse's pushes are absorbed in order, so the final reply
carries the ``(u, t_u)`` the last of one reply per push would have, and
the site adopted that one too, since an absorb never raises ``u``.
Moving ``pending`` into ``known`` in push order writes what one
acknowledgement per push would have written.  Only the non-final replies
go.

Three rules keep the sample exact on a delaying network
(:mod:`repro.netsim.delayed`, :mod:`repro.netsim.chaos` without drops)
once it has drained and a slot boundary has passed, and none fires on
the synchronous network, where every reply lands before the next event.
A lapse repeats until its pushes are acknowledged, so a push lost to a
dead site is resent.  A reply that would raise ``u_i`` is not adopted,
so between lapses ``u_i`` only falls and every element it filtered stays
covered: while the held threshold is valid the coordinator's cannot
rise, so such a reply is stale, and once the held one has expired the
next boundary lapses anyway.  And only a reply echoing the *current*
lapse number settles the lapse.  That reply answers the final push of
this lapse, which the site sent after every other push of it, so each of
them was sent too and, drops aside, is absorbed or still in flight to
the coordinator: delay and reordering (the final push overtaking the
others) only postpone absorbs the drain completes, and a duplicate
echoes the same number.  A site is dead or alive for a whole boundary,
so a dead site sends none of a lapse's pushes and gets no reply to it.
A reply to any older report, say one queued before the site died,
echoes another number (or none) and acknowledges only its own entry, so
it cannot settle a later lapse whose pushes never left the site.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Optional

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.clock import SlotClock
from ..netsim.message import COORDINATOR, MessageKind
from ..netsim.network import Network
from ..structures.dominance import DominanceEntry, SortedDominanceSet
from .events import EventBatch
from .protocol import decode_expiry, encode_expiry, parse_slot, parse_threshold
from .sliding import (
    SlidingFacadeBase,
    parse_record,
    record_columns,
    require_positive,
)

__all__ = [
    "FeedbackBottomSSite",
    "FeedbackBottomSCoordinator",
    "SlidingWindowBottomSFeedback",
    "SILENT",
]

_INF = math.inf
_EXPIRY = attrgetter("expiry")

#: The lapse field of a lapse push the coordinator absorbs without a
#: reply: every push of a lapse but the final one.  Lapses number from 1.
SILENT = 0


class FeedbackBottomSSite:
    """Per-site protocol: s-dominance candidates + expiring threshold."""

    __slots__ = (
        "site_id",
        "window",
        "sample_size",
        "candidates",
        "u_local",
        "valid_until",
        "reports_sent",
        "fallbacks",
        "known",
        "pending",
    )

    def __init__(self, site_id: int, window: int, sample_size: int) -> None:
        require_positive(window=window, sample_size=sample_size)
        self.site_id = site_id
        self.window = window
        self.sample_size = sample_size
        self.candidates = SortedDominanceSet(sample_size)
        self.u_local = 1.0
        self.valid_until: float = _INF
        self.reports_sent = 0
        self.fallbacks = 0
        # element -> expiry at which the coordinator acknowledged it
        self.known: dict[Any, int] = {}
        # element -> expiry of the last lapse's unacknowledged pushes,
        # in push order
        self.pending: dict[Any, int] = {}

    @property
    def memory_size(self) -> int:
        """Current candidate-set size |T_i|."""
        return len(self.candidates)

    def tick(self, now: int, network: Network) -> None:
        """Slot boundary: on a lapse, push the local bottom-s entries the
        coordinator has not acknowledged at their current expiry, the
        final one numbered with the lapse."""
        known = self.known
        if len(known) > 2 * self.sample_size:
            known = self.known = {
                element: expiry
                for element, expiry in known.items()
                if expiry > now
            }
        if self.valid_until > now and not self.pending:
            return
        self.fallbacks += 1
        self.candidates.expire(now)
        bottom = self.candidates.bottom(self.sample_size)
        acknowledged: dict[Any, int] = {}
        fresh = []
        for entry in bottom:
            if known.get(entry.element) == entry.expiry:
                acknowledged[entry.element] = entry.expiry
            else:
                fresh.append(entry)
        self.known = acknowledged
        # Only the final push is answered, and its reply leaves the
        # freshest (u, t_u).  Reset the threshold first so the reply rules.
        self.u_local = 1.0
        self.valid_until = _INF
        pushes = fresh or bottom[:1]
        self.pending = {entry.element: entry.expiry for entry in pushes}
        final = len(pushes) - 1
        for index, entry in enumerate(pushes):
            self.reports_sent += 1
            network.send(
                self.site_id,
                COORDINATOR,
                MessageKind.SW_REPORT,
                (
                    entry.element,
                    entry.hash,
                    entry.expiry,
                    self.site_id,
                    self.fallbacks if index == final else SILENT,
                ),
            )

    def observe_hashed(
        self, element: Any, h: float, now: int, network: Network
    ) -> None:
        """Process an arrival in slot ``now`` with its precomputed hash."""
        expiry = now + self.window
        self.candidates.expire(now)
        self.candidates.observe(element, expiry, h)
        self.report(element, h, expiry, network)

    def report(self, element: Any, h: float, expiry: int, network: Network) -> None:
        """Report an arrival iff it hashes below the current threshold."""
        if h < self.u_local:
            self.reports_sent += 1
            network.send(
                self.site_id,
                COORDINATOR,
                MessageKind.SW_REPORT,
                (element, h, expiry, self.site_id, None),
            )

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        """Adopt the reply's (threshold, validity) unless it would raise
        the threshold, which only a reply delayed past a slot boundary
        can.  A reply echoing the current lapse number settles the lapse:
        every pending push joins ``known``, in push order.  Any other
        records just its echoed entry as acknowledged."""
        if kind is not MessageKind.SW_SAMPLE:
            raise ProtocolError(
                f"feedback site {self.site_id} cannot handle {kind!r}"
            )
        u, valid_until, element, expiry, lapse = payload
        if u <= self.u_local:
            self.u_local = u
            self.valid_until = valid_until
        if lapse == self.fallbacks:
            self.known.update(self.pending)
            self.pending = {}
        elif self.pending.get(element) == expiry:
            del self.pending[element]
        self.known[element] = expiry


class FeedbackBottomSCoordinator:
    """Coordinator: s-dominance candidate set + expiring threshold replies."""

    __slots__ = ("clock", "sample_size", "candidates", "reports_received")

    def __init__(self, clock: SlotClock, sample_size: int) -> None:
        require_positive(sample_size=sample_size)
        self.clock = clock
        self.sample_size = sample_size
        self.candidates = SortedDominanceSet(sample_size)
        self.reports_received = 0

    def _threshold(self, now: int) -> tuple[float, float]:
        """Current ``(u, valid_until)`` over live candidates."""
        bottom = self.sample_entries(now)
        if len(bottom) < self.sample_size:
            return 1.0, _INF
        return bottom[-1].hash, min(map(_EXPIRY, bottom))

    def absorb(self, element: Any, h: float, expiry: int) -> None:
        """Merge one entry into the candidate set."""
        self.candidates.observe(element, expiry, h)

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        """Merge a report; unless it is :data:`SILENT`, reply with the
        fresh (u, t_u), echoing the reported element, expiry and lapse
        field as its acknowledgement."""
        if kind is not MessageKind.SW_REPORT:
            raise ProtocolError(f"coordinator cannot handle {kind!r}")
        element, h, expiry, site_id, lapse = payload
        self.reports_received += 1
        self.absorb(element, h, expiry)
        if lapse == SILENT:
            return
        u, valid_until = self._threshold(self.clock.now)
        network.send(
            COORDINATOR,
            site_id,
            MessageKind.SW_SAMPLE,
            (u, valid_until, element, expiry, lapse),
        )

    def sample_entries(self, now: int) -> list[DominanceEntry]:
        """The live bottom-s entries at slot ``now``, ascending by hash."""
        self.candidates.expire(now)
        return self.candidates.bottom(self.sample_size)


class SlidingWindowBottomSFeedback(SlidingFacadeBase):
    """Facade: general-s sliding-window sampling with lazy feedback.

    Built by the ``"sliding"`` registry name whenever ``s > 1``; ``s = 1``
    is the paper's own :class:`~repro.core.sliding.SlidingWindowSystem`.

    Args:
        num_sites: Number of sites k.
        window: Window size w in slots.
        sample_size: Sample size s (>= 2).
        seed: Hash seed (ignored if ``hasher`` given).
        algorithm: Hash algorithm name.
        hasher: Optional shared pre-built hasher.

    Raises:
        ConfigurationError: For ``sample_size == 1`` (use ``"sliding"``)
            and the usual out-of-range parameters.
    """

    #: Repeats are kept: a reply can leave ``u_i`` above a reported hash
    #: (one that joined the coordinator's bottom-s, or any while it knows
    #: fewer than ``s`` candidates and replies 1.0), so a same-slot repeat
    #: of it reports again.
    SAME_SLOT_REPEATS = "never"
    RECORDS = ("known", "pending")

    def __init__(
        self,
        num_sites: int,
        window: int,
        sample_size: int = 2,
        seed: int = 0,
        algorithm: str = "murmur2",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        if sample_size == 1:
            raise ConfigurationError(
                "the general-s feedback system needs sample_size >= 2; "
                "for s = 1 use the 'sliding' variant (SlidingWindowSystem)"
            )
        super().__init__(num_sites, window, sample_size, seed, algorithm, hasher)

    def _make_coordinator(self) -> FeedbackBottomSCoordinator:
        return FeedbackBottomSCoordinator(self.clock, self.sample_size)

    def _make_site(self, site_id: int) -> FeedbackBottomSSite:
        return FeedbackBottomSSite(site_id, self.window, self.sample_size)

    def _deliver_columns(self, run: EventBatch) -> None:
        """Deliver one same-slot run: every site takes its rows in one
        :meth:`~repro.structures.dominance.SortedDominanceSet.observe_run`,
        then only the rows hashing below their site's ``u_i`` at the start
        of the run enter the report loop, in arrival order, each checking
        the current ``u_i`` as :meth:`FeedbackBottomSSite.observe_hashed`
        does.

        Exactly the per-row loop: ``u_i`` never rises within a run (a
        reply is adopted only if it does not raise it, and only ``tick``
        resets it), so a row at or above the starting ``u_i`` never
        reports, on any network; and no reply handler or coordinator reads
        a site's candidate set, so inserting a site's rows ahead of the
        run's reports leaves the same set and the same messages.
        """
        if not len(run):
            return
        hashes = run.hash_column(self.hasher)
        site_column = run.require_sites()
        sites = self.sites
        order = np.argsort(site_column, kind="stable")
        bounds = np.searchsorted(
            site_column[order], np.arange(len(sites) + 1)
        ).tolist()
        now = self.clock.now
        expiry = now + self.window
        thresholds = np.array([site.u_local for site in sites])
        reporting = np.flatnonzero(hashes < thresholds[site_column])
        items = run.items[order].tolist()
        row_hashes = hashes[order].tolist()
        for site, start, stop in zip(sites, bounds, bounds[1:]):
            if start < stop:
                candidates = site.candidates
                candidates.expire(now)
                candidates.observe_run(
                    items[start:stop], expiry, row_hashes[start:stop]
                )
        network = self.network
        for site_id, item, h in zip(
            site_column[reporting].tolist(),
            run.items[reporting].tolist(),
            hashes[reporting].tolist(),
        ):
            sites[site_id].report(item, h, expiry, network)

    def _site_state(self, site: FeedbackBottomSSite) -> dict[str, Any]:
        return {
            "u_local": site.u_local,
            "valid_until": encode_expiry(site.valid_until),
            "known": record_columns(site.known),
            "pending": record_columns(site.pending),
        }

    def _load_site(
        self, site: FeedbackBottomSSite, state: dict[str, Any]
    ) -> None:
        site.u_local = parse_threshold(state["u_local"])
        # None (never lapses) or a plain int, as a slot parses.
        site.valid_until = decode_expiry(parse_slot(state["valid_until"]))
        site.known = parse_record(state["known"])
        site.pending = parse_record(state["pending"])
