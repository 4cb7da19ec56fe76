"""Sliding-window distinct sampling for general sample size ``s`` —
the *local-push* protocol.

The paper presents its sliding-window algorithm for ``s = 1`` and notes the
extension to larger samples is straightforward.  This module implements the
generalization along the lines of the paper's "Intuition" paragraph
(Section 4.1): each site continuously tracks its **local bottom-s** (the
``s`` smallest-hash live local distinct elements, maintained inside an
*s-dominance* candidate set) and informs the coordinator whenever its local
bottom-s gains an entry or an entry's expiry is refreshed.  The coordinator
merges all reports into its own s-dominance set; its live bottom-s is then
exactly the global bottom-s — a perfect without-replacement distinct sample
of size ``min(s, |D_w|)``.

Unlike Algorithms 3–4 there is **no coordinator feedback**: messages flow
one way.  For ``s = 1`` this is precisely the paper's pre-optimization
algorithm, making it the natural ablation baseline quantifying the value of
lazy feedback (see ``repro.experiments.ablations``).

Correctness sketch: a member ``g`` of the global bottom-s is live at some
site; fewer than ``s`` live elements hash below ``g`` globally, hence
locally at any site where ``g`` is live — so ``g`` survives local
s-dominance pruning *and* sits in the local bottom-s there, and the site
holding ``g``'s freshest occurrence reports that freshest expiry.  The
coordinator therefore knows every global bottom-s member with its current
expiry; s-dominance pruning at the coordinator never discards a current or
future bottom-s member.
"""

from __future__ import annotations

from typing import Any

from ..errors import ProtocolError
from ..netsim.message import COORDINATOR, MessageKind
from ..netsim.network import Network
from ..structures.dominance import DominanceEntry, SortedDominanceSet
from .sliding import (
    SlidingFacadeBase,
    parse_record,
    record_columns,
    require_positive,
)

__all__ = [
    "LocalPushSite",
    "LocalPushCoordinator",
    "SlidingWindowBottomS",
]


class LocalPushSite:
    """A site that pushes every change of its local bottom-s.

    Args:
        site_id: Network address.
        window: Window size w in slots.
        sample_size: Sample size s (>= 1).
    """

    __slots__ = (
        "site_id",
        "window",
        "sample_size",
        "candidates",
        "_reported",
        "reports_sent",
    )

    def __init__(self, site_id: int, window: int, sample_size: int) -> None:
        require_positive(window=window, sample_size=sample_size)
        self.site_id = site_id
        self.window = window
        self.sample_size = sample_size
        self.candidates = SortedDominanceSet(sample_size)
        # element -> expiry most recently reported to the coordinator
        self._reported: dict[Any, int] = {}
        self.reports_sent = 0

    @property
    def memory_size(self) -> int:
        """Current candidate-set size |T_i|."""
        return len(self.candidates)

    def _sync_bottom(self, now: int, network: Network) -> None:
        """Report every (element, expiry) newly in the local bottom-s."""
        bottom = self.candidates.bottom(self.sample_size)
        live_elements = set()
        for entry in bottom:
            live_elements.add(entry.element)
            if self._reported.get(entry.element) != entry.expiry:
                self._reported[entry.element] = entry.expiry
                self.reports_sent += 1
                network.send(
                    self.site_id,
                    COORDINATOR,
                    MessageKind.SW_REPORT,
                    (entry.element, entry.hash, entry.expiry, self.site_id),
                )
        # Forget book-keeping for elements that left the bottom or expired,
        # so a later re-entry is re-reported.
        for element in [e for e in self._reported if e not in live_elements]:
            del self._reported[element]

    def tick(self, now: int, network: Network) -> None:
        """Slot-boundary maintenance: expire, then re-sync the bottom-s."""
        before = len(self.candidates)
        self.candidates.expire(now)
        if len(self.candidates) != before or self._reported:
            self._sync_bottom(now, network)

    def observe_hashed(
        self, element: Any, h: float, now: int, network: Network
    ) -> None:
        """Process an arrival in slot ``now`` with its precomputed hash."""
        self.candidates.expire(now)
        self.candidates.observe(element, now + self.window, h)
        self._sync_bottom(now, network)

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        """Local-push sites receive no protocol messages."""
        raise ProtocolError(
            f"local-push site {self.site_id} received unexpected {kind!r}"
        )


class LocalPushCoordinator:
    """Merges site reports into a global s-dominance set.

    Args:
        sample_size: Sample size s.
    """

    __slots__ = ("sample_size", "candidates", "reports_received")

    def __init__(self, sample_size: int) -> None:
        require_positive(sample_size=sample_size)
        self.sample_size = sample_size
        self.candidates = SortedDominanceSet(sample_size)
        self.reports_received = 0

    def absorb(self, element: Any, h: float, expiry: int) -> None:
        """Merge one entry into the candidate set."""
        self.candidates.observe(element, expiry, h)

    def handle_message(self, kind: MessageKind, payload: Any, network: Network) -> None:
        if kind is not MessageKind.SW_REPORT:
            raise ProtocolError(f"coordinator cannot handle {kind!r}")
        element, h, expiry, _site_id = payload
        self.reports_received += 1
        self.absorb(element, h, expiry)

    def sample_entries(self, now: int) -> list[DominanceEntry]:
        """The live bottom-s entries at slot ``now``, ascending by hash."""
        self.candidates.expire(now)
        return self.candidates.bottom(self.sample_size)


class SlidingWindowBottomS(SlidingFacadeBase):
    """Facade: general-s sliding-window distinct sampling (local push).

    Args:
        num_sites: Number of sites k.
        window: Window size w in slots.
        sample_size: Sample size s (>= 1).
        seed: Hash seed (ignored if ``hasher`` given).
        algorithm: Hash algorithm name.
        hasher: Optional shared pre-built hasher.
    """

    VARIANT = "sliding-local-push"
    #: This core's checkpoints store the slot under ``"now"``.
    CLOCK_KEY = "now"
    #: Local-push sites never fall back, so they count reports only.
    SITE_COUNTERS = ("reports_sent",)
    #: A same-slot repeat's candidate refresh is a no-op (equal expiry), so
    #: the follow-up bottom-s sync finds ``_reported`` already consistent:
    #: messages flow one way, so nothing else can have invalidated it, on
    #: any network.
    SAME_SLOT_REPEATS = "always"
    RECORDS = ("reported",)

    def _make_coordinator(self) -> LocalPushCoordinator:
        return LocalPushCoordinator(self.sample_size)

    def _make_site(self, site_id: int) -> LocalPushSite:
        return LocalPushSite(site_id, self.window, self.sample_size)

    def _site_state(self, site: LocalPushSite) -> dict[str, Any]:
        return {"reported": record_columns(site._reported)}

    def _load_site(self, site: LocalPushSite, state: dict[str, Any]) -> None:
        site._reported = parse_record(state["reported"])
