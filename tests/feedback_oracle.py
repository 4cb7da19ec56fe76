"""The general-s sliding protocol that answers every push, kept as an oracle.

:mod:`repro.core.sliding_feedback` answers only the final push of a lapse,
and that reply settles the whole lapse.  Before, the coordinator answered
every push and each reply acknowledged its own entry; on the synchronous
network the two must reach the same samples and states and differ only
in the replies that no site read.  This module keeps the answer-every-push
protocol so the tests can check that claim differentially.  Its name does
not match ``test_*.py``, so pytest imports it without collecting it.

* :class:`AnswerEveryPushCoordinator` — replies to every report, the
  silent lapse pushes included.
* :class:`AnswerEveryPushSite` — adopts each reply and acknowledges only
  its echoed entry, whatever lapse field it carries; it counts the pushes
  of its lapses that were not the final one.
* :class:`AnswerEveryPush` — the ``sliding`` facade (s >= 2) on those
  nodes.
"""

from __future__ import annotations

from typing import Any

from repro.core.sliding_feedback import (
    FeedbackBottomSCoordinator,
    FeedbackBottomSSite,
    SlidingWindowBottomSFeedback,
)
from repro.errors import ProtocolError
from repro.netsim import COORDINATOR, MessageKind

__all__ = ["AnswerEveryPush", "AnswerEveryPushCoordinator", "AnswerEveryPushSite"]


class AnswerEveryPushSite(FeedbackBottomSSite):
    """A feedback site whose every report, lapse push or arrival, is
    answered."""

    def __init__(self, site_id: int, window: int, sample_size: int) -> None:
        super().__init__(site_id, window, sample_size)
        #: Pushes of this site's lapses other than each lapse's final one.
        self.non_final_pushes = 0

    def tick(self, now: int, network: Any) -> None:
        before = self.reports_sent
        super().tick(now, network)
        pushes = self.reports_sent - before
        if pushes:
            self.non_final_pushes += pushes - 1

    def handle_message(self, kind: MessageKind, payload: Any, network: Any) -> None:
        if kind is not MessageKind.SW_SAMPLE:
            raise ProtocolError(f"feedback site {self.site_id} cannot handle {kind!r}")
        u, valid_until, element, expiry, _lapse = payload
        if u <= self.u_local:
            self.u_local = u
            self.valid_until = valid_until
        self.known[element] = expiry
        if self.pending.get(element) == expiry:
            del self.pending[element]


class AnswerEveryPushCoordinator(FeedbackBottomSCoordinator):
    """A feedback coordinator that answers every report it absorbs."""

    def handle_message(self, kind: MessageKind, payload: Any, network: Any) -> None:
        if kind is not MessageKind.SW_REPORT:
            raise ProtocolError(f"coordinator cannot handle {kind!r}")
        element, h, expiry, site_id, lapse = payload
        self.reports_received += 1
        self.absorb(element, h, expiry)
        u, valid_until = self._threshold(self.clock.now)
        network.send(
            COORDINATOR,
            site_id,
            MessageKind.SW_SAMPLE,
            (u, valid_until, element, expiry, lapse),
        )


class AnswerEveryPush(SlidingWindowBottomSFeedback):
    """The ``sliding`` facade at s >= 2 on the answer-every-push nodes."""

    def _make_coordinator(self) -> AnswerEveryPushCoordinator:
        return AnswerEveryPushCoordinator(self.clock, self.sample_size)

    def _make_site(self, site_id: int) -> AnswerEveryPushSite:
        return AnswerEveryPushSite(site_id, self.window, self.sample_size)

    @property
    def non_final_pushes(self) -> int:
        """Lapse pushes so far, across every site, that were not the final
        push of their lapse: the replies the one-reply protocol saves."""
        return sum(site.non_final_pushes for site in self.sites)
