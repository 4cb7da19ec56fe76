"""Slot clock for time-based sliding windows.

Time is divided into integer slots, synchronized across all sites (paper
Ch. 4).  The clock only moves forward; systems consult it to decide element
expiry and to run slot-boundary maintenance.
"""

from __future__ import annotations

from ..errors import ProtocolError

__all__ = ["SlotClock"]


class SlotClock:
    """Monotonically advancing integer slot counter."""

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        self._now = int(start)

    @property
    def now(self) -> int:
        """Current slot number."""
        return self._now

    def advance_to(self, slot: int) -> None:
        """Move the clock to ``slot``.

        Raises:
            ProtocolError: If ``slot`` is in the past (time never rewinds).
        """
        if slot < self._now:
            raise ProtocolError(
                f"clock cannot move backwards: now={self._now}, requested={slot}"
            )
        self._now = slot

    def reset_to(self, slot: int) -> None:
        """Set the clock to ``slot``, backwards included (checkpoint restore)."""
        self._now = int(slot)

    def tick(self) -> int:
        """Advance one slot; returns the new slot number."""
        self._now += 1
        return self._now
