"""A monotonic simulated clock.

The simulator never reads wall-clock time.  Components that need a notion of
"now" (the KSM scanner's sleep cycle, the 90-minute measurement window, the
unstable-tree full-scan epoch) share one :class:`SimClock` and advance it
explicitly.  This makes every run bit-for-bit reproducible.
"""

from __future__ import annotations


class SimClock:
    """Millisecond-resolution simulated time."""

    def __init__(self, start_ms: int = 0) -> None:
        if start_ms < 0:
            raise ValueError(f"start time must be non-negative, got {start_ms}")
        self._now_ms = start_ms

    @property
    def now_ms(self) -> int:
        """Current simulated time in milliseconds."""
        return self._now_ms

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return self._now_ms / 1000.0

    def advance(self, delta_ms: int) -> int:
        """Move time forward by ``delta_ms`` and return the new time.

        Time can only move forward; a negative delta is a programming error.
        """
        if delta_ms < 0:
            raise ValueError(f"cannot move time backwards (delta={delta_ms})")
        self._now_ms += delta_ms
        return self._now_ms

    def advance_minutes(self, minutes: float) -> int:
        """Convenience wrapper: advance by a number of simulated minutes."""
        return self.advance(int(minutes * 60_000))

    def __repr__(self) -> str:
        return f"SimClock(now_ms={self._now_ms})"
