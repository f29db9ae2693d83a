"""Clock abstraction shared by real mode and virtual-time mode.

The DV coordinator, cache manager, and prefetch agents are written against
this interface so the identical logic runs both against wall-clock time (the
TCP daemon) and inside the discrete-event simulator (``repro.des``), where
seconds are simulated (ARCHITECTURE.md, "The DES twin").
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "WallClock", "ManualClock"]


@runtime_checkable
class Clock(Protocol):
    """Minimal monotonically non-decreasing clock."""

    def now(self) -> float:
        """Current time in seconds."""
        ...


class WallClock:
    """Real-time clock backed by :func:`time.monotonic`."""

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin


class ManualClock:
    """Clock advanced explicitly; used by tests and the DES engine."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds (must be >= 0)."""
        if dt < 0:
            raise ValueError(f"cannot move time backwards (dt={dt})")
        self._now += dt
        return self._now

    def set(self, t: float) -> float:
        """Jump to absolute time ``t`` (must not be in the past)."""
        if t < self._now:
            raise ValueError(f"cannot move time backwards ({t} < {self._now})")
        self._now = float(t)
        return self._now
