"""Access-pattern detection (paper Sec. IV-B).

A prefetch agent monitors the output-step keys an analysis accesses.
Forward and backward patterns are detected after two consecutive accesses
with the same stride ``k`` (the paper reserves the first two accesses of
every re-simulation to confirm prefetching validity).  The detector also
measures ``τ_cli`` — the time between two consecutive k-strided accesses —
with an exponential moving average.

The detector resets whenever the analysis changes direction or stride, or
jumps to a different timespan.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.core.errors import InvalidArgumentError
from repro.util.ema import ExponentialMovingAverage

__all__ = ["Direction", "PatternState", "PatternDetector"]


class Direction(enum.Enum):
    """Detected trajectory direction."""

    FORWARD = 1
    BACKWARD = -1


class PatternState(NamedTuple):
    """Snapshot of the detector after an access (immutable; a tuple is
    built in one call where a frozen dataclass pays one per field)."""

    confirmed: bool
    direction: Direction | None
    stride: int | None          #: |k|, always positive
    tau_cli: float | None       #: seconds between k-strided accesses
    just_reset: bool            #: this access broke a previous pattern


class PatternDetector:
    """Stride/direction detector with τ_cli measurement.

    Feed every access with :meth:`observe`; the pattern is *confirmed* once
    two consecutive deltas match (three accesses).  Repeated accesses to the
    same key (delta 0) neither confirm nor reset — analyses often re-read
    the file they hold open.
    """

    def __init__(self, ema_smoothing: float = 0.5) -> None:
        self._tau = ExponentialMovingAverage(ema_smoothing)
        self._last_key: int | None = None
        self._last_time: float | None = None
        self._last_delta: int | None = None
        self._confirmed = False
        # Memoized snapshot: analyses re-read the file they hold open, so
        # long runs of delta-0 accesses would otherwise rebuild an
        # identical frozen PatternState per DV open.  Invalidated on any
        # state change.
        self._state_cache: PatternState | None = None

    # ------------------------------------------------------------------ #
    @property
    def confirmed(self) -> bool:
        return self._confirmed

    @property
    def direction(self) -> Direction | None:
        if self._last_delta is None or self._last_delta == 0:
            return None
        return Direction.FORWARD if self._last_delta > 0 else Direction.BACKWARD

    @property
    def stride(self) -> int | None:
        """|k| of the last observed delta (None before two accesses)."""
        if self._last_delta is None or self._last_delta == 0:
            return None
        return abs(self._last_delta)

    @property
    def tau_cli(self) -> float | None:
        """EMA of the inter-access time; None before the first interval."""
        return self._tau.value if self._tau.count > 0 else None

    # ------------------------------------------------------------------ #
    def observe(
        self, key: int, now: float, processing_time: float | None = None
    ) -> PatternState:
        """Record an access to output step ``key`` at time ``now``.

        ``processing_time`` is the caller's measurement of the pure
        analysis-side time since the *previous access was served* — i.e.
        the raw inter-access gap minus any time the client spent blocked on
        a re-simulation.  When provided it feeds the ``τcli`` estimate
        instead of the raw gap; a consumer that is production-limited would
        otherwise measure ``τcli ≈ τsim`` and the bandwidth-matching
        formulas of Sec. IV-B would conclude no parallelism is needed.
        """
        if self._last_time is not None and now < self._last_time:
            raise InvalidArgumentError(
                f"time went backwards: {now} < {self._last_time}"
            )
        just_reset = False
        if self._last_key is None:
            delta = None
        else:
            delta = key - self._last_key
        if delta == 0:
            # Same file re-read; does not advance or break the pattern.
            self._last_time = now
            return self._snapshot(just_reset=False)

        self._state_cache = None  # every path below may change the state
        if delta is not None:
            if self._last_delta is not None and delta == self._last_delta:
                if not self._confirmed:
                    self._confirmed = True
            elif self._last_delta is not None:
                # Direction/stride change: full reset, keep this access as
                # the new starting point.
                just_reset = True
                self._confirmed = False
                self._tau.reset()
                delta_kept = None
                self._last_delta = delta_kept
                self._last_key = key
                self._last_time = now
                return self._snapshot(just_reset=True)
            if processing_time is not None:
                self._tau.observe(max(processing_time, 0.0))
            elif self._last_time is not None:
                self._tau.observe(now - self._last_time)
            self._last_delta = delta
        self._last_key = key
        self._last_time = now
        return self._snapshot(just_reset=just_reset)

    def reset(self) -> None:
        """Forget everything (analysis terminated or agent reset)."""
        self._last_key = None
        self._last_time = None
        self._last_delta = None
        self._confirmed = False
        self._tau.reset()
        self._state_cache = None

    # ------------------------------------------------------------------ #
    def _snapshot(self, just_reset: bool) -> PatternState:
        if not just_reset and self._state_cache is not None:
            return self._state_cache
        state = PatternState(
            self._confirmed, self.direction, self.stride, self.tau_cli,
            just_reset,
        )
        if not just_reset:
            self._state_cache = state
        return state
