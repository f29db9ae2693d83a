"""Deterministic discrete-event engine: the one virtual clock.

A minimal priority-queue scheduler: events fire in (time, sequence) order,
so runs are exactly reproducible.  The DES hosts the *same* coordinator,
cache, prefetch agent and launcher code as the real DV daemon; only the
clock differs (ARCHITECTURE.md, "The DES twin"), which is what lets a
600-second restart latency cost microseconds of wall time in the Figs.
16-19 experiments.

The engine offers the surface of :class:`~repro.dv.loop.EventLoop` that
the launcher and the router use — ``time``, ``running``,
``on_io_thread``, ``call_at``, ``call_soon`` and ``submit`` — so a
component written for the node's loop runs on virtual time unchanged.
Here every callback runs on the one caller's thread: a hand-off and a
worker job (``submit``) are both an event at the current instant, and no
thread is started.  Nothing cancels an event: a component that wants
one undone keeps a flag its callback reads (the launcher's kill).
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.errors import InvalidArgumentError

__all__ = ["DESEngine"]


class DESEngine:
    """Event queue with a virtual clock (implements the ``Clock``
    protocol, and the event loop's scheduling surface)."""

    #: Always serving its timers: the launcher keeps its chains here.
    running = True

    def __init__(self) -> None:
        self._queue: list[tuple] = []  # (time, seq, fn, args)
        self._seq = itertools.count()
        self._now = 0.0
        self.events_processed = 0

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    time = now

    @staticmethod
    def on_io_thread() -> bool:
        """Every event runs on the caller's one thread."""
        return True

    def call_at(self, when: float, fn, *args) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise InvalidArgumentError(
                f"cannot schedule in the past ({when} < {self._now})"
            )
        heapq.heappush(self._queue, (when, next(self._seq), fn, args))

    def call_soon(self, fn, *args) -> None:
        """Run ``fn(*args)`` now, after the events already due now."""
        heapq.heappush(self._queue, (self._now, next(self._seq), fn, args))

    #: A worker job is a hand-off: the engine has no pool.
    submit = call_soon

    def schedule(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise InvalidArgumentError(f"delay must be >= 0, got {delay}")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), fn, args)
        )

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Run until the queue drains (or ``until``/``max_events`` hits);
        returns the final virtual time."""
        queue = self._queue
        fired = 0
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                break
            if fired >= max_events:
                raise RuntimeError(
                    f"DES exceeded {max_events} events; runaway simulation?"
                )
            when, _seq, fn, args = heapq.heappop(queue)
            self._now = when
            fired += 1
            fn(*args)
        self.events_processed += fired
        return self._now
