"""Bandwidth-aware transfer scheduling for the bulk data plane.

Two pieces, both clock-agnostic (callers pass ``now`` explicitly, so the
live DataServer drives them with ``time.monotonic()`` and tests with an
injected clock):

* :class:`TokenBucket` — per-link rate limit with burst capacity.
* :class:`BandwidthScheduler` — deficit-round-robin across concurrent
  transfers sharing one link, with a strict-priority control lane: control
  streams (ping/pong, fetch metadata) are always granted before bulk
  streams and are never blocked waiting for tokens (they may drive the
  bucket negative; bulk repays the debt), so latency-sensitive frames
  cannot queue behind bulk bytes.
"""

from __future__ import annotations

from collections import deque

__all__ = ["PRIO_BULK", "PRIO_CONTROL", "BandwidthScheduler", "TokenBucket"]

PRIO_CONTROL = 0
PRIO_BULK = 1

#: Smallest bulk grant worth waking up for; below this we report a wait.
_MIN_GRANT = 4096


class TokenBucket:
    """Token bucket over an explicit clock.

    ``rate`` is in bytes/second; ``burst`` (default one second of rate)
    caps accumulation.  ``rate=None`` means unlimited: every query reports
    infinite tokens and zero wait.
    """

    def __init__(self, rate: float | None, burst: float | None = None) -> None:
        if rate is not None and rate <= 0:
            raise ValueError(f"token bucket rate must be > 0, got {rate}")
        self.rate = rate
        self.burst = float(burst if burst is not None else (rate or 0))
        self._tokens = self.burst
        self._stamp: float | None = None

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        if self._stamp is None:
            self._stamp = now
            return
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def available(self, now: float) -> float:
        if self.rate is None:
            return float("inf")
        self._refill(now)
        return self._tokens

    def consume(self, amount: float, now: float) -> None:
        """Deduct ``amount`` tokens; may drive the bucket negative
        (priority traffic spends on credit and bulk repays the debt)."""
        if self.rate is None:
            return
        self._refill(now)
        self._tokens -= amount

    def delay_until(self, amount: float, now: float) -> float:
        """Seconds until ``amount`` tokens will be available."""
        if self.rate is None:
            return 0.0
        self._refill(now)
        deficit = amount - self._tokens
        return max(0.0, deficit / self.rate)


class BandwidthScheduler:
    """Deficit round-robin over one link's concurrent streams.

    Usage: :meth:`register` each stream, :meth:`mark_ready` when it has
    bytes queued, then repeatedly call :meth:`grant` for a
    ``(stream_id, budget)`` pair, send up to ``budget`` bytes and report
    the actual count via :meth:`charge`.  ``grant`` returns
    ``(None, wait_seconds)`` when the link is token-starved and
    ``(None, None)`` when no stream is ready.
    """

    def __init__(
        self,
        rate: float | None = None,
        burst: float | None = None,
        quantum: int = 64 * 1024,
    ) -> None:
        self.bucket = TokenBucket(rate, burst)
        self.quantum = int(quantum)
        self._prio: dict[object, int] = {}
        self._deficit: dict[object, float] = {}
        self._ready: set[object] = set()
        self._ctrl: deque[object] = deque()
        self._bulk: deque[object] = deque()

    # -- membership ------------------------------------------------------

    def register(self, stream_id: object, priority: int = PRIO_BULK) -> None:
        if stream_id in self._prio:
            raise ValueError(f"stream {stream_id!r} already registered")
        self._prio[stream_id] = priority
        self._deficit[stream_id] = 0.0

    def unregister(self, stream_id: object) -> None:
        self._prio.pop(stream_id, None)
        self._deficit.pop(stream_id, None)
        self._ready.discard(stream_id)

    def mark_ready(self, stream_id: object) -> None:
        if stream_id not in self._prio or stream_id in self._ready:
            return
        self._ready.add(stream_id)
        if self._prio[stream_id] == PRIO_CONTROL:
            self._ctrl.append(stream_id)
        else:
            self._bulk.append(stream_id)

    def mark_idle(self, stream_id: object) -> None:
        self._ready.discard(stream_id)
        if stream_id in self._deficit:
            self._deficit[stream_id] = 0.0

    def queue_depth(self) -> int:
        return len(self._ready)

    # -- scheduling ------------------------------------------------------

    def _next(self, queue: deque) -> object | None:
        while queue:
            stream_id = queue.popleft()
            if stream_id in self._ready:
                return stream_id
        return None

    def grant(self, now: float) -> tuple[object, int] | tuple[None, float | None]:
        # Strict priority: the control lane never waits for tokens.
        stream_id = self._next(self._ctrl)
        if stream_id is not None:
            self._ready.discard(stream_id)
            return stream_id, self.quantum
        stream_id = self._next(self._bulk)
        if stream_id is None:
            return None, None
        tokens = self.bucket.available(now)
        if tokens < _MIN_GRANT:
            self._bulk.appendleft(stream_id)
            return None, self.bucket.delay_until(_MIN_GRANT, now)
        self._ready.discard(stream_id)
        self._deficit[stream_id] += self.quantum
        budget = int(min(self._deficit[stream_id], tokens))
        return stream_id, budget

    def charge(self, stream_id: object, sent: int, now: float) -> None:
        """Account ``sent`` bytes against the granted stream's deficit and
        the link bucket.  Callers re-``mark_ready`` streams that still have
        queued bytes; a stream that goes quiet loses its deficit."""
        if sent:
            self.bucket.consume(sent, now)
        if stream_id in self._deficit:
            self._deficit[stream_id] = max(0.0, self._deficit[stream_id] - sent)
