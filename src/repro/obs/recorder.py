"""Per-node span collection: ring buffer, sampling, exemplars, journal.

A :class:`SpanRecorder` is deliberately boring on the hot path: one
small lock around a fixed-size ring of completed spans.  Sampling policy
is **head + tail**:

* *head* — the request originator decides at trace start (default one in
  64); sampled traces carry ``FLAG_SAMPLED`` and every hop records its
  spans.  Unsampled requests carry no trace context at all, so the hot
  path pays nothing beyond a dict lookup.
* *tail* — any span slower than ``slow_threshold`` is recorded even
  without (or with an unsampled) trace context, under a synthesized
  local trace id, so "what was slow last minute" is answerable without
  sampling luck.  :meth:`slow` lists them.

Exemplars bind a sampled trace_id to the latency-histogram bucket its
observation landed in (:meth:`attach_exemplar`), so a p99 spike in the
exported metrics points straight at a reconstructable trace.  The
decision journal (:meth:`journal`) keeps the last N structured
migration/promotion decisions.

Timestamps are caller-supplied, so the DES records the same span
structure in virtual time (``clock`` only stamps journal entries).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.obs.trace import TraceContext, _new_id, new_trace, parse_wire

__all__ = ["Span", "SpanRecorder"]

#: Default head-sampling probability (one traced request in 64).
DEFAULT_HEAD_RATE = 1.0 / 64.0
#: Default tail threshold: spans at least this long (seconds) are
#: recorded regardless of the head-sampling decision.
DEFAULT_SLOW_THRESHOLD = 0.25


@dataclass
class Span:
    """One completed, named time interval of a trace."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    node: str
    start: float
    end: float
    attrs: dict | None = None
    sampled: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class SpanRecorder:
    """Lock-light fixed-capacity span store for one node/process."""

    def __init__(
        self,
        node: str = "",
        capacity: int = 2048,
        head_rate: float = DEFAULT_HEAD_RATE,
        slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
        journal_capacity: int = 256,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity <= 0:
            raise ValueError("SpanRecorder capacity must be positive")
        self.node = node
        self.capacity = int(capacity)
        self.head_rate = float(head_rate)
        self.slow_threshold = float(slow_threshold)
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: list[Span | None] = [None] * self.capacity
        self._next = 0
        self._recorded = 0
        self._journal: deque[dict] = deque(maxlen=journal_capacity)
        self._journal_lock = threading.Lock()
        self._exemplars: dict[str, dict[str, dict]] = {}
        # Sampling coin flips ride the trace module's private RNG via
        # new_trace(); the decision itself uses random.random-equivalent
        # bits from _new_id to avoid seeding interactions.
        self._sample_bits = 0

    def now(self) -> float:
        """The recorder's own timebase (``time.time`` live, the virtual
        clock in the DES) — span endpoints must come from here, never
        from deployment clocks with a different origin."""
        return self._clock()

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def start_trace(self, sampled: bool | None = None) -> TraceContext:
        """New trace context; ``sampled=None`` applies head sampling."""
        if sampled is None:
            sampled = (_new_id() / float(1 << 64)) < self.head_rate
        return new_trace(sampled=bool(sampled))

    # ------------------------------------------------------------------ #
    # Span recording
    # ------------------------------------------------------------------ #
    def record(
        self,
        name: str,
        tc: TraceContext | str | None,
        start: float,
        end: float,
        node: str | None = None,
        **attrs: object,
    ) -> Span | None:
        """Record one completed span under ``tc``.

        ``tc`` may be a :class:`TraceContext`, its wire string, or
        ``None``.  Unsampled (or absent) contexts are dropped unless the
        span crosses ``slow_threshold`` (tail sampling); absent contexts
        get a synthesized local-only trace id so ``trace-slow`` output is
        still reconstructable.
        """
        if isinstance(tc, str):
            tc = parse_wire(tc)
        duration = end - start
        if tc is None:
            if duration < self.slow_threshold:
                return None
            tc = new_trace(sampled=False)
        elif not tc.sampled and duration < self.slow_threshold:
            return None
        span = Span(
            trace_id=f"{tc.trace_id:016x}",
            span_id=f"{_new_id():016x}",
            parent_id=f"{tc.span_id:016x}",
            name=name,
            node=node or self.node,
            start=start,
            end=end,
            attrs={k: v for k, v in attrs.items() if v is not None} or None,
            sampled=tc.sampled,
        )
        with self._lock:
            self._ring[self._next % self.capacity] = span
            self._next += 1
            self._recorded += 1
        return span

    def _spans(self) -> list[Span]:
        with self._lock:
            return [span for span in self._ring if span is not None]

    def trace(self, trace_id: str | int) -> list[dict]:
        """Every retained span of one trace, sorted by start time."""
        if isinstance(trace_id, int):
            trace_id = f"{trace_id:016x}"
        trace_id = trace_id.lower()
        spans = [s for s in self._spans() if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start, s.end))
        return [s.as_dict() for s in spans]

    def slow(self, limit: int = 20) -> list[dict]:
        """The slowest retained spans (tail-sampled view), longest first."""
        spans = sorted(self._spans(), key=lambda s: s.duration, reverse=True)
        return [s.as_dict() for s in spans[: max(0, int(limit))]]

    # ------------------------------------------------------------------ #
    # Exemplars
    # ------------------------------------------------------------------ #
    def attach_exemplar(
        self,
        series: str,
        bounds: Sequence[float],
        value: float,
        tc: TraceContext | str | None,
    ) -> None:
        """Bind a sampled trace to the histogram bucket ``value`` landed
        in; the Prometheus exporter emits it as an OpenMetrics exemplar."""
        if isinstance(tc, str):
            tc = parse_wire(tc)
        if tc is None or not tc.sampled:
            return
        idx = bisect_right(bounds, value)
        le = "+Inf" if idx >= len(bounds) else repr(float(bounds[idx]))
        with self._journal_lock:
            self._exemplars.setdefault(series, {})[le] = {
                "trace_id": f"{tc.trace_id:016x}",
                "value": float(value),
            }

    def exemplars(self) -> dict[str, dict[str, dict]]:
        with self._journal_lock:
            return {
                series: {le: dict(entry) for le, entry in buckets.items()}
                for series, buckets in self._exemplars.items()
            }

    # ------------------------------------------------------------------ #
    # Decision journal
    # ------------------------------------------------------------------ #
    def journal(self, kind: str, **fields: object) -> dict:
        """Append one structured decision record (migration cutovers,
        HA promotions)."""
        entry = {"ts": self._clock(), "kind": kind, "node": self.node}
        entry.update({k: v for k, v in fields.items() if v is not None})
        with self._journal_lock:
            self._journal.append(entry)
        return entry

    def journal_entries(
        self, kind: str | None = None, limit: int | None = None
    ) -> list[dict]:
        """Retained journal entries, oldest first; ``limit`` keeps the
        newest that many (none for 0)."""
        with self._journal_lock:
            entries = list(self._journal)
        if kind is not None:
            entries = [e for e in entries if e.get("kind") == kind]
        if limit is not None:
            entries = entries[max(0, len(entries) - int(limit)):]
        return [dict(e) for e in entries]

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Introspection payload for status ops."""
        with self._lock:
            retained = sum(1 for s in self._ring if s is not None)
            recorded = self._recorded
        with self._journal_lock:
            journal = len(self._journal)
        return {
            "node": self.node,
            "capacity": self.capacity,
            "retained_spans": retained,
            "recorded_spans": recorded,
            "head_rate": self.head_rate,
            "slow_threshold": self.slow_threshold,
            "journal_entries": journal,
        }
