"""Unified observability plane: distributed tracing, span collection,
and Prometheus-text export (see ARCHITECTURE.md "Observability").

* :mod:`repro.obs.trace` — the compact trace context (trace_id, span_id,
  flags) every hop propagates, and its wire string form.
* :mod:`repro.obs.recorder` — the per-node lock-light ring-buffer
  :class:`SpanRecorder` with head + tail sampling, latency-histogram
  exemplars and the structured decision journal.
* :mod:`repro.obs.export` — the Prometheus text renderer and the
  optional HTTP exporter endpoint.
* :mod:`repro.obs.inspection` — the ``trace`` / ``trace_slow`` /
  ``metrics_text`` ops, for a plain daemon and a cluster node alike.
"""

from repro.obs.recorder import Span, SpanRecorder
from repro.obs.trace import (
    FLAG_SAMPLED,
    TraceContext,
    format_trace_id,
    new_trace,
    parse_wire,
)

__all__ = [
    "FLAG_SAMPLED",
    "TraceContext",
    "new_trace",
    "parse_wire",
    "format_trace_id",
    "Span",
    "SpanRecorder",
]
