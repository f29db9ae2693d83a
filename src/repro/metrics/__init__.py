"""Metrics plane: counters, gauges and histograms for the DV service."""

from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]
