"""Histogram percentiles.

Every histogram snapshot estimates its p50/p95/p99 from fixed bucket
counts — these tests pin the estimator's contract: linear interpolation
inside the covering bucket, clamped to the observed [min, max].
"""

import pytest

from repro.metrics import MetricsRegistry


def snapshot_of(*observations, buckets=(0.01, 0.1, 1.0)):
    registry = MetricsRegistry()
    histogram = registry.histogram("h", buckets=buckets)
    for value in observations:
        histogram.observe(value)
    return registry.snapshot()["h"]


class TestPercentiles:
    def test_empty_histogram_has_null_percentiles(self):
        snap = snapshot_of()
        assert snap["p50"] is None
        assert snap["p95"] is None
        assert snap["p99"] is None

    def test_single_observation_pins_all_percentiles(self):
        snap = snapshot_of(0.05)
        assert snap["p50"] == pytest.approx(0.05)
        assert snap["p99"] == pytest.approx(0.05)

    def test_percentiles_clamped_to_observed_range(self):
        # Everything lands in the (0.01, 0.1] bucket; interpolation must
        # not wander outside what was actually seen.
        snap = snapshot_of(0.02, 0.03, 0.04, 0.05)
        assert snap["min"] <= snap["p50"] <= snap["max"]
        assert snap["min"] <= snap["p99"] <= snap["max"]

    def test_overflow_bucket_bounded_by_max(self):
        snap = snapshot_of(0.005, 5.0, 7.0, 9.0)
        # p99 falls in the +inf bucket, whose upper edge is the observed
        # maximum: the estimate interpolates toward 9.0 and may never
        # exceed it.
        assert 1.0 < snap["p99"] <= 9.0
        assert snap["max"] == pytest.approx(9.0)
        # The full-rank quantile of a single overflow observation has
        # nowhere to interpolate: it pins to the maximum exactly.
        single = snapshot_of(9.0)
        assert single["p99"] == pytest.approx(9.0)

    def test_spread_is_ordered(self):
        values = [i / 1000 for i in range(1, 200)]
        snap = snapshot_of(*values)
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
        # The true p50 of [0.001..0.199] is ~0.1; bucket interpolation
        # with bounds (0.01, 0.1, 1.0) is coarse but must stay in the
        # covering bucket's range.
        assert 0.01 <= snap["p50"] <= 1.0
