"""Unit tests for the metrics plane."""

import json
import threading

import pytest

from repro.core.errors import InvalidArgumentError
from repro.metrics import MetricsRegistry
from repro.obs.export import render_prometheus


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_cannot_decrease(self):
        counter = MetricsRegistry().counter("ops")
        with pytest.raises(InvalidArgumentError):
            counter.inc(-1)

    def test_concurrent_increments_do_not_lose_updates(self):
        counter = MetricsRegistry().counter("ops")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("running")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = MetricsRegistry().histogram("wait", buckets=[1.0, 10.0])
        for value in (0.5, 0.7, 5.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.2)
        assert snap["min"] == 0.5 and snap["max"] == 100.0
        assert snap["buckets"]["1.0"] == 2
        assert snap["buckets"]["10.0"] == 1
        assert snap["buckets"]["+inf"] == 1

    def test_mean(self):
        hist = MetricsRegistry().histogram("wait", buckets=[1.0])
        assert hist.mean == 0.0
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == pytest.approx(3.0)

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(InvalidArgumentError):
            MetricsRegistry().histogram("empty", buckets=[])

    def test_a_counted_observation_is_that_many_observations(self):
        """What a routed run's shared service time is recorded with: one
        update per op name instead of one per op."""
        registry = MetricsRegistry()
        one_by_one = registry.histogram("each", buckets=[1e-4, 1e-3, 1e-2])
        counted = registry.histogram("counted", buckets=[1e-4, 1e-3, 1e-2])
        for value, count in ((3.3e-4, 17), (7e-6, 1), (0.25, 5), (1e-3, 31)):
            for _ in range(count):
                one_by_one.observe(value)
            counted.observe(value, count)
        each, once = one_by_one.snapshot(), counted.snapshot()
        assert once.pop("sum") == pytest.approx(each.pop("sum"), rel=1e-12)
        assert once == each  # count, buckets, min, max and percentiles

    def test_many_observations_at_once_are_each_observed(self):
        """What a local run's per-op service times are recorded with: one
        update per op name, each value in its own bucket, leaving the
        very snapshot — sum included, to the bit — that one observe per
        value leaves."""
        registry = MetricsRegistry()
        one_by_one = registry.histogram("each", buckets=[1e-4, 1e-3, 1e-2])
        at_once = registry.histogram("many", buckets=[1e-4, 1e-3, 1e-2])
        batches = ([3.3e-4, 7e-6, 0.25, 1e-3, 1e-3], [], [0.1 + 0.2, 5e-5])
        for values in batches:
            for value in values:
                one_by_one.observe(value)
            at_once.observe_many(values)
        assert at_once.snapshot() == one_by_one.snapshot()
        assert at_once.count == 7


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(InvalidArgumentError):
            registry.gauge("x")
        with pytest.raises(InvalidArgumentError):
            registry.histogram("x")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(7)
        registry.histogram("c").observe(0.2)
        blob = json.dumps(registry.snapshot())
        parsed = json.loads(blob)
        assert parsed["a"]["type"] == "counter"
        assert parsed["b"]["value"] == 7
        assert parsed["c"]["count"] == 1

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.counter("alpha")
        assert registry.names() == ["alpha", "zeta"]

    def test_an_alias_exports_one_counter_under_two_names(self):
        registry = MetricsRegistry()
        hits = registry.counter("dv.hot.hits")
        registry.alias("cache.hot.hits", hits)
        registry.alias("cache.hot.hits", hits)  # again: still the one
        hits.inc(3)
        snapshot = registry.snapshot()
        assert snapshot["dv.hot.hits"] == snapshot["cache.hot.hits"] == {
            "type": "counter", "value": 3.0,
        }
        text = render_prometheus(snapshot)
        assert "dv_hot_hits" in text and "cache_hot_hits" in text
        with pytest.raises(InvalidArgumentError):
            registry.alias("cache.hot.hits", registry.counter("other"))
        assert registry.prune("dv.hot.") == 1
        assert registry.names() == ["cache.hot.hits", "other"]
        assert registry.prune("cache.hot.") == 1
