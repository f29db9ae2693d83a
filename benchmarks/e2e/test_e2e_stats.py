"""Unit tests of the benchmark's arithmetic and tables (no sockets, no
daemons): block summaries, the percentile rule, span self time, compare
verdicts, and the limits ``BENCHMARK.json`` has to stay inside."""

from __future__ import annotations

import json
import os
import re
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402
import stats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- block summaries ------------------------------------------------------
def test_summarize_matches_the_drivers_quartiles():
    values = [10.0, 12.0, 11.0, 30.0, 9.0, 11.5]
    summary = stats.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary == {"median": 11.25, "q1": q1, "q3": q3, "n": 6}
    assert stats.spread(summary) == pytest.approx((q3 - q1) / 11.25)


def test_summarize_single_sample_has_no_spread():
    summary = stats.summarize([86.5])
    assert summary == {"median": 86.5, "q1": 86.5, "q3": 86.5, "n": 1}
    assert stats.spread(summary) == 0.0
    with pytest.raises(ValueError):
        stats.summarize([])


# -- highest percentile with >= 10 samples beyond it ----------------------
@pytest.mark.parametrize("count, expected", [
    (100_000, 99.99),   # 10 samples beyond p99.99
    (99_999, 99.9),
    (10_000, 99.9),
    (1_000, 99.0),
    (999, 95.0),
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
    (39, 50.0),         # not even p75 has ten beyond it
])
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    pct, value = stats.highest_percentile(list(range(1, count + 1)))
    assert pct == expected
    assert count - value >= (10 if expected > 50.0 else 0)


def test_percentile_is_nearest_rank():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert stats.percentile(ordered, 50) == 2.0
    assert stats.percentile(ordered, 75) == 3.0
    assert stats.percentile(ordered, 99) == 4.0


# -- span self time -------------------------------------------------------
def test_self_time_with_overlapping_children():
    # client [0, 10] has two children that overlap each other ([1, 4] and
    # [3, 6]) and a grandchild [5, 12] that sticks out of the window.
    shares = stats.attribute((0.0, 10.0), [
        (1, "client", 0.0, 9.0),
        (2, "a", 1.0, 4.0),
        (2, "b", 3.0, 6.0),
        (3, "x", 5.0, 12.0),
    ])
    assert shares == {"client": 1.0, "a": 3.0, "b": 1.0, "x": 5.0}
    assert sum(shares.values()) == 10.0


def test_self_time_reports_uncovered_time():
    shares = stats.attribute((0.0, 4.0), [(1, "client", 1.0, 3.0)])
    assert shares == {None: 2.0, "client": 2.0}


# -- compare verdicts -----------------------------------------------------
def _summary(median, q1=None, q3=None, n=6):
    return {"median": median, "q1": q1 if q1 is not None else median,
            "q3": q3 if q3 is not None else median, "n": n}


@pytest.mark.parametrize("base, new, better, verdict", [
    (_summary(100, 99, 101), _summary(101, 100, 102), "higher", "unchanged"),
    (_summary(100, 99, 101), _summary(89, 88, 90), "higher", "regressed"),
    (_summary(100, 99, 101), _summary(111, 110, 112), "lower", "regressed"),
    (_summary(100, 99, 101), _summary(91, 90, 92), "lower", "unchanged"),
    (_summary(100, 99, 101), _summary(89, 88, 90), "lower", "improved"),
    (_summary(100, 99, 101), _summary(120, 119, 121), "higher", "improved"),
    (_summary(100, 90, 105), _summary(80, 79, 81), "higher", "unresolved"),
    (_summary(100, 99, 101), _summary(99, 85, 110), "lower", "unresolved"),
])
def test_compare_verdicts(base, new, better, verdict):
    row = stats.compare_metric(base, new, better, bound=0.10)
    assert row["verdict"] == verdict
    assert row["ratio"] == pytest.approx(new["median"] / base["median"])
    assert row["bound"] == 0.10


def test_compare_at_the_bound_is_not_a_regression():
    row = stats.compare_metric(_summary(100), _summary(110), "lower", 0.10)
    assert row["verdict"] == "unchanged"


# -- the tables and the limits BENCHMARK.json has to respect ---------------
def test_names_units_and_counts_are_inside_the_limits():
    names = ([w.name for w in spec.WORKLOADS]
             + [m.name for m in spec.END_TO_END]
             + [m.name for m in spec.PER_LAYER])
    for name in names:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(metric.unit), (metric.name, metric.unit)
        assert metric.better in ("higher", "lower")
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert len({w.name for w in spec.WORKLOADS}) == len(spec.WORKLOADS)
    metric_names = [m.name for m in spec.END_TO_END]
    assert len(set(metric_names)) == len(metric_names)
    layer_names = [m.name for m in spec.PER_LAYER]
    assert len(set(layer_names)) == len(layer_names)
    for workload in spec.WORKLOADS:
        assert "\n" not in workload.why and len(workload.why) <= 200
    for metric in spec.END_TO_END:
        assert 0.0 < metric.bound <= 0.25
    setup = {m.name: m for m in spec.END_TO_END}["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert spec.BLOCKS >= 5
    assert 1 <= spec.RUN_SECONDS <= 60
    for name, (_bound, where) in spec.LEDGER_ONLY.items():
        assert name in layer_names
        assert set(where) <= {w.name for w in spec.WORKLOADS}


def test_benchmark_json_is_generated_from_spec():
    path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside this checkout")
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    assert document == spec.manifest()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert os.path.getsize(path) <= 64 * 1024
