"""Bulk data plane benchmark: per-link throughput, concurrent-pull
fairness, and the latency of a ping on its own connection under bulk
load.

Three series, persisted as ``BENCH_data.json`` at the repo root (the
perf-trajectory artifact the CI ``bench-smoke`` job uploads alongside
``BENCH_wire.json`` and ``BENCH_cluster.json``):

``link_sweep``
    One puller against a DataServer throttled at each configured link
    rate: achieved MB/s vs the token-bucket target.  Utilization near
    1.0 means the chunk pump, not the scheduler, sets the pace.

``aggregate``
    N barrier-synced pullers of the same file through one throttled
    link: aggregate MB/s (should track the link rate, not N times it)
    and the DRR fairness spread (fastest/slowest per-stream rate).

``control_latency``
    RTT percentiles of a ping on its own connection against the same
    server, idle vs under bulk pullers, and their p99 ratio: answers
    never queue behind the link's bulk bytes.

Each data port runs as a node runs it: on the event loop (and worker
pool) of a DV server, which serves its own control port beside it.

Run directly (``python benchmarks/bench_data.py [--quick]``) or under
pytest (``pytest benchmarks/bench_data.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import emit, emit_json  # noqa: E402

from repro.data import DataClient, DataServer  # noqa: E402
from repro.dv import DVServer  # noqa: E402

FULL = {"file_mb": 8, "pulls": 4, "pings": 100, "bulk_pullers": 2,
        "rates_mb": (5, 10, 20, 40), "aggregate_rate_mb": 40}
QUICK = {"file_mb": 2, "pulls": 4, "pings": 30, "bulk_pullers": 2,
         "rates_mb": (10, 40), "aggregate_rate_mb": 40}


@contextlib.contextmanager
def _serve_file(workdir: str, size: int, link_rate: float | None,
                burst: float = 1e6):
    """A data port serving ``size`` random bytes as ``bench/bulk.sdf``,
    on the loop of a started DV server."""
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "bulk.sdf")
    if not os.path.exists(path) or os.path.getsize(path) != size:
        with open(path, "wb") as fh:
            fh.write(os.urandom(size))
    daemon = DVServer()
    daemon.start()
    server = DataServer(daemon.loop, "127.0.0.1", link_rate=link_rate,
                        burst=min(burst, link_rate) if link_rate else None)
    server.add_context("bench", outdir)
    server.start()
    try:
        yield server
    finally:
        server.stop()
        daemon.stop(drain_timeout=0)


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def measure_link_sweep(sizing: dict) -> list[dict]:
    """Single-puller steady-state MB/s at each configured link rate.

    The token bucket starts full, so the first ``burst`` bytes go out
    unthrottled; the steady-state rate excludes that slack (it would
    otherwise dominate small files at high rates)."""
    size = sizing["file_mb"] * 1024 * 1024
    burst = 256 * 1024
    rows = []
    for rate_mb in sizing["rates_mb"]:
        with tempfile.TemporaryDirectory(prefix="bench-data-link-") as workdir, \
                _serve_file(workdir, size, rate_mb * 1e6, burst=burst) as server:
            with DataClient(server.host, server.port) as client:
                begin = time.perf_counter()
                client.fetch(
                    "bench", "bulk.sdf", os.path.join(workdir, "got.sdf")
                )
                elapsed = time.perf_counter() - begin
            steady = (size - burst) / elapsed / 1e6
            rows.append({
                "link_mb_per_sec": rate_mb,
                "achieved_mb_per_sec": round(steady, 2),
                "utilization": round(steady / rate_mb, 3),
            })
    return rows


def measure_aggregate(sizing: dict) -> dict:
    """N concurrent pulls through one throttled link: aggregate MB/s and
    the DRR fairness spread."""
    size = sizing["file_mb"] * 1024 * 1024
    pulls = sizing["pulls"]
    rate = sizing["aggregate_rate_mb"] * 1e6
    with tempfile.TemporaryDirectory(prefix="bench-data-agg-") as workdir, \
            _serve_file(workdir, size, rate) as server:
        results: dict[int, object] = {}
        barrier = threading.Barrier(pulls + 1)

        def pull(slot: int) -> None:
            with DataClient(server.host, server.port) as client:
                barrier.wait()
                results[slot] = client.fetch(
                    "bench", "bulk.sdf",
                    os.path.join(workdir, f"pull{slot}.sdf"),
                )

        threads = [
            threading.Thread(target=pull, args=(slot,))
            for slot in range(pulls)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        begin = time.perf_counter()
        for thread in threads:
            thread.join(timeout=300)
        elapsed = time.perf_counter() - begin
    assert len(results) == pulls, "a puller died"
    rates = sorted(r.throughput_mbps for r in results.values())
    return {
        "pulls": pulls,
        "link_mb_per_sec": sizing["aggregate_rate_mb"],
        "aggregate_mb_per_sec": round(pulls * size / elapsed / 1e6, 2),
        "per_stream_mb_per_sec": [round(r, 2) for r in rates],
        "fairness_spread_x": round(rates[-1] / rates[0], 2),
    }


def measure_control_latency(sizing: dict) -> dict:
    """Ping RTT idle vs under bulk load on a throttled link."""
    size = sizing["file_mb"] * 1024 * 1024
    stop = threading.Event()
    pullers: list[threading.Thread] = []
    with tempfile.TemporaryDirectory(prefix="bench-data-ctl-") as workdir:
        try:
            with _serve_file(workdir, size, 20e6) as server:
                with DataClient(server.host, server.port) as client:
                    idle = [client.ping() for _ in range(sizing["pings"])]

                def bulk_pull(slot: int) -> None:
                    try:
                        with DataClient(server.host, server.port) as client:
                            while not stop.is_set():
                                client.fetch(
                                    "bench", "bulk.sdf",
                                    os.path.join(workdir, f"bg{slot}.sdf"),
                                )
                    except Exception:
                        pass  # server teardown races; only latency matters

                pullers = [
                    threading.Thread(target=bulk_pull, args=(slot,), daemon=True)
                    for slot in range(sizing["bulk_pullers"])
                ]
                for thread in pullers:
                    thread.start()
                time.sleep(0.3)  # let bulk saturate the throttled link
                with DataClient(server.host, server.port) as client:
                    loaded = [client.ping() for _ in range(sizing["pings"])]
        finally:
            stop.set()
            for thread in pullers:
                thread.join(timeout=10)
    idle_p99 = _percentile(idle, 0.99)
    loaded_p99 = _percentile(loaded, 0.99)
    return {
        "idle_p50_ms": round(_percentile(idle, 0.50) * 1e3, 3),
        "idle_p99_ms": round(idle_p99 * 1e3, 3),
        "loaded_p50_ms": round(_percentile(loaded, 0.50) * 1e3, 3),
        "loaded_p99_ms": round(loaded_p99 * 1e3, 3),
        "p99_ratio_x": round(loaded_p99 / max(idle_p99, 1e-9), 2),
    }


def compute(sizing: dict) -> dict:
    return {
        "link_sweep": measure_link_sweep(sizing),
        "aggregate": measure_aggregate(sizing),
        "control_latency": measure_control_latency(sizing),
        "sizing": sizing,
    }


def report(results: dict) -> None:
    emit(
        "data_link_sweep",
        "Single-puller throughput vs configured link rate",
        ["link MB/s", "achieved MB/s", "utilization"],
        [
            [row["link_mb_per_sec"], row["achieved_mb_per_sec"],
             row["utilization"]]
            for row in results["link_sweep"]
        ],
    )
    aggregate = results["aggregate"]
    emit(
        "data_aggregate",
        f"{aggregate['pulls']} concurrent pulls through one "
        f"{aggregate['link_mb_per_sec']} MB/s link",
        ["metric", "value"],
        [
            ["aggregate MB/s", aggregate["aggregate_mb_per_sec"]],
            ["fairness spread x", aggregate["fairness_spread_x"]],
        ],
    )
    control = results["control_latency"]
    emit(
        "data_control_latency",
        "Ping RTT on its own connection: idle vs under bulk pullers",
        ["state", "p50 ms", "p99 ms"],
        [
            ["idle", control["idle_p50_ms"], control["idle_p99_ms"]],
            ["loaded", control["loaded_p50_ms"], control["loaded_p99_ms"]],
            ["ratio x", "", control["p99_ratio_x"]],
        ],
    )
    path = emit_json("data", results)
    print(f"wrote {path}")


def test_data_plane(benchmark):
    from _harness import run_once

    results = run_once(benchmark, lambda: compute(QUICK))
    report(results)
    for row in results["link_sweep"]:
        # The token bucket is the only throttle: the steady-state rate
        # tracks the configured rate (loose floor for noisy CI boxes).
        assert 0.5 <= row["utilization"] <= 1.2, row
    assert results["aggregate"]["fairness_spread_x"] <= 2.0
    # Aggregate through one link tracks the link, not pulls * link.
    assert (results["aggregate"]["aggregate_mb_per_sec"]
            <= 1.5 * results["aggregate"]["link_mb_per_sec"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", "--smoke", dest="quick",
                        action="store_true",
                        help="short run for CI (smaller file, fewer pings)")
    args = parser.parse_args(argv)
    results = compute(QUICK if args.quick else FULL)
    report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
