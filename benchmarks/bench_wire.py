"""Wire-path benchmark: control-channel throughput and latency.

Measures the client<->DV control channel itself (paper Fig. 4: the DV sits
on every transparent ``open``) — a hello line, then binary frames — against
the one deployment that exists, the single-process selector daemon
(``binary+selector``).  It scales across cores as a ring of daemons, not
inside one.

The retired comparisons (newline-JSON frames after the hello, the
thread-per-client front end, the fd-passing acceptor, the multi-core
executor pool) have their final numbers in ``CHANGES.md``.

Three series, persisted as ``BENCH_wire.json`` at the repo root (the
perf-trajectory artifact the CI ``bench-smoke`` job uploads):

``throughput``
    N clients drive pipelined ``open`` requests with a fixed in-flight
    window against a warm context (every step resident, so each message
    is pure control-plane).  Headline number: aggregate msgs/sec.
``latency``
    One client, sequential round trips; p50/p99 microseconds.
``codec``
    Pure encode/decode cost (ns/op) of the hot binary frames, no sockets
    involved.

Run directly (``python benchmarks/bench_wire.py [--quick]``) or under
pytest (``pytest benchmarks/bench_wire.py``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import emit, emit_json, process_cpu_seconds  # noqa: E402

from repro.core.context import ContextConfig, SimulationContext  # noqa: E402
from repro.core.errors import ProtocolError  # noqa: E402
from repro.core.perfmodel import PerformanceModel  # noqa: E402
from repro.dv.protocol import (  # noqa: E402
    CODEC_BINARY,
    PROTOCOL_VERSION,
    MessageReader,
    StreamDecoder,
    encode_binary,
    encode_open_request,
    send_message,
)
from repro.dv.server import DVServer  # noqa: E402
from repro.simulators import SyntheticDriver  # noqa: E402

import socket  # noqa: E402

SELECTOR = "binary+selector"

#: Full-run / smoke-run sizing (the quick/smoke run keeps the CI
#: bench-smoke sweep under a minute).
FULL = {"clients": 8, "window": 64, "seconds": 2.0, "latency_ops": 2000,
        "codec_iters": 20000}
SMOKE = {"clients": 4, "window": 32, "seconds": 0.5, "latency_ops": 400,
         "codec_iters": 4000}


def build_server(workdir: str) -> tuple[DVServer, SimulationContext]:
    """A started daemon with one warm context: every output resident, so
    every open is pure control plane."""
    config = ContextConfig(name="wire", delta_d=2, delta_r=8, num_timesteps=64)
    driver = SyntheticDriver(config.geometry, prefix="wire", cells=64)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    out = os.path.join(workdir, "wire-out")
    rst = os.path.join(workdir, "wire-rst")
    os.makedirs(out, exist_ok=True)
    os.makedirs(rst, exist_ok=True)
    produced = driver.execute(
        driver.make_job("wire", 0, 31, write_restarts=True), out, rst
    )
    for fname in produced:
        context.record_checksum(fname, driver.checksum(os.path.join(out, fname)))
    server = DVServer()
    server.add_context(context, out, rst)
    server.start()
    return server, context


class RawClient:
    """Minimal protocol-level client: its own hello, direct frame
    encode/decode — no DVLib reply-matching machinery in the way, so the
    numbers are the wire path, not the client library."""

    def __init__(self, host: str, port: int, client_id: str,
                 context: str = "wire", trace: bool = False) -> None:
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = {"op": "hello", "req": 0, "client_id": client_id,
                 "context": context, "vers": PROTOCOL_VERSION,
                 "codec": CODEC_BINARY}
        if trace:
            hello["trace"] = 1
        send_message(self.sock, hello)
        self.reader = MessageReader(self.sock)
        reply = self.reader.read_message()
        assert reply is not None and not reply.get("error"), reply
        assert reply.get("codec") == CODEC_BINARY, reply
        assert bool(reply.get("trace")) == trace, "tracing not granted"
        self.hello = reply
        self.sock.settimeout(None)
        self.reader.set_codec(CODEC_BINARY)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def read_reply(self) -> dict:
        """Next non-``ready`` frame (the warm context never notifies,
        but stay robust)."""
        while True:
            message = self.reader.read_message()
            if message is None:
                raise ProtocolError("connection closed mid-benchmark")
            if message.get("op") == "reply":
                return message


def _pipelined_worker(
    host: str, port: int, slot: int, filename: str,
    window: int, stop_at: list[float], start_gate: threading.Event,
    counts: list[int], errors: list[Exception],
) -> None:
    """Keep ``window`` open requests in flight; count completed replies."""
    try:
        client = RawClient(host, port, f"bench-wire-{slot}")
        try:
            req = 0
            in_flight = 0
            start_gate.wait()
            while time.perf_counter() < stop_at[0]:
                while in_flight < window:
                    req += 1
                    client.sock.sendall(encode_open_request(
                        req, "wire", filename, CODEC_BINARY
                    ))
                    in_flight += 1
                client.read_reply()
                in_flight -= 1
                counts[slot] += 1
            while in_flight > 0:  # drain so the server ends clean
                client.read_reply()
                in_flight -= 1
                counts[slot] += 1
        finally:
            client.close()
    except Exception as exc:  # surfaced after join
        errors.append(exc)


def _drive_pipelined(
    address: tuple[str, int], sizing: dict, filename: str,
) -> tuple[float, float]:
    """Fan out the pipelined-open workers; returns (msgs/sec, wall
    seconds)."""
    host, port = address
    clients = sizing["clients"]
    counts = [0] * clients
    errors: list[Exception] = []
    start_gate = threading.Event()
    stop_at = [0.0]
    threads = [
        threading.Thread(
            target=_pipelined_worker,
            args=(host, port, slot, filename,
                  sizing["window"], stop_at, start_gate, counts, errors),
        )
        for slot in range(clients)
    ]
    for t in threads:
        t.start()
    time.sleep(0.2)  # let every client finish its handshake
    stop_at[0] = time.perf_counter() + sizing["seconds"]
    begin = time.perf_counter()
    start_gate.set()
    for t in threads:
        t.join(timeout=60.0)
    elapsed = time.perf_counter() - begin
    if errors:
        raise errors[0]
    return sum(counts) / elapsed, elapsed


def measure_throughput(sizing: dict) -> dict:
    """Aggregate pipelined open msgs/sec against the daemon, with the
    wall/CPU utilization of the run (the load generator shares the
    process, so the CPU figure is both sides')."""
    with tempfile.TemporaryDirectory(prefix="bench-wire-") as workdir:
        server, context = build_server(workdir)
        cpu_begin = process_cpu_seconds()
        try:
            rate, wall = _drive_pipelined(
                server.address, sizing, context.filename_of(1)
            )
        finally:
            server.stop(drain_timeout=2.0)
        cpu = process_cpu_seconds() - cpu_begin
        return {"rate": rate, "wall_s": wall, "cpu_s": cpu,
                "cpu_wall_ratio": cpu / wall if wall else 0.0}


def measure_latency(sizing: dict) -> dict:
    """Sequential round-trip latency distribution (one client)."""
    with tempfile.TemporaryDirectory(prefix="bench-wire-lat-") as workdir:
        server, context = build_server(workdir)
        try:
            host, port = server.address
            filename = context.filename_of(1)
            client = RawClient(host, port, "bench-wire-lat")
            try:
                samples = []
                for req in range(1, sizing["latency_ops"] + 1):
                    frame = encode_open_request(
                        req, "wire", filename, CODEC_BINARY
                    )
                    begin = time.perf_counter_ns()
                    client.sock.sendall(frame)
                    client.read_reply()
                    samples.append(time.perf_counter_ns() - begin)
            finally:
                client.close()
            samples.sort()
            quantiles = statistics.quantiles(samples, n=100)
            return {
                "p50_us": quantiles[49] / 1e3,
                "p99_us": quantiles[98] / 1e3,
                "mean_us": statistics.fmean(samples) / 1e3,
            }
        finally:
            server.stop()


def measure_codec(sizing: dict) -> list[dict]:
    """Pure encode/decode ns/op for the hot binary frames."""
    messages = {
        "open": {"op": "open", "req": 12345, "context": "wire",
                 "file": "wire_output_00042.sdf"},
        "open-reply": {"op": "reply", "req": 12345, "error": 0,
                       "available": True, "state": "on_disk", "wait": 0.0},
        "ready": {"op": "ready", "context": "wire",
                  "file": "wire_output_00042.sdf", "ok": True},
    }
    iters = sizing["codec_iters"]
    rows = []
    for name, message in messages.items():
        blob = encode_binary(message)
        begin = time.perf_counter_ns()
        for _ in range(iters):
            encode_binary(message)
        encode_ns = (time.perf_counter_ns() - begin) / iters
        decoder = StreamDecoder(CODEC_BINARY)
        begin = time.perf_counter_ns()
        for _ in range(iters):
            decoder.feed(blob)
            decoder.next_message()
        decode_ns = (time.perf_counter_ns() - begin) / iters
        rows.append({"message": name, "bytes": len(blob),
                     "encode_ns": round(encode_ns, 1),
                     "decode_ns": round(decode_ns, 1)})
    return rows


def compute(sizing: dict) -> dict:
    runs = {SELECTOR: measure_throughput(sizing)}
    return {
        "throughput_msgs_per_sec": {
            k: round(r["rate"], 1) for k, r in runs.items()
        },
        "utilization": {
            k: {"wall_s": round(r["wall_s"], 3),
                "cpu_s": round(r["cpu_s"], 3),
                "cpu_wall_ratio": round(r["cpu_wall_ratio"], 2)}
            for k, r in runs.items()
        },
        "latency": {SELECTOR: measure_latency(sizing)},
        "codec_ns": measure_codec(sizing),
        "sizing": sizing,
    }


def report(results: dict) -> None:
    utilization = results["utilization"]
    emit(
        "wire_throughput",
        "Pipelined open throughput",
        ["config", "msgs/s", "cpu/wall"],
        [
            [key, round(value, 1), utilization[key]["cpu_wall_ratio"]]
            for key, value in results["throughput_msgs_per_sec"].items()
        ],
    )
    emit(
        "wire_latency",
        "Sequential round-trip latency (single-process daemon)",
        ["config", "p50 us", "p99 us", "mean us"],
        [
            [key, lat["p50_us"], lat["p99_us"], lat["mean_us"]]
            for key, lat in results["latency"].items()
        ],
    )
    emit(
        "wire_codec",
        "Binary codec encode/decode cost (hot messages)",
        ["message", "bytes", "encode ns", "decode ns"],
        [
            [r["message"], r["bytes"], r["encode_ns"], r["decode_ns"]]
            for r in results["codec_ns"]
        ],
    )
    path = emit_json("wire", results, env={"modes": {
        key: {"cpu_wall_ratio": util["cpu_wall_ratio"]}
        for key, util in results["utilization"].items()
    }})
    print(f"wrote {path}")


def test_wire_throughput(benchmark):
    from _harness import run_once

    results = run_once(benchmark, lambda: compute(SMOKE))
    report(results)
    assert results["throughput_msgs_per_sec"][SELECTOR] > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", "--quick", dest="smoke",
                        action="store_true",
                        help="short run for CI (fewer clients, less time) "
                             "— keeps bench-smoke under a minute")
    args = parser.parse_args(argv)
    results = compute(dict(SMOKE if args.smoke else FULL))
    report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
