"""Cluster-tier benchmark: per-node capacity and forwarding overhead.

Two live series, persisted as ``BENCH_cluster.json`` at the repo root
(the perf-trajectory artifact the CI ``bench-smoke`` job uploads
alongside ``BENCH_wire.json``):

``per_node_capacity``
    Pipelined ``open`` throughput of one DV daemon (binary codec +
    selector loop).  The ring scales by adding one node per core; the
    two-node measurement behind that choice is in ARCHITECTURE.md
    ("Multi-core engine — retired").

``forwarding``
    Sequential open round trips on a real two-node cluster against the
    owner directly vs through the gateway (ingress != owner), i.e. the
    price of the extra ``fwd``/``fwd_reply`` hop.

Run directly (``python benchmarks/bench_cluster.py [--smoke]``) or under
pytest (``pytest benchmarks/bench_cluster.py``).
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

from _harness import emit, emit_json, free_port, refuse_owner  # noqa: E402

from repro.client.dvlib import TcpConnection  # noqa: E402
from repro.cluster import ClusterNode  # noqa: E402
from repro.core.context import ContextConfig, SimulationContext  # noqa: E402
from repro.core.perfmodel import PerformanceModel  # noqa: E402
from repro.dv.protocol import (  # noqa: E402
    CODEC_BINARY,
    PROTOCOL_VERSION,
    MessageReader,
    encode_open_request,
    send_message,
)
from repro.dv.server import DVServer  # noqa: E402
from repro.simulators import SyntheticDriver  # noqa: E402

FULL = {"clients": 4, "window": 64, "seconds": 2.0, "latency_ops": 800}
SMOKE = {"clients": 4, "window": 32, "seconds": 0.5, "latency_ops": 200}


# --------------------------------------------------------------------- #
# Shared context plumbing
# --------------------------------------------------------------------- #
def build_context(workdir: str, name: str) -> tuple[SimulationContext, str, str]:
    """A warm synthetic context (every output resident)."""
    config = ContextConfig(name=name, delta_d=2, delta_r=8, num_timesteps=64)
    driver = SyntheticDriver(config.geometry, prefix=name, cells=64)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    out = os.path.join(workdir, f"{name}-out")
    rst = os.path.join(workdir, f"{name}-rst")
    os.makedirs(out, exist_ok=True)
    os.makedirs(rst, exist_ok=True)
    driver.execute(driver.make_job(name, 0, 31, write_restarts=True), out, rst)
    return context, out, rst


class RawClient:
    """Protocol-level client (no DVLib reply matching, no listener
    thread): its own hello/negotiation and direct frame decode, so the
    numbers measure the wire path, not the client library."""

    def __init__(self, host: str, port: int, context: str, client_id: str) -> None:
        import socket as socketlib

        self.sock = socketlib.create_connection((host, port), timeout=10.0)
        self.sock.settimeout(None)
        self.sock.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY, 1)
        hello = {"op": "hello", "req": 0, "client_id": client_id,
                 "context": context, "vers": PROTOCOL_VERSION,
                 "codec": CODEC_BINARY}
        send_message(self.sock, hello)
        self.reader = MessageReader(self.sock)
        reply = self.reader.read_message()
        assert reply is not None and not reply.get("error"), reply
        assert reply.get("codec") == CODEC_BINARY, reply
        self.reader.set_codec(CODEC_BINARY)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _pipelined_opens(client: RawClient, context: str, filename: str,
                     window: int, stop_at: list[float]) -> int:
    """Drive pipelined packed open requests; count completed replies."""
    count = 0
    req = 0
    in_flight = 0

    def read_reply() -> bool:
        message = client.reader.read_message()
        if message is None:
            raise RuntimeError("connection closed mid-benchmark")
        return message.get("op") == "reply"

    while time.perf_counter() < stop_at[0]:
        while in_flight < window:
            req += 1
            client.sock.sendall(
                encode_open_request(req, context, filename, CODEC_BINARY)
            )
            in_flight += 1
        if read_reply():
            in_flight -= 1
            count += 1
    while in_flight > 0:
        if read_reply():
            in_flight -= 1
            count += 1
    return count


def measure_per_node_capacity(sizing: dict) -> float:
    """Aggregate pipelined-open msgs/s of one daemon (live sockets)."""
    with tempfile.TemporaryDirectory(prefix="bench-cluster-cap-") as workdir:
        context, out, rst = build_context(workdir, "cap")
        server = DVServer()
        server.add_context(context, out, rst)
        server.start()
        try:
            host, port = server.address
            filename = context.filename_of(1)
            counts = [0] * sizing["clients"]
            errors: list[Exception] = []
            stop_at = [0.0]
            gate = threading.Event()

            def worker(slot: int) -> None:
                try:
                    client = RawClient(host, port, "cap", f"cap-{slot}")
                    try:
                        gate.wait()
                        counts[slot] = _pipelined_opens(
                            client, "cap", filename, sizing["window"], stop_at
                        )
                    finally:
                        client.close()
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(sizing["clients"])
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            stop_at[0] = time.perf_counter() + sizing["seconds"]
            begin = time.perf_counter()
            gate.set()
            for thread in threads:
                thread.join(timeout=60.0)
            elapsed = time.perf_counter() - begin
            if errors:
                raise errors[0]
            return sum(counts) / elapsed
        finally:
            server.stop(drain_timeout=0)


# --------------------------------------------------------------------- #
# Live forwarding overhead (two real nodes)
# --------------------------------------------------------------------- #
def measure_forwarding(sizing: dict) -> dict:
    """Sequential open RTT: owner-direct vs one gateway hop."""
    with tempfile.TemporaryDirectory(prefix="bench-cluster-fwd-") as workdir:
        context, out, rst = build_context(workdir, "fwd")
        ports = {"na": free_port(), "nb": free_port()}
        nodes = {
            nid: ClusterNode(
                nid, port=ports[nid],
                peers=[f"{o}@127.0.0.1:{ports[o]}" for o in ports if o != nid],
                vnodes=32, heartbeat_interval=0.5,
            )
            for nid in ports
        }
        try:
            for node in nodes.values():
                node.add_context(context, out, rst)
            for node in nodes.values():
                node.start()
            owner = nodes["na"].owner_of("fwd")
            gateway = "na" if owner == "nb" else "nb"
            filename = context.filename_of(1)

            def rtt_p50(node_id: str) -> float:
                host, port = nodes[node_id].address
                conn = TcpConnection(host, port, {}, {},
                                     client_id=f"fwd-{node_id}",
                                     owner_dial=refuse_owner)
                try:
                    conn.attach("fwd")
                    samples = []
                    for _ in range(sizing["latency_ops"]):
                        begin = time.perf_counter_ns()
                        conn.open("fwd", filename)
                        samples.append(time.perf_counter_ns() - begin)
                    return statistics.median(samples) / 1e3
                finally:
                    conn.close()

            direct_us = rtt_p50(owner)
            gateway_us = rtt_p50(gateway)
            return {
                "direct_p50_us": round(direct_us, 1),
                "gateway_p50_us": round(gateway_us, 1),
                "hop_overhead_x": round(gateway_us / direct_us, 2),
            }
        finally:
            for node in nodes.values():
                try:
                    node.stop(drain_timeout=0)
                except Exception:
                    pass


def compute(sizing: dict) -> dict:
    return {
        "per_node_capacity_msgs_per_sec": round(
            measure_per_node_capacity(sizing), 1
        ),
        "forwarding": measure_forwarding(sizing),
        "sizing": sizing,
    }


def report(results: dict) -> None:
    emit(
        "cluster_scaling",
        "Open throughput of one daemon (live, pipelined opens)",
        ["nodes", "msgs/s", "clients", "window"],
        [[1, results["per_node_capacity_msgs_per_sec"],
          results["sizing"]["clients"], results["sizing"]["window"]]],
    )
    emit(
        "cluster_forwarding",
        "Gateway hop overhead (live two-node cluster, sequential opens)",
        ["path", "p50 us"],
        [
            ["direct", results["forwarding"]["direct_p50_us"]],
            ["gateway", results["forwarding"]["gateway_p50_us"]],
            ["overhead x", results["forwarding"]["hop_overhead_x"]],
        ],
    )
    path = emit_json("cluster", results)
    print(f"wrote {path}")


def test_cluster_scaling(benchmark):
    from _harness import run_once

    results = run_once(benchmark, lambda: compute(SMOKE))
    report(results)
    assert results["per_node_capacity_msgs_per_sec"] > 0
    assert results["forwarding"]["hop_overhead_x"] >= 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short run for CI (fewer ops, less time)")
    args = parser.parse_args(argv)
    results = compute(SMOKE if args.smoke else FULL)
    report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
