"""Acceptance scenario for the observability plane: a blocked open
forwarded through the gateway to its owner yields ONE trace whose spans
cover (almost) the whole measured wall time, and the trace is
reconstructable from any node — protocol op and simfs-ctl alike."""

import os
import time

import pytest

from repro.cli import _union_seconds, main as ctl_main
from repro.client.dvlib import TcpConnection
from repro.cluster import ClusterNode
from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.simulators import SyntheticDriver
from tests.integration.conftest import free_port, wait_until

NODE_IDS = ("n1", "n2")


@pytest.fixture
def traced_cluster(tmp_path):
    """Two nodes, one context whose simulations are paced (alpha_delay)
    so waits dominate the measured wall time."""
    config = ContextConfig(name="alpha", delta_d=2, delta_r=8, num_timesteps=32)
    driver = SyntheticDriver(config.geometry, prefix="alpha", cells=16)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    out = str(tmp_path / "out")
    rst = str(tmp_path / "rst")
    os.makedirs(out)
    os.makedirs(rst)
    produced = driver.execute(
        driver.make_job("alpha", 0, 4, write_restarts=True), out, rst
    )
    for fname in produced:  # restarts stay; every open is a miss
        os.unlink(os.path.join(out, fname))
    ports = {nid: free_port() for nid in NODE_IDS}
    specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
    nodes = {
        nid: ClusterNode(
            nid, port=ports[nid],
            peers=[s for s in specs if not s.startswith(f"{nid}@")],
            vnodes=32, heartbeat_interval=0.15, suspect_after=3,
        )
        for nid in NODE_IDS
    }
    for node in nodes.values():
        node.add_context(context, out, rst, alpha_delay=0.5)
    for node in nodes.values():
        node.start()
    yield nodes, context, out, rst
    for node in nodes.values():
        try:
            node.stop(drain_timeout=0)
        except Exception:
            pass


def fetch_trace(node, trace_id):
    host, port = node.address
    with TcpConnection(host, port, {}, {}) as conn:
        reply = conn.call({"op": "trace", "trace_id": trace_id}, timeout=30.0)
    return reply["trace"]


class TestEndToEndTrace:
    def test_gateway_open_trace_covers_wall_time_from_any_node(
        self, traced_cluster, capsys
    ):
        nodes, context, out, rst = traced_cluster
        owner = nodes["n1"].owner_of("alpha")
        ingress = next(nid for nid in NODE_IDS if nid != owner)
        host, port = nodes[ingress].address
        filename = context.filename_of(3)
        with TcpConnection(
            host, port, {"alpha": out}, {"alpha": rst},
            client_id="traced-client", trace=1.0,
        ) as conn:
            conn.attach("alpha")
            t0 = time.time()
            info = conn.open("alpha", filename)
            trace_id = conn.last_trace_id
            assert not info.available  # outputs deleted: a blocked open
            assert conn.ready_table.wait("alpha", filename, timeout=60.0)
            t1 = time.time()
        wall = t1 - t0
        assert wall >= 0.4  # the alpha_delay pacing actually bit
        assert trace_id is not None

        # Reconstructable from ANY node: ingress and owner both return
        # the merged trace (peer fan-out).
        views = {nid: fetch_trace(nodes[nid], trace_id) for nid in NODE_IDS}
        for nid, view in views.items():
            assert view["unreachable"] == [], nid
            assert set(view["nodes"]) >= {ingress}, nid
        span_ids = {
            nid: {s["span_id"] for s in view["spans"]}
            for nid, view in views.items()
        }
        assert span_ids[ingress] == span_ids[owner]
        spans = views[ingress]["spans"]

        names = {s["name"] for s in spans}
        # The full chain left its marks: ingress dispatch + forward, the
        # owner's dispatch of the forwarded frame, and the sim wait.
        assert "op.open" in names
        assert "fwd" in names
        assert "op.fwd" in names
        assert "sim.wait" in names

        # Coverage: the union of span intervals, clipped to the client's
        # measured window, explains >= 95% of the wall time.
        intervals = [
            (max(s["start"], t0), min(s["end"], t1))
            for s in spans
            if s["end"] > t0 and s["start"] < t1
        ]
        covered = _union_seconds(intervals)
        assert covered >= 0.95 * wall, (
            f"spans cover {covered:.4f}s of {wall:.4f}s "
            f"({100 * covered / wall:.1f}%): {sorted(names)}"
        )

        # simfs-ctl reconstructs the same story from either node.
        for nid in NODE_IDS:
            node_host, node_port = nodes[nid].address
            code = ctl_main([
                "trace", trace_id,
                "--host", node_host, "--port", str(node_port),
            ])
            printed = capsys.readouterr().out
            assert code == 0
            assert f"trace {trace_id}:" in printed
            assert "sim.wait" in printed
            assert "critical path:" in printed

    def test_dead_peer_reported_unreachable_not_omitted(
        self, traced_cluster, capsys
    ):
        """A peer that is down — whether gossip has declared it dead yet
        or the dial just fails — must appear in ``unreachable``; the CLI
        then warns about the partial view but still exits 0."""
        nodes, context, out, rst = traced_cluster
        nodes["n2"].stop(drain_timeout=0)
        host, port = nodes["n1"].address
        unreachable: list = []

        def n2_unreachable():
            with TcpConnection(host, port, {}, {}) as conn:
                reply = conn.call(
                    {"op": "trace", "trace_id": "ab" * 8}, timeout=30.0
                )
            unreachable[:] = reply["trace"]["unreachable"]
            return "n2" in unreachable

        wait_until(n2_unreachable, 10.0, "n2 never reported unreachable",
                   nodes=[nodes["n1"]])
        assert unreachable == ["n2"]
        code = ctl_main([
            "trace", "ab" * 8, "--host", host, "--port", str(port),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "partial view" in captured.err
        assert "n2" in captured.err

    def test_cluster_metrics_export_merges_both_nodes(
        self, traced_cluster, capsys
    ):
        nodes, context, out, rst = traced_cluster
        host, port = nodes["n1"].address
        code = ctl_main([
            "metrics-export", "--host", host, "--port", str(port),
        ])
        text = capsys.readouterr().out
        assert code == 0
        for nid in NODE_IDS:
            assert f"# node {nid}" in text
        assert "# TYPE wire_frames_recv counter" in text


def test_fan_out_waits_out_a_peer_dial_backoff(tmp_path):
    """A peer inside a dial back-off window — fresh from the join phase,
    or one refused dial ago — is no verdict on it: the fan-out waits the
    window out and lists the peer with the nodes it reached."""
    ports = {nid: free_port() for nid in NODE_IDS}
    nodes = {
        nid: ClusterNode(
            nid, port=ports[nid],
            peers=[f"{p}@127.0.0.1:{ports[p]}" for p in NODE_IDS if p != nid],
            vnodes=32, heartbeat_interval=0.5,
        )
        for nid in NODE_IDS
    }
    n1 = nodes["n1"]
    try:
        for node in nodes.values():
            node.start()
        wait_until(
            lambda: n1.metrics.get("cluster.gossip_rounds").value >= 1, 10.0,
            "n1 never finished a gossip round", nodes=nodes.values(),
        )
        # Drop the link quietly (no membership verdict) and open a
        # heartbeat-long window before the next dial may be made.
        n1.router.link("n2").close()
        n1._dial_backoff.failed("n2")
        host, port = n1.address
        with TcpConnection(host, port, {}, {}) as conn:
            reply = conn.call({"op": "metrics_text"}, timeout=30.0)
        assert reply["unreachable"] == []
        assert reply["nodes"] == ["n1", "n2"]
        assert "# node n2" in reply["text"]
    finally:
        for node in nodes.values():
            node.stop(drain_timeout=0)
