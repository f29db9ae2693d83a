"""Full-stack cluster tests: three real nodes over TCP.

Covers the acceptance scenario of the cluster tier: a client connected
to one node drives a context owned by another (gateway forwarding, ready
routed back through the ingress), survives the owner being killed
(reassignment + waiter replay), and a DVLib connection dialled at any
one node learns the ring and talks straight to owners, failing over on
the client side.  The gateway tests make every owner unreachable to the
client (``refuse_owner``), so their ops cross the hop.
"""

import os
import threading
import time

import pytest

from repro.cli import main as ctl_main
from repro.client.dvlib import TcpConnection
from repro.cluster import ClusterNode
from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.simulators import SyntheticDriver
from tests.integration.conftest import free_port, refuse_owner, wait_until

NODE_IDS = ("n1", "n2", "n3")



def build_context(tmp_path, name, num_timesteps=32, keep_outputs=False):
    """A synthetic context whose initial run happened on the shared PFS
    (restart files present; outputs deleted unless kept)."""
    config = ContextConfig(
        name=name, delta_d=2, delta_r=8, num_timesteps=num_timesteps
    )
    driver = SyntheticDriver(config.geometry, prefix=name, cells=16)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    output_dir = str(tmp_path / f"{name}-out")
    restart_dir = str(tmp_path / f"{name}-restart")
    os.makedirs(output_dir)
    os.makedirs(restart_dir)
    produced = driver.execute(
        driver.make_job(name, 0, num_timesteps // 8, write_restarts=True),
        output_dir, restart_dir,
    )
    if not keep_outputs:
        for fname in produced:
            os.unlink(os.path.join(output_dir, fname))
    return context, output_dir, restart_dir


@pytest.fixture
def cluster(tmp_path):
    """Three started nodes sharing one context catalog; stop survivors
    at teardown."""
    ports = {node_id: free_port() for node_id in NODE_IDS}
    specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
    nodes = {
        nid: ClusterNode(
            nid, port=ports[nid],
            peers=[s for s in specs if not s.startswith(f"{nid}@")],
            vnodes=32, heartbeat_interval=0.15, suspect_after=2,
        )
        for nid in NODE_IDS
    }
    context, out, rst = build_context(tmp_path, "alpha")
    for node in nodes.values():
        node.add_context(context, out, rst)
    for node in nodes.values():
        node.start()
    yield nodes, context, out, rst
    for node in nodes.values():
        try:
            node.stop(drain_timeout=0)
        except Exception:
            pass


def wait_ready(conn, context, filename, timeout=30.0) -> bool:
    return conn.ready_table.wait(context, filename, timeout)


class TestGatewayPath:
    def test_hello_reply_carries_the_ring(self, cluster):
        nodes, context, out, rst = cluster
        host, port = nodes["n1"].address
        with TcpConnection(host, port, {}, {}, client_id="ring-reader") as conn:
            info = conn.server_info.get("cluster")
            assert info["self"] == "n1"
            assert {n["id"] for n in info["nodes"]} == set(NODE_IDS)
            assert info["contexts"]["alpha"] in NODE_IDS

    def test_open_via_gateway_ready_routed_back_then_failover(self, cluster):
        """The acceptance scenario: client at node A, context owned by
        node C; the ready crosses the cluster; killing C reassigns the
        context and the same client keeps working."""
        nodes, context, out, rst = cluster
        owner = nodes["n1"].owner_of("alpha")
        ingress = next(nid for nid in NODE_IDS if nid != owner)
        host, port = nodes[ingress].address
        conn = TcpConnection(
            host, port, {"alpha": out}, {"alpha": rst}, client_id="gw-client",
            owner_dial=refuse_owner,
        )
        try:
            conn.attach("alpha")
            filename = context.filename_of(3)
            info = conn.open("alpha", filename)
            assert not info.available  # outputs were deleted: a miss
            assert wait_ready(conn, "alpha", filename)
            assert os.path.exists(os.path.join(out, filename))
            conn.release("alpha", filename)
            # The op really crossed the wire between nodes.
            ingress_fwd = nodes[ingress].metrics.get("cluster.fwd_sent")
            owner_fwd = nodes[owner].metrics.get("cluster.fwd_received")
            assert ingress_fwd.value > 0
            assert owner_fwd.value > 0
            assert nodes[owner].metrics.get("cluster.ready_routed").value > 0

            # Kill the owner: the ring reassigns, the gateway retries, and
            # the same client completes a subsequent open unassisted.
            nodes[owner].stop(drain_timeout=0)
            filename2 = context.filename_of(5)
            info2 = conn.open("alpha", filename2)
            if not info2.available:
                assert wait_ready(conn, "alpha", filename2)
            survivor = next(
                nid for nid in NODE_IDS if nid not in (owner,)
            )
            new_owner = nodes[survivor].owner_of("alpha")
            assert new_owner != owner
            assert "alpha" in nodes[new_owner].active_contexts()
        finally:
            conn.close()

    def test_blocked_waiter_replayed_when_owner_dies(self, tmp_path):
        """A client already blocked on a ready when the owner dies gets
        its file from the new owner instead of hanging."""
        ports = {nid: free_port() for nid in NODE_IDS}
        specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
        nodes = {
            nid: ClusterNode(
                nid, port=ports[nid],
                peers=[s for s in specs if not s.startswith(f"{nid}@")],
                vnodes=32, heartbeat_interval=0.15, suspect_after=2,
            )
            for nid in NODE_IDS
        }
        context, out, rst = build_context(tmp_path, "alpha")
        # Slow restarts (alpha_delay) keep the wait window open long
        # enough to kill the owner while the client blocks.
        for node in nodes.values():
            node.add_context(context, out, rst, alpha_delay=1.5)
        for node in nodes.values():
            node.start()
        conn = None
        try:
            owner = nodes["n1"].owner_of("alpha")
            ingress = next(nid for nid in NODE_IDS if nid != owner)
            host, port = nodes[ingress].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="blocked-client", owner_dial=refuse_owner,
            )
            conn.attach("alpha")
            filename = context.filename_of(7)
            info = conn.open("alpha", filename)
            assert not info.available
            nodes[owner].stop(drain_timeout=0)  # dies mid-restart
            # The ingress detects the death, replays the open at the new
            # owner, and the ready still reaches the blocked client.
            assert wait_ready(conn, "alpha", filename, timeout=60.0)
            assert nodes[ingress].metrics.get("cluster.replayed_waits").value > 0
        finally:
            if conn is not None:
                conn.close()
            for node in nodes.values():
                try:
                    node.stop(drain_timeout=0)
                except Exception:
                    pass


class TestRejoin:
    def test_restarted_node_rejoins_and_reclaims_its_arc(self, cluster, tmp_path):
        """A node that died and came back (same id, same generation) is
        resurrected by direct contact — death rumors at the same
        generation never un-stick on their own — and consistent hashing
        hands it back exactly the contexts it owned before."""
        nodes, context, out, rst = cluster
        owner = nodes["n1"].owner_of("alpha")
        victim = next(nid for nid in NODE_IDS if nid != owner)
        victim_port = nodes[victim].address[1]
        nodes[victim].stop(drain_timeout=0)
        survivor = next(nid for nid in NODE_IDS if nid not in (victim,))

        def alive_view(node):
            return {
                n["id"] for n in node.describe()["nodes"] if n["alive"]
            }

        wait_until(
            lambda: victim not in alive_view(nodes[survivor]), 20.0,
            "death never detected", nodes=[nodes[survivor]],
        )
        # Same id, same generation, same port: only direct contact can
        # bring it back.
        reborn = ClusterNode(
            victim, port=victim_port,
            peers=[
                f"{nid}@127.0.0.1:{nodes[nid].address[1]}"
                for nid in NODE_IDS if nid != victim
            ],
            vnodes=32, heartbeat_interval=0.15, suspect_after=2,
        )
        reborn.add_context(context, out, rst)
        reborn.start()
        try:
            wait_until(
                lambda: victim in alive_view(nodes[survivor]), 20.0,
                "rejoin never propagated", nodes=[nodes[survivor], reborn],
            )
            # Minimal-movement property: the ring converges back to the
            # original assignment, so the owner is unchanged.
            wait_until(
                lambda: nodes[survivor].owner_of("alpha") == owner, 10.0,
                "the ring never gave the arc back", nodes=[nodes[survivor], reborn],
            )
        finally:
            reborn.stop(drain_timeout=0)


def entry_other_than_owner(nodes, context_name="alpha"):
    """A node that does not own ``context_name``: the address a client
    dials when it must learn the owner from the hello reply."""
    owner = nodes["n1"].owner_of(context_name)
    return next(nid for nid in NODE_IDS if nid != owner)


def moved_off(conn, context_name, channel):
    """Has ``conn`` routed ``context_name`` away from ``channel`` (it
    noticed the channel die and picked a new door)?"""
    return conn._routes.get(context_name) is not channel


class TestClusterConnection:
    """The cluster-aware connection: a TcpConnection dialled at one node
    that is not the owner."""

    def test_one_hop_steady_state(self, cluster):
        nodes, context, out, rst = cluster
        host, port = nodes[entry_other_than_owner(nodes)].address
        conn = TcpConnection(
            host, port, {"alpha": out}, {"alpha": rst}, client_id="aware-client"
        )
        try:
            conn.attach("alpha")
            filename = context.filename_of(9)
            info = conn.open("alpha", filename)
            if not info.available:
                assert wait_ready(conn, "alpha", filename)
            conn.release("alpha", filename)
            # Ring-aware routing went straight to the owner: no node
            # forwarded anything for this client.
            assert all(
                node.metrics.get("cluster.fwd_sent").value == 0
                for node in nodes.values()
            )
        finally:
            conn.close()

    def test_client_side_failover(self, cluster):
        nodes, context, out, rst = cluster
        host, port = nodes[entry_other_than_owner(nodes)].address
        conn = TcpConnection(
            host, port, {"alpha": out}, {"alpha": rst},
            client_id="failover-client",
        )
        try:
            conn.attach("alpha")
            filename = context.filename_of(11)
            info = conn.open("alpha", filename)
            if not info.available:
                assert wait_ready(conn, "alpha", filename)
            conn.release("alpha", filename)
            owner = nodes["n1"].owner_of("alpha")
            door = conn._routes["alpha"]
            nodes[owner].stop(drain_timeout=0)
            # An op racing the teardown may have executed: it would raise,
            # never be re-sent.  Once the connection has seen the channel
            # die it re-learns the ring and re-attaches on the new route,
            # and the next open completes on the same session.
            wait_until(lambda: moved_off(conn, "alpha", door), 30.0,
                       "the connection never left the dead owner")
            filename2 = context.filename_of(13)
            info2 = conn.open("alpha", filename2)
            if not info2.available:
                assert wait_ready(conn, "alpha", filename2)
        finally:
            conn.close()

    def test_blocked_waiter_failed_over_client_side(self, tmp_path):
        """A client blocked on a ready when the owner dies gets unstuck by
        its connection re-issuing the open on the new route (a blocked
        waiter issues no ops of its own)."""
        ports = {nid: free_port() for nid in NODE_IDS}
        specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
        nodes = {
            nid: ClusterNode(
                nid, port=ports[nid],
                peers=[s for s in specs if not s.startswith(f"{nid}@")],
                vnodes=32, heartbeat_interval=0.15, suspect_after=2,
            )
            for nid in NODE_IDS
        }
        context, out, rst = build_context(tmp_path, "alpha")
        for node in nodes.values():
            node.add_context(context, out, rst, alpha_delay=1.5)
        for node in nodes.values():
            node.start()
        conn = None
        try:
            host, port = nodes[entry_other_than_owner(nodes)].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="blocked-aware-client",
            )
            conn.attach("alpha")
            filename = context.filename_of(7)
            info = conn.open("alpha", filename)
            assert not info.available
            owner = nodes["n1"].owner_of("alpha")
            nodes[owner].stop(drain_timeout=0)  # dies mid-restart
            assert wait_ready(conn, "alpha", filename, timeout=60.0)
        finally:
            if conn is not None:
                conn.close()
            for node in nodes.values():
                try:
                    node.stop(drain_timeout=0)
                except Exception:
                    pass

    def test_batch_must_not_span_owners(self, cluster):
        """A pipelined window (``acquire``, ``release_many``) dialled at a
        non-owner runs at alpha's owner, whole."""
        nodes, context, out, rst = cluster
        owner = nodes["n1"].owner_of("alpha")
        host, port = nodes[entry_other_than_owner(nodes)].address
        conn = TcpConnection(host, port, {"alpha": out}, {"alpha": rst})
        files = [context.filename_of(k) for k in (3, 4)]
        try:
            conn.attach("alpha")
            for info in conn.acquire("alpha", files):
                if not info.available:
                    assert wait_ready(conn, "alpha", info.filename)
            conn.release_many("alpha", files)
            metrics = nodes[owner].metrics
            assert metrics.get("dv.alpha.opens").value == 2
            assert metrics.get("dv.alpha.releases").value == 2
        finally:
            conn.close()


class TestClusterStatus:
    def test_cluster_op_reports_ring_and_metrics(self, cluster):
        nodes, context, out, rst = cluster
        host, port = nodes["n2"].address
        with TcpConnection(host, port, {}, {}, client_id="status-reader") as conn:
            reply = conn.call({"op": "cluster"})
        info = reply["cluster"]
        assert info["self"] == "n2"
        assert info["contexts"]["alpha"] in NODE_IDS
        assert any(name.startswith("cluster.") for name in reply["metrics"])

    def test_simfs_ctl_cluster_status(self, cluster, capsys):
        nodes, context, out, rst = cluster
        host, port = nodes["n3"].address
        assert ctl_main([
            "cluster-status", "--host", host, "--port", str(port), "--json"
        ]) == 0
        printed = capsys.readouterr().out
        assert '"self": "n3"' in printed
        assert "alpha" in printed
        # Human summary (default) mentions peers and context owners.
        assert ctl_main([
            "cluster-status", "--host", host, "--port", str(port)
        ]) == 0
        printed = capsys.readouterr().out
        assert "node n3" in printed
        assert "context alpha ->" in printed


class TestGracefulShutdown:
    def test_stop_flushes_buffered_replies(self, tmp_path):
        """Replies still sitting in coalescing writers at stop() time are
        delivered before the socket closes."""
        from repro.dv.server import DVServer

        context, out, rst = build_context(tmp_path, "flush", keep_outputs=True)
        server = DVServer()
        server.add_context(context, out, rst)
        server.start()
        host, port = server.address
        conn = TcpConnection(host, port, {"flush": out}, {"flush": rst},
                             client_id="flush-client")
        received = []

        def reader():
            # The listener thread inside TcpConnection fills the replies;
            # we only need to know how many stats RPCs complete.
            for _ in range(20):
                received.append(conn.stats())

        try:
            conn.attach("flush")
            thread = threading.Thread(target=reader)
            thread.start()
            time.sleep(0.05)
            server.stop(drain_timeout=10.0)
            thread.join(timeout=30.0)
            assert len(received) == 20
        finally:
            conn.close()

    def test_stop_waits_for_inflight_ready(self, tmp_path):
        """A ready produced by a re-simulation still running at stop()
        time is delivered before teardown instead of dropped."""
        from repro.dv.server import DVServer

        context, out, rst = build_context(tmp_path, "drainctx")
        server = DVServer()
        # alpha_delay keeps the simulation in flight when stop() lands.
        server.add_context(context, out, rst, alpha_delay=0.4)
        server.start()
        host, port = server.address
        conn = TcpConnection(host, port, {"drainctx": out}, {"drainctx": rst},
                             client_id="drain-client")
        try:
            conn.attach("drainctx")
            filename = context.filename_of(3)
            info = conn.open("drainctx", filename)
            assert not info.available
            server.stop(drain_timeout=30.0)  # sim still sleeping in alpha
            assert wait_ready(conn, "drainctx", filename, timeout=10.0)
        finally:
            conn.close()
