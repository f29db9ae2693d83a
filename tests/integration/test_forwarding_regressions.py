"""Regressions of the ring-routed forwarding path, over real TCP nodes.

* A peer whose *dial is backing off* is not a dead peer: an op forwarded
  inside the window waits it out instead of exiling the owner.
* The owner-side proxy a forwarded op creates does not outlive an op
  that left the client unattached.
* A pipelined client's ops cross the hop as runs — fewer ``fwd`` frames
  than ops — and every request still gets exactly one reply, in order,
  also while the owner dies under it.
"""

import socket
import threading
import time

import pytest

from repro.client.dvlib import TcpConnection
from repro.cluster import ClusterNode
from repro.cluster.ring import HashRing
from repro.core.errors import SimFSError
from repro.dv.protocol import MessageReader, encode_frame, send_message
from tests.integration.conftest import free_port
from tests.integration.test_cluster_stack import build_context

VNODES = 32


def owned_by(owner: str, node_ids, stem: str) -> str:
    """A context name the ring of ``node_ids`` assigns to ``owner``."""
    ring = HashRing(VNODES)
    for node_id in sorted(node_ids):
        ring.add_node(node_id)
    return next(
        name for name in (f"{stem}{i}" for i in range(256))
        if ring.owner(name) == owner
    )


def make_pair(tmp_path, name, keep_outputs=False, **kwargs):
    ports = {"a": free_port(), "b": free_port()}
    nodes = {
        nid: ClusterNode(
            nid, port=ports[nid],
            peers=[f"{other}@127.0.0.1:{ports[other]}"
                   for other in ports if other != nid],
            vnodes=VNODES, **kwargs,
        )
        for nid in ports
    }
    context, out, rst = build_context(tmp_path, name, keep_outputs=keep_outputs)
    for node in nodes.values():
        node.add_context(context, out, rst)
    return nodes, context, out, rst


def start_settled(nodes, stop_nodes):
    """Start every node and wait until each finished a gossip round of
    its own (a first dial refused during start-up is behind it)."""
    for node in nodes.values():
        node.start()
        stop_nodes.append(node)
    deadline = time.monotonic() + 10.0
    while any(
        node.metrics.get("cluster.gossip_rounds").value < 1
        for node in nodes.values()
    ):
        assert time.monotonic() < deadline
        time.sleep(0.02)


class PipelinedClient:
    """A raw wire client that keeps whole windows of packed ``open``/
    ``release`` pairs in flight (the ``gateway_open`` traffic shape)."""

    def __init__(self, address, client_id, context):
        self.context = context
        self.sock = socket.create_connection(address, timeout=30.0)
        send_message(self.sock, {
            "op": "hello", "req": 0, "client_id": client_id,
            "vers": 2, "codec": "binary", "context": context,
        })
        self.reader = MessageReader(self.sock)
        hello = self.reader.read_message()
        assert hello["error"] == 0, hello
        self.reader.set_codec("binary")
        self.next_req = 1

    def window(self, filenames):
        """Send an open/release pair per file in one burst; return the
        ``(op, reply)`` pairs in request order once all are answered."""
        sent = []
        burst = bytearray()
        for filename in filenames:
            for op in ("open", "release"):
                burst += encode_frame({
                    "op": op, "req": self.next_req,
                    "context": self.context, "file": filename,
                }, "binary")
                sent.append((self.next_req, op))
                self.next_req += 1
        self.sock.sendall(burst)
        replies = [self.reader.read_message() for _ in sent]
        assert [reply["req"] for reply in replies] == [req for req, _op in sent]
        return [(op, reply) for (_req, op), reply in zip(sent, replies)]

    def close(self):
        self.sock.close()


def test_dial_backoff_is_not_peer_death(tmp_path, stop_nodes):
    """B's dial to A is refused after B's join phase (inside it a refused
    dial opens no heartbeat-scale window at all, see test_join.py); A comes
    up; an op forwarded to A inside B's back-off window must succeed at A,
    and A must never be marked dead."""
    name = owned_by("a", ("a", "b"), "beta")
    # Long heartbeat: the back-off window (1-1.5 x the interval) outlasts
    # A's start-up, and B's own rounds stay out of the way.
    nodes, context, out, rst = make_pair(
        tmp_path, name, heartbeat_interval=1.0, suspect_after=10
    )
    a, b = nodes["a"], nodes["b"]
    b.start()
    stop_nodes.append(b)
    b._join_until = 0.0
    b._gossip_round()  # dials A: connection refused
    assert b._dial_backoff.failures("a") == 1
    assert not b._dial_backoff.ready("a")
    a.start()
    stop_nodes.append(a)

    host, port = b.address
    with TcpConnection(
        host, port, {name: out}, {name: rst}, client_id="early-bird"
    ) as conn:
        conn.attach(name)
        info = conn.open(name, context.filename_of(3))
        assert not info.available
        assert conn.ready_table.wait(name, context.filename_of(3), 30.0)
        conn.release(name, context.filename_of(3))

    view = {n["id"]: n["alive"] for n in b.describe()["nodes"]}
    assert view == {"a": True, "b": True}
    assert b.owner_of(name) == "a"
    assert b.active_contexts() == []  # B never took A's context over
    assert a.active_contexts() == [name]
    assert b.metrics.get("cluster.failovers").value == 0


def test_failed_first_op_leaves_no_proxy_behind(tmp_path, stop_nodes):
    """Clients whose only forwarded op fails (an open without an attach)
    come and go; the owner's proxied-client table must not keep them."""
    name = owned_by("a", ("a", "b"), "gamma")
    nodes, context, out, rst = make_pair(
        tmp_path, name, heartbeat_interval=0.15
    )
    start_settled(nodes, stop_nodes)
    a, b = nodes["a"], nodes["b"]

    host, port = b.address
    for i in range(8):
        with TcpConnection(
            host, port, {name: out}, {name: rst}, client_id=f"churn-{i}"
        ) as conn:
            with pytest.raises(SimFSError):
                conn.open(name, context.filename_of(1))
    assert a.metrics.get("cluster.fwd_received").value >= 8
    assert a.router._proxies == {}

    # An attached client keeps its proxy until it finalizes.
    with TcpConnection(
        host, port, {name: out}, {name: rst}, client_id="stayer"
    ) as conn:
        conn.attach(name)
        assert set(a.router._proxies) == {"stayer"}
        conn.finalize(name)
        assert a.router._proxies == {}


def test_pipelined_ops_cross_the_hop_as_runs(tmp_path, stop_nodes):
    """32 open/release pairs in flight through the non-owner: every reply
    is a clean hit, the owner's shard saw exactly what was sent, the hop
    carried fewer frames than ops, and nothing outlives the client."""
    name = owned_by("a", ("a", "b"), "delta")
    nodes, context, out, rst = make_pair(
        tmp_path, name, keep_outputs=True, heartbeat_interval=0.15
    )
    start_settled(nodes, stop_nodes)
    a, b = nodes["a"], nodes["b"]
    files = [context.filename_of(1 + i % 16) for i in range(32)]
    windows = 8
    sent = windows * len(files)
    client = PipelinedClient(b.address, "burst", name)
    try:
        for _ in range(windows):
            for op, reply in client.window(files):
                assert reply["op"] == "reply" and reply["error"] == 0, reply
                assert op == "release" or reply["available"] is True, reply
        assert a.metrics.get(f"dv.{name}.opens").value == sent
        assert a.metrics.get(f"dv.{name}.releases").value == sent
        fwd_sent = b.metrics.get("cluster.fwd_sent").value
        fwd_frames = b.metrics.get("cluster.fwd_frames").value
        assert fwd_sent == 2 * sent + 1  # every op, and the hello's attach
        assert 0 < fwd_frames < fwd_sent
        assert a.metrics.get("cluster.fwd_received").value == fwd_sent
    finally:
        client.close()
    deadline = time.monotonic() + 10.0
    while a.router._proxies or b.router._ingress_ctx or b.router._pending:
        assert time.monotonic() < deadline, (a.router._proxies, b.router._pending)
        time.sleep(0.02)


def test_owner_killed_mid_stream_every_request_gets_one_reply(
    tmp_path, stop_nodes
):
    """The same client while its context's owner dies (the ingress holds
    the replica): ``window`` checks one reply per request, in request
    order — failed or served, never lost, never doubled — and once the
    replica has taken over the stream is clean again."""
    name = owned_by("a", ("a", "b"), "epsilon")
    nodes, context, out, rst = make_pair(
        tmp_path, name, keep_outputs=True, heartbeat_interval=0.15,
        suspect_after=2, replication_factor=2, repl_interval=0.05,
        rpc_timeout=5.0,
    )
    start_settled(nodes, stop_nodes)
    a, b = nodes["a"], nodes["b"]
    files = [context.filename_of(1 + i % 16) for i in range(32)]
    client = PipelinedClient(b.address, "survivor", name)
    try:
        client.window(files)
        killer = threading.Timer(0.05, lambda: a.stop(drain_timeout=0))
        killer.start()
        deadline = time.monotonic() + 30.0
        while b.owner_of(name) != "b" or killer.is_alive():
            assert time.monotonic() < deadline
            client.window(files)
        killer.join()
        for op, reply in client.window(files):
            assert reply["error"] == 0, reply
            assert op == "release" or reply["available"] is True, reply
    finally:
        client.close()
    assert b.active_contexts() == [name]
