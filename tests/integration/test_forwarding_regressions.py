"""Regressions of the ring-routed forwarding path, over real TCP nodes.

* A peer whose *dial is backing off* is not a dead peer: an op forwarded
  inside the window waits it out instead of exiling the owner.
* The owner-side proxy a forwarded op creates does not outlive an op
  that left the client unattached.
"""

import time

import pytest

from repro.client.dvlib import TcpConnection
from repro.cluster import ClusterNode
from repro.cluster.ring import HashRing
from repro.core.errors import SimFSError
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


def make_pair(tmp_path, name, **kwargs):
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
    context, out, rst = build_context(tmp_path, name)
    for node in nodes.values():
        node.add_context(context, out, rst)
    return nodes, context, out, rst


@pytest.fixture
def stop_nodes():
    started = []
    yield started
    for node in started:
        try:
            node.stop(drain_timeout=0)
        except Exception:
            pass


def test_dial_backoff_is_not_peer_death(tmp_path, stop_nodes):
    """B's first dial to A is refused (A is not up yet); A comes up; an
    op forwarded to A inside B's back-off window must succeed at A, and A
    must never be marked dead."""
    name = owned_by("a", ("a", "b"), "beta")
    # Long heartbeat: the back-off window (1-1.5 x the interval) outlasts
    # A's start-up, and B's own rounds stay out of the way.
    nodes, context, out, rst = make_pair(
        tmp_path, name, heartbeat_interval=1.0, suspect_after=10
    )
    a, b = nodes["a"], nodes["b"]
    b.start()
    stop_nodes.append(b)
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
    for node in nodes.values():
        node.start()
        stop_nodes.append(node)
    a, b = nodes["a"], nodes["b"]
    deadline = time.monotonic() + 10.0
    while b.metrics.get("cluster.gossip_rounds").value < 1:
        assert time.monotonic() < deadline
        time.sleep(0.02)

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
