"""Start-up and join, over real TCP nodes.

A node gossips as soon as it listens; a configured peer or seed that has
never answered is retried on a short schedule instead of being counted
against, and a peer's first contact is answered with a round of our own.
The joins below run with ``heartbeat_interval=30``: nothing that waits
for a heartbeat tick can pass them.  The last two pin what the join phase
must not change: a peer that never comes up still dies by the
``suspect_after`` rule, and one that was reached once gets no second
join phase.
"""

import time

import pytest

from repro.client.dvlib import TcpConnection
from repro.cluster import ClusterNode
from tests.integration.conftest import free_port
from tests.integration.test_cluster_stack import build_context
from tests.integration.test_forwarding_regressions import (
    VNODES,
    make_pair,
    owned_by,
)
from tests.integration.test_ha_failover import wait_until


def joined(nodes) -> bool:
    """What the benchmark's ``wait_converged`` asks of a ring: everyone
    lists everyone alive with a data port, all agree on ownership, and
    each has completed a gossip round of its own."""
    views = [node.describe() for node in nodes]
    return all(
        len(view["nodes"]) == len(nodes)
        and all(peer["alive"] and peer["data"] for peer in view["nodes"])
        and view["contexts"] == views[0]["contexts"]
        for view in views
    ) and all(
        node.metrics.get("cluster.gossip_rounds").value >= 1 for node in nodes
    )


def start_staggered(first, second, stop_nodes):
    """Start two nodes 200 ms apart; both must have joined within a
    second of the later start."""
    first.start()
    stop_nodes.append(first)
    time.sleep(0.2)
    second.start()
    stop_nodes.append(second)
    wait_until(
        lambda: joined([first, second]), 1.0,
        "no join within 1 s of the later start",
    )


def forwarded_open_hits(ingress, name, context, out, rst):
    host, port = ingress.address
    with TcpConnection(
        host, port, {name: out}, {name: rst}, client_id="early-bird"
    ) as conn:
        conn.attach(name)
        info = conn.open(name, context.filename_of(3))
        assert info.available
        conn.release(name, context.filename_of(3))
    assert ingress.metrics.get("cluster.fwd_sent").value >= 3
    assert ingress.metrics.get("cluster.failovers").value == 0


@pytest.mark.parametrize("first", ["a", "b"])
def test_pair_joins_one_round_trip_after_the_later_start(
    tmp_path, stop_nodes, first
):
    name = owned_by("a", ("a", "b"), "join")
    nodes, context, out, rst = make_pair(
        tmp_path, name, keep_outputs=True, heartbeat_interval=30.0
    )
    second = "b" if first == "a" else "a"
    start_staggered(nodes[first], nodes[second], stop_nodes)
    forwarded_open_hits(nodes["b"], name, context, out, rst)
    # The refused dials of the join phase opened no heartbeat-scale window.
    assert nodes[first]._dial_backoff.failures(second) == 0


@pytest.mark.parametrize("seeded_first", [True, False])
def test_bare_seed_joins_the_same_way(tmp_path, stop_nodes, seeded_first):
    """``b`` knows ``a`` only as ``host:port``; ``a`` knows nobody."""
    name = owned_by("a", ("a", "b"), "seed")
    ports = {"a": free_port(), "b": free_port()}
    a = ClusterNode("a", port=ports["a"], vnodes=VNODES,
                    heartbeat_interval=30.0)
    b = ClusterNode("b", port=ports["b"], vnodes=VNODES,
                    heartbeat_interval=30.0,
                    peers=[f"127.0.0.1:{ports['a']}"])
    context, out, rst = build_context(tmp_path, name, keep_outputs=True)
    for node in (a, b):
        node.add_context(context, out, rst)
    first, second = (b, a) if seeded_first else (a, b)
    start_staggered(first, second, stop_nodes)
    forwarded_open_hits(b, name, context, out, rst)


def test_peer_that_never_comes_up_still_dies_and_backs_off(
    tmp_path, stop_nodes
):
    """The join phase ends: after it the ``suspect_after`` rule declares
    the silent peer dead, and the dead-peer probes then widen its
    ``DialBackoff`` window as they always did."""
    name = owned_by("a", ("a", "b"), "ghost")
    nodes, context, out, rst = make_pair(
        tmp_path, name, heartbeat_interval=0.05, suspect_after=2
    )
    b = nodes["b"]
    b.start()
    stop_nodes.append(b)

    def a_is_dead():
        return not {n["id"]: n["alive"] for n in b.describe()["nodes"]}["a"]

    wait_until(a_is_dead, 10.0, "the silent peer was never declared dead")
    assert b.owner_of(name) == "b"
    wait_until(
        lambda: b._dial_backoff.failures("a") >= 3, 10.0,
        "dead-peer probes stopped backing off",
    )
    assert b._dial_backoff.remaining("a") > 2 * b.heartbeat_interval


def test_peer_reached_once_gets_no_second_join_phase(tmp_path, stop_nodes):
    """``a`` answers, dies, and is then rumoured alive again (a restart
    announced by a third party) while ``b`` is still inside its own join
    window: the refused dial is evidence, exactly as without a join phase."""
    name = owned_by("a", ("a", "b"), "once")
    nodes, context, out, rst = make_pair(
        tmp_path, name, heartbeat_interval=30.0
    )
    a, b = nodes["a"], nodes["b"]
    start_staggered(a, b, stop_nodes)
    a_host, a_port = a.address
    a.stop(drain_timeout=0)
    wait_until(
        lambda: b.owner_of(name) == "b", 5.0,
        "the torn link was not taken as the peer's death",
    )
    assert time.monotonic() < b._join_until  # still b's join window
    b._apply_membership(lambda: b.table.merge_view([{
        "id": "a", "host": a_host, "port": a_port, "gen": 2, "alive": True,
    }]))
    assert b.owner_of(name) == "a"
    b._gossip_round()  # dials a: connection refused
    assert b.table.get("a").missed == 1
    assert b._dial_backoff.failures("a") == 1
    assert b._dial_backoff.remaining("a") >= b.heartbeat_interval
