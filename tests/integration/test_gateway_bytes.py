"""Byte identity across the hop.

The 314-frame request stream PR 22 recorded for the direct path
(``tests/dv/fixtures/local_run_replies.json``: errors mid-run,
JSON-carried ops with a string and a null ``req``, two contexts
interleaved, a run cut by ``bitrep``, 276 ops > ``FWD_RUN_MAX``, a miss,
the last frame split across two ``send``s) is played through the
*non-owner* of a two-node cluster.  The client must read, byte for byte,
what the owner answers when asked directly.

Against the bytes the *parent's* gateway wrote (replayed there: frames
3, 4, 8, 11, 13 and 27 of the 314), three kinds of frame differ, all now
the owner's: an ``open`` that fails is answered with the JSON key order
``op, req, error, detail`` (the parent's gateway made ``error, detail,
op, req`` of every error); an ``open`` whose ``req`` cannot be packed
(the string ``"r-13"``) is answered ``op, req, error, available, ...``
(the gateway led with the payload); and a traced ``open``'s reply
carries the request's ``tc`` for a trace-negotiated client (the gateway
dropped it).  The fixture itself — recorded on a lone ``DVServer`` at
PR 22's parent — is reproduced exactly, by the owner node and through
the hop.
"""

import json

from repro.cluster import ClusterNode
from repro.cluster.ring import HashRing
from repro.dv.protocol import FWD_RUN_MAX, decode_frames, encode_frame
from tests.dv.test_server_local_runs import (
    CONTEXTS,
    FIXTURE,
    KIND_READY,
    TC,
    Client,
    build_context,
    request_stream,
    split_frames,
)
from tests.integration.conftest import free_port, wait_until

VNODES = 32


def node_ids():
    """Two node ids whose ring gives every fixture context to the first."""
    for n in range(1000):
        ids = (f"own{n}", f"gw{n}")
        ring = HashRing(VNODES)
        for node_id in ids:
            ring.add_node(node_id)
        if all(ring.owner(name) == ids[0] for name in CONTEXTS):
            return ids
    raise AssertionError("no pair of ids puts every context on one node")


def start_cluster(root, stop_nodes):
    ids = node_ids()
    ports = {node_id: free_port() for node_id in ids}
    contexts = {
        name: build_context(root, name, **shape) for name, shape in CONTEXTS.items()
    }
    nodes = {}
    for node_id, other in (ids, ids[::-1]):
        node = nodes[node_id] = ClusterNode(
            node_id, port=ports[node_id],
            peers=[f"{other}@127.0.0.1:{ports[other]}"],
            vnodes=VNODES, heartbeat_interval=0.15,
        )
        for context, out, rst in contexts.values():
            node.add_context(context, out, rst, alpha_delay=0.3)
    for node in nodes.values():
        node.start()
        stop_nodes.append(node)
    owner, gateway = (nodes[node_id] for node_id in ids)
    wait_until(
        lambda: all(
            len([n for n in node.describe()["nodes"] if n["alive"]]) == 2
            for node in nodes.values()
        ),
        message="the two nodes never saw each other",
    )
    assert all(owner.owner_of(name) == owner.node_id for name in CONTEXTS)
    return owner, gateway, {name: c[0] for name, c in contexts.items()}


def play(node, contexts):
    """The stream in one ``send`` but the last frame's tail, which
    follows; returns the reply frames and the still-open client."""
    frames = request_stream(contexts)
    client = Client(node.server)
    stream = b"".join(frames)
    client.sock.sendall(stream[:-5])
    replies = client.replies(len(frames) - 1)
    client.sock.sendall(stream[-5:])
    return replies + client.replies(1), client


def test_the_non_owner_answers_byte_for_byte_what_the_owner_does(
    tmp_path, stop_nodes
):
    owner, gateway, contexts = start_cluster(str(tmp_path / "hop"), stop_nodes)
    hopped, client = play(gateway, contexts)
    twin, _gateway, twin_contexts = start_cluster(str(tmp_path / "direct"), stop_nodes)
    direct, other = play(twin, twin_contexts)
    other.close()
    assert hopped == direct
    with open(FIXTURE) as fh:
        golden = [bytes.fromhex(frame) for frame in json.load(fh)["replies"]]
    assert hopped == golden

    # Runs crossed the hop as runs; every op was counted where it ran.
    pairs = FWD_RUN_MAX // 2 + 10
    ingress = gateway.metrics.snapshot()
    assert ingress["cluster.fwd_frames"]["value"] < ingress["cluster.fwd_sent"]["value"]
    assert ingress["cluster.fwd_sent"]["value"] == len(golden) + 1  # the hello's attach
    assert ingress["op.open.seconds"]["count"] == 19 + pairs
    assert ingress["op.release.seconds"]["count"] == 16 + pairs
    served = owner.metrics.snapshot()
    assert served["cluster.fwd_received"]["value"] == len(golden) + 1
    assert served["dv.hot.opens"]["value"] == 10 + pairs
    assert served["dv.hot.hits"]["value"] == 9 + pairs
    assert served["dv.hot.misses"]["value"] == 1
    assert served["dv.hot.releases"]["value"] == 9 + pairs
    assert "op.open.seconds" not in served  # observed where the client entered

    # The client holds a wait (the miss) and three attachments: all of it
    # goes with the connection.
    assert set(gateway.router._ingress_ctx["wire"]) == {"hot", "two", "scan"}
    assert set(owner.router._proxies) == {"wire"}
    client.close()
    wait_until(
        lambda: not owner.router._proxies and not gateway.router._ingress_ctx
        and not gateway.router._pending and not gateway.router._proxies,
        message="router tables not empty after the client left",
    )


def ready_frame(client):
    """The next ``ready`` notification the client reads, as its bytes."""
    while True:
        frames, client.rest = split_frames(client.rest)
        for frame in frames:
            if frame[1] & 0x7F == KIND_READY:
                return frame
        client.rest = b"".join(f for f in frames if f[1] & 0x7F != KIND_READY) + client.rest
        chunk = client.sock.recv(1 << 20)
        assert chunk, "the daemon closed the connection"
        client.rest += chunk


def test_a_miss_its_ready_and_a_traced_run_cross_byte_for_byte(tmp_path, stop_nodes):
    """The frame path's slow branches through a live non-owner: a run
    whose reply marks a miss (its wait recorded, its ``ready`` routed
    back), traced ops for a client that negotiated tracing (their
    replies carry the request's ``tc``), and a release once the wait is
    over — every byte as the owner writes it to a direct client."""
    def session(node, contexts):
        hot = contexts["hot"].filename_of
        frames = [
            encode_frame({"op": "open", "req": 1, "context": "hot", "file": hot(60)}, "binary"),
            encode_frame({"op": "open", "req": 2, "context": "hot", "file": hot(1)}, "binary"),
            encode_frame({"op": "release", "req": 3, "context": "hot", "file": hot(1)}, "binary"),
            encode_frame({"op": "open", "req": 4, "context": "hot", "file": hot(2),
                          "tc": TC}, "binary"),
            encode_frame({"op": "release", "req": 5, "context": "hot", "file": hot(2),
                          "tc": TC}, "binary"),
        ]
        client = Client(node.server)
        client.sock.sendall(b"".join(frames))
        replies = client.replies(len(frames))
        ready = ready_frame(client)
        client.sock.sendall(encode_frame(
            {"op": "release", "req": 6, "context": "hot", "file": hot(60)}, "binary"))
        return replies + [ready] + client.replies(1), client

    owner, gateway, contexts = start_cluster(str(tmp_path / "hop"), stop_nodes)
    hopped, client = session(gateway, contexts)
    twin, _gateway, twin_contexts = start_cluster(str(tmp_path / "direct"), stop_nodes)
    direct, other = session(twin, twin_contexts)
    other.close()
    assert hopped == direct
    assert hopped[0][1] == 4 and hopped[-2][1] == KIND_READY  # a packed miss, a ready
    assert TC.split("-")[0] in str(decode_frames(hopped[3]))  # traced replies keep tc
    assert gateway.router._pending == {}
    assert gateway.metrics.snapshot()["cluster.ready_routed"]["value"] == 0
    assert owner.metrics.snapshot()["cluster.ready_routed"]["value"] == 1
    client.close()
