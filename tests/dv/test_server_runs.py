"""What a worker takes off a gateway connection's inbox as one run.

No thread and no listener: a ``_ClientConn`` over a socketpair is fed
the bytes a client writes (``feed``), the drain the event loop hands to
a worker runs on this thread, and the replies are read off the other
end.  The route hook is a real :class:`~repro.cluster.router.Router`
whose only link records the ``fwd`` frames that would cross the hop and
answers them the way an owner does: every run, a lone op included,
crosses as the packed client frames (``pack_run``), their ``req``s and
all, and comes back as reply frames.
"""

import os
import socket

import pytest

from repro.cluster.router import Router
from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import ErrorCode
from repro.core.perfmodel import PerformanceModel
from repro.dv.core import _ClientConn, reply_frame
from repro.dv.protocol import (
    FWD_RUN_MAX,
    OP_FWD,
    StreamDecoder,
    decode_frames,
    encode_frame,
    pack_run,
    unpack_run,
    unpack_run_reply,
)
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver
from tests.dv.test_server_local_runs import batch, count_calls, make_server

REMOTE, OTHER, LOCAL = "remote", "elsewhere", "local"
ERR_INVALID = int(ErrorCode.ERR_INVALID)
ERR_PROTOCOL = int(ErrorCode.ERR_PROTOCOL)
TC = f"{0x11:016x}-{0x22:016x}-01"


class OwnerLink:
    """The link to the owner: records request frames, answers each op of
    a run (a ``release`` of ``missing`` is refused, an ``open`` is a hit)."""

    closed = False

    def __init__(self):
        self.frames = []

    def answer(self, inner):
        if inner.get("file") == "missing":
            return {"error": ERR_INVALID, "detail": "missing is not open"}
        if inner["op"] == "open":
            return {"error": 0, "available": True, "state": "on_disk", "wait": 0.0}
        return {"error": 0}

    def call(self, frame, timeout=None):
        self.frames.append(frame)
        return {"op": "fwd_reply", "error": 0, "run": b"".join(
            reply_frame(inner, self.answer(inner)) for inner in ops_of(frame)
        )}

    def close(self):
        pass


@pytest.fixture
def gateway(tmp_path):
    server = DVServer()
    config = ContextConfig(name=LOCAL, delta_d=2, delta_r=8, num_timesteps=16)
    context = SimulationContext(
        config=config,
        driver=SyntheticDriver(config.geometry, prefix=LOCAL, cells=8),
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    out, rst = str(tmp_path / "out"), str(tmp_path / "rst")
    os.makedirs(out)
    os.makedirs(rst)
    server.add_context(context, out, rst)
    link = OwnerLink()
    router = Router(
        "ingress",
        resolve=lambda context: ("owner", True),
        dial=lambda peer_id, on_fwd, on_down: link,
        ready_sink=lambda note: None,
        is_stale=lambda owner, context: False,
        metrics=server.metrics,
    )
    server.set_cluster_hooks(route_ops=router.route)
    ours, theirs = socket.socketpair()
    conn = _ClientConn(ours, client_id="c1")
    conn.decoder.set_codec("binary")
    yield server, conn, theirs, link
    ours.close()
    theirs.close()


def run_worker(server, conn):
    """Run the drain the event loop handed to the pool, if it did."""
    while not server.loop.work.empty():
        drain, args = server.loop.work.get_nowait()
        assert (drain, args) == (server.drain, (conn,))
        drain(*args)


def drain(server, conn, theirs, messages):
    """Feed ``messages`` as one write, drain it, return the replies."""
    server.feed(conn, b"".join(encode_frame(m, "binary") for m in messages))
    run_worker(server, conn)
    assert not conn.inbox and not conn.busy
    decoder = StreamDecoder("binary")
    theirs.settimeout(5.0)
    replies = []
    while len(replies) < len(messages):
        decoder.feed(theirs.recv(1 << 20))
        while (reply := decoder.next_message()) is not None:
            replies.append(reply)
    return replies


def msg(op, req, file="f1", context=REMOTE, **extra):
    return {"op": op, "req": req, "context": context, "file": file, **extra}


def ops_of(frame):
    """The ops a ``fwd`` frame carries."""
    return unpack_run(dict(frame))[2]


def run_of(messages):
    """The ``fwd`` frame a run of ``messages`` crosses the hop as."""
    return pack_run("ingress", "c1", messages)


def shapes(link):
    """Per ``fwd`` frame: how many ops it carried."""
    return [len(ops_of(f)) for f in link.frames]


def test_consecutive_forwardable_ops_leave_as_one_frame(gateway):
    server, conn, theirs, link = gateway
    burst = [
        msg("open", 1), msg("release", 2), msg("open", 3, "f2"),
        msg("release", 4, "f2"),
    ]
    replies = drain(server, conn, theirs, burst)
    assert link.frames == [run_of(burst)]
    assert ops_of(link.frames[0]) == burst  # each op keeps its own req
    assert [r["req"] for r in replies] == [1, 2, 3, 4]
    assert [r.get("available") for r in replies] == [True, None, True, None]
    assert all(r["op"] == "reply" and r["error"] == 0 for r in replies)
    # Each op of the run is observed at the ingress as its own dispatch.
    snapshot = server.metrics.snapshot()
    assert snapshot["op.open.seconds"]["count"] == 2
    assert snapshot["op.release.seconds"]["count"] == 2
    assert snapshot["cluster.fwd_sent"]["value"] == 4
    assert snapshot["cluster.fwd_frames"]["value"] == 1


def test_what_ends_a_run(gateway):
    server, conn, theirs, link = gateway
    burst = [
        msg("open", 1), msg("release", 2),
        msg("open", 3, context=LOCAL),                    # a local context
        msg("open", 4), msg("release", 5),
        msg("open", 6, tc=TC, _obs_t0=1.0),              # a traced op
        msg("release", 7), msg("open", 8, context=OTHER),  # another owner's
        msg("release", 9, context=OTHER),
        {"op": "batch", "req": 10, "ops": []},            # no op: refused here
        msg("open", 11), msg("open", 12),
        {"op": "attach", "req": 13, "context": REMOTE},   # routable, never bundled
        msg("open", 14),
        {"op": "stats", "req": 15},                       # a local service op
        msg("wclose", 16), msg("wclose", 17),             # no run op
    ]
    replies = drain(server, conn, theirs, burst)
    assert [r["req"] for r in replies] == list(range(1, 18))
    assert replies[9]["error"] == ERR_PROTOCOL and "batch" in replies[9]["detail"]
    assert shapes(link) == [2, 2, 1, 1, 2, 2, 1, 1, 1, 1]
    traced = link.frames[2]
    assert traced == dict(run_of([msg("open", 6, tc=TC)]), tc=TC)
    for frame in link.frames:
        for inner in ops_of(frame):
            assert "req" in inner and "_obs_t0" not in inner
    contexts = [ops_of(f)[0]["context"] for f in link.frames]
    assert contexts == [REMOTE] * 4 + [OTHER] + [REMOTE] * 5


def test_a_run_is_capped_and_a_lone_op_is_a_run_of_one(gateway):
    server, conn, theirs, link = gateway
    burst = [msg("open", i, f"f{i}") for i in range(1, FWD_RUN_MAX + 3)]
    replies = drain(server, conn, theirs, burst)
    assert [r["req"] for r in replies] == list(range(1, FWD_RUN_MAX + 3))
    assert shapes(link) == [FWD_RUN_MAX, 2]
    del link.frames[:]
    drain(server, conn, theirs, [msg("open", 1)])
    assert encode_frame(dict(link.frames[0], req=9), "binary") == encode_frame(
        dict(run_of([msg("open", 1)]), req=9), "binary"
    )


def test_a_connection_without_a_hello_forwards_nothing(gateway):
    server, conn, theirs, link = gateway
    conn.client_id = None
    conn.decoder.set_codec("legacy")
    server.feed(conn, b"".join(
        encode_frame(m, "legacy") for m in (msg("open", 1), msg("release", 2))
    ))
    run_worker(server, conn)
    assert not conn.inbox and not conn.busy
    assert link.frames == []


def test_each_slot_keeps_its_own_error(gateway):
    server, conn, theirs, link = gateway
    burst = [msg("release", 1), msg("release", 2, "missing"), msg("release", 3)]
    replies = drain(server, conn, theirs, burst)
    assert [(r["req"], r["error"]) for r in replies] == [
        (1, 0), (2, ERR_INVALID), (3, 0),
    ]
    assert "missing" in replies[1]["detail"]


def test_a_forwarded_batch_of_releases_is_one_frame(gateway):
    """What ``release_many`` pipelines: one frame, each slot answered."""
    server, conn, theirs, link = gateway
    burst = [
        msg("release", req, name)
        for req, name in enumerate(("f1", "missing", "f2", "f3"), start=9)
    ]
    replies = drain(server, conn, theirs, burst)
    assert link.frames == [run_of(burst)]
    assert [(r["req"], r["error"]) for r in replies] == [
        (9, 0), (10, ERR_INVALID), (11, 0), (12, 0),
    ]


def test_a_mixed_batch_keeps_sub_op_order(gateway):
    server, conn, theirs, link = gateway
    burst = [
        msg("open", 1), msg("release", 2),
        {"op": "nonsense", "req": 3},
        {"op": "attach", "req": 4, "context": REMOTE},
        msg("release", 5, context=OTHER),
        msg("open", 6, context=LOCAL),
        msg("wclose", 7),
    ]
    replies = drain(server, conn, theirs, burst)
    assert [r["req"] for r in replies] == list(range(1, 8))
    assert replies[2]["error"] == ERR_PROTOCOL
    assert shapes(link) == [2, 1, 1, 1]
    assert replies[0]["available"] is True


# --------------------------------------------------------------------- #
# A budget for both ends of the hop, in Python-level calls per op
# --------------------------------------------------------------------- #
#: Python-level calls per forwarded op of a shuffled 32-op run (what
#: ``gateway_open`` sends), budgets set ≈ 20 % above the readings of the
#: forwarding alone: 2.8 at the ingress, 17.4 at the owner.  The owner's
#: calls are the shard's own (the direct path makes them too) plus packing
#: the reply frames.  The ingress is measured over its whole path —
#: ``feed``, the hand-off to a worker and that worker's drain — and reads
#: 3.3.
INGRESS_CALL_BUDGET = 3.4
OWNER_CALL_BUDGET = 21.0


class CannedLink:
    """Answers every ``fwd`` with the reply recorded for it."""

    closed = False

    def __init__(self, reply):
        self.reply = reply

    def call(self, frame, timeout=None):
        return self.reply


def test_both_ends_of_the_hop_stay_within_their_call_budgets(tmp_path):
    owner, contexts = make_server(str(tmp_path))
    router = Router(
        "owner", resolve=lambda context: ("owner", True), dial=None,
        ready_sink=lambda note: None, is_stale=lambda owner, context: False,
        metrics=owner.metrics, execute_local=owner.serve_ops,
    )
    owner.register_op(OP_FWD, router.on_fwd)
    ours, theirs = socket.socketpair()
    theirs.settimeout(5.0)
    peer = _ClientConn(ours, client_id="node:ingress")
    peer.decoder.set_codec("binary")
    client = _ClientConn(ours, client_id="c1")
    client.decoder.set_codec("binary")
    try:
        router.run_local("c1", [{"op": "attach", "context": "hot"}], peer, "ingress")
        run = decode_frames(batch(contexts["hot"], 16))
        fwd = encode_frame(dict(pack_run("ingress", "c1", run), req=9), "binary")

        def owner_step():  # the frame arrives; the reply frame leaves
            owner.feed(peer, fwd)

        owner_step()  # warm: histograms created, key memo filled
        (reply,) = decode_frames(theirs.recv(1 << 16))
        assert len(unpack_run_reply(reply, 32)[0]) == 32 and owner.loop.work.empty()
        calls = count_calls(owner_step) / 32
        theirs.recv(1 << 16)
        assert 5 < calls <= OWNER_CALL_BUDGET, f"owner: {calls:.1f} calls per op"

        ingress = DVServer()
        link = CannedLink(reply)
        hop = Router(
            "ingress", resolve=lambda context: ("owner", True),
            dial=lambda peer_id, on_fwd, on_down: link,
            ready_sink=lambda note: None, is_stale=lambda owner, context: False,
            metrics=ingress.metrics,
        )
        ingress.set_cluster_hooks(route_ops=hop.route)
        data = batch(contexts["hot"], 16)

        def ingress_step():  # the client's bytes arrive; its replies leave
            ingress.feed(client, data)
            run_worker(ingress, client)

        ingress_step()
        assert theirs.recv(1 << 16) == reply["run"]
        calls = count_calls(ingress_step) / 32
        assert 1 < calls <= INGRESS_CALL_BUDGET, f"ingress: {calls:.1f} calls per op"
    finally:
        ours.close()
        theirs.close()
