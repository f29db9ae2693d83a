"""What the drain takes off a gateway connection's inbox as one run.

No thread and no listener: a ``_ClientConn`` over a socketpair is fed
the bytes a client writes (``feed``), the loop's hand-offs and the
drains and jobs it gives its workers run on this thread, and the
replies are read off the other end.  The route hook is a real
:class:`~repro.cluster.router.Router` whose only link records the
``fwd`` frames that would cross the hop and answers them the way an
owner does: every run, a lone op included, crosses as the packed client
frames (``pack_run``), their ``req``s and all, and comes back as reply
frames.  Every routed run is sent from the event loop, which parks the
drain until the link lands the reply.  The ``gateway`` runs each test
twice: with the drain on the event loop (``loop``) and with the drain
already handed to a worker (``worker``), which parks a routed run the
same way.
"""

import heapq
import os
import socket
import threading

import pytest

from repro.cluster.router import Router
from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import DVConnectionLost, ErrorCode
from repro.core.perfmodel import PerformanceModel
from repro.dv.core import _ClientConn, reply_frame
from repro.dv.protocol import (
    FWD_RUN_MAX,
    OP_FWD,
    PROTOCOL_VERSION,
    MessageReader,
    StreamDecoder,
    decode_frames,
    encode_frame,
    pack_run,
    send_message,
    unpack_run,
    unpack_run_reply,
)
from repro.dv.server import DVServer
from repro.metrics.registry import Histogram
from repro.simulators import SyntheticDriver
from tests.dv.test_server_local_runs import batch, count_calls, make_server

REMOTE, OTHER, LOCAL = "remote", "elsewhere", "local"
ERR_INVALID = int(ErrorCode.ERR_INVALID)
ERR_PROTOCOL = int(ErrorCode.ERR_PROTOCOL)
TC = f"{0x11:016x}-{0x22:016x}-01"


class OwnerLink:
    """The link to the owner: records request frames, answers each op of
    a run (a ``release`` of ``missing`` is refused, an ``open`` is a hit).
    A run the loop sends (``start``) is answered when :func:`settle`
    lands it, as the loop would once the reply arrives."""

    closed = False

    def __init__(self):
        self.frames = []
        self.started = []  # (frame, on_reply) not landed yet
        self.pool_jobs = 0  # what settle() ran on the pool's behalf
        self.ran = []  # the functions of those jobs
        self.tears = 0  # this many landings tear the link instead

    def start(self, frame, timeout, on_reply):
        self.frames.append(frame)
        self.started.append((frame, on_reply))

    def answer(self, inner):
        if inner.get("file") == "missing":
            return {"error": ERR_INVALID, "detail": "missing is not open"}
        if inner["op"] == "open":
            return {"error": 0, "available": True, "state": "on_disk", "wait": 0.0}
        return {"error": 0}

    def reply(self, frame):
        return {"op": "fwd_reply", "error": 0, "run": b"".join(
            reply_frame(inner, self.answer(inner)) for inner in ops_of(frame)
        )}

    def land(self):
        """The reply to the oldest run the loop sent arrives (or, while
        ``tears`` lasts, the link tears under it)."""
        frame, on_reply = self.started.pop(0)
        if self.tears:
            self.tears -= 1
            on_reply(DVConnectionLost("the owner's link tore"))
        else:
            on_reply(self.reply(frame))

    def close(self):
        pass


def on_loop(server):
    """The hooks that put a router on the server's event loop: the owner
    is always a peer (never busy), blocking steps go to the pool."""
    return {
        "peek": lambda context: ("owner", True),
        "submit": server.loop.submit, "loop": server.loop,
    }


@pytest.fixture(params=["loop", "worker"])
def gateway(request, tmp_path):
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
    link.on_worker = request.param == "worker"
    router = Router(
        "ingress",
        resolve=lambda context: ("owner", True),
        dial=lambda peer_id, on_fwd, on_down: link,
        ready_sink=lambda note: None,
        is_stale=lambda owner, context: False,
        metrics=server.metrics,
        obs=server.obs,
        **on_loop(server),
    )
    router.link("owner")  # dialled and cached: the loop sends on it
    link.router = router
    server.set_cluster_hooks(route_start=router.start)
    ours, theirs = socket.socketpair()
    conn = _ClientConn(ours, client_id="c1")
    conn.decoder.set_codec("binary")
    yield server, conn, theirs, link
    ours.close()
    theirs.close()


def feed(server, conn, data, link):
    """The client's bytes arrive: drained on the loop, or — the
    ``worker`` gateway — by a drain the loop handed to a worker."""
    if link.on_worker:
        conn.busy = True  # the drain is the worker's: feed only queues
        server.feed(conn, data)
        server.loop.submit(server.drain, conn)
    else:
        server.feed(conn, data)


def settle(server, link, land=True):
    """Until nothing is left: run the loop's hand-offs, land the runs
    the loop sent (unless not ``land``), run what was handed to the pool
    (a drain, a blocking step), and then the loop's timers, in order, as
    if each were due."""
    loop = server.loop
    while True:
        if loop._soon:
            fn, args = loop._soon.popleft()
        elif land and link.started:
            link.land()
            continue
        elif not loop.work.empty():
            fn, args = loop.work.get_nowait()
            link.pool_jobs += 1
            link.ran.append(fn)
        elif land and loop._timers:
            _when, _seq, fn, args = heapq.heappop(loop._timers)
        else:
            return
        fn(*args)


def drain(server, conn, theirs, messages, link):
    """Feed ``messages`` as one write, drain it, return the replies."""
    feed(server, conn, b"".join(encode_frame(m, "binary") for m in messages), link)
    settle(server, link)
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
    replies = drain(server, conn, theirs, burst, link)
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
    replies = drain(server, conn, theirs, burst, link)
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
    replies = drain(server, conn, theirs, burst, link)
    assert [r["req"] for r in replies] == list(range(1, FWD_RUN_MAX + 3))
    assert shapes(link) == [FWD_RUN_MAX, 2]
    del link.frames[:]
    drain(server, conn, theirs, [msg("open", 1)], link)
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
    settle(server, link)
    assert not conn.inbox and not conn.busy
    assert link.frames == []


def test_each_slot_keeps_its_own_error(gateway):
    server, conn, theirs, link = gateway
    burst = [msg("release", 1), msg("release", 2, "missing"), msg("release", 3)]
    replies = drain(server, conn, theirs, burst, link)
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
    replies = drain(server, conn, theirs, burst, link)
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
    replies = drain(server, conn, theirs, burst, link)
    assert [r["req"] for r in replies] == list(range(1, 8))
    assert replies[2]["error"] == ERR_PROTOCOL
    assert shapes(link) == [2, 1, 1, 1]
    assert replies[0]["available"] is True
    # The router sent every run from the loop, and the loop ran the
    # rest: nothing went to the pool but the worker's own drain.
    assert link.pool_jobs == (1 if link.on_worker else 0)


def test_an_attach_in_flight_when_its_client_leaves_is_finalized(gateway):
    """The client sends ``attach``, its connection goes while the ``fwd``
    crosses (the drop hook finds no attachment yet), then the owner's
    reply lands: the ingress records nothing and finalizes the attach."""
    server, conn, theirs, link = gateway
    feed(server, conn, encode_frame(
        {"op": "attach", "req": 1, "context": REMOTE}, "binary"), link)
    settle(server, link, land=False)
    assert link.started  # the fwd is on its way
    server._close(conn)  # the client left: the shell tears it down ...
    server._drop_client(conn)  # ... and the pool runs the drop hook
    settle(server, link)  # the reply lands on the loop
    assert link.router._ingress_ctx == {} and link.router._pending == {}
    assert [ops_of(f)[0]["op"] for f in link.frames] == ["attach", "finalize"]


def test_a_traced_run_stays_on_the_loop_and_records_its_fwd_span(gateway):
    """A traced op is a run of one like any other: sent from the loop,
    its reply settled there, its ``fwd`` span recorded as it lands."""
    server, conn, theirs, link = gateway
    replies = drain(server, conn, theirs, [msg("open", 1, tc=TC)], link)
    assert replies[0]["error"] == 0 and replies[0]["available"] is True
    assert link.frames == [dict(run_of([msg("open", 1, tc=TC)]), tc=TC)]
    assert link.pool_jobs == (1 if link.on_worker else 0)  # the drain only
    spans = {span["name"]: span for span in server.obs.trace(TC.split("-")[0])}
    assert spans["fwd"]["attrs"]["peer"] == "owner" and "op.open" in spans


def test_a_torn_link_re_sends_the_run_from_the_loop(gateway):
    """The link tears after the send: the run is re-sent on a fresh
    dial, from the loop.  The pool runs the router's blocking steps —
    the link's teardown, the dial — one job each, never the drain."""
    server, conn, theirs, link = gateway
    link.tears = 1
    burst = [msg("open", 1), msg("release", 2)]
    replies = drain(server, conn, theirs, burst, link)
    assert [(r["req"], r["error"]) for r in replies] == [(1, 0), (2, 0)]
    assert link.frames == [run_of(burst)] * 2
    drains = [fn for fn in link.ran if fn == server.drain]
    assert len(drains) == (1 if link.on_worker else 0)  # the worker's own
    assert len(link.ran) - len(drains) == 2


def test_a_hello_runs_its_forwarded_attachs_blocking_steps_itself():
    """The hello's forwarded attach is the one forward a worker waits
    for: the waiting worker runs the run's blocking steps (here the
    dial), so even a pool of one serves it, and the hello's reply line
    carries the owner's answer."""
    server = DVServer(workers=1)
    dials, link = [], OwnerLink()

    def dial(peer_id, on_fwd, on_down):
        dials.append(threading.current_thread().name)
        return link

    router = Router(
        "ingress", resolve=lambda context: ("owner", True), dial=dial,
        ready_sink=lambda note: None, is_stale=lambda owner, context: False,
        metrics=server.metrics, **on_loop(server),
    )
    # The owner answers on the loop, as a peer link's reply lands there.
    link.start = lambda frame, timeout, on_reply: (
        link.frames.append(frame),
        server.loop.call_soon(on_reply, link.reply(frame)),
    )
    server.set_cluster_hooks(route_start=router.start)
    server.start()
    try:
        sock = socket.create_connection(server.address, timeout=5.0)
        send_message(sock, {
            "op": "hello", "req": 0, "client_id": "c1", "context": REMOTE,
            "vers": PROTOCOL_VERSION, "codec": "binary",
        })
        reply = MessageReader(sock).read_message()
        sock.close()
    finally:
        server.stop()
    assert reply["error"] == 0 and reply["codec"] == "binary"
    assert dials == ["simfs-dv-worker-0"]
    assert [ops_of(frame) for frame in link.frames] == [
        [{"op": "attach", "context": REMOTE}]
    ]
    assert router._ingress_ctx == {"c1": {REMOTE: "owner"}}


def test_a_routed_run_is_observed_once_per_op_name(gateway, monkeypatch):
    """The ops of a routed run share its service time: each op is still
    one observation, made with one histogram update per op name — unless
    the run is slow, when every op gets its own span too."""
    server, conn, theirs, link = gateway
    burst = [msg("open" if i % 2 else "release", i, f"f{i}") for i in range(1, 33)]
    updates = []
    observe = Histogram.observe
    monkeypatch.setattr(Histogram, "observe", lambda hist, value, count=1: (
        updates.append((hist.name, count)), observe(hist, value, count))[1])
    drain(server, conn, theirs, burst, link)
    assert sorted(updates) == [("op.open.seconds", 16), ("op.release.seconds", 16)]
    assert server.obs.slow() == []
    server.obs.slow_threshold = 0.0
    del updates[:]
    drain(server, conn, theirs, [dict(m, req=m["req"] + 32) for m in burst], link)
    assert len(updates) == 32 and {count for _name, count in updates} == {1}
    spans = server.obs.slow(limit=100)
    assert sorted(s["name"] for s in spans) == ["op.open"] * 16 + ["op.release"] * 16


# --------------------------------------------------------------------- #
# A budget for both ends of the hop, in Python-level calls per op
# --------------------------------------------------------------------- #
#: Python-level calls per forwarded op of a shuffled 32-op run (what
#: ``gateway_open`` sends), budgets set ≈ 20 % above the readings of the
#: forwarding alone: 2.8 at the ingress, 15.0 at the owner.  The owner's
#: calls are the shard's own (the direct path makes them too) plus packing
#: the reply frames.  The ingress is measured over its whole path on the
#: event loop — ``feed``, the run sent from the loop, its reply settled
#: there and the drain resumed — and reads 2.4 (3.3 when a worker drained
#: the run and observed each op on its own; budget 3.4 then).
INGRESS_CALL_BUDGET = 2.9
OWNER_CALL_BUDGET = 18.0


class CannedLink:
    """Answers every ``fwd`` the loop sends with the reply recorded for
    it, once :meth:`land` says it arrived."""

    closed = False

    def __init__(self, reply):
        self.reply = reply
        self.started = []

    def start(self, frame, timeout, on_reply):
        self.started.append(on_reply)

    def land(self):
        self.started.pop(0)(self.reply)


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
            metrics=ingress.metrics, **on_loop(ingress),
        )
        hop.link("owner")
        ingress.set_cluster_hooks(route_start=hop.start)
        data = batch(contexts["hot"], 16)

        def ingress_step():  # the client's bytes arrive; its replies leave
            ingress.feed(client, data)  # the loop sends the run ...
            link.land()  # ... and settles its reply: no worker
            assert not client.busy and ingress.loop.work.empty()

        ingress_step()
        assert theirs.recv(1 << 16) == reply["run"]
        calls = count_calls(ingress_step) / 32
        assert 1 < calls <= INGRESS_CALL_BUDGET, f"ingress: {calls:.1f} calls per op"
    finally:
        ours.close()
        theirs.close()
