"""Sans-I/O tests of the forwarding core.

:class:`Net` wires several :class:`~repro.cluster.router.Router` members
together with in-memory links on one :class:`VirtualLoop`: a forwarded
run is a continuation on it, a "peer round trip" is a call into the
owner's ``on_fwd`` one hand-off after the send, a ``ready`` is a direct
call into the ingress's ``on_link_fwd``, a worker job is a hand-off, and
time only moves when a timer of the router's is due.  Each member's
shards are a dict-backed stand-in that answers with the real error codes
and detail strings.  A run — a run of one included — crosses the fake
link the way it crosses the real one: one packed ``fwd`` frame carrying
the client's frames (``pack_run``), answered with the reply frames the
client reads, refused whole by the owner's validation or by the wire's
frame limit.
"""

import copy
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import router as router_module
from repro.cluster.link import DialBackingOff, PeerTimeout
from repro.cluster.router import Router
from repro.core.errors import (
    DETAIL_ALREADY_ATTACHED,
    DETAIL_NOT_ATTACHED,
    DVConnectionLost,
    ErrorCode,
    ProtocolError,
    SimFSError,
)
from repro.dv.coordinator import Notification
from repro.dv.protocol import (
    FWD_RUN_MAX,
    MARK_BODY,
    decode_frames,
    encode_frame,
    pack_run,
    unpack_run_reply,
)
from repro.dv.core import reply_frame, reply_payloads
from repro.metrics import MetricsRegistry
from tests.dv.test_protocol_runs import MALFORMED_RUNS, run_body
from tests.virtual_loop import VirtualLoop

CTX = "alpha"
ERR_CONTEXT = int(ErrorCode.ERR_CONTEXT)
ERR_INVALID = int(ErrorCode.ERR_INVALID)
ERR_CONNECTION = int(ErrorCode.ERR_CONNECTION)
ERR_PROTOCOL = int(ErrorCode.ERR_PROTOCOL)


class FakeConn:
    """The owner's server-side view of a peer's link."""

    def __init__(self, peer):
        self.peer = peer
        self.client_id = f"node:{peer}"


class ClientConn:
    """The ingress's view of a client connection (the route hook's)."""

    def __init__(self, client_id):
        self.client_id = client_id


class FakeLink:
    def __init__(self, net, src, dst, on_fwd, on_down):
        self.net, self.src, self.dst = net, src, dst
        self.on_down = on_down
        self.closed = False
        self.frames, self.oversized = [], []
        net.links.append(self)

    def close(self):
        self.closed = True

    def call(self, frame, timeout=None):
        return self.answer(self.request(frame))

    def start(self, frame, timeout, on_reply):
        """The loop's send: the owner answers one hand-off later."""
        request = self.request(frame)

        def land():
            try:
                reply = self.answer(request)
            except DVConnectionLost as exc:
                reply = exc
            on_reply(reply)

        self.net.loop.call_soon(land)

    def request(self, frame):
        request = dict(frame, req=1)  # what the channel sends
        try:
            encode_frame(request, "binary")
        except ProtocolError:  # past the wire's frame limit: nothing leaves
            self.oversized.append(frame)
            raise
        self.frames.append(frame)
        return request

    def answer(self, request):
        if self.dst in self.net.down:
            raise DVConnectionLost(f"{self.dst} is down")
        if self.dst in self.net.slow:
            raise PeerTimeout(f"{self.dst} is slow")
        try:
            reply = self.net.members[self.dst].router.on_fwd(
                FakeConn(self.src), request
            )
        except SimFSError as exc:  # what DVServer._answer answers
            reply = {"error": int(exc.code), "detail": str(exc)}
        return dict(reply, op="fwd_reply")

    def send(self, frame):
        if self.dst in self.net.down:
            raise DVConnectionLost(f"{self.dst} is down")
        self.net.members[self.dst].router.on_fwd(FakeConn(self.src), frame)


def per_op(execute):
    """The router's ``execute_local`` hook takes a client's ops as a list
    and returns their reply frames; the fakes here answer one op at a
    time with a payload."""
    return lambda proxy, messages: [
        reply_frame(message, {"error": 0, **execute(proxy, message)})
        for message in messages
    ]


def run_frame(origin, client_id, ops, slots=None):
    """The packed ``fwd`` a run crosses as: slot ``i`` of what the client
    pipelined carries ``req == i``."""
    slots = range(len(ops)) if slots is None else slots
    return pack_run(origin, client_id, [
        dict(inner, req=slot) for slot, inner in zip(slots, ops)
    ])


class Member:
    """One router plus dict-backed shards and the readies it delivered."""

    def __init__(self, net, member_id, policy):
        self.net, self.id = net, member_id
        self.active = set()
        self.attached = {}   # context -> {client_id}
        self.waiting = set()  # (client_id, context, file)
        self.local = set()    # clients connected here (as DVServer knows)
        self.delivered = []
        self.executed = []    # (client_id, op, file) in execution order
        self.unreachable, self.timeouts = [], []
        self.on_unreachable = self.unreachable.append
        stale = {
            "dead": lambda owner, context: owner in net.down,
            "moved": lambda owner, context: net.owners.get(context) != owner,
        }[policy]
        self.router = Router(
            member_id,
            resolve=lambda c: (net.owners.get(c), c in net.catalog),
            dial=self.dial,
            execute_local=per_op(self.execute),
            ready_sink=self.delivered.append,
            send=lambda conn, frame: net.members[conn.peer].router
            .on_link_fwd(frame),
            on_unreachable=lambda peer: self.on_unreachable(peer),
            on_timeout=self.timeouts.append,
            is_stale=stale,
            metrics=MetricsRegistry(),
            rpc_timeout=10.0,
            submit=net.loop.submit,
            loop=net.loop,
        )

    def dial(self, peer_id, on_fwd, on_down):
        wait = self.net.backoff.get((self.id, peer_id), 0.0) - self.net.loop.time()
        if wait > 0:
            raise DialBackingOff(peer_id, wait)
        if peer_id in self.net.down:
            raise DVConnectionLost(f"cannot reach {peer_id}")
        return FakeLink(self.net, self.id, peer_id, on_fwd, on_down)

    def execute(self, proxy, inner):
        op, context, cid = inner["op"], inner.get("context"), proxy.client_id
        self.executed.append((cid, op, inner.get("file")))
        if context not in self.active:
            return {"error": ERR_CONTEXT, "detail": "unknown context"}
        clients = self.attached.setdefault(context, set())
        if op == "attach":
            if cid in clients:
                return {"error": ERR_INVALID, "detail": DETAIL_ALREADY_ATTACHED}
            clients.add(cid)
            proxy.contexts.add(context)
            return {}
        if cid not in clients:
            return {"error": ERR_INVALID, "detail": DETAIL_NOT_ATTACHED}
        if op == "finalize":
            clients.discard(cid)
            proxy.contexts.discard(context)
            self.waiting = {w for w in self.waiting if w[:2] != (cid, context)}
        elif op == "open":
            if inner["file"] in self.net.resident:
                return {"available": True}
            self.waiting.add((cid, context, inner["file"]))
            return {"available": False}
        return {}

    def forward(self, client_id, inner):
        """A client connected here sends an op for a routed context: a
        run of one."""
        (payload,) = self.forward_many(client_id, [inner])
        return payload

    def forward_many(self, client_id, inners):
        """The same client pipelines a run of ops for one context: the
        route hook's reply frames — exactly one per request, in request
        order — back as payloads, once the loop has settled the run."""
        self.local.add(client_id)
        answered = []
        self.router.start(ClientConn(client_id), [
            dict(inner, req=slot) for slot, inner in enumerate(inners)
        ], answered.append)
        self.net.loop.run()
        (data,) = answered
        assert [r["req"] for r in decode_frames(data)] == list(range(len(inners)))
        return reply_payloads(data)

    def produce(self, filename):
        """A re-simulation landed ``filename``: notify its waiters the way
        ``DVServer._push_ready`` does — local clients directly, the rest
        through the ready-router hook."""
        self.net.resident.add(filename)
        for key in sorted(w for w in self.waiting if w[2] == filename):
            self.waiting.discard(key)
            ready = Notification(*key, ok=True)
            if key[0] in self.local:
                self.router.deliver_ready(ready)
            else:
                self.router.route_ready(ready)
        self.net.loop.run()


class Net:
    def __init__(self, *member_ids, policy="dead", owner=None):
        self.loop = VirtualLoop()
        self.catalog = {CTX}
        self.owners = {}
        self.down, self.slow = set(), set()
        self.backoff = {}   # (src, dst) -> dial allowed again at
        self.resident = set()
        self.links = []
        self.members = {m: Member(self, m, policy) for m in member_ids}
        if owner:
            self.assign(owner)

    def assign(self, owner, activate=True):
        self.owners[CTX] = owner
        if activate:
            self.members[owner].active.add(CTX)

    def kill(self, member_id):
        self.down.add(member_id)
        for member in self.live():
            member.router.drop_client(f"node:{member_id}")
        self.loop.run()

    def live(self):
        return [m for m in self.members.values() if m.id not in self.down]

    def reconcile(self):
        """What every deployment does after a membership change."""
        for member in self.live():
            member.router.replay(*member.router.stale())
        self.loop.run()


def op(name, filename=None, context=CTX):
    inner = {"op": name, "context": context}
    if filename is not None:
        inner["file"] = filename
    return inner


def tables(router):
    return router._proxies, router._ingress_ctx, router._pending


class TestForward:
    def test_hop_and_ready_round_trip(self):
        net = Net("a", "b", owner="a")
        a, b = net.members["a"], net.members["b"]
        assert b.forward("c1", op("attach")) == {"error": 0}
        assert b.forward("c1", op("open", "f1")) == {
            "available": False, "error": 0,
        }
        assert b.router._pending == {("c1", CTX, "f1"): "a"}
        assert a.router._proxies["c1"].origin == "b"
        a.produce("f1")
        assert b.delivered == [Notification("c1", CTX, "f1", ok=True)]
        assert b.router._pending == {}

    def test_fwd_frame_is_exactly_pack_run_plus_hoisted_tc(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        b.forward("c1", op("attach"))
        tc = f"{0x11:016x}-{0x22:016x}-01"
        traced = dict(op("open", "f1"), tc=tc)
        b.forward("c1", traced)
        # A tc that does not parse is untraced: it rides in its op only.
        garbled = dict(op("open", "f2"), tc="00-11-01")
        b.forward("c1", garbled)
        plain, hoisted, unhoisted = net.links[0].frames
        assert plain == run_frame("b", "c1", [op("attach")])
        assert hoisted == dict(run_frame("b", "c1", [traced]), tc=tc)
        assert unhoisted == run_frame("b", "c1", [garbled])

    def test_unknown_context_fails_without_a_hop(self):
        net = Net("a", "b", owner="a")
        payload = net.members["b"].forward("c1", op("attach", context="nope"))
        assert payload["error"] == ERR_CONTEXT
        assert net.links == [] and net.loop.delays == []

    def test_dead_owner_failover_and_replay(self):
        net = Net("a", "b", "c", owner="a")
        a, b, c = (net.members[m] for m in "abc")
        b.forward("c1", op("attach"))
        b.forward("c1", op("open", "f1"))
        net.kill("a")
        net.assign("c")  # membership moved the context
        net.reconcile()
        assert b.router._ingress_ctx == {"c1": {CTX: "c"}}
        assert b.router._pending == {("c1", CTX, "f1"): "c"}
        assert c.waiting == {("c1", CTX, "f1")}
        c.produce("f1")
        assert b.delivered == [Notification("c1", CTX, "f1", ok=True)]
        assert b.router._pending == {}

    def test_torn_link_reports_then_follows_the_new_owner(self):
        net = Net("a", "b", "c", owner="a")
        b = net.members["b"]
        b.forward("c1", op("attach"))
        net.down.add("a")

        def membership_reacts(peer):
            b.unreachable.append(peer)
            net.assign("c")

        b.on_unreachable = membership_reacts
        payload = b.forward("c1", op("open", "f1"))
        assert payload == {"available": False, "error": 0}
        assert b.unreachable == ["a"]
        assert net.loop.delays == [0.02]
        assert b.router._ingress_ctx == {"c1": {CTX: "c"}}  # re-attached
        assert b.router._pending == {("c1", CTX, "f1"): "c"}

    def test_unreachable_owner_gives_up_at_the_deadline(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        net.down.add("a")
        payload = b.forward("c1", op("attach"))
        assert payload["error"] == ERR_CONNECTION
        assert "unreachable" in payload["detail"]
        assert 10.0 <= net.loop.now < 10.1
        assert b.router._links == {}

    def test_activation_lag_retries_until_the_owner_catches_up(self):
        net = Net("a", "b")
        net.assign("a", activate=False)
        a, b = net.members["a"], net.members["b"]
        calls = []
        original = a.execute

        def lagging(proxy, inner):
            calls.append(inner["op"])
            if len(calls) == 3:
                a.active.add(CTX)
            return original(proxy, inner)

        a.router._execute_local = per_op(lagging)
        assert b.forward("c1", op("attach")) == {"error": 0}
        assert len(calls) == 3 and net.loop.delays == [0.05] * 2

    def test_activation_lag_gives_up_at_the_deadline(self):
        net = Net("a", "b")
        net.assign("a", activate=False)
        payload = net.members["b"].forward("c1", op("attach"))
        assert payload["error"] == ERR_CONTEXT
        assert 10.0 <= net.loop.now < 10.1
        assert net.members["a"].router._proxies == {}

    def test_not_attached_reattaches_and_retries(self):
        net = Net("a", "b", "c", policy="moved", owner="a")
        b, c = net.members["b"], net.members["c"]
        b.forward("c1", op("attach"))
        net.assign("c")  # moved before any replay told c about c1
        payload = b.forward("c1", op("open", "f1"))
        assert payload == {"available": False, "error": 0}
        assert c.attached[CTX] == {"c1"}
        assert b.router._ingress_ctx == {"c1": {CTX: "c"}}

    def test_an_already_attached_answer_records_the_attachment(self):
        """The owner still holds the client's attachment (the client's own
        connection to it is going away) and answers the forwarded attach
        "already attached": the client is attached through here, so when
        the old connection's teardown detaches it, the next op re-attaches
        and is retried instead of failing "not attached"."""
        net = Net("a", "b", owner="a")
        a, b = net.members["a"], net.members["b"]
        a.attached[CTX] = {"c1"}
        assert DETAIL_ALREADY_ATTACHED in b.forward("c1", op("attach"))["detail"]
        assert b.router._ingress_ctx == {"c1": {CTX: "a"}}
        a.attached[CTX].discard("c1")  # the teardown of the old connection
        assert b.forward("c1", op("open", "f1")) == {
            "available": False, "error": 0,
        }
        assert a.attached[CTX] == {"c1"}

    def test_not_attached_is_final_for_a_client_never_attached_here(self):
        net = Net("a", "b", owner="a")
        payload = net.members["b"].forward("c1", op("open", "f1"))
        assert payload["error"] == ERR_INVALID
        assert net.loop.delays == []

    def test_timeout_reports_without_exiling(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        b.forward("c1", op("attach"))
        net.slow.add("a")
        payload = b.forward("c1", op("open", "f1"))
        assert payload["error"] == ERR_CONNECTION
        assert "timed out" in payload["detail"]
        assert b.timeouts == ["a"] and b.unreachable == []
        assert "a" in b.router._links  # the link stays
        assert b.router._pending == {}

    def test_dial_backoff_waits_the_window_out_and_tells_nobody(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        net.backoff[("b", "a")] = 0.75
        assert b.forward("c1", op("attach")) == {"error": 0}
        assert net.loop.delays == [0.75]
        assert b.unreachable == [] and b.timeouts == []

    def test_dial_backoff_longer_than_the_deadline_fails_the_op_only(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        net.backoff[("b", "a")] = 60.0
        payload = b.forward("c1", op("attach"))
        assert payload["error"] == ERR_CONNECTION
        assert net.loop.delays == [10.0] and b.unreachable == []


class TestLink:
    def test_concurrent_callers_share_one_dial(self):
        """A peer admits one connection per node id: two threads wanting
        a link at once must not both dial (the second hello would be
        refused and read as a failed dial to a healthy peer)."""
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        dial, dials = b.router._dial, []
        first_in, release = threading.Event(), threading.Event()

        def slow_dial(peer_id, **callbacks):
            dials.append(peer_id)
            first_in.set()
            assert release.wait(5.0)
            return dial(peer_id, **callbacks)

        b.router._dial = slow_dial
        got = []
        callers = [
            threading.Thread(target=lambda: got.append(b.router.link("a")))
            for _ in range(2)
        ]
        callers[0].start()
        assert first_in.wait(5.0)
        callers[1].start()  # queues behind the dial in flight
        release.set()
        for caller in callers:
            caller.join(5.0)
            assert not caller.is_alive()
        assert dials == ["a"]
        assert len(got) == 2 and got[0] is got[1]
        assert len(net.links) == 1 and not net.links[0].closed


class Answering:
    """A link that answers any request by echoing it."""

    closed = False

    def call(self, message, timeout=None):
        return {"echo": message, "timeout": timeout}


@pytest.fixture
def net(monkeypatch):
    """Two members whose blocking ``call`` sleeps on the loop's clock."""
    net = Net("a", "b")
    monkeypatch.setattr(router_module, "time", SimpleNamespace(
        monotonic=net.loop.time, sleep=net.loop.sleep,
    ))
    return net


class TestCall:
    def test_a_dial_backoff_is_waited_out_and_tells_nobody(self, net):
        b = net.members["b"]
        dials = []

        def backs_off_once(peer_id, **callbacks):
            dials.append(net.loop.time())
            if len(dials) == 1:
                raise DialBackingOff(peer_id, 0.4)
            return Answering()

        b.router._dial = backs_off_once
        reply = b.router.call("a", {"op": "metrics_text"})
        assert reply == {"echo": {"op": "metrics_text"}, "timeout": 10.0}
        assert dials == [0.0, 0.4] and net.loop.delays == [0.4]
        assert b.unreachable == [] and b.timeouts == []

    def test_a_backoff_past_rpc_timeout_raises_at_the_deadline(self, net):
        b = net.members["b"]
        net.backoff[("b", "a")] = 60.0
        with pytest.raises(DialBackingOff):
            b.router.call("a", {"op": "metrics_text"})
        assert net.loop.delays == [10.0] and b.unreachable == []


class TestStale:
    def setup_net(self, policy):
        net = Net("a", "b", "c", policy=policy, owner="a")
        b = net.members["b"]
        b.forward("c1", op("attach"))
        b.forward("c1", op("open", "f1"))
        return net, b

    def test_dead_policy_ignores_a_live_former_owner(self):
        net, b = self.setup_net("dead")
        net.assign("c")  # migrated away; a is alive and carried its waiters
        assert b.router.stale() == ([], [])
        assert b.router._pending == {("c1", CTX, "f1"): "a"}
        net.down.add("a")
        assert b.router.stale() == ([("c1", CTX)], [("c1", CTX, "f1")])
        assert b.router._pending == {}  # handed to the caller for replay

    def test_moved_policy_fires_on_any_owner_change(self):
        net, b = self.setup_net("moved")
        assert b.router.stale() == ([], [])
        net.assign("c")
        assert b.router.stale() == ([("c1", CTX)], [("c1", CTX, "f1")])

    def test_replay_of_a_resident_file_resolves_on_the_spot(self):
        net, b = self.setup_net("moved")
        net.assign("c")
        net.resident.add("f1")
        net.reconcile()
        assert b.delivered == [Notification("c1", CTX, "f1", ok=True)]
        assert b.router._pending == {}

    def test_replay_that_cannot_attach_fails_the_wait(self):
        net, b = self.setup_net("moved")
        net.owners.pop(CTX)  # nobody serves it any more
        b.router.replay([], [("c1", CTX, "f1")])
        net.loop.run()
        assert b.delivered == [Notification("c1", CTX, "f1", ok=False)]


class TestOwnerSide:
    def test_failed_first_op_leaves_no_proxy(self):
        net = Net("a", "b", owner="a")
        a, b = net.members["a"], net.members["b"]
        for client in ("c1", "c2", "c3"):
            assert b.forward(client, op("open", "f1"))["error"]
            assert b.forward(client, op("attach", context="nope"))["error"]
        assert a.router._proxies == {}
        b.forward("c4", op("attach"))
        assert set(a.router._proxies) == {"c4"}
        b.forward("c4", op("finalize"))
        assert a.router._proxies == {}

    def test_an_op_failing_beside_an_attach_in_flight_keeps_the_proxy(self):
        net = Net("a", "b", owner="a")
        a = net.members["a"]
        original = a.execute

        def attach_races_an_open(proxy, inner):
            if inner["op"] == "attach":
                (racing,) = a.router.run_local("c1", [op("open", "f1")])
                assert reply_payloads(racing)[0]["error"] == ERR_INVALID
                assert "c1" in a.router._proxies  # not reaped mid-attach
            return original(proxy, inner)

        a.router._execute_local = per_op(attach_races_an_open)
        net.members["b"].forward("c1", op("attach"))
        assert a.router._proxies["c1"].contexts == {CTX}

    def test_peer_link_drop_disconnects_what_it_proxied(self):
        net = Net("a", "b", owner="a")
        a, b = net.members["a"], net.members["b"]
        b.forward("c1", op("attach"))
        b.forward("c1", op("open", "f1"))
        a.router.drop_client("node:b")
        assert a.router._proxies == {}
        assert a.attached[CTX] == set() and a.waiting == set()

    def test_restored_state_routes_readies_by_origin(self):
        """A promoted owner holds only names: its first ready for a
        restored waiter dials the origin, whose fwd handler delivers."""
        net = Net("a", "b", "c", owner="c")
        b, c = net.members["b"], net.members["c"]
        b.router.track("c1", [op("attach"), op("open", "f1")], [
            (None, {}, "a"), (None, {"available": False}, "a"),
        ])
        c.router.restore_proxies(CTX, ["c1", "c2"], [["c1", "f1", "b"]])
        c.attached[CTX] = {"c1", "c2"}
        c.waiting.add(("c1", CTX, "f1"))
        assert c.router.origin_of("c1") == "b"
        assert c.router.origin_of("c2") is None
        # A restored client's first op must not cost it its proxy.
        assert b.forward("c2", op("open", "f1"))["error"] == 0
        assert c.router._proxies["c2"].contexts == {CTX}
        c.produce("f1")
        assert Notification("c1", CTX, "f1", ok=True) in b.delivered
        assert b.router._pending == {}

    def test_handoff_makes_the_source_the_ingress_of_what_it_gave_away(self):
        net = Net("a", "b", "c", owner="a")
        a, b = net.members["a"], net.members["b"]
        b.forward("remote", op("attach"))
        a.router.adopt_handoff(
            CTX, "c", [["local", "f1", "a"], ["remote", "f2", "b"]],
            ["local", "remote"],
        )
        assert a.router._pending == {
            ("local", CTX, "f1"): "c", ("remote", CTX, "f2"): "c",
        }
        assert a.router._ingress_ctx == {"local": {CTX: "c"}}



def attached_pair(policy="dead", third=False):
    """Owner ``a``, ingress ``b`` (and a spare ``c``), client c1 attached."""
    net = Net("a", "b", *(["c"] if third else []), policy=policy, owner="a")
    net.members["b"].forward("c1", op("attach"))
    return net


RUN = [op("open", "f1"), op("open", "f2"), op("release", "f1"), op("wclose", "f3")]


class TestRuns:
    def test_a_run_is_one_frame_answered_in_slot_order(self):
        net, twin = attached_pair(), attached_pair()
        net.resident.add("f2")
        twin.resident.add("f2")
        a, b = net.members["a"], net.members["b"]
        payloads = b.forward_many("c1", RUN)
        assert payloads == [twin.members["b"].forward("c1", inner) for inner in RUN]
        assert payloads == [
            {"available": False, "error": 0}, {"available": True, "error": 0},
            {"error": 0}, {"error": 0},
        ]
        attach, run = net.links[0].frames
        assert run == run_frame("b", "c1", RUN)
        assert a.executed[1:] == [("c1", i["op"], i["file"]) for i in RUN]
        # Exactly what one-by-one forwarding leaves behind.
        assert b.router._pending == twin.members["b"].router._pending == {}
        assert b.router._ingress_ctx == twin.members["b"].router._ingress_ctx
        assert b.forward_many("c1", [op("open", "f1"), op("open", "f3")])
        assert b.router._pending == {
            ("c1", CTX, "f1"): "a", ("c1", CTX, "f3"): "a",
        }
        counters = b.router._m_fwd_sent.value, b.router._m_fwd_frames.value
        assert counters == (1 + len(RUN) + 2, 3)
        assert a.router._m_fwd_recv.value == 1 + len(RUN) + 2

    def test_a_run_of_one_is_packed_like_any_run(self):
        net = attached_pair()
        inner = op("open", "f1")
        net.members["b"].forward_many("c1", [inner])
        frame = dict(net.links[0].frames[-1], req=5)
        assert encode_frame(frame, "binary") == encode_frame(
            dict(run_frame("b", "c1", [inner]), req=5), "binary"
        )

    def test_owner_down_mid_run_resends_every_slot_to_the_new_owner(self):
        net = attached_pair(third=True)
        a, b, c = (net.members[m] for m in "abc")
        net.down.add("a")

        def membership_reacts(peer):
            b.unreachable.append(peer)
            net.assign("c")

        b.on_unreachable = membership_reacts
        payloads = b.forward_many("c1", RUN)
        assert [p["error"] for p in payloads] == [0] * len(RUN)
        assert b.unreachable == ["a"] and net.loop.delays == [0.02]
        # c saw the run (refused: c1 unknown), one attach, then the run
        # again — each op answered once, in order.
        to_c = net.links[-1].frames
        assert to_c == [
            run_frame("b", "c1", RUN),
            pack_run("b", "c1", [op("attach")]),
            run_frame("b", "c1", RUN),
        ]
        assert [e[1:] for e in c.executed if e[1] != "attach"][len(RUN):] == [
            (i["op"], i["file"]) for i in RUN
        ]
        assert a.executed == [("c1", "attach", None)]
        assert b.router._pending == {
            ("c1", CTX, "f2"): "c",
        }

    def test_slow_owner_fails_every_slot_once_and_resends_nothing(self):
        net = attached_pair()
        b = net.members["b"]
        net.slow.add("a")
        payloads = b.forward_many("c1", RUN)
        assert all(
            p["error"] == ERR_CONNECTION and "timed out" in p["detail"]
            for p in payloads
        )
        assert b.timeouts == ["a"] and b.unreachable == []
        assert net.links[0].frames[1:] == [run_frame("b", "c1", RUN)]
        assert b.router._pending == {} and net.loop.delays == []

    def test_not_attached_reattaches_once_then_reruns_the_run(self):
        net = attached_pair(policy="moved", third=True)
        b, c = net.members["b"], net.members["c"]
        net.assign("c")  # moved before any replay told c about c1
        payloads = b.forward_many("c1", RUN)
        assert [p["error"] for p in payloads] == [0] * len(RUN)
        assert net.links[-1].frames == [
            run_frame("b", "c1", RUN),
            pack_run("b", "c1", [op("attach")]),
            run_frame("b", "c1", RUN),
        ]
        assert b.router._ingress_ctx == {"c1": {CTX: "c"}}
        assert b.router._pending == {("c1", CTX, "f2"): "c"}

    def test_activation_lag_retries_only_the_refused_slots_after_a_beat(self):
        net = Net("a", "b")
        net.assign("a", activate=False)
        a, b = net.members["a"], net.members["b"]
        a.attached[CTX] = {"c1"}
        original = a.execute

        def activates_after_the_first_op(proxy, inner):
            payload = original(proxy, inner)
            a.active.add(CTX)
            return payload

        a.router._execute_local = per_op(activates_after_the_first_op)
        payloads = b.forward_many("c1", RUN)
        assert [p["error"] for p in payloads] == [0] * len(RUN)
        assert net.loop.delays == [0.05] and net.loop.now < b.router.rpc_timeout
        assert net.links[0].frames == [
            run_frame("b", "c1", RUN), run_frame("b", "c1", RUN[:1]),
        ]
        # The other slots kept their first answers: none ran twice.
        assert [e[1:] for e in a.executed] == [
            (i["op"], i["file"]) for i in RUN + RUN[:1]
        ]

    def test_activation_lag_on_a_whole_run_gives_up_at_the_deadline(self):
        net = Net("a", "b")
        net.assign("a", activate=False)
        payloads = net.members["b"].forward_many("c1", RUN)
        assert [p["error"] for p in payloads] == [ERR_CONTEXT] * len(RUN)
        assert 10.0 <= net.loop.now < 10.1

    def test_a_run_past_the_frame_limit_goes_as_frames_of_one(self):
        net = attached_pair()
        b = net.members["b"]
        big = [op("open", f"f{i}-" + "x" * 400_000) for i in range(3)]
        payloads = b.forward_many("c1", big)
        assert payloads == [{"available": False, "error": 0}] * 3
        link = net.links[0]
        assert link.oversized == [run_frame("b", "c1", big)]
        assert link.frames[1:] == [
            run_frame("b", "c1", [inner], [slot]) for slot, inner in enumerate(big)
        ]
        assert len(b.router._pending) == 3

    def test_a_single_op_past_the_frame_limit_fails_alone(self):
        net = attached_pair()
        b = net.members["b"]
        ops = [op("open", "f1"), op("open", "x" * 1_100_000), op("open", "f2")]
        payloads = b.forward_many("c1", ops)
        assert [p["error"] for p in payloads] == [0, ERR_PROTOCOL, 0]
        assert net.members["a"].executed[1:] == [
            ("c1", "open", "f1"), ("c1", "open", "f2"),
        ]

    def test_self_owned_run_executes_locally_in_order(self):
        net = Net("a", "b", owner="b")
        b = net.members["b"]
        b.forward("c1", op("attach"))
        payloads = b.forward_many("c1", RUN)
        assert [p["error"] for p in payloads] == [0] * len(RUN)
        assert b.executed[1:] == [("c1", i["op"], i["file"]) for i in RUN]
        assert net.links == []

    def test_unserved_context_fails_every_slot_without_a_hop(self):
        net = Net("a", "b", owner="a")
        ops = [op("open", "f1", context="nope"), op("release", "f1", context="nope")]
        payloads = net.members["b"].forward_many("c1", ops)
        assert [p["error"] for p in payloads] == [ERR_CONTEXT] * 2
        assert net.links == []


class TestRunValidation:
    """The owner refuses a malformed run whole: one ``ERR_PROTOCOL``
    reply, nothing executed — while its well-formed twin runs."""

    def setup_method(self):
        self.net = attached_pair()
        self.owner = self.net.members["a"]
        self.link = self.net.links[0]
        del self.owner.executed[:]

    def call(self, run=None, **shape):
        """One packed ``fwd`` built by hand (``run_body``)."""
        if run is None:
            run = run_body(origin=b"b", **shape)
        return self.link.call({"op": "fwd", "run": run})

    def test_the_well_formed_twin_executes(self):
        pair = [dict(op("open", "f1"), req=0), dict(op("release", "f1"), req=1)]
        frames, marks = unpack_run_reply(self.call(ops=pair), 2)
        assert reply_payloads(b"".join(frames)) == [
            {"available": False, "error": 0}, {"error": 0},
        ]
        # The stand-in's miss is a JSON reply, a body to read (a shard's
        # is packed: MARK_MISS); the release is a plain success.
        assert marks == {0: MARK_BODY}
        full = self.call(ops=[dict(op("wclose", "f1"), req=7)] * FWD_RUN_MAX)
        assert len(unpack_run_reply(full, FWD_RUN_MAX)[0]) == FWD_RUN_MAX
        assert len(self.owner.executed) == 2 + FWD_RUN_MAX

    @pytest.mark.parametrize("name", sorted(MALFORMED_RUNS))
    def test_a_malformed_run_is_refused_whole(self, name):
        reply = self.call(MALFORMED_RUNS[name])
        assert reply["error"] == ERR_PROTOCOL and "run" not in reply
        assert self.owner.executed == []
        assert self.owner.router._m_fwd_recv.value == 1  # the attach only

    @pytest.mark.parametrize("run", [None, "text"], ids=repr)
    def test_a_run_that_is_no_bytes_is_refused_too(self, run):
        reply = self.link.call({"op": "fwd", "run": run})
        assert reply["error"] == ERR_PROTOCOL and self.owner.executed == []

    def test_a_fwd_that_is_no_run_and_no_ready_is_refused(self):
        """The retired single-``inner`` request shape: a request is
        answered ``ERR_PROTOCOL``; a one-way frame, which nobody waits
        on, gets no answer."""
        frame = {"op": "fwd", "origin": "b", "client": "c1",
                 "inner": op("open", "f1")}
        reply = self.link.call(frame)
        assert reply["error"] == ERR_PROTOCOL and "run or a routed ready" in reply["detail"]
        assert self.owner.router.on_fwd(FakeConn("b"), frame) is None
        assert self.owner.executed == []

    def test_the_ingress_fails_every_slot_of_a_refused_run(self):
        b = self.net.members["b"]
        payloads = b.forward_many("c1", [op("open", "f1"), op("ready", "f1")])
        assert [p["error"] for p in payloads] == [ERR_PROTOCOL] * 2
        assert self.owner.executed == [] and b.router._pending == {}

    def test_an_unroutable_inner_refuses_the_run_whole(self):
        """The table does not forward ``stats``: a run holding one came
        from a broken peer, and none of it executes."""
        b = self.net.members["b"]
        payloads = b.forward_many(
            "c1", [op("open", "f1"), op("stats"), op("release", "f1")]
        )
        assert [p["error"] for p in payloads] == [ERR_PROTOCOL] * 3
        assert "'stats' cannot be forwarded" in payloads[1]["detail"]
        assert self.owner.executed == []


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["attach", "open", "open", "release", "finalize", "drop",
             "produce", "kill", "run", "run"]
        ),
        st.integers(0, 5),   # client (its ingress is member client % 3)
        st.integers(0, 3),   # file
        st.integers(0, 2),   # member to kill
        st.lists(            # the ops of a "run"
            st.tuples(
                st.sampled_from(["open", "release", "wclose"]), st.integers(0, 3)
            ),
            min_size=1, max_size=6,
        ),
    ),
    max_size=40,
)
IDS = ["m0", "m1", "m2"]


def churn(actions, policy, bundled):
    """Play ``actions`` on a fresh net; a "run" crosses the hop as one
    ``forward_many`` when ``bundled``, else op by op.  Returns everything
    the two ways must agree on: every payload, and what each step left in
    the routers' tables and the owners' shard stand-ins."""
    net = Net(*IDS, policy=policy, owner="m0")
    blocked = set()  # (client, file): open missed, ready still owed
    transcript = []

    def ingress(client):
        member = net.members[IDS[int(client[1:]) % 3]]
        return None if member.id in net.down else member

    def collect_readies():
        for member in net.live():
            for ready in member.delivered:
                assert ready.ok
                blocked.discard((ready.client_id, ready.filename))
            member.delivered.clear()

    def state():
        return copy.deepcopy([(
            m.id, m.attached, m.waiting, m.router._ingress_ctx, m.router._pending,
            {cid: (proxy.origin, getattr(proxy.conn, "peer", None), proxy.contexts)
             for cid, proxy in m.router._proxies.items()},
        ) for m in net.live()])

    for action, c, f, m, run in actions:
        client, filename, member = f"c{c}", f"f{f}", ingress(f"c{c}")
        if action == "kill":
            if IDS[m] in net.down or len(net.live()) == 1:
                continue
            net.kill(IDS[m])
            if net.owners[CTX] == IDS[m]:
                net.assign(net.live()[0].id)
            net.reconcile()
            blocked = {b for b in blocked if ingress(b[0]) is not None}
        elif action == "produce":
            for live in net.live():
                live.produce(filename)
        elif member is None:
            continue
        elif action == "drop":
            member.router.drop_client(client)
            member.local.discard(client)
            net.loop.run()
            blocked = {b for b in blocked if b[0] != client}
        else:
            if action == "run":
                ops = [op(name, f"f{n}") for name, n in run]
            else:
                routed = action in ("open", "release")
                ops = [op(action, filename if routed else None)]
            if bundled:
                payloads = member.forward_many(client, ops)
            else:
                payloads = [member.forward(client, inner) for inner in ops]
            transcript.append(payloads)
            for inner, payload in zip(ops, payloads):
                if payload["error"]:
                    continue
                if inner["op"] == "open" and not payload["available"]:
                    blocked.add((client, inner["file"]))
                elif inner["op"] == "release":
                    blocked.discard((client, inner["file"]))
                elif inner["op"] == "finalize":
                    blocked = {b for b in blocked if b[0] != client}
        collect_readies()
        transcript.append(state())

    for f in range(4):
        for live in net.live():
            live.produce(f"f{f}")
    collect_readies()
    assert blocked == set()
    for c in range(6):
        member = ingress(f"c{c}")
        if member is not None:
            if c % 2:
                member.forward(f"c{c}", op("finalize"))
                assert not member.router._ingress_ctx.get(f"c{c}")
            member.router.drop_client(f"c{c}")
    net.loop.run()
    for member in net.live():
        assert tables(member.router) == ({}, {}, {})
        member.router.close()
        assert member.router._links == {}
    assert all(
        link.closed for link in net.links if link.src not in net.down
    )
    return transcript


@settings(max_examples=200, deadline=None)
@given(actions=ACTIONS, policy=st.sampled_from(["dead", "moved"]))
def test_churn_strands_no_waiter_and_leaves_every_table_empty(actions, policy):
    """Clients attach, block, pipeline runs of ops and leave while owners
    and ingresses die.  Every open that blocked gets its ready once the
    file exists, and once every client has finalized or dropped no
    surviving member holds a proxy, an attachment, a pending wait or an
    open link.  And the contract of forwarding runs: however the ops are
    split into runs, every payload, the owners' shard stand-ins, the
    proxy tables and the pending waits are what forwarding them one by
    one gives."""
    assert churn(actions, policy, bundled=True) == churn(
        actions, policy, bundled=False
    )
