"""Sans-I/O tests of the forwarding core.

:class:`Net` wires several :class:`~repro.cluster.router.Router` members
together with in-memory links and one fake clock: a "peer round trip" is
a direct call into the owner's ``on_fwd``, a ``ready`` is a direct call
into the ingress's ``on_link_fwd``, and time only moves when the router
sleeps.  Each member's shards are a dict-backed stand-in that answers
with the real error codes and detail strings.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.link import DialBackingOff, PeerTimeout
from repro.cluster.router import Router
from repro.core.errors import (
    DETAIL_ALREADY_ATTACHED,
    DETAIL_NOT_ATTACHED,
    DVConnectionLost,
    ErrorCode,
)
from repro.dv.coordinator import Notification
from repro.dv.protocol import encode_frame, make_fwd
from repro.metrics import MetricsRegistry

CTX = "alpha"
ERR_CONTEXT = int(ErrorCode.ERR_CONTEXT)
ERR_INVALID = int(ErrorCode.ERR_INVALID)
ERR_CONNECTION = int(ErrorCode.ERR_CONNECTION)


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class FakeConn:
    """The owner's server-side view of a peer's link."""

    def __init__(self, peer):
        self.peer = peer
        self.client_id = f"node:{peer}"


class FakeLink:
    def __init__(self, net, src, dst, on_fwd, on_down):
        self.net, self.src, self.dst = net, src, dst
        self.on_down = on_down
        self.closed = False
        self.frames = []
        net.links.append(self)

    def close(self):
        self.closed = True

    def call(self, frame, timeout=None):
        self.frames.append(frame)
        if self.dst in self.net.down:
            raise DVConnectionLost(f"{self.dst} is down")
        if self.dst in self.net.slow:
            raise PeerTimeout(f"{self.dst} is slow")
        reply = self.net.members[self.dst].router.on_fwd(
            FakeConn(self.src), dict(frame)
        )
        return dict(reply, op="fwd_reply")

    def send(self, frame):
        if self.dst in self.net.down:
            raise DVConnectionLost(f"{self.dst} is down")
        self.net.members[self.dst].router.on_fwd(FakeConn(self.src), frame)


class Member:
    """One router plus dict-backed shards and the readies it delivered."""

    def __init__(self, net, member_id, policy):
        self.net, self.id = net, member_id
        self.active = set()
        self.attached = {}   # context -> {client_id}
        self.waiting = set()  # (client_id, context, file)
        self.local = set()    # clients connected here (as DVServer knows)
        self.delivered = []
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
            execute_local=self.execute,
            ready_sink=self.delivered.append,
            send=lambda conn, frame: net.members[conn.peer].router
            .on_link_fwd(frame),
            on_unreachable=lambda peer: self.on_unreachable(peer),
            on_timeout=self.timeouts.append,
            is_stale=stale,
            metrics=MetricsRegistry(),
            prefix="t.",
            rpc_timeout=10.0,
            clock=net.clock,
            sleep=net.clock.sleep,
        )

    def dial(self, peer_id, on_fwd, on_down):
        wait = self.net.backoff.get((self.id, peer_id), 0.0) - self.net.clock()
        if wait > 0:
            raise DialBackingOff(peer_id, wait)
        if peer_id in self.net.down:
            raise DVConnectionLost(f"cannot reach {peer_id}")
        return FakeLink(self.net, self.id, peer_id, on_fwd, on_down)

    def execute(self, proxy, inner):
        op, context, cid = inner["op"], inner.get("context"), proxy.client_id
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
        """A client connected here sends an op for a routed context."""
        self.local.add(client_id)
        return self.router.forward(client_id, inner)

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


class Net:
    def __init__(self, *member_ids, policy="dead", owner=None):
        self.clock = FakeClock()
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

    def live(self):
        return [m for m in self.members.values() if m.id not in self.down]

    def reconcile(self):
        """What every deployment does after a membership change."""
        for member in self.live():
            member.router.replay(*member.router.stale())


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
        assert b.router.forward("c1", op("attach")) == {"error": 0}
        assert b.router.forward("c1", op("open", "f1")) == {
            "available": False, "error": 0,
        }
        assert b.router._pending == {("c1", CTX, "f1"): "a"}
        assert a.router._proxies["c1"].origin == "b"
        a.produce("f1")
        assert b.delivered == [Notification("c1", CTX, "f1", ok=True)]
        assert b.router._pending == {}

    def test_fwd_frame_is_exactly_make_fwd_plus_hoisted_tc(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        b.router.forward("c1", op("attach"))
        traced = dict(op("open", "f1"), tc="00-11-01")
        b.router.forward("c1", traced)
        plain, hoisted = net.links[0].frames
        assert encode_frame(plain, "binary") == encode_frame(
            make_fwd("b", "c1", op("attach")), "binary"
        )
        assert hoisted == dict(make_fwd("b", "c1", traced), tc="00-11-01")

    def test_unknown_context_fails_without_a_hop(self):
        net = Net("a", "b", owner="a")
        payload = net.members["b"].router.forward("c1", op("attach", context="nope"))
        assert payload["error"] == ERR_CONTEXT
        assert net.links == [] and net.clock.sleeps == []

    def test_dead_owner_failover_and_replay(self):
        net = Net("a", "b", "c", owner="a")
        a, b, c = (net.members[m] for m in "abc")
        b.router.forward("c1", op("attach"))
        b.router.forward("c1", op("open", "f1"))
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
        b.router.forward("c1", op("attach"))
        net.down.add("a")

        def membership_reacts(peer):
            b.unreachable.append(peer)
            net.assign("c")

        b.on_unreachable = membership_reacts
        payload = b.router.forward("c1", op("open", "f1"))
        assert payload == {"available": False, "error": 0}
        assert b.unreachable == ["a"]
        assert net.clock.sleeps == [0.02]
        assert b.router._ingress_ctx == {"c1": {CTX: "c"}}  # re-attached
        assert b.router._pending == {("c1", CTX, "f1"): "c"}

    def test_unreachable_owner_gives_up_at_the_deadline(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        net.down.add("a")
        payload = b.router.forward("c1", op("attach"))
        assert payload["error"] == ERR_CONNECTION
        assert "unreachable" in payload["detail"]
        assert 10.0 <= net.clock.now < 10.1
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

        a.router._execute_local = lagging
        assert b.router.forward("c1", op("attach")) == {"error": 0}
        assert len(calls) == 3 and net.clock.sleeps == [0.05] * 2

    def test_activation_lag_gives_up_at_the_deadline(self):
        net = Net("a", "b")
        net.assign("a", activate=False)
        payload = net.members["b"].router.forward("c1", op("attach"))
        assert payload["error"] == ERR_CONTEXT
        assert 10.0 <= net.clock.now < 10.1
        assert net.members["a"].router._proxies == {}

    def test_not_attached_reattaches_and_retries(self):
        net = Net("a", "b", "c", policy="moved", owner="a")
        b, c = net.members["b"], net.members["c"]
        b.router.forward("c1", op("attach"))
        net.assign("c")  # moved before any replay told c about c1
        payload = b.router.forward("c1", op("open", "f1"))
        assert payload == {"available": False, "error": 0}
        assert c.attached[CTX] == {"c1"}
        assert b.router._ingress_ctx == {"c1": {CTX: "c"}}

    def test_not_attached_is_final_for_a_client_never_attached_here(self):
        net = Net("a", "b", owner="a")
        payload = net.members["b"].router.forward("c1", op("open", "f1"))
        assert payload["error"] == ERR_INVALID
        assert net.clock.sleeps == []

    def test_timeout_reports_without_exiling(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        b.router.forward("c1", op("attach"))
        net.slow.add("a")
        payload = b.router.forward("c1", op("open", "f1"))
        assert payload["error"] == ERR_CONNECTION
        assert "timed out" in payload["detail"]
        assert b.timeouts == ["a"] and b.unreachable == []
        assert "a" in b.router._links  # the link stays
        assert b.router._pending == {}

    def test_dial_backoff_waits_the_window_out_and_tells_nobody(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        net.backoff[("b", "a")] = 0.75
        assert b.router.forward("c1", op("attach")) == {"error": 0}
        assert net.clock.sleeps == [0.75]
        assert b.unreachable == [] and b.timeouts == []

    def test_dial_backoff_longer_than_the_deadline_fails_the_op_only(self):
        net = Net("a", "b", owner="a")
        b = net.members["b"]
        net.backoff[("b", "a")] = 60.0
        payload = b.router.forward("c1", op("attach"))
        assert payload["error"] == ERR_CONNECTION
        assert net.clock.sleeps == [10.0] and b.unreachable == []


class TestStale:
    def setup_net(self, policy):
        net = Net("a", "b", "c", policy=policy, owner="a")
        b = net.members["b"]
        b.router.forward("c1", op("attach"))
        b.router.forward("c1", op("open", "f1"))
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
        assert b.delivered == [Notification("c1", CTX, "f1", ok=False)]


class TestOwnerSide:
    def test_failed_first_op_leaves_no_proxy(self):
        net = Net("a", "b", owner="a")
        a, b = net.members["a"], net.members["b"]
        for client in ("c1", "c2", "c3"):
            assert b.router.forward(client, op("open", "f1"))["error"]
            assert b.router.forward(client, op("attach", context="nope"))["error"]
        assert a.router._proxies == {}
        b.router.forward("c4", op("attach"))
        assert set(a.router._proxies) == {"c4"}
        b.router.forward("c4", op("finalize"))
        assert a.router._proxies == {}

    def test_an_op_failing_beside_an_attach_in_flight_keeps_the_proxy(self):
        net = Net("a", "b", owner="a")
        a = net.members["a"]
        original = a.execute

        def attach_races_an_open(proxy, inner):
            if inner["op"] == "attach":
                racing = a.router.run_local("c1", op("open", "f1"))
                assert racing["error"] == ERR_INVALID
                assert "c1" in a.router._proxies  # not reaped mid-attach
            return original(proxy, inner)

        a.router._execute_local = attach_races_an_open
        net.members["b"].router.forward("c1", op("attach"))
        assert a.router._proxies["c1"].contexts == {CTX}

    def test_peer_link_drop_disconnects_what_it_proxied(self):
        net = Net("a", "b", owner="a")
        a, b = net.members["a"], net.members["b"]
        b.router.forward("c1", op("attach"))
        b.router.forward("c1", op("open", "f1"))
        a.router.drop_client("node:b")
        assert a.router._proxies == {}
        assert a.attached[CTX] == set() and a.waiting == set()

    def test_restored_state_routes_readies_by_origin(self):
        """A promoted owner holds only names: its first ready for a
        restored waiter dials the origin, whose fwd handler delivers."""
        net = Net("a", "b", "c", owner="c")
        b, c = net.members["b"], net.members["c"]
        b.router.track("c1", op("attach"), {}, "a")
        b.router.track("c1", op("open", "f1"), {"available": False}, "a")
        c.router.restore_proxies(CTX, ["c1", "c2"], [["c1", "f1", "b"]])
        c.attached[CTX] = {"c1", "c2"}
        c.waiting.add(("c1", CTX, "f1"))
        assert c.router.origin_of("c1") == "b"
        assert c.router.origin_of("c2") is None
        # A restored client's first op must not cost it its proxy.
        assert b.router.forward("c2", op("open", "f1"))["error"] == 0
        assert c.router._proxies["c2"].contexts == {CTX}
        c.produce("f1")
        assert Notification("c1", CTX, "f1", ok=True) in b.delivered
        assert b.router._pending == {}

    def test_handoff_makes_the_source_the_ingress_of_what_it_gave_away(self):
        net = Net("a", "b", "c", owner="a")
        a, b = net.members["a"], net.members["b"]
        b.router.forward("remote", op("attach"))
        a.router.adopt_handoff(
            CTX, "c", [["local", "f1", "a"], ["remote", "f2", "b"]],
            ["local", "remote"],
        )
        assert a.router._pending == {
            ("local", CTX, "f1"): "c", ("remote", CTX, "f2"): "c",
        }
        assert a.router._ingress_ctx == {"local": {CTX: "c"}}

    def test_forget_context_drops_only_that_context(self):
        net = Net("a", "b", owner="a")
        router = net.members["b"].router
        router.track("c1", op("attach"), {}, "a")
        router.track("c1", op("attach", context="beta"), {}, "a")
        router.track("c1", op("open", "f1"), {"available": False}, "a")
        router.forget_context(CTX)
        assert router._pending == {}
        assert router._ingress_ctx == {"c1": {"beta": "a"}}


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["attach", "open", "open", "release", "finalize", "drop",
             "produce", "kill"]
        ),
        st.integers(0, 5),   # client (its ingress is member client % 3)
        st.integers(0, 3),   # file
        st.integers(0, 2),   # member to kill
    ),
    max_size=40,
)
IDS = ["m0", "m1", "m2"]


@settings(max_examples=200, deadline=None)
@given(actions=ACTIONS, policy=st.sampled_from(["dead", "moved"]))
def test_churn_strands_no_waiter_and_leaves_every_table_empty(actions, policy):
    """Clients attach, block and leave while owners and ingresses die.
    Every open that blocked gets its ready once the file exists, and once
    every client has finalized or dropped no surviving member holds a
    proxy, an attachment, a pending wait or an open link."""
    net = Net(*IDS, policy=policy, owner="m0")
    blocked = set()  # (client, file): open missed, ready still owed

    def ingress(client):
        member = net.members[IDS[int(client[1:]) % 3]]
        return None if member.id in net.down else member

    def collect_readies():
        for member in net.live():
            for ready in member.delivered:
                assert ready.ok
                blocked.discard((ready.client_id, ready.filename))
            member.delivered.clear()

    for action, c, f, m in actions:
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
            blocked = {b for b in blocked if b[0] != client}
        else:
            routed = action in ("open", "release")
            payload = member.forward(client, op(action, filename if routed else None))
            if payload["error"]:
                continue
            if action == "open" and not payload["available"]:
                blocked.add((client, filename))
            elif action == "release":
                blocked.discard((client, filename))
            elif action == "finalize":
                blocked = {b for b in blocked if b[0] != client}
        collect_readies()

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
    for member in net.live():
        assert tables(member.router) == ({}, {}, {})
        member.router.close()
        assert member.router._links == {}
    assert all(
        link.closed for link in net.links if link.src not in net.down
    )
