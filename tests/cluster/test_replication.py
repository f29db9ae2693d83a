"""Unit tests for the HA replication protocol pieces.

Everything here is socket-free: the delta codec, the replica-side
acceptance rules (sequence gaps, duplicates, epoch fencing), and the
re-dial backoff gate."""

import threading
import types

import pytest

from repro.cluster.link import DialBackoff
from repro.cluster.replication import (
    ReplicaStore,
    ReplicationManager,
    apply_delta,
    diff_state,
)
from repro.cluster.ring import HashRing
from repro.core.errors import InvalidArgumentError
from repro.metrics.registry import MetricsRegistry


def make_state(**overrides):
    state = {
        "clients": ["c1", "c2"],
        "waiters": [["c1", "alpha-5.sdf", "n2"]],
        "resident": [3, 4, 5],
        "sims": [{"start": 0, "stop": 1, "level": 1}],
        "alpha": 0.25,
        "alpha_count": 4,
    }
    state.update(overrides)
    return state


class TestDeltaCodec:
    def test_identical_states_diff_to_none(self):
        assert diff_state(make_state(), make_state()) is None

    def test_roundtrip_set_changes(self):
        old = make_state()
        new = make_state(
            clients=["c2", "c3"],
            waiters=[],
            resident=[4, 5, 6],
        )
        delta = diff_state(old, new)
        assert "clients_add" in delta and "clients_del" in delta
        assert apply_delta(old, delta) == new

    def test_roundtrip_scalar_changes(self):
        old = make_state()
        new = make_state(alpha=0.5, alpha_count=9,
                         sims=[{"start": 1, "stop": 2, "level": 2}])
        delta = diff_state(old, new)
        assert apply_delta(old, delta) == new
        # Unchanged sets are not mentioned at all.
        assert not any(k.startswith("clients") for k in delta)

    def test_apply_does_not_mutate_input(self):
        old = make_state()
        snapshot = make_state()
        delta = diff_state(old, make_state(clients=[]))
        apply_delta(old, delta)
        assert old == snapshot


class TestReplicaStoreRules:
    def frame(self, kind="snap", seq=1, epoch=1, sender="n1", **extra):
        frame = {
            "op": "repl", "from": sender, "context": "alpha",
            "epoch": epoch, "seq": seq, "kind": kind,
        }
        if kind == "snap":
            frame["state"] = extra.pop("state", make_state())
        frame.update(extra)
        return frame

    def receive(self, store, frame, epoch=1, owner="n1", is_owner=False):
        return store.receive(
            frame, local_epoch=epoch, local_owner=owner,
            self_is_owner=is_owner, now=100.0,
        )

    def test_snapshot_then_contiguous_deltas(self):
        store = ReplicaStore()
        assert self.receive(store, self.frame("snap", seq=1))["ok"]
        delta = diff_state(make_state(), make_state(alpha=0.9))
        reply = self.receive(store, self.frame("delta", seq=2, delta=delta))
        assert reply["ok"] and reply["seq"] == 2
        assert store.take("alpha")["alpha"] == 0.9

    def test_sequence_gap_demands_resync(self):
        store = ReplicaStore()
        self.receive(store, self.frame("snap", seq=1))
        reply = self.receive(
            store, self.frame("delta", seq=3, delta={"alpha": 1.0})
        )
        assert reply == {"resync": True}
        # The stored state was not advanced by the out-of-order frame.
        assert store.describe(now=100.0)["alpha"]["seq"] == 1

    def test_duplicate_frame_is_ignored_not_reapplied(self):
        store = ReplicaStore()
        self.receive(store, self.frame("snap", seq=1))
        delta = {"clients_add": ["c9"]}
        assert self.receive(
            store, self.frame("delta", seq=2, delta=delta)
        )["ok"]
        reply = self.receive(store, self.frame("delta", seq=2, delta=delta))
        assert reply.get("duplicate")
        state = store.take("alpha")
        assert state["clients"].count("c9") == 1

    def test_delta_without_snapshot_demands_resync(self):
        store = ReplicaStore()
        reply = self.receive(
            store, self.frame("delta", seq=1, delta={"alpha": 1.0})
        )
        assert reply == {"resync": True}

    def test_fenced_when_receiver_owns_the_context(self):
        """A partitioned stale owner streaming at a promoted replica is
        rejected, whatever epoch it claims."""
        store = ReplicaStore()
        reply = self.receive(
            store, self.frame("snap", seq=1, epoch=99), is_owner=True
        )
        assert reply["fenced"]
        assert not store.has("alpha")

    def test_fenced_when_ring_moved_past_a_non_owner_sender(self):
        store = ReplicaStore()
        reply = self.receive(
            store, self.frame("snap", seq=1, epoch=3, sender="n1"),
            epoch=5, owner="n9",
        )
        assert reply["fenced"] and reply["epoch"] == 5

    def test_not_fenced_when_sender_still_owns_under_newer_epoch(self):
        """Epochs bump on *any* membership change; a sender the receiver
        still believes to be the owner must not be fenced just because an
        unrelated node joined."""
        store = ReplicaStore()
        reply = self.receive(
            store, self.frame("snap", seq=1, epoch=3, sender="n1"),
            epoch=5, owner="n1",
        )
        assert reply["ok"]

    def test_take_is_one_shot(self):
        store = ReplicaStore()
        self.receive(store, self.frame("snap", seq=1))
        assert store.take("alpha") is not None
        assert store.take("alpha") is None


class TestPreferenceList:
    def test_successors_start_at_the_owner(self):
        ring = HashRing(vnodes=16)
        for node in ("n1", "n2", "n3"):
            ring.add_node(node)
        chain = ring.successors("ctx", 3)
        assert chain[0] == ring.owner("ctx")
        assert sorted(chain) == ["n1", "n2", "n3"]

    def test_successors_clip_to_ring_size(self):
        ring = HashRing(vnodes=16)
        ring.add_node("solo")
        assert ring.successors("ctx", 5) == ["solo"]
        assert HashRing().successors("ctx", 2) == []
        with pytest.raises(InvalidArgumentError):
            ring.successors("ctx", 0)

    def test_new_owner_after_death_is_the_first_replica(self):
        """The property promotion relies on: remove the owner and the
        ring's new owner is exactly successors[1] of the old ring."""
        ring = HashRing(vnodes=32)
        for node in ("n1", "n2", "n3"):
            ring.add_node(node)
        for name in ("alpha", "beta", "gamma", "delta"):
            chain = ring.successors(name, 2)
            survivor_ring = HashRing(vnodes=32)
            for node in ("n1", "n2", "n3"):
                if node != chain[0]:
                    survivor_ring.add_node(node)
            assert survivor_ring.owner(name) == chain[1]


class _ScriptedLink:
    """PeerLink stand-in: scripted replies first, then acks everything."""

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.frames = []

    def call(self, frame, timeout=None):
        self.frames.append(frame)
        if self.replies:
            return self.replies.pop(0)
        return {"ok": True, "seq": frame.get("seq")}


class _OwnerStubNode:
    """Just enough of ClusterNode for the sender-side pump: n1 owns
    context ``alpha`` with n2 as its sole replica."""

    node_id = "n1"
    rpc_timeout = 1.0

    def __init__(self, link, epoch=5):
        self._lock = threading.Lock()
        self._active = {"alpha"}
        self.metrics = MetricsRegistry()
        self.link = link
        self.ring = types.SimpleNamespace(
            epoch=epoch,
            successors=lambda name, k: ["n1", "n2"][:k],
            owner=lambda name: "n1",
        )
        self.table = types.SimpleNamespace(alive_ids=lambda: ["n1", "n2"])
        self.router = types.SimpleNamespace(link=lambda peer_id: self.link)

    def _capture_repl(self, name):
        return make_state()


class TestSenderFenceRetry:
    """The owner-side reaction to a ``fenced`` reply.  A fence is a
    transient stand-down, not a permanent silence: ring epochs are
    per-node counters (two nodes with identical membership can disagree
    on the number), so the sender never reasons about the replica's
    epoch — it just backs off and retries after ``fence_retry`` seconds
    or on any local membership change.  A replica that fenced the
    rightful owner from a not-yet-converged ring (the staggered-start
    race) therefore only delays replication, never wedges it."""

    def make_manager(self, link, epoch=5):
        node = _OwnerStubNode(link, epoch=epoch)
        return node, ReplicationManager(node, factor=2, interval=0.01)

    def test_fence_holds_within_the_retry_window(self):
        link = _ScriptedLink([{"fenced": True, "epoch": 3}])
        node, manager = self.make_manager(link)
        manager.pump(now=100.0)
        assert "alpha" in manager._fenced
        manager.pump(now=100.1)
        manager.pump(now=100.2)
        assert len(link.frames) == 1  # standing down

    def test_fence_clears_after_the_retry_window(self):
        link = _ScriptedLink([{"fenced": True, "epoch": 3}])
        node, manager = self.make_manager(link)
        manager.pump(now=100.0)
        assert len(link.frames) == 1
        manager.pump(now=100.0 + manager.fence_retry)
        assert manager._fenced == {}
        assert len(link.frames) == 2
        # The fenced frame was never applied: the retry is a snapshot.
        assert link.frames[-1]["kind"] == "snap"

    def test_fence_clears_when_the_local_ring_moves(self):
        link = _ScriptedLink([{"fenced": True, "epoch": 9}])
        node, manager = self.make_manager(link, epoch=5)
        manager.pump(now=100.0)
        manager.pump(now=100.1)
        assert len(link.frames) == 1
        node.ring.epoch = 6  # a membership change re-opens the question
        manager.pump(now=100.2)
        assert manager._fenced == {}
        assert len(link.frames) == 2

    def test_stream_recovers_fully_after_a_transient_fence(self):
        """End to end through the stub: fenced once (the replica's ring
        was behind), then the retry lands and the stream syncs."""
        link = _ScriptedLink([{"fenced": True, "epoch": 3}])
        node, manager = self.make_manager(link)
        manager.pump(now=100.0)
        manager.pump(now=100.0 + manager.fence_retry)
        stream = manager._streams[("alpha", "n2")]
        assert stream.acked == make_state()
        assert not stream.needs_snapshot
        assert manager.node.metrics.snapshot()["repl.fenced"]["value"] == 1.0


class TestDialBackoff:
    def test_first_dial_always_allowed(self):
        backoff = DialBackoff(base=1.0, cap=8.0, seed=7)
        assert backoff.ready("n2", now=0.0)
        assert backoff.failures("n2") == 0

    def test_delays_grow_exponentially_to_the_cap(self):
        backoff = DialBackoff(base=1.0, cap=8.0, jitter=0.0, seed=7)
        delays = [backoff.failed("n2", now=0.0) for _ in range(6)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_stretches_but_never_shrinks(self):
        backoff = DialBackoff(base=1.0, cap=64.0, jitter=0.5, seed=7)
        for expected_base in (1.0, 2.0, 4.0):
            delay = backoff.failed("n2", now=0.0)
            assert expected_base <= delay <= expected_base * 1.5

    def test_gate_opens_after_the_delay(self):
        backoff = DialBackoff(base=1.0, cap=8.0, jitter=0.0, seed=7)
        backoff.failed("n2", now=10.0)
        assert not backoff.ready("n2", now=10.5)
        assert backoff.ready("n2", now=11.0)

    def test_success_forgets_everything(self):
        backoff = DialBackoff(base=1.0, cap=8.0, jitter=0.0, seed=7)
        for _ in range(4):
            backoff.failed("n2", now=0.0)
        backoff.succeeded("n2")
        assert backoff.failures("n2") == 0
        assert backoff.ready("n2", now=0.0)
        assert backoff.failed("n2", now=0.0) == 1.0  # back to base

    def test_peers_are_independent(self):
        backoff = DialBackoff(base=1.0, cap=8.0, jitter=0.0, seed=7)
        backoff.failed("n2", now=0.0)
        assert backoff.ready("n3", now=0.0)
