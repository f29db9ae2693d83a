"""Unit tests for migration placement pins and the state stream's
destination side."""

import hashlib
import os
import threading

import pytest

from repro.cluster.replication import diff_state
from repro.cluster.ring import HashRing
from repro.core.errors import InvalidArgumentError


def make_ring(*nodes, vnodes=32):
    ring = HashRing(vnodes)
    for node_id in nodes:
        ring.add_node(node_id)
    return ring


class TestPlacementPins:
    def test_pin_overrides_hash_owner_and_bumps_epoch(self):
        ring = make_ring("n1", "n2", "n3")
        name = "ctx"
        hash_owner = ring.owner(name)
        target = next(n for n in ("n1", "n2", "n3") if n != hash_owner)
        epoch = ring.epoch
        assert ring.pin(name, target)
        assert ring.owner(name) == target
        assert ring.epoch == epoch + 1
        assert ring.pins() == {name: target}

    def test_repin_same_target_is_a_noop(self):
        ring = make_ring("n1", "n2")
        ring.pin("ctx", "n2")
        epoch = ring.epoch
        assert not ring.pin("ctx", "n2")
        assert ring.epoch == epoch

    def test_unpin_reverts_to_hash_owner(self):
        ring = make_ring("n1", "n2", "n3")
        hash_owner = ring.owner("ctx")
        target = next(n for n in ("n1", "n2", "n3") if n != hash_owner)
        ring.pin("ctx", target)
        epoch = ring.epoch
        assert ring.unpin("ctx")
        assert ring.owner("ctx") == hash_owner
        assert ring.epoch == epoch + 1
        assert not ring.unpin("ctx")  # second unpin: nothing to drop

    def test_pin_to_unknown_node_raises(self):
        ring = make_ring("n1")
        with pytest.raises(InvalidArgumentError):
            ring.pin("ctx", "ghost")

    def test_pin_dissolves_when_target_leaves(self):
        ring = make_ring("n1", "n2", "n3")
        hash_owner = ring.owner("ctx")
        target = next(n for n in ("n1", "n2", "n3") if n != hash_owner)
        ring.pin("ctx", target)
        ring.remove_node(target)
        assert ring.pins() == {}
        assert ring.owner("ctx") == hash_owner

    def test_successors_keep_pinned_owner_at_head(self):
        ring = make_ring("n1", "n2", "n3", "n4")
        hash_chain = ring.successors("ctx", 3)
        target = next(
            n for n in ("n1", "n2", "n3", "n4") if n != hash_chain[0]
        )
        ring.pin("ctx", target)
        chain = ring.successors("ctx", 3)
        assert chain[0] == target == ring.owner("ctx")
        assert len(chain) == 3
        assert len(set(chain)) == 3
        # The tail is the hash walk with the pinned node deduplicated.
        walk = [n for n in hash_chain if n != target]
        assert chain[1:] == walk[: len(chain) - 1]

    def test_successors_fall_back_when_pin_target_dead(self):
        ring = make_ring("n1", "n2", "n3")
        hash_chain = ring.successors("ctx", 2)
        target = next(n for n in ("n1", "n2", "n3") if n != hash_chain[0])
        ring.pin("ctx", target)
        ring.remove_node(target)
        survivors = ring.successors("ctx", 2)
        assert survivors == [n for n in hash_chain if n != target][:2] or (
            survivors[0] == ring.owner("ctx")
        )
        assert target not in survivors


def empty_state(**overrides):
    state = {"clients": [], "held": [], "waiters": [], "resident": [],
             "sims": [], "alpha": None, "alpha_count": 0}
    state.update(overrides)
    return state


class TestMigrationFrames:
    """The destination side of the state stream, driven without any TCP:
    a real ClusterNode (never started — no threads of its own) whose ring
    gives context ``ctx`` to peer ``src`` receives forged ``repl``
    frames through the node's entry, ``repl.receive``."""

    @pytest.fixture
    def node(self, tmp_path):
        from repro.cluster.node import ClusterNode
        from tests.integration.test_cluster_stack import build_context

        node = ClusterNode("dst", port=0, peers=("src@127.0.0.1:1",))
        context, out, rst = build_context(tmp_path, "ctx")
        with node._lock:
            node._adopt_pin("ctx", "src", 1)
        node.add_context(context, out, rst, alpha_delay=30.0)
        node.test_context = context
        yield node
        with node._lock:
            if "ctx" in node._active:
                node._deactivate("ctx")  # kills the restored re-simulations
        node.server.stop(drain_timeout=0)
        node.data.stop()

    @staticmethod
    def frame(seq, kind="snap", context="ctx", **body):
        return {"op": "repl", "from": "src", "context": context,
                "epoch": 1, "seq": seq, "kind": kind, **body}

    def test_snap_then_deltas_accumulate(self, node):
        state = empty_state(clients=["c1"], waiters=[["c1", "f1", "src"]],
                            resident=[1], alpha=0.5, alpha_count=1)
        assert node.repl.receive(self.frame(1, state=state))["ok"]
        assert node.repl.store.has("ctx")
        delta = diff_state(state, dict(state, resident=[1, 2]))
        reply = node.repl.receive(self.frame(2, "delta", delta=delta))
        assert reply["ok"] and reply["seq"] == 2
        record = node.repl.store.take("ctx")
        assert record.seq == 2
        assert record.state["resident"] == [1, 2]

    def test_gapped_delta_requests_resync(self, node):
        node.repl.receive(self.frame(1, state=empty_state()))
        reply = node.repl.receive(
            self.frame(5, "delta", delta={"resident_add": [9]})
        )
        assert reply == {"resync": True}
        assert node.repl.store.describe()["ctx"]["seq"] == 1

    def test_delta_without_snapshot_requests_resync(self, node):
        reply = node.repl.receive(
            self.frame(1, "delta", delta={"resident_add": [1]})
        )
        assert reply == {"resync": True}
        assert not node.repl.store.has("ctx")

    def test_final_for_unknown_context_is_rejected(self, node):
        reply = node.repl.receive(self.frame(
            1, context="ghost", state=empty_state(), pin=["ghost", "dst", 1],
        ))
        assert not reply.get("ok")
        assert not node.repl.store.has("ghost")
        assert "ghost" not in node.active_contexts()

    def test_malformed_and_unknown_kinds_are_rejected(self, node):
        assert not node.repl.receive({"kind": "snap"}).get("ok")
        assert not node.repl.receive(self.frame(1, "wat")).get("ok")
        assert not node.repl.receive(self.frame(1, state="nope")).get("ok")
        assert not node.repl.store.has("ctx")

    def test_prune_drops_stale_incoming_of_dead_source(self, node):
        node.repl.receive(self.frame(1, state=empty_state()))
        with node._lock:
            # Source alive: kept.
            node.repl.prune({"src", "dst"})
            assert node.repl.store.has("ctx")
            # Source dead, the ring places the context here: kept
            # (promotable).
            node._adopt_pin("ctx", "dst", 2)
            node.repl.prune({"dst"})
            assert node.repl.store.has("ctx")
            # Source dead and another node owns the restart: dropped.
            node._adopt_pin("ctx", "src", 3)
            node.repl.prune({"dst"})
            assert not node.repl.store.has("ctx")

    def test_pin_by_gossip_before_the_final_frame(self, node):
        """The pin outruns the final frame: gossip makes this node the
        owner, which activates and promotes from the pre-copy; the final
        frame still lands (its pin names this node at the version held)
        and adds the waiter the pre-copy missed, without re-registering
        the first."""
        context = node.test_context
        first = ["c1", context.filename_of(3), "dst"]
        second = ["c2", context.filename_of(5), "dst"]
        precopy = empty_state(clients=["c1", "c2"], waiters=[first])
        assert node.repl.receive(self.frame(1, state=precopy))["ok"]
        node._apply_membership(lambda: node._merge_pins([["ctx", "dst", 2]]))
        promote, args = node.server.loop.work.get_nowait()  # one worker job
        promote(*args)
        assert node.metrics.get("repl.promotions").value == 1
        assert "ctx" in node.active_contexts()
        reply = node.repl.receive(self.frame(
            2, state=dict(precopy, waiters=[first, second]),
            pin=["ctx", "dst", 2], data_port=0,
        ))
        assert reply["ok"] and reply["restored_waiters"] == 2
        shard = node.server.coordinator.shard("ctx")
        with shard.lock:
            waiting = {
                (client_id, context.filename_of(key))
                for key, clients in shard.waiters.items()
                for client_id in clients
            }
            assert sum(len(c) for c in shard.waiters.values()) == 2
        assert waiting == {tuple(first[:2]), tuple(second[:2])}
        assert node.metrics.get("migrate.adopted").value == 1
        assert not node.repl.store.has("ctx")


    def test_final_frame_pulls_a_missing_resident_file_without_a_thread(
        self, node, tmp_path, monkeypatch
    ):
        """No shared PFS: the final frame names a resident file this
        node's output directory lacks.  The pull is a chain of pool jobs,
        one file each; the file arrives with the source's bytes and
        checksum, ``migrate.files_fetched`` counts it, and no thread
        starts."""
        from repro.data.server import DataServer
        from repro.dv.loop import EventLoop

        context = node.test_context
        src_out = tmp_path / "src-out"
        src_out.mkdir()
        keys = (3, 5)
        names = [context.filename_of(key) for key in keys]
        for key, name in zip(keys, names):
            (src_out / name).write_bytes(bytes([key]) * 4096 + name.encode())
        source_loop = EventLoop(workers=1, name="source")
        source_loop.start()
        source = DataServer(source_loop)
        source.add_context("ctx", str(src_out))
        source.start()
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: (
            started.append(thread.name), start(thread))[1])
        try:
            reply = node.repl.receive(self.frame(
                1, state=empty_state(resident=list(keys)),
                pin=["ctx", "dst", 2], data_port=source.port,
            ))
            assert reply["ok"]
            out = node._specs["ctx"].output_dir
            jobs = 0
            while not node.server.loop.work.empty():
                pull, args = node.server.loop.work.get_nowait()
                pull(*args)
                jobs += 1
                if jobs == 1:  # the first file is in, the second not yet
                    assert os.listdir(out) == [names[0]]
        finally:
            source.stop()
            source_loop.stop()
        assert jobs == len(names) and started == []
        for name in names:
            got = os.path.join(out, name)
            assert sha256_of(got) == sha256_of(str(src_out / name))
        assert node.metrics.get("migrate.files_fetched").value == len(names)


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestPinVersions:
    """Node-level versioned pin merge (no TCP, node never started)."""

    @pytest.fixture
    def node(self):
        from repro.cluster.node import ClusterNode

        node = ClusterNode(
            "n1", port=0, peers=("n2@127.0.0.1:1", "n3@127.0.0.1:2"),
        )
        yield node
        node.server.stop(drain_timeout=0)
        node.data.stop()

    def test_higher_version_wins_lower_is_ignored(self, node):
        with node._lock:
            assert node._adopt_pin("ctx", "n2", 1)
            assert node.ring.owner("ctx") == "n2"
            assert not node._adopt_pin("ctx", "n3", 1)  # same version
            assert node._adopt_pin("ctx", "n3", 2)
            assert node.ring.owner("ctx") == "n3"
            assert not node._adopt_pin("ctx", "n2", 1)  # stale
            assert node.ring.owner("ctx") == "n3"

    def test_bump_outranks_current_and_wire_roundtrip(self, node):
        with node._lock:
            node._adopt_pin("ctx", "n2", 3)
            version = node._bump_pin("ctx", "n3")
            assert version == 4
            wire = node._pins_wire()
        assert wire == [["ctx", "n3", 4]]
        # A dissolved pin travels with an empty target and outranks
        # the stale pinned entry it replaced.
        with node._lock:
            assert node._adopt_pin("ctx", None, 5)
            assert node._pins_wire() == [["ctx", "", 5]]
            assert not node._merge_pins([["ctx", "n2", 4]])
            assert node.ring.pins() == {}

    def test_sync_ring_dissolves_pin_of_dead_target(self, node):
        import time

        with node._lock:
            node._adopt_pin("ctx", "n2", 1)
            assert node.ring.owner("ctx") == "n2"
        node._apply_membership(
            lambda: node.table.link_failed("n2")
        )
        time.sleep(0)  # replay thread may spin; state is already mutated
        with node._lock:
            assert node.ring.pins() == {}
            # Dissolution outranks the dead pin.
            assert node._pin_versions["ctx"] == (None, 2)
            assert not node._merge_pins([["ctx", "n2", 1]])
