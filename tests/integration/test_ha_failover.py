"""Live HA acceptance tests: replicated contexts over three real nodes.

The tentpole scenario: a context's owner dies while a client is blocked
on a ready; the first ring successor already holds the replicated waiter
table, promotes itself, relaunches the re-simulation and routes the
ready back through the client's ingress node — the client sees its wait
resolve with zero errors, zero retries and zero reconnects.  Healing
then re-replicates the context back to full factor on the survivors.

The fault-injection harness lives here too: dropped/duplicated/delayed
replication frames, and the double failure (owner plus first replica).
"""

import os
import time

import pytest

from repro.client.dvlib import TcpConnection
from repro.cluster import ClusterConnection, ClusterNode
from repro.core.errors import InvalidArgumentError
from tests.integration.conftest import free_port
from tests.integration.test_cluster_stack import build_context, wait_ready

NODE_IDS = ("n1", "n2", "n3")


def build_ha_cluster(
    tmp_path, factor=2, alpha_delay=0.0, frame_hooks=None, context_name="alpha",
):
    """Three started nodes with replication on; returns (nodes, context,
    out_dir, restart_dir).  ``frame_hooks`` maps node_id -> frame hook."""
    ports = {nid: free_port() for nid in NODE_IDS}
    specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
    nodes = {
        nid: ClusterNode(
            nid, port=ports[nid],
            peers=[s for s in specs if not s.startswith(f"{nid}@")],
            vnodes=32, heartbeat_interval=0.15, suspect_after=2,
            replication_factor=factor, repl_interval=0.05,
            repl_frame_hook=(frame_hooks or {}).get(nid),
        )
        for nid in NODE_IDS
    }
    context, out, rst = build_context(tmp_path, context_name)
    for node in nodes.values():
        node.add_context(context, out, rst, alpha_delay=alpha_delay)
    for node in nodes.values():
        node.start()
    return nodes, context, out, rst


def stop_all(nodes):
    for node in nodes.values():
        try:
            node.stop(drain_timeout=0)
        except Exception:
            pass


def wait_until(predicate, timeout=20.0, message="condition never held"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, message
        time.sleep(0.05)


def preference_chain(nodes, context_name, count):
    any_node = next(iter(nodes.values()))
    with any_node._lock:
        return any_node.ring.successors(context_name, count)


def replica_waiter_count(node, context_name):
    entry = node.repl.store.describe().get(context_name)
    return entry["waiters"] if entry else -1


class TestHAMode:
    def test_replication_needs_single_coordinator(self):
        with pytest.raises(InvalidArgumentError):
            ClusterNode("n1", replication_factor=2, engine_workers=2)
        with pytest.raises(InvalidArgumentError):
            ClusterNode("n1", replication_factor=0)

    @pytest.mark.timeout(120)
    def test_contexts_replicate_to_ring_successors(self, tmp_path):
        nodes, context, out, rst = build_ha_cluster(tmp_path, factor=2)
        try:
            chain = preference_chain(nodes, "alpha", 2)
            owner, replica = chain
            wait_until(
                lambda: nodes[replica].repl.store.has("alpha"),
                message="replica never received a snapshot",
            )
            bystander = next(n for n in NODE_IDS if n not in chain)
            assert not nodes[bystander].repl.store.has("alpha")
            # Counted when the replica's ack returns — after the store has it.
            wait_until(
                lambda: nodes[owner].metrics.get("repl.snapshots_sent").value >= 1,
                message="owner never counted its snapshot",
            )
            view = nodes[owner].repl.describe()
            assert view["factor"] == 2
            assert view["contexts"]["alpha"]["owner"] == owner
            assert [r["node"] for r in view["contexts"]["alpha"]["replicas"]] \
                == [replica]
        finally:
            stop_all(nodes)


class TestHotFailover:
    @pytest.mark.timeout(120)
    def test_kill_owner_with_blocked_waiter_zero_client_retries(self, tmp_path):
        """The acceptance scenario.  The client is a plain gateway
        TcpConnection: it issues ONE open and then only waits — any
        unblocking must come from the cluster, not from client retries."""
        nodes, context, out, rst = build_ha_cluster(
            tmp_path, factor=2, alpha_delay=1.5
        )
        conn = None
        try:
            chain = preference_chain(nodes, "alpha", 2)
            owner, replica = chain
            ingress = next(n for n in NODE_IDS if n != owner)
            host, port = nodes[ingress].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="ha-blocked-client",
            )
            conn.attach("alpha")
            filename = context.filename_of(7)
            info = conn.open("alpha", filename)
            assert not info.available
            # The waiter table (with its ingress origin) must be on the
            # replica before the kill, or the failover is cold.
            wait_until(
                lambda: replica_waiter_count(nodes[replica], "alpha") >= 1,
                message="waiter never replicated",
            )
            nodes[owner].stop(drain_timeout=0)  # dies mid-restart
            assert wait_ready(conn, "alpha", filename, timeout=60.0)
            assert os.path.exists(os.path.join(out, filename))
            # The replica actually promoted and restored the waiter.
            assert nodes[replica].metrics.get("repl.promotions").value >= 1
            assert nodes[replica].metrics.get("repl.waiters_restored").value >= 1
            assert "alpha" in nodes[replica].active_contexts()
            # Healing: with the owner dead, factor 2 must be rebuilt on
            # the two survivors — the promoted owner re-replicates to the
            # remaining peer.
            other = next(n for n in NODE_IDS if n not in (owner, replica))
            wait_until(
                lambda: nodes[other].repl.store.has("alpha"),
                message="context never healed back to factor 2",
            )
            wait_until(
                lambda: nodes[replica].metrics.get("repl.healed").value >= 1,
                message="healing never recorded",
            )
            assert nodes[replica].metrics.get(
                "repl.healing_queue").value == 0
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)

    @pytest.mark.timeout(120)
    def test_membership_change_triggers_healing_to_full_factor(self, tmp_path):
        """Kill a *replica* (not the owner): no promotion happens, but the
        owner must notice the under-replication and re-replicate to the
        remaining peer."""
        nodes, context, out, rst = build_ha_cluster(tmp_path, factor=2)
        try:
            chain = preference_chain(nodes, "alpha", 2)
            owner, replica = chain
            bystander = next(n for n in NODE_IDS if n not in chain)
            wait_until(lambda: nodes[replica].repl.store.has("alpha"))
            nodes[replica].stop(drain_timeout=0)
            wait_until(
                lambda: nodes[bystander].repl.store.has("alpha"),
                message="replacement replica never received the context",
            )
            wait_until(
                lambda: nodes[owner].metrics.get("repl.healed").value >= 1,
                message="healing never recorded on the owner",
            )
            assert nodes[owner].metrics.get("repl.promotions").value == 0
        finally:
            stop_all(nodes)

    @pytest.mark.timeout(120)
    def test_cluster_connection_fails_over_to_promoted_owner(self, tmp_path):
        """A ring-aware client blocked on a ready survives the owner kill:
        the watchdog replays against the promoted replica (which already
        has the waiter state), and the session keeps working."""
        nodes, context, out, rst = build_ha_cluster(
            tmp_path, factor=2, alpha_delay=1.5
        )
        conn = None
        try:
            chain = preference_chain(nodes, "alpha", 2)
            owner, replica = chain
            conn = ClusterConnection(
                [nodes[nid].address for nid in NODE_IDS],
                {"alpha": out}, {"alpha": rst},
                client_id="ha-aware-client", failover_timeout=30.0,
            )
            conn.attach("alpha")
            filename = context.filename_of(9)
            info = conn.open("alpha", filename)
            assert not info.available
            wait_until(
                lambda: replica_waiter_count(nodes[replica], "alpha") >= 1
            )
            nodes[owner].stop(drain_timeout=0)
            assert wait_ready(conn, "alpha", filename, timeout=60.0)
            # And the same session keeps working against the new owner.
            filename2 = context.filename_of(3)
            info2 = conn.open("alpha", filename2)
            if not info2.available:
                assert wait_ready(conn, "alpha", filename2, timeout=60.0)
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)


class TestFaultInjection:
    @pytest.mark.timeout(120)
    def test_dropped_frames_force_resync_and_converge(self, tmp_path):
        """The first two replication frames are dropped on the floor (and
        every fourth after that): an unacked stream must keep retrying as
        a snapshot, and the replica must still converge to the live
        waiter state."""
        drops = {"count": 0, "sent": 0}

        def dropper(peer_id, frame):
            drops["sent"] += 1
            if drops["sent"] <= 2 or drops["sent"] % 4 == 0:
                drops["count"] += 1
                return "drop"
            return None

        nodes, context, out, rst = build_ha_cluster(
            tmp_path, factor=2, alpha_delay=1.0,
            frame_hooks={nid: dropper for nid in NODE_IDS},
        )
        conn = None
        try:
            chain = preference_chain(nodes, "alpha", 2)
            owner, replica = chain
            ingress = next(n for n in NODE_IDS if n != owner)
            host, port = nodes[ingress].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="ha-droppy-client",
            )
            conn.attach("alpha")
            filename = context.filename_of(5)
            conn.open("alpha", filename)
            wait_until(
                lambda: replica_waiter_count(nodes[replica], "alpha") >= 1,
                message="replica never converged despite drops",
            )
            assert drops["count"] >= 2  # losses really happened
            assert wait_ready(conn, "alpha", filename, timeout=60.0)
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)

    @pytest.mark.timeout(120)
    def test_duplicated_and_delayed_frames_are_harmless(self, tmp_path):
        """Duplicate every frame and delay a fraction of them: the replica
        must apply each change exactly once (duplicates ignored) and the
        owner's stream must keep advancing."""
        seen = {"count": 0}

        def dup_and_delay(peer_id, frame):
            seen["count"] += 1
            if seen["count"] % 5 == 0:
                time.sleep(0.05)  # the pump stalls: replication lag grows
            return "dup"

        nodes, context, out, rst = build_ha_cluster(
            tmp_path, factor=2,
            frame_hooks={nid: dup_and_delay for nid in NODE_IDS},
        )
        try:
            chain = preference_chain(nodes, "alpha", 2)
            owner, replica = chain
            wait_until(lambda: nodes[replica].repl.store.has("alpha"))
            wait_until(
                lambda: nodes[owner].metrics.get("repl.frames_sent").value >= 3
            )
            entry = nodes[replica].repl.store.describe()["alpha"]
            stream_seq = [
                r["seq"]
                for r in nodes[owner].repl.describe()["contexts"]["alpha"]
                ["replicas"] if r["node"] == replica
            ][0]
            # Duplicates were sent but never double-applied: the replica's
            # applied seq tracks the owner's stream position.
            assert entry["seq"] <= stream_seq
        finally:
            stop_all(nodes)

    @pytest.mark.timeout(180)
    def test_double_failure_owner_and_first_replica(self, tmp_path):
        """Factor 3: kill the owner *and* the first successor while a
        waiter is blocked — the second successor still holds the state,
        promotes, and the client is unblocked with no retries."""
        nodes, context, out, rst = build_ha_cluster(
            tmp_path, factor=3, alpha_delay=1.5
        )
        conn = None
        try:
            chain = preference_chain(nodes, "alpha", 3)
            owner, first, second = chain
            # The only guaranteed survivor must host the client.
            host, port = nodes[second].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="ha-double-client",
            )
            conn.attach("alpha")
            filename = context.filename_of(7)
            info = conn.open("alpha", filename)
            assert not info.available
            wait_until(
                lambda: replica_waiter_count(nodes[second], "alpha") >= 1,
                message="second replica never received the waiter",
            )
            nodes[owner].stop(drain_timeout=0)
            # Kill the would-be promotee immediately: the second replica
            # must take over instead (possibly mid-promotion of the first).
            nodes[first].stop(drain_timeout=0)
            assert wait_ready(conn, "alpha", filename, timeout=90.0)
            assert nodes[second].metrics.get("repl.promotions").value >= 1
            assert "alpha" in nodes[second].active_contexts()
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)


class TestHAStatusCLI:
    @pytest.mark.timeout(120)
    def test_simfs_ctl_ha_status(self, tmp_path, capsys):
        import json

        from repro.cli import main as ctl_main

        nodes, context, out, rst = build_ha_cluster(tmp_path, factor=2)
        try:
            chain = preference_chain(nodes, "alpha", 2)
            owner, replica = chain
            wait_until(lambda: nodes[replica].repl.store.has("alpha"))
            host, port = nodes[owner].address
            assert ctl_main([
                "ha-status", "--host", host, "--port", str(port), "--json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["ha"]["factor"] == 2
            assert payload["ha"]["contexts"]["alpha"]["owner"] == owner
            assert any(name.startswith("repl.") for name in payload["metrics"])
            # Human summary (default) names the node and the replica set.
            assert ctl_main([
                "ha-status", "--host", host, "--port", str(port),
            ]) == 0
            printed = capsys.readouterr().out
            assert f"node {owner} replication_factor=2" in printed
            assert "context alpha" in printed and replica in printed
            # The replica side reports what it holds.
            host, port = nodes[replica].address
            assert ctl_main([
                "ha-status", "--host", host, "--port", str(port),
            ]) == 0
            assert "replica-of alpha" in capsys.readouterr().out
        finally:
            stop_all(nodes)


class TestEpochFencing:
    def test_stale_owner_stream_is_fenced_after_promotion(self, tmp_path):
        """Drive the fencing rule through real node state (no kill needed:
        we forge the stale frame).  Once the replica has been promoted, a
        frame from the deposed owner must bounce with ``fenced`` and the
        sender must stop streaming that context."""
        nodes, context, out, rst = build_ha_cluster(tmp_path, factor=2)
        try:
            chain = preference_chain(nodes, "alpha", 2)
            owner, replica = chain
            wait_until(lambda: nodes[replica].repl.store.has("alpha"))
            # Simulate the replica having promoted itself (owner death
            # from its point of view) without actually killing the owner.
            target = nodes[replica]
            with target._lock:
                if "alpha" not in target._active:
                    target._activate("alpha")
                target.ring.remove_node(owner)  # its view: owner is gone
            reply = target.repl.receive({
                "op": "repl", "from": owner, "context": "alpha",
                "epoch": 1, "seq": 99, "kind": "snap", "state": {},
            })
            assert reply["fenced"]
        finally:
            stop_all(nodes)
