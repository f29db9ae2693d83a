"""Live migration acceptance tests: moving a loaded context between
real nodes.

The tentpole scenario: a context with a blocked waiter and an in-flight
re-simulation is migrated off its node; the destination restores the
waiter table, resumes the restart, and the client — a plain gateway
connection (every owner unreachable to it: ``refuse_owner``) that issued
ONE open and then only waits — sees its ready arrive with zero retries
and zero lost replies.  A client that reached the owner directly keeps
the files it holds open across the move.  Abort and source-death
edge cases ride along: a failed cutover leaves the source serving, and a
partial pre-copy on the ring successor is promoted when the source dies
mid-handoff.
"""

import json
import os

import pytest

from repro.client.dvlib import TcpConnection
from repro.cluster import ClusterNode
from repro.cluster.link import PeerLink
from repro.core.errors import DVConnectionLost, SimFSError
from tests.integration.conftest import free_port, refuse_owner, wait_until
from tests.integration.test_cluster_stack import build_context, wait_ready
from tests.integration.test_ha_failover import (
    build_ha_cluster,
    preference_chain,
)

NODE_IDS = ("n1", "n2", "n3")


def build_cluster(tmp_path, alpha_delay=0.0, context_name="alpha"):
    """Three started nodes without replication (migration is the only
    way state moves); returns (nodes, context, out_dir, restart_dir)."""
    ports = {nid: free_port() for nid in NODE_IDS}
    specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
    nodes = {
        nid: ClusterNode(
            nid, port=ports[nid],
            peers=[s for s in specs if not s.startswith(f"{nid}@")],
            vnodes=32, heartbeat_interval=0.15, suspect_after=2,
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


def owner_of(nodes, context_name):
    any_node = next(iter(nodes.values()))
    with any_node._lock:
        return any_node.ring.owner(context_name)


def shard_waiters(node, context_name):
    try:
        shard = node.server.coordinator.shard(context_name)
    except SimFSError:
        return -1
    with shard.lock:
        return sum(len(w) for w in shard.waiters.values())


class TestLiveMigration:
    @pytest.mark.timeout(120)
    def test_migrate_blocked_waiter_zero_client_retries(self, tmp_path):
        """The acceptance scenario.  The client issues ONE open through a
        gateway and then only waits — the ready it receives after the
        migration must come from the cluster redirecting itself."""
        nodes, context, out, rst = build_cluster(tmp_path, alpha_delay=1.5)
        conn = None
        try:
            owner = owner_of(nodes, "alpha")
            others = [n for n in NODE_IDS if n != owner]
            dest, ingress = others[0], others[1]
            host, port = nodes[ingress].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="migrate-blocked-client", owner_dial=refuse_owner,
            )
            conn.attach("alpha")
            filename = context.filename_of(7)
            info = conn.open("alpha", filename)
            assert not info.available
            wait_until(
                lambda: shard_waiters(nodes[owner], "alpha") >= 1,
                message="waiter never registered at the source",
                nodes=nodes.values(),
            )
            result = nodes[owner].migration.migrate("alpha", dest)
            assert result["moved_waiters"] >= 1
            assert result["resumed_sims"] >= 1  # mid-restart handoff
            assert result["to"] == dest
            # Zero lost replies: the one blocked open resolves.
            assert wait_ready(conn, "alpha", filename, timeout=60.0)
            assert os.path.exists(os.path.join(out, filename))
            # The destination took over and every node redirected.
            assert "alpha" in nodes[dest].active_contexts()
            assert "alpha" not in nodes[owner].active_contexts()
            wait_until(
                lambda: all(
                    node.ring.owner("alpha") == dest
                    for node in nodes.values()
                ),
                message="ring never converged on the pinned owner",
                nodes=nodes.values(),
            )
            assert nodes[owner].metrics.get("migrate.completed").value == 1
            assert nodes[dest].metrics.get("migrate.adopted").value == 1
            # A fresh open lands on the destination's warm cache or a new
            # restart there — never errors.
            follow_up = conn.open("alpha", context.filename_of(8))
            if not follow_up.available:
                assert wait_ready(
                    conn, "alpha", context.filename_of(8), timeout=60.0
                )
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)

    @pytest.mark.timeout(120)
    def test_opens_racing_the_epoch_bump_lose_nothing(self, tmp_path):
        """Opens issued immediately before and after the cutover all
        resolve: the forward path retries through the pin redirect while
        the destination activates."""
        nodes, context, out, rst = build_cluster(tmp_path, alpha_delay=0.3)
        conn = None
        try:
            owner = owner_of(nodes, "alpha")
            others = [n for n in NODE_IDS if n != owner]
            dest, ingress = others[0], others[1]
            host, port = nodes[ingress].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="racing-client", owner_dial=refuse_owner,
            )
            conn.attach("alpha")
            first = [context.filename_of(k) for k in (3, 5, 7, 9)]
            late = [context.filename_of(k) for k in (11, 12, 13, 14)]
            for filename in first:
                conn.open("alpha", filename)
            nodes[owner].migration.migrate("alpha", dest)
            for filename in late:  # race the redirect window
                conn.open("alpha", filename)
            for filename in first + late:
                assert wait_ready(conn, "alpha", filename, timeout=60.0), \
                    f"{filename} never became ready"
            assert nodes[owner].metrics.get("migrate.completed").value == 1
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)

    @pytest.mark.timeout(120)
    def test_failed_cutover_aborts_and_source_keeps_serving(self, tmp_path):
        """If the final handoff frame never lands, the source rolls back:
        it re-pins itself, restores the captured state, and the blocked
        client still gets its ready from the source."""
        nodes, context, out, rst = build_cluster(tmp_path, alpha_delay=1.0)
        conn = None
        try:
            owner = owner_of(nodes, "alpha")
            others = [n for n in NODE_IDS if n != owner]
            dest, ingress = others[0], others[1]
            manager = nodes[owner].migration

            def drop_final(dest_id, frame):
                if "pin" in frame:
                    return "drop"  # the cutover frame vanishes
                return None

            nodes[owner].repl.frame_hook = drop_final
            host, port = nodes[ingress].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="abort-client", owner_dial=refuse_owner,
            )
            conn.attach("alpha")
            filename = context.filename_of(5)
            conn.open("alpha", filename)
            wait_until(
                lambda: shard_waiters(nodes[owner], "alpha") >= 1,
                message="waiter never registered at the source",
                nodes=nodes.values(),
            )
            with pytest.raises(DVConnectionLost):
                manager.migrate("alpha", dest)
            assert nodes[owner].metrics.get("migrate.aborted").value == 1
            assert "alpha" in nodes[owner].active_contexts()
            assert "alpha" not in nodes[dest].active_contexts()
            assert owner_of(nodes, "alpha") == owner
            # The captured-then-restored waiter still resolves — at the
            # source, with no client action.
            assert wait_ready(conn, "alpha", filename, timeout=60.0)
            assert os.path.exists(os.path.join(out, filename))
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)

    @pytest.mark.timeout(120)
    def test_source_death_promotes_partial_handoff(self, tmp_path):
        """A pre-copy snapshot that reached the ring successor is a warm
        start: when the source dies mid-migration, the successor promotes
        from the partial handoff instead of cold-restarting, and the
        replicated waiter resolves."""
        nodes, context, out, rst = build_cluster(tmp_path, alpha_delay=1.5)
        conn = None
        try:
            any_node = next(iter(nodes.values()))
            with any_node._lock:
                chain = any_node.ring.successors("alpha", 2)
            owner, successor = chain
            ingress = next(n for n in NODE_IDS if n not in chain)
            host, port = nodes[ingress].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="partial-client", owner_dial=refuse_owner,
            )
            conn.attach("alpha")
            filename = context.filename_of(7)
            conn.open("alpha", filename)
            wait_until(
                lambda: shard_waiters(nodes[owner], "alpha") >= 1,
                message="waiter never registered at the source",
                nodes=nodes.values(),
            )
            # The pre-copy phase delivered one snapshot, then the source
            # died before the cutover: forge exactly that state.
            with nodes[owner]._lock:
                state = nodes[owner]._capture_repl("alpha")
            reply = nodes[successor].repl.receive({
                "op": "repl", "from": owner, "context": "alpha",
                "epoch": 1, "seq": 1, "kind": "snap", "state": state,
            })
            assert reply["ok"]
            nodes[owner].stop(drain_timeout=0)
            # The successor inherits ownership and promotes from the
            # partial handoff — the waiter replays hot.
            assert wait_ready(conn, "alpha", filename, timeout=60.0)
            assert os.path.exists(os.path.join(out, filename))
            assert "alpha" in nodes[successor].active_contexts()
            promoted = nodes[successor].metrics.get("repl.promotions").value
            assert promoted >= 1
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)


    @pytest.mark.timeout(120)
    def test_owner_direct_hold_survives_migration(self, tmp_path):
        """A client that reached the owner directly holds a file when the
        context migrates.  Its release still goes to the source, which
        forwards it now; the destination got the hold with the handed-off
        state, so the release succeeds and the file's refcount ends at 0
        there."""
        nodes, context, out, rst = build_cluster(tmp_path)
        conn = None
        try:
            owner = owner_of(nodes, "alpha")
            dest, entry = [n for n in NODE_IDS if n != owner]
            host, port = nodes[entry].address
            conn = TcpConnection(
                host, port, {"alpha": out}, {"alpha": rst},
                client_id="holding-client",
            )
            conn.attach("alpha")
            filename = context.filename_of(5)
            if not conn.open("alpha", filename).available:
                assert wait_ready(conn, "alpha", filename, timeout=60.0)
            assert "holding-client" in nodes[owner].server._clients
            nodes[owner].migration.migrate("alpha", dest)
            conn.release("alpha", filename)
            shard = nodes[dest].server.coordinator.shard("alpha")
            with shard.lock:
                assert shard.area.refcount(context.key_of(filename)) == 0
                assert shard.open_files["holding-client"] == []
        finally:
            if conn is not None:
                conn.close()
            stop_all(nodes)


class TestMigrationOntoReplica:
    """Factor 2: the destination already holds the context's replica
    stream, and the migration rides that stream."""

    @pytest.mark.timeout(120)
    def test_the_new_owner_holds_no_record_of_its_context(self, tmp_path):
        nodes, context, out, rst = build_ha_cluster(tmp_path, factor=2)
        try:
            owner, replica = preference_chain(nodes, "alpha", 2)
            wait_until(
                lambda: nodes[replica].repl.store.has("alpha"),
                message="replica never received a snapshot",
                nodes=nodes.values(),
            )
            nodes[owner].migration.migrate("alpha", replica)
            # The new owner's own stream is up: some other node now holds
            # a record that came from it.
            wait_until(
                lambda: any(
                    node.repl.store.describe().get("alpha", {}).get("src")
                    == replica
                    for nid, node in nodes.items() if nid != replica
                ),
                message="the new owner never replicated the context",
                nodes=nodes.values(),
            )
            assert not nodes[replica].repl.store.has("alpha")
            ha = nodes[replica]._op_ha(None, {"op": "ha"})["ha"]
            assert ha["contexts"]["alpha"]["owner"] == replica
            assert "alpha" not in ha["replica_of"]
        finally:
            stop_all(nodes)

    @pytest.mark.timeout(120)
    def test_migrating_to_a_synced_replica_sends_no_snapshot(self, tmp_path):
        """Pre-copy is the replica stream's next delta, and so is the
        final frame: no snapshot between migrate() and the cutover."""
        seen = []  # (sender, peer, kind, carries the pin, snapshots sent)
        nodes = {}

        def recorder(nid):
            def hook(peer_id, frame):
                if nid in nodes:
                    seen.append((
                        nid, peer_id, frame["kind"], "pin" in frame,
                        nodes[nid].metrics.get("repl.snapshots_sent").value,
                    ))
            return hook

        built, context, out, rst = build_ha_cluster(
            tmp_path, factor=2, anti_entropy_interval=300.0,
            frame_hooks={nid: recorder(nid) for nid in NODE_IDS},
        )
        nodes.update(built)
        try:
            owner, replica = preference_chain(nodes, "alpha", 2)
            wait_until(
                lambda: nodes[owner].repl.describe()["contexts"]["alpha"]
                ["replicas"][0]["synced"],
                message="the replica stream never synced",
                nodes=nodes.values(),
            )
            before = nodes[owner].metrics.get("repl.snapshots_sent").value
            mark = len(seen)
            nodes[owner].migration.migrate("alpha", replica)
            frames = [
                entry for entry in seen[mark:]
                if entry[:2] == (owner, replica)
            ]
            finals = [entry for entry in frames if entry[3]]
            assert finals, "no final frame rode the replica stream"
            assert finals[0][4] == before
            assert all(kind == "delta" for _, _, kind, *_ in frames)
        finally:
            stop_all(nodes)


class TestMigrationValidation:
    @pytest.mark.timeout(120)
    def test_bad_targets_are_rejected(self, tmp_path):
        nodes, context, out, rst = build_cluster(tmp_path)
        try:
            owner = owner_of(nodes, "alpha")
            from repro.core.errors import InvalidArgumentError

            with pytest.raises(InvalidArgumentError):
                nodes[owner].migration.migrate("alpha", owner)
            with pytest.raises(InvalidArgumentError):
                nodes[owner].migration.migrate("alpha", "ghost")
            with pytest.raises(InvalidArgumentError):
                nodes[owner].migration.migrate("nope", owner)
        finally:
            stop_all(nodes)


class TestMigrationCLI:
    @pytest.mark.timeout(120)
    def test_ctl_migrate_and_rebalance_status(self, tmp_path, capsys):
        from repro.cli import main as ctl_main

        nodes, context, out, rst = build_cluster(tmp_path)
        try:
            owner = owner_of(nodes, "alpha")
            others = [n for n in NODE_IDS if n != owner]
            dest, bystander = others[0], others[1]
            # Drive the migrate through a NON-owner: the op forwards to
            # the owner, which runs the protocol.
            host, port = nodes[bystander].address
            assert ctl_main([
                "migrate", "alpha", dest,
                "--host", host, "--port", str(port),
            ]) == 0
            printed = capsys.readouterr().out
            assert f"migrated alpha {owner} -> {dest}" in printed
            assert "waiters moved" in printed
            wait_until(
                lambda: all(
                    node.ring.owner("alpha") == dest
                    for node in nodes.values()
                ),
                message="ring never converged after CLI migrate",
                nodes=nodes.values(),
            )
            # Re-issuing the same move is a calm no-op.
            assert ctl_main([
                "migrate", "alpha", dest,
                "--host", host, "--port", str(port),
            ]) == 0
            assert "already on" in capsys.readouterr().out
            # rebalance-status on the destination shows the pin and the
            # incoming transfer.
            host, port = nodes[dest].address
            assert ctl_main([
                "rebalance-status", "--host", host, "--port", str(port),
            ]) == 0
            printed = capsys.readouterr().out
            assert f"node {dest}" in printed
            assert f"pin alpha -> {dest}" in printed
            assert "last incoming: alpha" in printed
            assert "load alpha: waiters=" in printed
            assert "migrate." in printed
            # JSON view parses and carries the same facts.
            assert ctl_main([
                "rebalance-status", "--host", host, "--port", str(port),
                "--json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["rebalance"]["pins"]["alpha"] == dest
            assert any(
                name.startswith("migrate.") for name in payload["metrics"]
            )
            # The bare load probe over a peer link answers too.
            link = PeerLink("probe", dest, host, port)
            try:
                reply = link.call({"op": "load"})
            finally:
                link.close()
            assert reply["load"]["node"] == dest
            assert "alpha" in reply["load"]["contexts"]
            # Unknown context fails loudly.
            assert ctl_main([
                "migrate", "nope", dest,
                "--host", host, "--port", str(port),
            ]) == 1
            assert "migrate failed" in capsys.readouterr().err
        finally:
            stop_all(nodes)
