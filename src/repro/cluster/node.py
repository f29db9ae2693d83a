"""ClusterNode: a DV daemon cooperating in a consistent-hash ring.

One :class:`ClusterNode` wraps one :class:`~repro.dv.server.DVServer`
and adds the three cluster planes:

**Ownership** — every node knows the full context catalog
(:meth:`add_context` is called with the same specs on every node) but
*activates* only the contexts the :class:`~repro.cluster.ring.HashRing`
assigns to it: activation registers the shard with the coordinator and
scans the (PFS-shared) storage area; deactivation unregisters it.  When
membership changes, the ring diff drives activate/deactivate on every
node independently — no coordinator election, no migration protocol,
just convergent hashing.

**Gateway forwarding** — any node accepts any client.  An op naming a
context this node does not own is forwarded to the owner, and the
``ready`` for a blocked open travels the reverse path, by the shared
:class:`~repro.cluster.router.Router`; this module only tells it who
owns what, how to dial a peer and what a dead one means.  Clients that
want one-hop steady state use
:class:`~repro.cluster.client.ClusterConnection` instead and talk to
owners directly.

**Membership/failover** — a heartbeat thread gossips the
:class:`~repro.cluster.membership.PeerTable` with every live peer, at
once and then every ``heartbeat_interval``; a peer is declared dead after
``suspect_after`` missed rounds, or immediately when a forwarding RPC
hits a torn connection.  A peer that has *never* answered gets a **join
phase** first: for this node's first ``suspect_after`` intervals a failed
dial to it proves nothing (it may not be listening yet) and is retried on
a short doubling schedule, and a peer's first gossip is answered with a
round of our own, so two nodes started in either order serve forwarded
ops one round trip after the later one is up.  Death removes
the node from the ring, the survivors activate the contexts they
inherit, and the ingress nodes **replay** every forwarded open still
waiting on the dead owner against the new one — blocked clients are
re-queued instead of hung.  A node losing ownership while alive does the
same replay for its own captured waiters before unregistering the shard.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass

from repro.cluster.autoscaler import Autoscaler
from repro.cluster.link import DialBackingOff, DialBackoff, PeerLink
from repro.cluster.membership import PeerTable
from repro.cluster.migrate import MigrationManager
from repro.cluster.replication import ReplicationManager
from repro.cluster.ring import HashRing
from repro.cluster.router import Router
from repro.core.context import SimulationContext
from repro.core.errors import (
    DVConnectionLost,
    ErrorCode,
    FileNotInContextError,
    InvalidArgumentError,
    SimFSError,
)
from repro.data.client import DataClient
from repro.data.server import DataServer
from repro.dv.protocol import OP_FWD, OP_GOSSIP
from repro.dv.server import DVServer, reply_frame

__all__ = ["ContextSpec", "ClusterNode", "parse_peer"]


def parse_peer(spec: str) -> tuple[str | None, str, int]:
    """Parse ``id@host:port`` (ring membership known up front) or
    ``host:port`` (node id learned from the first gossip exchange)."""
    node_id: str | None = None
    addr = spec
    if "@" in spec:
        node_id, addr = spec.split("@", 1)
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise InvalidArgumentError(
            f"peer spec {spec!r} is not [id@]host:port"
        )
    return node_id, host, int(port)


@dataclass
class ContextSpec:
    """Catalog entry: how to activate one context on this node."""

    context: SimulationContext
    output_dir: str
    restart_dir: str
    alpha_delay: float = 0.0
    tau_delay: float = 0.0


class ClusterNode:
    """One DV daemon in a cluster of cooperating peers."""

    def __init__(
        self,
        node_id: str,
        host: str = "127.0.0.1",
        port: int = 0,
        peers: tuple[str, ...] | list[str] = (),
        vnodes: int = 16,
        generation: int = 1,
        heartbeat_interval: float = 0.5,
        suspect_after: int = 3,
        rpc_timeout: float = 10.0,
        mode: str = "selector",
        workers: int | None = None,
        engine_workers: int | None = None,
        data_port: int = 0,
        data_link_rate: float | None = None,
        replication_factor: int = 1,
        repl_interval: float = 0.1,
        anti_entropy_interval: float = 5.0,
        repl_frame_hook=None,
        autoscale_policy=None,
        autoscale_interval: float = 2.0,
    ) -> None:
        if mode != "selector":
            # The selector front end is the only one.  The keyword stays,
            # single-valued, because the frozen benchmarks/e2e/daemon.py
            # passes it; the benchmark PR that edits that file drops both.
            raise InvalidArgumentError(f"unknown server mode {mode!r}")
        if replication_factor < 1:
            raise InvalidArgumentError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if replication_factor > 1 and engine_workers is not None and engine_workers > 1:
            # The executor pool's shards live in other processes; the
            # replication pump cannot snapshot them from here.  HA is a
            # single-coordinator feature for now.
            raise InvalidArgumentError(
                "replication_factor > 1 is not supported with engine_workers"
            )
        self.node_id = node_id
        self.heartbeat_interval = heartbeat_interval
        self.rpc_timeout = rpc_timeout
        # Cluster nodes need worker headroom beyond the plain daemon's
        # default: a forwarded run (a connection's consecutive forwardable
        # ops, often just one) parks a worker on a peer round trip, and
        # gossip merges run there too.
        self.server = DVServer(host, port, workers=workers or 4)
        # Spans recorded by this daemon must carry the cluster identity,
        # not the generic "dv", so a merged trace names its hops.
        self.server.obs.node = node_id
        self.metrics = self.server.metrics
        #: Forwarding core: ingress tables, proxied clients, peer links.
        #: A torn link is hard evidence against a peer (dead on the spot);
        #: a timeout only feeds the graded suspicion path.
        self.router = Router(
            node_id,
            resolve=self._resolve,
            dial=self._dial,
            execute_local=self._execute_local,
            ready_sink=self.server._push_ready,
            send=self.server._send,
            on_unreachable=lambda peer_id: self._apply_membership(
                lambda: self.table.link_failed(peer_id)
            ),
            on_timeout=lambda peer_id: self._apply_membership(
                lambda: self.table.heartbeat_missed(peer_id)
            ),
            is_stale=self._owner_gone,
            metrics=self.metrics,
            prefix="cluster.",
            rpc_timeout=rpc_timeout,
            obs=self.server.obs,
        )
        #: Bulk data plane: bound here (so the port is known before the
        #: engine forks and before hellos advertise it), threads started
        #: in :meth:`start`.  Serves every context in the catalog from its
        #: PFS directory; files this node cannot resolve locally are
        #: proxied one hop from the ring owner's data port into a spool.
        self.data = DataServer(
            host, data_port,
            link_rate=data_link_rate,
            metrics=self.server.metrics,
            resolver=self._data_resolve,
            lister=self._data_list,
            upstream=self._data_upstream,
            obs=self.server.obs,
        )
        self._spool: str | None = None
        self._spool_lock = threading.Lock()
        self.server.set_data_endpoint(host, self.data.port)
        #: Multi-core engine (``engine_workers > 1``): contexts this node
        #: owns are served by a shared-nothing executor pool instead of
        #: the node's own coordinator; the node stays the cluster-facing
        #: ingress/gossip front and forwards owned-context ops inward.
        self.engine = None
        if engine_workers is not None and engine_workers > 1:
            from repro.dv.multicore import MultiCoreServer

            self.engine = MultiCoreServer(
                workers=engine_workers,
                accept="none",
                rpc_timeout=rpc_timeout,
                ready_router=self.router.deliver_ready,
                data_endpoint=(host, self.data.port),
            )
        self.ring = HashRing(vnodes)
        self.table = PeerTable(
            node_id, host, port,
            generation=generation, suspect_after=suspect_after,
        )
        #: Serializes membership/ring/activation state.  Never held across
        #: a peer round trip (replays run after release).
        self._lock = threading.RLock()
        self._seeds: list[tuple[str, int]] = []
        self._specs: dict[str, ContextSpec] = {}
        self._active: set[str] = set()
        self._stop = threading.Event()
        self._hb_thread: threading.Thread | None = None
        # Re-dial pacing for unreachable peers: one shared backoff gate
        # covers gossip dead-peer probes and the router's lazy dials, so a
        # down peer costs a bounded (and jittered) trickle of connect
        # attempts instead of one per round/op.
        self._dial_backoff = DialBackoff(
            base=heartbeat_interval,
            cap=max(heartbeat_interval * 64, 5.0),
        )
        # Join phase: until ``_join_until`` (set by start()), a failed dial
        # to a peer or seed that never answered is no evidence against it —
        # it is paced by this short schedule instead of the gate above and
        # does not count as a missed heartbeat.  A completed dial or the
        # peer's own gossip puts it in ``_answered`` for good.
        self._join_backoff = DialBackoff(
            base=min(0.005, heartbeat_interval), cap=heartbeat_interval,
            jitter=0.0,
        )
        self._answered: set[str] = set()
        self._join_until = 0.0

        for spec in peers:
            peer_id, peer_host, peer_port = parse_peer(spec)
            if peer_id is None:
                self._seeds.append((peer_host, peer_port))
            elif peer_id != node_id:
                self.table.upsert(peer_id, peer_host, peer_port)

        self._m_gossip = self.metrics.counter("cluster.gossip_rounds")
        self._m_failovers = self.metrics.counter("cluster.failovers")
        self._m_epoch = self.metrics.gauge("cluster.ring_epoch")
        self._m_peers = self.metrics.gauge("cluster.peers_alive")
        self._m_redial = self.metrics.counter("cluster.redial")

        #: HA tier: owner→replica state streaming and hot promotion.
        #: None at factor 1 (the pre-HA single-owner behavior).
        self.repl: ReplicationManager | None = None
        if replication_factor > 1:
            self.repl = ReplicationManager(
                self, replication_factor,
                interval=repl_interval,
                anti_entropy_interval=anti_entropy_interval,
                frame_hook=repl_frame_hook,
            )

        #: Versioned placement pins (context -> (target | None, version)),
        #: the migration overlay on the ring.  Gossip merges them with
        #: higher-version-wins, so every node converges on the same
        #: placement; a ``None`` target is a dissolved pin that must still
        #: outrank the stale pin it replaced.
        self._pin_versions: dict[str, tuple[str | None, int]] = {}
        self._synced_epoch = -1
        #: Live migration protocol, both halves (source and destination).
        self.migration = MigrationManager(self)
        #: Decentralized autoscaler: each node watches its own load plus
        #: the peers' and migrates contexts *it* owns when saturated.
        self.autoscaler: Autoscaler | None = None
        if autoscale_policy is not None:
            self.autoscaler = Autoscaler(
                self, autoscale_policy, interval=autoscale_interval
            )

        self.server.register_op(
            OP_FWD, self.router.on_fwd, reply_op="fwd_reply", needs_worker=True
        )
        self.server.register_op(OP_GOSSIP, self._op_gossip, needs_worker=True)
        # describe() takes the cluster lock, which activation may hold
        # across a PFS directory scan — never run it on the event loop.
        self.server.register_op("cluster", self._op_cluster, needs_worker=True)
        self.server.register_op("repl", self._op_repl, needs_worker=True)
        self.server.register_op("ha", self._op_ha, needs_worker=True)
        # Migration control/data frames and the load/rebalance probes all
        # take the cluster lock (and migrate crosses the wire) — workers.
        self.server.register_op("migrate", self._op_migrate, needs_worker=True)
        self.server.register_op("load", self._op_load, needs_worker=True)
        self.server.register_op(
            "rebalance", self._op_rebalance, needs_worker=True
        )
        # Observability plane: cluster-wide versions of the daemon's
        # trace/trace_slow ops — merge local spans (and the engine's)
        # with every live peer's, reporting unreachable peers in the
        # payload instead of failing the whole query.
        self.server.register_op(
            "trace", self._op_trace, needs_worker=True, replace=True
        )
        self.server.register_op(
            "trace_slow", self._op_trace_slow, needs_worker=True, replace=True
        )
        self.server.register_op(
            "metrics_text", self._op_metrics_text,
            needs_worker=True, replace=True,
        )
        if self.engine is not None:
            # The real shards live in the pool: a client's `stats` must
            # show the merged executor view, not this node's empty
            # coordinator.
            self.server.register_op(
                "stats", self._op_engine_stats, needs_worker=True, replace=True
            )
        self.server.set_cluster_hooks(
            route_ops=self.router.route,
            ready_router=self.router.route_ready,
            hello_extra=self._hello_extra,
            drop_hook=self.router.drop_client,
        )
        with self._lock:
            self._sync_ring()

    # ------------------------------------------------------------------ #
    # Context catalog
    # ------------------------------------------------------------------ #
    def add_context(
        self,
        context: SimulationContext,
        output_dir: str,
        restart_dir: str,
        alpha_delay: float = 0.0,
        tau_delay: float = 0.0,
    ) -> None:
        """Declare a context cluster-wide; activate it here if owned.

        Call with the same catalog on every node — ``output_dir``/
        ``restart_dir`` normally live on the shared PFS, so whichever
        node owns the context finds the same files.
        """
        with self._lock:
            self._specs[context.name] = ContextSpec(
                context, output_dir, restart_dir, alpha_delay, tau_delay
            )
            if self.engine is not None:
                # The pool catalog ships to executors at spawn time, so
                # every context must be declared before start() — inactive
                # until ring ownership says otherwise.
                self.engine.add_context(
                    context, output_dir, restart_dir,
                    alpha_delay=alpha_delay, tau_delay=tau_delay,
                    active=False,
                )
            if self.ring.owner(context.name) == self.node_id:
                self._activate(context.name)

    def owner_of(self, context_name: str) -> str | None:
        with self._lock:
            return self.ring.owner(context_name)

    def active_contexts(self) -> list[str]:
        with self._lock:
            return sorted(self._active)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def start(self) -> None:
        if self.engine is not None:
            # Fork the executor fleet before this process grows threads
            # (server loop, heartbeats): forking a multithreaded parent
            # risks inheriting locks mid-flight.
            self.engine.start()
        self.data.start()
        self.server.start()
        host, port = self.server.address
        with self._lock:
            me = self.table.peers[self.node_id]
            me.host, me.port = host, port
            me.data_port = self.data.port
        self._join_until = (
            time.monotonic() + self.table.suspect_after * self.heartbeat_interval
        )
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"cluster-hb-{self.node_id}",
            daemon=True,
        )
        self._hb_thread.start()
        if self.repl is not None:
            self.repl.start()
        if self.autoscaler is not None:
            self.autoscaler.start()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Tear the node down (abruptly from the peers' point of view —
        survivors notice through heartbeats, exactly like a crash)."""
        self._stop.set()
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self.repl is not None:
            self.repl.stop()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
        self.router.close()
        # Client plane first (drains replies that may still need the
        # engine), then the executor pool.
        self.server.stop(drain_timeout=drain_timeout)
        if self.engine is not None:
            self.engine.stop(drain_timeout=drain_timeout)
        self.data.stop()
        if self._spool is not None:
            shutil.rmtree(self._spool, ignore_errors=True)
            self._spool = None

    def __enter__(self) -> "ClusterNode":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Ring maintenance (all called with self._lock held)
    # ------------------------------------------------------------------ #
    def _sync_ring(
        self,
    ) -> tuple[
        list[tuple[str, str]], list[tuple[str, str, str]], list[str]
    ]:
        """Reconcile ring membership with the peer table; activate and
        deactivate contexts accordingly.  Returns the client re-attaches,
        waiter replays and replica promotions the caller must run *after*
        releasing the lock (they cross the wire)."""
        alive = set(self.table.alive_ids())
        for node_id in self.ring.nodes():
            if node_id not in alive:
                self.ring.remove_node(node_id)
        for node_id in sorted(alive):
            if node_id not in self.ring:
                self.ring.add_node(node_id)
        # Placement pins: a pin whose target died dissolves at a *higher*
        # version (every survivor computes the same version, so gossip
        # converges and the stale pin can never resurrect); a pin whose
        # target just joined the ring is (re-)applied.
        ring_pins = self.ring.pins()
        for name, (target, version) in list(self._pin_versions.items()):
            if target is not None and target not in alive:
                self._pin_versions[name] = (None, version + 1)
                self.ring.unpin(name)
            elif target is not None and ring_pins.get(name) != target:
                self.ring.pin(name, target)
        # Pre-copied migration state whose source died while the ring
        # assigned the context elsewhere is stale — drop it.
        self.migration.prune(alive, self.ring.owner)
        self._m_epoch.set(self.ring.epoch)
        self._m_peers.set(len(alive))
        # Membership *or* pin movement both bump the epoch; either one
        # must re-run the activation reconcile below.
        if self.ring.epoch == self._synced_epoch:
            return [], [], []
        self._synced_epoch = self.ring.epoch
        if self.repl is not None:
            # Membership moved: re-replication from here on is healing.
            self.repl.schedule_heal()
        reattaches: list[tuple[str, str]] = []
        replays: list[tuple[str, str, str]] = []
        promotions: list[str] = []
        for name in sorted(self._specs):
            owner = self.ring.owner(name)
            if owner == self.node_id and name not in self._active:
                self._activate(name)
                if (
                    self.repl is not None and self.repl.store.has(name)
                ) or self.migration.has_incoming(name):
                    # We hold warm state for the context we just
                    # inherited — a replica stream or a pre-copied
                    # migration handoff whose source died: hot promotion
                    # (runs on the replay thread, outside this lock).
                    promotions.append(name)
            elif owner != self.node_id and name in self._active:
                attached, waits = self._deactivate(name)
                reattaches.extend(attached)
                replays.extend(waits)
        # This node's clients whose forwarded attachments and opens point
        # at an owner that died: re-register and replay them against
        # whoever the ring now assigns.
        stale_attached, stale_waits = self.router.stale()
        return reattaches + stale_attached, replays + stale_waits, promotions

    def _activate(self, name: str) -> None:
        if self.engine is not None:
            self.engine.activate(name)
            self._active.add(name)
            return
        spec = self._specs[name]
        self.server.add_context(
            spec.context, spec.output_dir, spec.restart_dir,
            alpha_delay=spec.alpha_delay, tau_delay=spec.tau_delay,
        )
        self._active.add(name)

    def _deactivate(
        self, name: str
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
        """Unregister a context this node no longer owns.  Attached
        clients and captured waiters are returned for re-registration and
        replay against the new owner (waiters are cleared first, so the
        unregister does not fail them)."""
        self._active.discard(name)
        if self.engine is not None:
            return self.engine.deactivate(name)
        return self.server.coordinator.release_context(name)

    # ------------------------------------------------------------------ #
    # Membership plane
    # ------------------------------------------------------------------ #
    def _apply_membership(self, mutate) -> None:
        """Run a peer-table mutation; if it changed the ring, reassign
        contexts, re-attach displaced clients and replay orphaned waiters
        (outside the lock)."""
        with self._lock:
            reattaches, replays, promotions = (
                self._sync_ring() if mutate() else ([], [], [])
            )
        if reattaches or replays or promotions:
            self._m_failovers.inc()
            # A replay serializes peer round trips: run it on its own
            # thread so neither the heartbeat loop nor a pool worker
            # (both of which land here) stalls on it — a starved worker
            # pool would time out inbound gossip and cascade false
            # death verdicts.
            threading.Thread(
                target=self._replay, args=(reattaches, replays, promotions),
                name=f"cluster-replay-{self.node_id}", daemon=True,
            ).start()

    def _owner_gone(self, owner: str, context_name: str) -> bool:
        """Router hook (lock held, from :meth:`_sync_ring`): forwarded
        state is stale once the owner it names is dead.  A live former
        owner hands its attachments and waiters to the new one itself."""
        peer = self.table.get(owner)
        return peer is None or not peer.alive

    def _joining(self, key: str) -> bool:
        """Is this node still in the join phase with the peer (or the
        ``host:port`` seed) ``key``?"""
        return key not in self._answered and time.monotonic() < self._join_until

    def _heartbeat_loop(self) -> None:
        """Gossip at once, then every ``heartbeat_interval``; in between,
        while the join phase lasts, retry whoever has not answered yet."""
        beat = 0.0  # monotonic time the next full round is due
        while True:
            full = time.monotonic() >= beat
            try:
                self._gossip_round(joining_only=not full)
            except Exception:
                # The membership plane must survive any single bad round.
                pass
            if full:
                beat = time.monotonic() + self.heartbeat_interval
            if self._stop.wait(self._until_next_round(beat)):
                return

    def _until_next_round(self, beat: float) -> float:
        """Seconds the heartbeat thread may sleep: until ``beat``, or until
        the earliest join-phase retry is due."""
        now = time.monotonic()
        wait = beat - now
        if now < self._join_until:
            with self._lock:
                waiting = [
                    p.node_id for p in self.table.alive_peers()
                    if p.node_id not in self._answered
                ]
                waiting += [f"{host}:{port}" for host, port in self._seeds]
            for key in waiting:
                wait = min(wait, self._join_backoff.remaining(key))
        return max(wait, 0.0)

    def _gossip_round(self, joining_only: bool = False) -> None:
        """Exchange views with every live peer, probe the dead ones and
        the unresolved seeds.  ``joining_only`` is the join phase's retry
        between two rounds: only peers and seeds that never answered and
        whose join-schedule window has passed."""
        with self._lock:
            view = self.table.view()
            pins = self._pins_wire()
            targets = list(self.table.alive_peers())
            known_addrs = {(p.host, p.port) for p in self.table.peers.values()}
        if joining_only:
            targets = [
                p for p in targets
                if self._joining(p.node_id)
                and self._join_backoff.ready(p.node_id)
            ]
        frame = {
            "op": OP_GOSSIP, "from": self.node_id,
            "view": view, "pins": pins,
        }
        for peer in targets:
            if self._stop.is_set():
                return
            try:
                reply = self.router.link(peer.node_id).call(
                    frame, timeout=self.rpc_timeout
                )
            except (DVConnectionLost, SimFSError, OSError):
                if not self._joining(peer.node_id):
                    self._apply_membership(
                        lambda peer_id=peer.node_id:
                            self.table.heartbeat_missed(peer_id)
                    )
                continue
            self._m_gossip.inc()
            peer_view = reply.get("view") or []
            peer_pins = reply.get("pins") or []
            self._apply_membership(
                lambda peer_id=peer.node_id, peer_view=peer_view,
                peer_pins=peer_pins: (
                    self.table.heartbeat_ok(peer_id, now=time.time()),
                    self.table.merge_view(peer_view, now=time.time())
                    | self._merge_pins(peer_pins),
                )[1]
            )
        # Probe dead peers too: if both sides declared each other dead
        # (symmetric partition), neither would otherwise ever dial again.
        # The shared dial-backoff gate spaces probes out (capped
        # exponential with jitter) so a decommissioned peer does not cost
        # every round a dial timeout forever.
        with self._lock:
            dead = [] if joining_only else [
                p for p in self.table.peers.values()
                if not p.alive and p.node_id != self.node_id
            ]
        for peer in dead:
            if self._stop.is_set():
                return
            if not self._dial_backoff.ready(peer.node_id):
                continue
            self._m_redial.inc()
            try:
                probe = PeerLink(
                    self.node_id, peer.node_id, peer.host, peer.port,
                    connect_timeout=1.0,
                )
            except DVConnectionLost:
                self._dial_backoff.failed(peer.node_id)
                continue
            try:
                reply = probe.call(frame, timeout=self.rpc_timeout)
            except (DVConnectionLost, SimFSError, OSError):
                self._dial_backoff.failed(peer.node_id)
                continue
            finally:
                probe.close()
            self._dial_backoff.succeeded(peer.node_id)
            self._answered.add(peer.node_id)
            peer_view = reply.get("view") or []
            peer_pins = reply.get("pins") or []
            self._apply_membership(
                lambda peer_id=peer.node_id, peer_view=peer_view,
                peer_pins=peer_pins: (
                    self.table.mark_alive(peer_id, now=time.time())
                    | self.table.merge_view(peer_view, now=time.time())
                    | self._merge_pins(peer_pins)
                )
            )
        # Seeds configured as bare host:port — gossip once to learn ids.
        for host, port in list(self._seeds):
            if (host, port) in known_addrs:
                self._seeds.remove((host, port))
                continue
            key = f"{host}:{port}"
            if joining_only and not self._join_backoff.ready(key):
                continue
            # Whatever happens below, the join schedule spaces the next try.
            self._join_backoff.failed(key)
            try:
                # Bounded dial: an unreachable seed must not stretch the
                # heartbeat round (and with it, failure detection).  Under
                # its own hello id: the seed answers this probe with a
                # round of its own, ours follows at once, and the peer
                # admits one connection per id — a probe it has not
                # finished dropping must not get that dial refused.
                probe = PeerLink(
                    f"{self.node_id}/seed-probe", key, host, port,
                    connect_timeout=1.0,
                )
            except DVConnectionLost:
                continue
            try:
                reply = probe.call(frame, timeout=self.rpc_timeout)
            except (DVConnectionLost, SimFSError, OSError):
                continue
            finally:
                probe.close()
            peer_id = reply.get("from")
            peer_view = reply.get("view") or []
            if isinstance(peer_id, str):
                self._apply_membership(
                    lambda: self.table.upsert(
                        peer_id, host, port, now=time.time()
                    ) | self.table.merge_view(peer_view, now=time.time())
                )
                self._seeds.remove((host, port))

    def _dial(self, node_id: str, **callbacks) -> PeerLink:
        """Router hook: a link to a live peer, behind the back-off gate."""
        peer = self.table.get(node_id)
        if peer is None or not peer.alive:
            raise DVConnectionLost(f"peer {node_id!r} is not alive")
        joining = self._joining(node_id)
        backoff = self._join_backoff if joining else self._dial_backoff
        wait = backoff.remaining(node_id)
        if wait > 0:
            raise DialBackingOff(node_id, wait)
        if self._dial_backoff.failures(node_id):
            self._m_redial.inc()
        try:
            link = PeerLink(
                self.node_id, node_id, peer.host, peer.port, **callbacks
            )
        except DVConnectionLost:
            if joining:
                # It may not be listening yet: no verdict, a short wait.
                raise DialBackingOff(
                    node_id, self._join_backoff.failed(node_id)
                ) from None
            self._dial_backoff.failed(node_id)
            raise
        self._dial_backoff.succeeded(node_id)
        self._answered.add(node_id)
        return link

    # ------------------------------------------------------------------ #
    # Router hooks: ownership and local execution
    # ------------------------------------------------------------------ #
    def _resolve(self, context) -> tuple[str | None, bool]:
        """Router hook: ``(owner, known)`` for a context, activating it
        here first if the ring says it is ours and it is not up yet."""
        promote = False
        with self._lock:
            owner = self.ring.owner(context) if context else None
            known = context in self._specs
            if owner == self.node_id and known and context not in self._active:
                self._activate(context)
                # A forwarded op can beat the heartbeat to the ring
                # change: promote warm state here too, not only from
                # _sync_ring, or the first op after a failover would
                # see a cold shard.
                promote = (
                    self.repl is not None and self.repl.store.has(context)
                ) or self.migration.has_incoming(context)
        if promote:
            try:
                self._promote_warm(context)
            except Exception:
                pass
        return owner, known

    def _execute_local(self, proxy, messages: list[dict]) -> list[bytes]:
        """Router hook: run a routed client's ops on this node's shards."""
        if self.engine is not None:
            return [
                reply_frame(message, self.engine.forward(proxy.client_id, message))
                for message in messages
            ]
        return self.server.serve_ops(proxy, messages)

    def _replay(
        self,
        reattaches: list[tuple[str, str]],
        replays: list[tuple[str, str, str]],
        promotions: tuple[str, ...] | list[str] = (),
    ) -> None:
        """The cross-wire half of a ring change.  Promotions run first: a
        hot-promoted shard already holds the dead owner's waiter table, so
        the replays after it are idempotent re-registrations."""
        for context_name in promotions:
            try:
                self._promote_warm(context_name)
            except Exception:
                pass  # a failed promotion degrades to the cold path
        self.router.replay(reattaches, replays)

    # ------------------------------------------------------------------ #
    # Remaining hooks and service ops
    # ------------------------------------------------------------------ #
    def _op_gossip(self, conn, message: dict) -> dict:
        view = message.get("view")
        pins = message.get("pins")
        sender = message.get("from")

        def mutate() -> bool:
            changed = False
            if isinstance(sender, str):
                # Direct contact outranks any death rumor: the peer is
                # talking to us, so it is alive — this is the rejoin path
                # for a peer that was falsely declared dead (rumors at
                # the same generation can never resurrect it).
                changed |= self.table.mark_alive(sender, now=time.time())
            if isinstance(view, list):
                changed |= self.table.merge_view(view, now=time.time())
            if isinstance(pins, list):
                changed |= self._merge_pins(pins)
            return changed

        self._apply_membership(mutate)
        if isinstance(sender, str) and sender not in self._answered:
            # First contact, and it came from the peer: answer with a round
            # of our own now, so its join completes ours too instead of
            # waiting for our retry schedule (or a whole interval).
            self._answered.add(sender)
            self._gossip_soon()
        with self._lock:
            return {
                "from": self.node_id,
                "view": self.table.view(),
                "pins": self._pins_wire(),
                "epoch": self.ring.epoch,
            }

    def _op_cluster(self, conn, message: dict) -> dict:
        return {
            "cluster": self.describe(),
            "metrics": self.metrics.snapshot("cluster."),
        }

    # ------------------------------------------------------------------ #
    # Observability plane (cluster-wide trace reconstruction)
    # ------------------------------------------------------------------ #
    def _obs_peer_query(self, message: dict):
        """Fan one obs query out to every live peer with recursion off;
        yields ``(peer_id, reply | None)`` — ``None`` marks a peer that
        could not be reached (the caller reports it, never fails).
        Peers gossip already declared dead are yielded as unreachable
        without burning a dial on them: their spans are just as missing
        from the merged view either way, and a partial view must say so."""
        with self._lock:
            peer_ids = [p.node_id for p in self.table.alive_peers()]
            dead_ids = [
                p.node_id for p in self.table.peers.values()
                if not p.alive and p.node_id != self.node_id
            ]
        for peer_id in dead_ids:
            yield peer_id, None
        for peer_id in peer_ids:
            try:
                reply = self.router.link(peer_id).call(
                    dict(message, fanout=0), timeout=self.rpc_timeout
                )
            except (DVConnectionLost, SimFSError, OSError):
                reply = None
            yield peer_id, reply

    def _op_trace(self, conn, message: dict) -> dict:
        """Cluster ``trace`` op: one trace's spans merged from every
        reachable node (and this node's executor pool), deduplicated by
        span id and sorted by start time."""
        trace_id = message.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise InvalidArgumentError("trace requires a 'trace_id' string")
        spans = list(self.server.obs.trace(trace_id))
        if self.engine is not None:
            spans.extend(self.engine.trace_spans(trace_id))
        nodes = [self.node_id]
        unreachable: list[str] = []
        if message.get("fanout", 1):
            query = {"op": "trace", "trace_id": trace_id}
            for peer_id, reply in self._obs_peer_query(query):
                if reply is None:
                    unreachable.append(peer_id)
                    continue
                payload = reply.get("trace") or {}
                spans.extend(payload.get("spans") or ())
                nodes.extend(payload.get("nodes") or (peer_id,))
                unreachable.extend(payload.get("unreachable") or ())
        seen: set[str] = set()
        merged = []
        for span in spans:
            span_id = span.get("span_id")
            if span_id in seen:
                continue
            seen.add(span_id)
            merged.append(span)
        merged.sort(key=lambda s: (s.get("start", 0.0), s.get("end", 0.0)))
        return {"trace": {
            "trace_id": trace_id.lower(),
            "spans": merged,
            "nodes": sorted(set(nodes)),
            "unreachable": sorted(set(unreachable)),
        }}

    def _op_trace_slow(self, conn, message: dict) -> dict:
        """Cluster ``trace_slow`` op: the slowest spans and the decision
        journals of every reachable node."""
        limit = max(1, int(message.get("limit", 20)))
        spans = list(self.server.obs.slow(limit))
        journal = self.server.obs.journal_entries(limit=limit)
        if self.engine is not None:
            spans.extend(self.engine.slow_spans(limit))
        nodes = [self.node_id]
        unreachable: list[str] = []
        if message.get("fanout", 1):
            query = {"op": "trace_slow", "limit": limit}
            for peer_id, reply in self._obs_peer_query(query):
                if reply is None:
                    unreachable.append(peer_id)
                    continue
                payload = reply.get("slow") or {}
                spans.extend(payload.get("spans") or ())
                journal.extend(payload.get("journal") or ())
                nodes.extend(payload.get("nodes") or (peer_id,))
                unreachable.extend(payload.get("unreachable") or ())
        spans.sort(key=lambda s: s.get("duration", 0.0), reverse=True)
        journal.sort(key=lambda e: e.get("ts", 0.0))
        return {"slow": {
            "spans": spans[:limit],
            "journal": journal[-limit:],
            "nodes": sorted(set(nodes)),
            "unreachable": sorted(set(unreachable)),
        }}

    def _local_metrics_text(self) -> str:
        """This node's Prometheus exposition (pool-merged in engine mode:
        the real shards live in the executors, not our registry)."""
        if self.engine is None:
            return self.server.metrics_text()
        from repro.metrics import merge_snapshots
        from repro.obs.export import render_prometheus

        pool = self.engine.stats()
        merged = merge_snapshots([pool["metrics"], self.metrics.snapshot()])
        return render_prometheus(merged, self.server.obs.exemplars())

    def _op_metrics_text(self, conn, message: dict) -> dict:
        """Cluster ``metrics_text`` op: this node's exposition, plus —
        unless ``fanout`` is off — every reachable peer's, concatenated
        under ``# node <id>`` separators for ``simfs-ctl metrics-export``
        (scrapers wanting a single node's series hit its own /metrics)."""
        text = self._local_metrics_text()
        nodes = [self.node_id]
        unreachable: list[str] = []
        if message.get("fanout", 1):
            parts = [f"# node {self.node_id}\n{text}"]
            for peer_id, reply in self._obs_peer_query({"op": "metrics_text"}):
                if reply is None:
                    unreachable.append(peer_id)
                    continue
                parts.append(
                    f"# node {peer_id}\n{reply.get('text') or ''}"
                )
                nodes.extend(reply.get("nodes") or (peer_id,))
            text = "\n".join(parts)
        return {
            "text": text,
            "nodes": sorted(set(nodes)),
            "unreachable": sorted(set(unreachable)),
        }

    # ------------------------------------------------------------------ #
    # HA tier (owner→replica streaming, promotion, healing)
    # ------------------------------------------------------------------ #
    def _op_repl(self, conn, message: dict) -> dict:
        """Server op: a peer owner streaming replicated context state."""
        if self.repl is None:
            with self._lock:
                epoch = self.ring.epoch
            return {"fenced": True, "epoch": epoch,
                    "detail": "replication disabled on this node"}
        return self.repl.receive(message)

    def _op_ha(self, conn, message: dict) -> dict:
        """Server op: HA status (``simfs-ctl ha-status``)."""
        if self.repl is None:
            payload = {
                "factor": 1, "contexts": {}, "replica_of": {},
                "fenced": [], "healing_queue": 0, "last_promotion": None,
            }
        else:
            payload = self.repl.describe()
        payload["self"] = self.node_id
        return {"ha": payload, "metrics": self.metrics.snapshot("repl.")}

    # ------------------------------------------------------------------ #
    # Live migration (placement pins, the migrate op, load probes)
    # ------------------------------------------------------------------ #
    def _pins_wire(self) -> list[list]:
        """Wire form of the pin table (called with the lock held): a
        dissolved pin travels as an empty target so its higher version
        still suppresses the stale pin on peers."""
        return [
            [name, target or "", version]
            for name, (target, version) in sorted(self._pin_versions.items())
        ]

    def _adopt_pin(
        self, context_name: str, target: str | None, version: int,
        force: bool = False,
    ) -> bool:
        """Apply a pin observation if it outranks what we hold (called
        with the lock held).  ``force`` accepts an equal version too —
        the migration destination installing the pin it was handed."""
        _cur, cur_version = self._pin_versions.get(context_name, (None, 0))
        if version < cur_version or (version == cur_version and not force):
            return False
        target = target or None
        self._pin_versions[context_name] = (target, version)
        if target is not None and target in self.ring:
            changed = self.ring.pin(context_name, target)
        else:
            changed = self.ring.unpin(context_name)
        self._m_epoch.set(self.ring.epoch)
        return changed

    def _bump_pin(self, context_name: str, target: str) -> int:
        """Install a new pin at the next version (called with the lock
        held by the migration source at cutover); returns the version."""
        _cur, cur_version = self._pin_versions.get(context_name, (None, 0))
        version = cur_version + 1
        self._pin_versions[context_name] = (target, version)
        if target in self.ring:
            self.ring.pin(context_name, target)
        self._m_epoch.set(self.ring.epoch)
        return version

    def _merge_pins(self, entries) -> bool:
        """Merge gossiped pin observations (called with the lock held)."""
        changed = False
        for entry in entries or ():
            try:
                name, target, version = entry[0], entry[1], int(entry[2])
            except (TypeError, ValueError, IndexError):
                continue
            if not isinstance(name, str) or not isinstance(target, str):
                continue
            changed |= self._adopt_pin(name, target, version)
        return changed

    def _gossip_soon(self) -> None:
        """Kick an immediate out-of-band gossip round (migration cutover
        must not wait a heartbeat interval to advertise the new pin, nor a
        peer's first contact to be returned)."""

        def run() -> None:
            try:
                self._gossip_round()
            except Exception:
                pass

        threading.Thread(
            target=run, name=f"cluster-gossip-now-{self.node_id}",
            daemon=True,
        ).start()

    def _promote_warm(self, context_name: str) -> None:
        """Warm-restore a context this node just inherited: replicated
        state first (HA tier), else a pre-copied migration handoff whose
        source died before the final frame."""
        if self.repl is not None and self.repl.store.has(context_name):
            try:
                self.repl.promote(context_name)
                return
            except Exception:
                pass
        self.migration.promote_incoming(context_name)

    def local_load(self) -> dict:
        """This node's load sample for the autoscaler: per-context waiter
        / running-sim / queued-job depth, open-latency p99, and the wire
        message counter (rate is the sampler's job)."""
        contexts: dict[str, dict] = {}
        if self.engine is None:
            for shard in self.server.coordinator.shards():
                summary = shard.summary()
                contexts[summary["context"]] = {
                    "waiters": summary["waited_keys"],
                    "sims": summary["running_sims"],
                    "queued": summary["queued_jobs"],
                }
        snap = self.metrics.snapshot("op.open.seconds")
        series = snap.get("op.open.seconds") or {}
        frames = self.metrics.snapshot("wire.frames_recv")
        return {
            "node": self.node_id,
            "contexts": contexts,
            "p99_open_s": series.get("p99"),
            "msgs": (frames.get("wire.frames_recv") or {}).get("value", 0),
        }

    def _op_migrate(self, conn, message: dict) -> dict:
        """Server op, two roles: peer data frames (``kind`` set) feed the
        destination half; control requests (``context``/``dest``) start a
        migration, forwarded to the owner when that is not us."""
        if message.get("kind"):
            return self.migration.receive(message)
        context = message.get("context")
        dest = message.get("dest")
        if not isinstance(context, str) or not isinstance(dest, str):
            raise InvalidArgumentError(
                "migrate needs a context and a dest node id"
            )
        with self._lock:
            owner = (
                self.ring.owner(context) if context in self._specs else None
            )
        if owner is None:
            return {
                "error": int(ErrorCode.ERR_CONTEXT),
                "detail": f"no live node owns context {context!r}",
            }
        if owner == dest:
            return {"migrate": {
                "context": context, "from": owner, "to": dest, "noop": True,
            }}
        if owner != self.node_id:
            reply = self.router.link(owner).call(
                {"op": "migrate", "context": context, "dest": dest},
                timeout=self.rpc_timeout,
            )
            return {k: v for k, v in reply.items() if k != "req"}
        return {"migrate": self.migration.migrate(context, dest)}

    def _op_load(self, conn, message: dict) -> dict:
        return {"load": self.local_load()}

    def _op_rebalance(self, conn, message: dict) -> dict:
        """Server op: rebalance status (``simfs-ctl rebalance-status``)."""
        with self._lock:
            pins = self.ring.pins()
            epoch = self.ring.epoch
        return {
            "rebalance": {
                "self": self.node_id,
                "epoch": epoch,
                "pins": pins,
                "migration": self.migration.describe(),
                "autoscaler": (
                    self.autoscaler.describe() if self.autoscaler else None
                ),
                "load": self.local_load(),
            },
            "metrics": self.metrics.snapshot("migrate."),
        }

    def _capture_repl(self, context_name: str) -> dict | None:
        """Replication-pump hook: snapshot an owned shard's control-plane
        state, annotating each waiter with its ingress origin so that a
        promoted replica can route readies back out through it."""
        try:
            shard = self.server.coordinator.shard(context_name)
        except SimFSError:
            return None
        state = shard.capture_repl_state()
        state["waiters"] = [
            [
                client_id,
                filename,
                self.router.origin_of(client_id),
            ]
            for client_id, filename in state["waiters"]
        ]
        return state

    def _op_engine_stats(self, conn, message: dict) -> dict:
        """Replacement ``stats`` op (engine mode): the pool's merged view
        plus this node's own wire/cluster metric series."""
        from repro.metrics import merge_snapshots

        pool = self.engine.stats()
        local = self.server._op_stats(conn, message)["stats"]
        server_info = dict(pool["server"])
        server_info["mode"] = "cluster+multiproc"
        server_info["node"] = self.node_id
        server_info["connected_clients"] = (
            local.get("server", {}).get("connected_clients", 0)
        )
        return {"stats": {
            "contexts": pool["contexts"],
            "totals": pool["totals"],
            "metrics": merge_snapshots(
                [pool["metrics"], local.get("metrics", {})]
            ),
            "server": server_info,
        }}

    def _hello_extra(self) -> dict:
        return {"cluster": self.describe()}

    def describe(self) -> dict:
        """JSON view of the ring/membership (hello extra, ``cluster`` op,
        ``simfs-ctl cluster-status``)."""
        with self._lock:
            return {
                "self": self.node_id,
                "generation": self.table.generation,
                "epoch": self.ring.epoch,
                "vnodes": self.ring.vnodes,
                "nodes": [p.wire() for p in self.table.peers.values()],
                "contexts": {
                    name: self.ring.owner(name) for name in sorted(self._specs)
                },
                "pins": self.ring.pins(),
                "active": sorted(self._active),
                "replication": self.repl.factor if self.repl else 1,
                "engine": (
                    {"mode": "multiproc", "workers": self.engine.workers}
                    if self.engine is not None else None
                ),
            }

    # ------------------------------------------------------------------ #
    # Data plane (callbacks run on DataServer worker threads)
    # ------------------------------------------------------------------ #
    def _data_resolve(self, context: str, filename: str) -> str:
        """Map a fetch to a file path: the context's PFS output dir first,
        then this node's proxy spool (files pulled from the owner)."""
        with self._lock:
            spec = self._specs.get(context)
        if spec is None:
            raise FileNotInContextError(f"unknown context {context!r}")
        base = os.path.realpath(spec.output_dir)
        path = os.path.realpath(os.path.join(base, filename))
        if os.path.commonpath([path, base]) != base:
            raise FileNotInContextError(
                f"file {filename!r} escapes context directory"
            )
        if not os.path.isfile(path) and self._spool is not None:
            spooled = os.path.join(self._spool, context, filename)
            if os.path.isfile(spooled):
                return spooled
        return path

    def _data_list(self, context: str) -> list[str]:
        with self._lock:
            spec = self._specs.get(context)
        if spec is None:
            raise FileNotInContextError(f"unknown context {context!r}")
        naming = spec.context.driver.naming
        try:
            return sorted(
                n for n in os.listdir(spec.output_dir)
                if naming.is_output(n)
                and os.path.isfile(os.path.join(spec.output_dir, n))
            )
        except OSError:
            return []

    def _data_upstream(self, context: str, filename: str) -> str | None:
        """One-hop proxy: pull a non-local file from the ring owner's data
        port into this node's spool and serve it from there."""
        with self._lock:
            owner = self.ring.owner(context)
            peer = self.table.get(owner) if owner else None
        if (
            peer is None
            or peer.node_id == self.node_id
            or not peer.alive
            or not peer.data_port
        ):
            return None
        with self._spool_lock:
            if self._spool is None:
                self._spool = tempfile.mkdtemp(
                    prefix=f"simfs-spool-{self.node_id}-"
                )
            dest = os.path.join(self._spool, context, filename)
            if os.path.isfile(dest):
                return dest
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            try:
                with DataClient(peer.host, peer.data_port,
                                timeout=self.rpc_timeout) as client:
                    client.fetch(context, filename, dest)
            except SimFSError:
                return None
            return dest
