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
owns what, how to dial a peer and what a dead one means.  DVLib clients
use it as their fallback: they learn the ring from the hello reply and
talk to owners directly.

**Membership/failover** — a timer on the node's event loop submits a
gossip round of the :class:`~repro.cluster.membership.PeerTable` with
every live peer to its workers, at once and then every
``heartbeat_interval``, one round at a time; a peer is declared dead after
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
import threading
import time
from dataclasses import dataclass, field

from repro.cluster.link import DialBackingOff, DialBackoff, PeerLink
from repro.cluster.membership import PeerTable
from repro.cluster.migrate import MigrationManager
from repro.cluster.replication import ReplicationManager
from repro.cluster.ring import HashRing
from repro.cluster.router import Router
from repro.core.context import SimulationContext, confine
from repro.core.errors import (
    DVConnectionLost,
    ErrorCode,
    FileNotInContextError,
    InvalidArgumentError,
    SimFSError,
)
from repro.data.server import DataServer
from repro.dv.protocol import OP_FWD, OP_GOSSIP
from repro.dv.server import DVServer

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
    #: ``output_dir`` as a real path, resolved once (what ``confine`` takes).
    real_output_dir: str = field(init=False)

    def __post_init__(self) -> None:
        self.real_output_dir = os.path.realpath(self.output_dir)


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
        engine_workers: int | None = None,
        data_port: int = 0,
        data_link_rate: float | None = None,
        replication_factor: int = 1,
        repl_interval: float = 0.1,
        anti_entropy_interval: float = 5.0,
        repl_frame_hook=None,
        autoscale_policy=None,
    ) -> None:
        if mode != "selector":
            # The selector front end is the only one.  The keyword stays,
            # single-valued, because the frozen benchmarks/e2e/daemon.py
            # passes it; the benchmark PR that edits that file drops it and
            # the two retired keywords below.
            raise InvalidArgumentError(f"unknown server mode {mode!r}")
        if engine_workers is not None:
            # Same story, same fate: the multi-core engine is retired
            # (final numbers in CHANGES.md); the frozen daemon passes None.
            raise InvalidArgumentError(
                f"engine_workers={engine_workers!r}: the multi-core engine "
                "is retired (one ClusterNode per core scales instead)"
            )
        if autoscale_policy is not None:
            # And the autoscaler, measured on a skewed two-node load and
            # retired (numbers in ARCHITECTURE.md); the frozen daemon
            # passes None.
            raise InvalidArgumentError(
                f"autoscale_policy={autoscale_policy!r}: the autoscaler is "
                "retired (move a context with simfs-ctl migrate)"
            )
        if replication_factor < 1:
            raise InvalidArgumentError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        self.node_id = node_id
        self.heartbeat_interval = heartbeat_interval
        self.rpc_timeout = rpc_timeout
        # Four workers, whatever the plain daemon's default: gossip
        # (rounds and merges), the replication pump, the data port's
        # prepares and a forwarded run that must wait (a dial, a retry,
        # the cluster lock) block on them.  A forwarded run that needs
        # none of that holds no thread: the loop sends it and settles
        # its reply (Router.start).
        self.server = DVServer(host, port, workers=4)
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
            execute_local=self.server.serve_ops,
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
            rpc_timeout=rpc_timeout,
            obs=self.server.obs,
            peek=self._peek,
            submit=self.server.loop.submit,
        )
        #: Bulk data plane on the server's loop: bound here (so the port
        #: is known before hellos advertise it), served from :meth:`start`.
        #: Serves every context in the catalog from its PFS directory; a
        #: file this node does not have is refused with the owner's data
        #: endpoint.
        self.data = DataServer(
            self.server.loop, host, data_port,
            link_rate=data_link_rate,
            metrics=self.server.metrics,
            resolver=self._data_resolve,
            obs=self.server.obs,
        )
        self.server.set_data_endpoint(host, self.data.port)
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
        self._stopped = False
        # Gossip, one round at a time (:meth:`_gossip_now`); the round's
        # own: when the next full round is due, the probe it waits on.
        self._gossiping = self._gossip_again = False
        self._timer, self._beat, self._probe = 0, 0.0, None
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

        #: State transfer: HA replica streams (none at factor 1), the
        #: migration stream, the store and promotion.
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
        #: Live migration: cutover and abort over the state stream.
        self.migration = MigrationManager(self)

        # The node's rows of the op table.  They run on workers: they
        # take the cluster lock, which activation may hold across a PFS
        # directory scan, or cross the wire.
        for name, handler in (
            (OP_FWD, self.router.on_fwd), (OP_GOSSIP, self._op_gossip),
            ("cluster", self._op_cluster),
            ("repl", lambda conn, message: self.repl.receive(message)),
            ("ha", self._op_ha), ("migrate", self._op_migrate),
            ("load", self._op_load), ("rebalance", self._op_rebalance),
        ):
            self.server.register_op(name, handler)
        # Observability plane: the daemon's trace / trace_slow /
        # metrics_text ops fan out to every peer and merge the answers.
        self.server.inspection.peers = self._obs_peer_query
        self.server.set_cluster_hooks(
            route_ops=self.router.route,
            route_start=self.router.start,
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
        self._gossip_soon()
        self.repl.start()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Tear the node down (abruptly from the peers' point of view —
        survivors notice through heartbeats, exactly like a crash).  No
        timer submits work past the flag, and closing the links and a
        round's probe fails the peer calls that workers wait in."""
        self._stopped = True
        self.router.close()
        probe = self._probe
        if probe is not None:
            probe.close()
        self.data.stop()
        self.server.stop(drain_timeout=drain_timeout)

    # ------------------------------------------------------------------ #
    # Ring maintenance (all called with self._lock held)
    # ------------------------------------------------------------------ #
    def _sync_ring(self) -> tuple[list, list, list]:
        """Reconcile ring membership with the peer table; activate and
        deactivate contexts accordingly.  Returns the client re-attaches,
        waiter replays and ``(context, record)`` promotions the caller
        must run *after* releasing the lock (they cross the wire)."""
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
        self.repl.prune(alive)
        self._m_epoch.set(self.ring.epoch)
        self._m_peers.set(len(alive))
        # Membership *or* pin movement both bump the epoch; either one
        # must re-run the activation reconcile below.
        if self.ring.epoch == self._synced_epoch:
            return [], [], []
        self._synced_epoch = self.ring.epoch
        # Membership moved: re-replication from here on is healing.
        self.repl.schedule_heal()
        reattaches: list[tuple[str, str]] = []
        replays: list[tuple[str, str, str]] = []
        promotions: list = []
        for name in sorted(self._specs):
            owner = self.ring.owner(name)
            if owner == self.node_id and name not in self._active:
                record = self._activate(name)
                if record is not None:
                    # Warm state for the context we just inherited — a
                    # replica, or a pre-copy whose migration source died:
                    # hot promotion, on the replay thread.
                    promotions.append((name, record))
            elif owner != self.node_id and name in self._active:
                attached, waits = self._deactivate(name)
                reattaches.extend(attached)
                replays.extend(waits)
        # This node's clients whose forwarded attachments and opens point
        # at an owner that died: re-register and replay them against
        # whoever the ring now assigns.
        stale_attached, stale_waits = self.router.stale()
        return reattaches + stale_attached, replays + stale_waits, promotions

    def _activate(self, name: str):
        """Serve a context this node now owns.  Activation consumes this
        node's record of the context's state stream: it is returned (or
        None) for the caller to promote from outside the lock — a caller
        that does not, drops it."""
        spec = self._specs[name]
        self.server.add_context(
            spec.context, spec.output_dir, spec.restart_dir,
            alpha_delay=spec.alpha_delay, tau_delay=spec.tau_delay,
        )
        self._active.add(name)
        return self.repl.store.take(name)

    def _deactivate(
        self, name: str
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
        """Unregister a context this node no longer owns.  Attached
        clients and captured waiters are returned for re-registration and
        replay against the new owner (waiters are cleared first, so the
        unregister does not fail them)."""
        self._active.discard(name)
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
            # thread so no pool worker (gossip rounds and ops land here)
            # stalls on it — a starved worker pool would time out inbound
            # gossip and cascade false death verdicts.
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

    def _gossip_soon(self) -> None:
        """Kick a full gossip round now (migration cutover must not wait a
        heartbeat interval to advertise the new pin, nor a peer's first
        contact to be returned); from any thread."""
        self.server.loop.call_soon(self._gossip_now, True)

    def _gossip_now(self, forced: bool, timer: int | None = None) -> None:
        """On the I/O thread: submit a round, full when ``forced`` or when
        the heartbeat is due.  While one runs, kicks coalesce into one full
        round right after it.  Each round's start voids the armed timer
        (``_timer``): the round arms the next one when it ends."""
        if self._stopped or (timer is not None and timer != self._timer):
            return
        if self._gossiping:
            self._gossip_again = True
            return
        self._gossiping = True
        self._timer += 1
        self.server.loop.submit(self._gossip_job, forced)

    def _gossip_job(self, forced: bool) -> None:
        """On a worker: one round (between heartbeats, while the join
        phase lasts, it retries only whoever has not answered yet)."""
        full = forced or time.monotonic() >= self._beat
        try:
            self._gossip_round(joining_only=not full)
        except Exception:
            pass  # The membership plane must survive any single bad round.
        if full:
            self._beat = time.monotonic() + self.heartbeat_interval
        due = time.monotonic() + self._until_next_round(self._beat)
        self.server.loop.call_soon(self._gossip_ended, due)

    def _gossip_ended(self, due: float) -> None:
        self._gossiping = False
        if self._gossip_again:
            self._gossip_again = False
            self._gossip_now(True)
        elif not self._stopped:
            self.server.loop.call_at(due, self._gossip_now, False, self._timer)

    def _until_next_round(self, beat: float) -> float:
        """Seconds until the next round: until ``beat``, or until the
        earliest join-phase retry is due."""
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
            frame = {"op": OP_GOSSIP, "from": self.node_id,
                     "view": self.table.view(), "pins": self._pins_wire()}
            targets = list(self.table.alive_peers())
            known_addrs = {(p.host, p.port) for p in self.table.peers.values()}
        if joining_only:
            targets = [
                p for p in targets
                if self._joining(p.node_id)
                and self._join_backoff.ready(p.node_id)
            ]
        for peer in targets:
            if self._stopped:
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
            if self._stopped:
                return
            if not self._dial_backoff.ready(peer.node_id):
                continue
            self._m_redial.inc()
            try:
                reply = self._probe_call(
                    self.node_id, peer.node_id, peer.host, peer.port, frame
                )
            except (DVConnectionLost, SimFSError, OSError):
                self._dial_backoff.failed(peer.node_id)
                continue
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
            if self._stopped:
                return
            if (host, port) in known_addrs:
                self._seeds.remove((host, port))
                continue
            key = f"{host}:{port}"
            if joining_only and not self._join_backoff.ready(key):
                continue
            # Whatever happens below, the join schedule spaces the next try.
            self._join_backoff.failed(key)
            try:
                # Under its own hello id: the seed answers this probe with
                # a round of its own, ours follows at once, and the peer
                # admits one connection per id — a probe it has not
                # finished dropping must not get that dial refused.
                reply = self._probe_call(
                    f"{self.node_id}/seed-probe", key, host, port, frame
                )
            except (DVConnectionLost, SimFSError, OSError):
                continue
            peer_id = reply.get("from")
            peer_view = reply.get("view") or []
            if isinstance(peer_id, str):
                self._apply_membership(
                    lambda: self.table.upsert(
                        peer_id, host, port, now=time.time()
                    ) | self.table.merge_view(peer_view, now=time.time())
                )
                self._seeds.remove((host, port))

    def _probe_call(
        self, hello_id: str, peer_id: str, host: str, port: int, frame: dict
    ) -> dict:
        """One gossip exchange on a link of its own (a dead peer's probe, a
        seed's), which :meth:`stop` closes while the call waits.  A bounded
        dial: an unreachable peer must not stretch the round (and with it,
        failure detection)."""
        probe = PeerLink(
            hello_id, peer_id, host, port, connect_timeout=1.0,
            loop=self.server.loop,
        )
        self._probe = probe
        try:
            if self._stopped:  # stop() may have looked before it was set
                raise DVConnectionLost("node stopped")
            return probe.call(frame, timeout=self.rpc_timeout)
        finally:
            self._probe = None
            probe.close()

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
                self.node_id, node_id, peer.host, peer.port,
                loop=self.server.loop, **callbacks
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
    # Router hook: ownership
    # ------------------------------------------------------------------ #
    def _resolve(self, context) -> tuple[str | None, bool]:
        """Router hook: ``(owner, known)`` for a context, activating it
        here first if the ring says it is ours and it is not up yet."""
        record = None
        with self._lock:
            owner = self.ring.owner(context) if context else None
            known = context in self._specs
            if owner == self.node_id and known and context not in self._active:
                # A forwarded op can beat the heartbeat to the ring
                # change: promote warm state here too, not only from
                # _sync_ring, or the first op after a failover would
                # see a cold shard.
                record = self._activate(context)
        if record is not None:
            self._replay([], [], [(context, record)])
        return owner, known

    def _peek(self, context) -> tuple[str | None, bool] | None:
        """Router hook, on the event loop's I/O thread, which must not
        wait: :meth:`_resolve`'s answer when the lock is free at once and
        the owner is a peer (activation here scans the PFS), else None."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            owner = self.ring.owner(context)
            return None if owner == self.node_id else (owner, context in self._specs)
        finally:
            self._lock.release()

    def _replay(
        self,
        reattaches: list[tuple[str, str]],
        replays: list[tuple[str, str, str]],
        promotions=(),
    ) -> None:
        """The cross-wire half of a ring change.  Promotions run first: a
        hot-promoted shard already holds the dead owner's waiter table, so
        the replays after it are idempotent re-registrations."""
        for context_name, record in promotions:
            try:
                self.repl.promote(context_name, record)
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
    def _obs_peer_query(self, query: dict):
        """Inspection fan-out: ask every live peer ``query``; yields
        ``(peer_id, reply | None)`` — ``None`` marks a peer that could not
        be reached (the caller reports it, never fails).  Peers gossip
        already declared dead are yielded as unreachable without burning
        a dial on them: their spans are just as missing from the merged
        view either way, and a partial view must say so."""
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
                reply = self.router.call(peer_id, query)
            except (DVConnectionLost, SimFSError, OSError):
                reply = None
            yield peer_id, reply

    def _op_ha(self, conn, message: dict) -> dict:
        """Server op: HA status (``simfs-ctl ha-status``)."""
        return {
            "ha": dict(self.repl.describe(), self=self.node_id),
            "metrics": self.metrics.snapshot("repl."),
        }

    # ------------------------------------------------------------------ #
    # Live migration (placement pins, the migrate and rebalance ops)
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

    def _op_migrate(self, conn, message: dict) -> dict:
        """Server op: start a migration, forwarded to the owner when that
        is not us (the state itself travels as ``repl`` frames)."""
        context, dest = message["context"], message["dest"]
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
            reply = self.router.call(
                owner, {"op": "migrate", "context": context, "dest": dest}
            )
            return {k: v for k, v in reply.items() if k != "req"}
        return {"migrate": self.migration.migrate(context, dest)}

    def _context_load(self) -> dict[str, dict]:
        """Per-context waiter / running-sim / queued-job depth."""
        load = {}
        for shard in self.server.coordinator.shards():
            summary = shard.summary()
            load[summary["context"]] = {
                "waiters": summary["waited_keys"],
                "sims": summary["running_sims"],
                "queued": summary["queued_jobs"],
            }
        return load

    def _op_load(self, conn, message: dict) -> dict:
        # Kept for the frozen benchmarks/e2e/layers.py, which times peer
        # link round trips with it; the benchmark PR that edits that file
        # can drop it with the retired constructor keywords.
        return {"load": {"node": self.node_id, "contexts": self._context_load()}}

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
                "load": self._context_load(),
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
                "replication": self.repl.factor,
            }

    # ------------------------------------------------------------------ #
    # Data plane (the resolver runs on the server's loop, or a worker)
    # ------------------------------------------------------------------ #
    def _data_resolve(self, context: str, filename: str, wait: bool) -> str | None:
        """Map a fetch to a file in the context's output dir.  A node
        serves only the bytes it has: when it lacks the file and another
        node owns the context, the refusal names that owner's data
        endpoint (the one ``fetch_info`` answers from any node).  On the
        I/O thread (``wait`` False) a busy lock is not waited for: None
        sends the prepare to a worker, as :meth:`_peek` does a run."""
        if not self._lock.acquire(blocking=wait):
            return None
        try:
            spec = self._specs.get(context)
            owner = self.ring.owner(context)
            peer = self.table.get(owner) if owner else None
        finally:
            self._lock.release()
        if spec is None:
            raise FileNotInContextError(f"unknown context {context!r}")
        path = confine(filename, spec.real_output_dir)
        if peer is None or owner == self.node_id or os.path.isfile(path):
            return path
        raise FileNotInContextError(
            f"file {filename!r} is not on {self.node_id}: context "
            f"{context!r} is served by its owner {owner} at data endpoint "
            f"{peer.host}:{peer.data_port}"
        )
