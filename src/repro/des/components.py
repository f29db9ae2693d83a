"""Virtual-time SimFS: the DV coordinator wired to the DES engine.

:class:`DESExecutor` interprets a launched re-simulation as a stream of
production events — the first output after ``αsim(p) + τsim(p)`` virtual
seconds, then one every ``τsim(p)`` — optionally adding stochastic batch
queueing delay (Sec. IV-C1c).  :class:`VirtualAnalysis` models an analysis
process with inter-access time ``τcli``: it opens files through the very
same ``DVCoordinator.handle_open`` the TCP daemon uses, blocks on misses
until the notification arrives, and records its completion time.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import itertools

from repro.cluster.membership import PeerTable
from repro.cluster.ring import HashRing
from repro.core.context import SimulationContext
from repro.core.errors import ContextError, InvalidArgumentError
from repro.data.scheduler import PRIO_BULK, PRIO_CONTROL, max_min_rates
from repro.des.engine import DESEngine, EventHandle
from repro.dv.coordinator import DVCoordinator, Notification, RunningSim
from repro.metrics import MetricsRegistry
from repro.obs import SpanRecorder

__all__ = [
    "DESExecutor",
    "VirtualAnalysis",
    "VirtualSimFS",
    "VirtualClusterNode",
    "VirtualCluster",
    "VirtualTransfer",
    "VirtualDataPlane",
]


class DESExecutor:
    """`SimulationExecutor` producing output files on the virtual clock."""

    def __init__(
        self,
        engine: DESEngine,
        queue_delay: Callable[[], float] | None = None,
    ) -> None:
        self.engine = engine
        self.coordinator: DVCoordinator | None = None
        self._contexts: dict[str, SimulationContext] = {}
        self._events: dict[int, list[EventHandle]] = {}
        #: per-sim production schedule in absolute virtual time, kept so
        #: a migration can re-home the remaining work (see ``handoff``)
        self._plans: dict[int, dict] = {}
        #: extra restart latency per job (models batch queueing time)
        self._queue_delay = queue_delay or (lambda: 0.0)

    def bind(self, coordinator: DVCoordinator) -> None:
        self.coordinator = coordinator

    def register_context(self, context: SimulationContext) -> None:
        self._contexts[context.name] = context

    # -- SimulationExecutor ------------------------------------------------#
    def launch(self, context: SimulationContext, sim: RunningSim) -> None:
        assert self.coordinator is not None, "executor not bound"
        perf = context.perf
        tau = perf.tau(sim.parallelism_level)
        alpha = perf.alpha(sim.parallelism_level) + max(0.0, self._queue_delay())
        handles = []
        for position, key in enumerate(sim.planned_keys, start=1):
            filename = context.filename_of(key)
            handles.append(
                self.engine.schedule(
                    alpha + position * tau,
                    self._make_production(context.name, sim.sim_id, filename),
                )
            )
        # Completion is signalled unconditionally after the last production
        # (real mode does the same when driver.execute returns).  Relying
        # on per-key attribution alone deadlocks when overlapping sims
        # produce each other's planned keys: nobody reaches `done`, the
        # smax slots never free, and queued jobs starve.
        done_at = alpha + len(sim.planned_keys) * tau
        handles.append(
            self.engine.schedule(
                done_at,
                lambda: self.coordinator.sim_completed(
                    context.name, sim.sim_id, self.engine.now()
                ),
            )
        )
        self._events[sim.sim_id] = handles
        now = self.engine.now()
        self._plans[sim.sim_id] = {
            "context": context.name,
            "productions": [
                (now + alpha + position * tau, context.filename_of(key))
                for position, key in enumerate(sim.planned_keys, start=1)
            ],
            "done_at": now + done_at,
        }

    def kill(self, sim_id: int) -> None:
        for handle in self._events.pop(sim_id, []):
            handle.cancel()
        self._plans.pop(sim_id, None)

    def handoff(self, sim_id: int, new_sim_id: int,
                dest: "DESExecutor") -> None:
        """Re-home a running sim onto ``dest`` (a migration destination's
        executor) under a fresh id: the remaining productions keep their
        absolute completion times — the simulation *resumes*, it does not
        restart."""
        for handle in self._events.pop(sim_id, []):
            handle.cancel()
        plan = self._plans.pop(sim_id, None)
        if plan is None:
            return
        now = self.engine.now()
        remaining = [(at, fn) for at, fn in plan["productions"] if at >= now]
        handles = [
            dest.engine.schedule(
                at - now,
                dest._make_production(plan["context"], new_sim_id, filename),
            )
            for at, filename in remaining
        ]
        handles.append(dest.engine.schedule(
            max(plan["done_at"] - now, 0.0),
            lambda: dest.coordinator.sim_completed(
                plan["context"], new_sim_id, dest.engine.now()
            ),
        ))
        dest._events[new_sim_id] = handles
        dest._plans[new_sim_id] = {
            "context": plan["context"],
            "productions": remaining,
            "done_at": plan["done_at"],
        }

    # ----------------------------------------------------------------------#
    def _make_production(self, context_name: str, sim_id: int, filename: str):
        def produce() -> None:
            assert self.coordinator is not None
            self.coordinator.sim_file_closed(
                context_name, filename, self.engine.now()
            )

        return produce


class VirtualAnalysis:
    """An analysis process in virtual time.

    Accesses ``keys`` in order with inter-access processing time ``tau_cli``:
    each access opens the file through the coordinator; a miss blocks until
    the DV's ready notification.  The previously processed file is released
    when the next access is issued (the analysis holds one file at a time,
    like the paper's sequential mean/variance analysis).
    """

    def __init__(
        self,
        engine: DESEngine,
        coordinator: DVCoordinator,
        context: SimulationContext,
        client_id: str,
        keys: Sequence[int],
        tau_cli: float,
    ) -> None:
        if tau_cli <= 0:
            raise InvalidArgumentError(f"tau_cli must be > 0, got {tau_cli}")
        if not keys:
            raise InvalidArgumentError("analysis needs at least one access")
        self.engine = engine
        self.coordinator = coordinator
        self.context = context
        self.client_id = client_id
        self.keys = list(keys)
        self.tau_cli = tau_cli
        self._idx = 0
        self._waiting_for: str | None = None
        self._held: str | None = None
        self.start_time: float | None = None
        self.finish_time: float | None = None
        self.miss_count = 0
        self.hit_count = 0
        self.wait_time = 0.0
        self._wait_started = 0.0
        #: per-access open latency (0.0 for hits, the blocked time for
        #: misses) — the series SLO checks take percentiles over
        self.open_latencies: list[float] = []

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def running_time(self) -> float:
        if self.start_time is None or self.finish_time is None:
            raise InvalidArgumentError("analysis has not completed")
        return self.finish_time - self.start_time

    # ----------------------------------------------------------------------#
    def start(self, at: float = 0.0) -> None:
        self.coordinator.client_connect(self.client_id, self.context.name)
        self.engine.schedule_at(at, self._issue_access)

    def on_notification(self, notification: Notification) -> None:
        """Wired by :class:`VirtualSimFS`: the DV says a file is ready."""
        if notification.filename != self._waiting_for:
            return
        self._waiting_for = None
        waited = self.engine.now() - self._wait_started
        self.wait_time += waited
        self.open_latencies.append(waited)
        if not notification.ok:
            raise RuntimeError(
                f"re-simulation failed for {notification.filename}"
            )
        self._file_served(notification.filename)

    # ----------------------------------------------------------------------#
    def _issue_access(self) -> None:
        if self.start_time is None:
            self.start_time = self.engine.now()
        if self._held is not None:
            self.coordinator.handle_release(
                self.client_id, self.context.name, self._held, self.engine.now()
            )
            self._held = None
        if self._idx >= len(self.keys):
            self.finish_time = self.engine.now()
            self.coordinator.client_disconnect(
                self.client_id, self.context.name, self.engine.now()
            )
            return
        key = self.keys[self._idx]
        filename = self.context.filename_of(key)
        result = self.coordinator.handle_open(
            self.client_id, self.context.name, filename, self.engine.now()
        )
        if result.available:
            self.hit_count += 1
            self.open_latencies.append(0.0)
            self._file_served(filename)
        else:
            self.miss_count += 1
            self._waiting_for = filename
            self._wait_started = self.engine.now()

    def _file_served(self, filename: str) -> None:
        """File on disk: process it for ``tau_cli``, then move on."""
        self._held = filename
        self._idx += 1
        self.engine.schedule(self.tau_cli, self._issue_access)


@dataclass
class VirtualSimFS:
    """Bundle of engine + coordinator + executor with analysis routing."""

    engine: DESEngine = field(default_factory=DESEngine)
    queue_delay: Callable[[], float] | None = None

    def __post_init__(self) -> None:
        self.executor = DESExecutor(self.engine, self.queue_delay)
        self.metrics = MetricsRegistry()
        self.coordinator = DVCoordinator(
            self.executor, notify=self._route, metrics=self.metrics
        )
        self.executor.bind(self.coordinator)
        self._analyses: dict[str, VirtualAnalysis] = {}

    def add_context(self, context: SimulationContext) -> None:
        self.coordinator.register_context(context)
        self.executor.register_context(context)

    def add_analysis(
        self,
        context: SimulationContext,
        keys: Sequence[int],
        tau_cli: float,
        client_id: str | None = None,
        start_at: float = 0.0,
    ) -> VirtualAnalysis:
        client_id = client_id or f"analysis-{len(self._analyses) + 1}"
        analysis = VirtualAnalysis(
            self.engine, self.coordinator, context, client_id, keys, tau_cli
        )
        self._analyses[client_id] = analysis
        analysis.start(start_at)
        return analysis

    def run(self, until: float | None = None) -> float:
        return self.engine.run(until=until)

    def stats(self) -> dict:
        """The same metrics-plane snapshot the TCP daemon serves over the
        ``stats`` op — one logic, two deployments includes observability."""
        return self.coordinator.stats_snapshot()

    def _route(self, notification: Notification) -> None:
        analysis = self._analyses.get(notification.client_id)
        if analysis is not None:
            analysis.on_notification(notification)


# --------------------------------------------------------------------- #
# Virtual cluster: the cluster tier on the virtual clock
# --------------------------------------------------------------------- #
class VirtualClusterNode:
    """One virtual DV daemon: its own coordinator + executor on the
    shared engine, plus an aliveness flag the failure schedule flips."""

    def __init__(
        self,
        node_id: str,
        engine: DESEngine,
        notify: Callable[[Notification], None],
        queue_delay: Callable[[], float] | None = None,
    ) -> None:
        self.node_id = node_id
        self.alive = True
        self.executor = DESExecutor(engine, queue_delay)
        self.metrics = MetricsRegistry()
        self.coordinator = DVCoordinator(
            self.executor, notify=notify, metrics=self.metrics
        )
        self.executor.bind(self.coordinator)
        # Same span structure as the live daemon, stamped in virtual time.
        # Always-sampled, no tail threshold: the DES is for asserting
        # critical-path composition, not for bounding overhead.
        self.obs = SpanRecorder(
            node=node_id,
            head_rate=1.0,
            slow_threshold=float("inf"),
            clock=engine.now,
        )


class _ClusterRouter:
    """The coordinator-shaped object a :class:`VirtualAnalysis` drives
    when it runs against a :class:`VirtualCluster`: every call is routed
    to the context's *current* owner, so analyses transparently follow
    failovers.  Forwarded calls (ingress != owner) are counted — the
    cluster's ``fwd_ratio`` statistic."""

    def __init__(self, cluster: "VirtualCluster", ingress: str | None) -> None:
        self._cluster = cluster
        self._ingress = ingress

    def _coordinator(self, context_name: str) -> DVCoordinator:
        cluster = self._cluster
        owner = cluster.ring.owner(context_name)
        if owner is None:
            raise ContextError("virtual cluster has no live nodes")
        if self._ingress is not None and self._ingress != owner:
            cluster.forwarded_ops += 1
        cluster.total_ops += 1
        return cluster.nodes[owner].coordinator

    def client_connect(self, client_id: str, context_name: str) -> None:
        self._coordinator(context_name).client_connect(client_id, context_name)
        self._cluster._attachments.setdefault(client_id, set()).add(context_name)

    def client_disconnect(
        self, client_id: str, context_name: str, now: float
    ) -> None:
        self._coordinator(context_name).client_disconnect(
            client_id, context_name, now
        )
        self._cluster._attachments.get(client_id, set()).discard(context_name)

    def handle_open(self, client_id: str, context_name: str, filename: str, now: float):
        cluster = self._cluster
        result = self._coordinator(context_name).handle_open(
            client_id, context_name, filename, now
        )
        # The virtual mirror of the daemon's dispatch span: every open
        # starts a sampled trace on the owning node; a miss's blocked
        # window becomes a ``sim.wait`` span when the notification fires.
        owner = cluster.ring.owner(context_name)
        node = cluster.nodes[owner]
        tc = node.obs.start_trace(sampled=True)
        cluster.last_trace_id = f"{tc.trace_id:016x}"
        node.obs.record(
            "op.open", tc, now, cluster.engine.now(),
            context=context_name, file=filename, available=result.available,
        )
        if not result.available:
            # Remember when the wait began: at failure time this decides
            # whether the waiter had already reached a replica (older
            # than repl_lag -> hot replay) or was still in flight.
            key = (client_id, context_name, filename)
            self._cluster._wait_started_at[key] = now
            self._cluster._wait_tc[key] = tc
        return result

    def handle_release(
        self, client_id: str, context_name: str, filename: str, now: float
    ) -> None:
        self._coordinator(context_name).handle_release(
            client_id, context_name, filename, now
        )


class VirtualCluster:
    """The DV cluster tier in virtual time (Sec. IV methodology applied
    to the cluster design): the *same* :class:`~repro.cluster.ring.HashRing`
    and :class:`~repro.cluster.membership.PeerTable` logic the TCP
    :class:`~repro.cluster.node.ClusterNode` runs, driven by the DES
    engine — so node-count sweeps, failure schedules and skewed context
    popularity can be explored without standing up daemons.

    Modeling choices (kept deliberately explicit):

    * Each node is a :class:`VirtualClusterNode` with its own coordinator;
      contexts are registered on their ring owner.
    * An analysis enters through an ``ingress`` node; when the ingress is
      not the owner, every access pays ``2 * hop_latency`` extra client
      time (the gateway round trip), folded into its ``tau_cli``.
    * A scheduled failure kills the node's running simulations, drops its
      shard state (the node-local cache is lost), and re-registers its
      contexts on the ring's new owners immediately; the **waiter replay**
      — re-issuing the opens that were blocked on the dead node — happens
      ``detect_delay`` later, modeling failure-detection time.  Blocked
      analyses therefore resume after detection instead of hanging,
      exactly the live tier's failover contract.
    * With ``replication_factor > 1`` the HA tier is mirrored: each
      context's owner streams state to its ring successors.  A waiter
      blocked for at least ``repl_lag`` virtual seconds has reached the
      replica when the owner dies, so the first live successor promotes
      and replays it after only ``promote_delay`` (the hot path — no
      client retry).  Younger waiters were still in flight and fall back
      to the cold ``detect_delay`` replay; they are counted as
      ``lost_waiters``.  After any membership change, under-replicated
      contexts heal back to full factor sequentially at ``heal_rate``
      contexts per virtual second (the healing bandwidth) — a second
      failure that lands before healing completes finds no synced
      replica and degrades to the cold path, exactly the live tier's
      double-failure behavior.
    """

    def __init__(
        self,
        node_ids: Sequence[str] = ("n1", "n2", "n3"),
        engine: DESEngine | None = None,
        vnodes: int = 32,
        hop_latency: float = 0.0,
        detect_delay: float = 1.0,
        queue_delay: Callable[[], float] | None = None,
        replication_factor: int = 1,
        repl_lag: float = 0.05,
        promote_delay: float = 0.1,
        heal_rate: float = 10.0,
    ) -> None:
        if not node_ids:
            raise InvalidArgumentError("virtual cluster needs >= 1 node")
        if replication_factor < 1:
            raise InvalidArgumentError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if heal_rate <= 0:
            raise InvalidArgumentError(
                f"heal_rate must be > 0, got {heal_rate}"
            )
        self.engine = engine or DESEngine()
        self.hop_latency = hop_latency
        self.detect_delay = detect_delay
        self.replication_factor = replication_factor
        self.repl_lag = repl_lag
        self.promote_delay = promote_delay
        self.heal_rate = heal_rate
        self.ring = HashRing(vnodes)
        # The DES drives the same PeerTable liveness logic as the TCP
        # node; its self-id is a synthetic observer (a PeerTable refuses
        # death verdicts about itself, and every *real* node here must be
        # killable — including the first).
        self.table = PeerTable("__des-observer__", "virtual", 0)
        self.nodes: dict[str, VirtualClusterNode] = {}
        for node_id in node_ids:
            self.nodes[node_id] = VirtualClusterNode(
                node_id, self.engine, self._route, queue_delay
            )
            self.ring.add_node(node_id)
            self.table.upsert(node_id, "virtual", 0)
        self._specs: dict[str, SimulationContext] = {}
        self._located: dict[str, str] = {}  # context -> hosting node
        self._analyses: dict[str, VirtualAnalysis] = {}
        self._attachments: dict[str, set[str]] = {}
        self.forwarded_ops = 0
        self.total_ops = 0
        self.failovers = 0
        self.replayed_waits = 0
        #: per-context count of replicas currently in sync with the owner
        self._replicas_ok: dict[str, int] = {}
        #: (client, context, filename) -> virtual time the wait started
        self._wait_started_at: dict[tuple[str, str, str], float] = {}
        #: (client, context, filename) -> trace context of the blocked
        #: open, resolved into a ``sim.wait`` span when it unblocks
        self._wait_tc: dict[tuple[str, str, str], object] = {}
        #: trace id of the most recent traced open / migration — the DES
        #: scenario's handle into :meth:`trace`
        self.last_trace_id: str | None = None
        self.promotions = 0
        self.hot_restored_waiters = 0
        self.lost_waiters = 0
        self.healed = 0
        self.migrations = 0
        self.migrated_waiters = 0
        self.resumed_sims = 0

    # ------------------------------------------------------------------ #
    def _target_replicas(self) -> int:
        return min(self.replication_factor - 1, max(0, len(self.ring) - 1))

    def add_context(self, context: SimulationContext) -> None:
        owner = self.ring.owner(context.name)
        self._specs[context.name] = context
        self._register_on(context.name, owner)
        # Contexts start fully replicated (anti-entropy converged long
        # before the scenario's first failure).
        self._replicas_ok[context.name] = self._target_replicas()

    def _register_on(self, context_name: str, node_id: str) -> None:
        node = self.nodes[node_id]
        node.coordinator.register_context(self._specs[context_name])
        node.executor.register_context(self._specs[context_name])
        self._located[context_name] = node_id

    def owner_of(self, context_name: str) -> str | None:
        return self.ring.owner(context_name)

    def add_analysis(
        self,
        context: SimulationContext,
        keys: Sequence[int],
        tau_cli: float,
        ingress: str | None = None,
        client_id: str | None = None,
        start_at: float = 0.0,
    ) -> VirtualAnalysis:
        """Start an analysis entering the cluster at ``ingress`` (owner
        by default — the cluster-aware client's one-hop steady state)."""
        client_id = client_id or f"analysis-{len(self._analyses) + 1}"
        owner = self.ring.owner(context.name)
        forwarded = ingress is not None and ingress != owner
        effective_tau = tau_cli + (2 * self.hop_latency if forwarded else 0.0)
        router = _ClusterRouter(self, ingress)
        analysis = VirtualAnalysis(
            self.engine, router, context, client_id, keys, effective_tau
        )
        self._analyses[client_id] = analysis
        analysis.start(start_at)
        return analysis

    # ------------------------------------------------------------------ #
    # Failure schedule
    # ------------------------------------------------------------------ #
    def schedule_failure(self, node_id: str, at: float) -> None:
        """Kill ``node_id`` at virtual time ``at``."""
        self.engine.schedule_at(at, lambda: self._fail_node(node_id))

    def _fail_node(self, node_id: str) -> None:
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        if len(self.ring) <= 1:
            raise InvalidArgumentError(
                "cannot fail the last live node of the virtual cluster"
            )
        if not self.table.link_failed(node_id):
            return  # already dead by the table's rules
        node.alive = False
        # Preference chains as they stood while the node was alive: who
        # replicated to whom is decided by the pre-failure ring.
        chains = {}
        if self.replication_factor > 1:
            chains = {
                name: self.ring.successors(name, self.replication_factor)
                for name in self._specs
            }
        # Ring membership follows table liveness, exactly like the TCP
        # node's _sync_ring.
        for member in self.ring.nodes():
            if member not in self.table.alive_ids():
                self.ring.remove_node(member)
        self.failovers += 1
        # A dead replica desyncs every context that streamed to it.
        for name, chain in chains.items():
            if node_id in chain[1:]:
                self._replicas_ok[name] = max(
                    0, self._replicas_ok.get(name, 0) - 1
                )
        moved = [
            name for name, where in self._located.items() if where == node_id
        ]
        now = self.engine.now()
        hot: list[tuple[str, str, str]] = []
        cold: list[tuple[str, str, str]] = []
        for name in moved:
            shard = node.coordinator.shard(name)
            with shard.lock:
                captured = [
                    (client_id, name, shard.context.filename_of(key))
                    for key, waiting in shard.waiters.items()
                    for client_id in waiting
                ]
                shard.waiters.clear()
            node.coordinator.unregister_context(name)
            if self._replicas_ok.get(name, 0) > 0:
                # Hot failover: the first live successor already holds the
                # replicated waiter table — except entries younger than
                # the replication lag, which never reached it.
                self.promotions += 1
                self._replicas_ok[name] -= 1
                for entry in captured:
                    started = self._wait_started_at.get(entry, now)
                    if now - started >= self.repl_lag:
                        hot.append(entry)
                    else:
                        cold.append(entry)
            else:
                cold.extend(captured)
            new_owner = self.ring.owner(name)
            self._register_on(name, new_owner)
            # Re-register surviving attachments with the new owner.
            for client_id, contexts in self._attachments.items():
                if name in contexts:
                    self.nodes[new_owner].coordinator.client_connect(
                        client_id, name
                    )
        # Replicated waiters replay from the promoted successor as soon
        # as it fences the epoch; everything else waits for detection.
        self.hot_restored_waiters += len(hot)
        self.lost_waiters += len(cold)
        if hot:
            self.engine.schedule(
                self.promote_delay, lambda: self._replay(hot)
            )
        if cold:
            self.engine.schedule(
                self.detect_delay, lambda: self._replay(cold)
            )
        # Background healing: every under-replicated context re-syncs to
        # full factor, one context per 1/heal_rate virtual seconds after
        # the survivors detect the death.
        if self.replication_factor > 1:
            under = sorted(
                name for name in self._specs
                if self._replicas_ok.get(name, 0) < self._target_replicas()
            )
            for position, name in enumerate(under):
                self.engine.schedule(
                    self.detect_delay + (position + 1) / self.heal_rate,
                    self._make_heal(name),
                )

    def _make_heal(self, context_name: str):
        def heal() -> None:
            target = self._target_replicas()
            if self._replicas_ok.get(context_name, 0) < target:
                self._replicas_ok[context_name] = target
                self.healed += 1

        return heal

    def _replay(self, stranded: list[tuple[str, str, str]]) -> None:
        now = self.engine.now()
        for client_id, context_name, filename in stranded:
            owner = self.ring.owner(context_name)
            if owner is None:
                continue
            self.replayed_waits += 1
            result = self.nodes[owner].coordinator.handle_open(
                client_id, context_name, filename, now
            )
            if result.available:
                # The new owner already has it: resolve the wait directly.
                self._route(
                    Notification(client_id, context_name, filename, ok=True)
                )

    # ------------------------------------------------------------------ #
    # Live migration — the DES mirror of the migrate protocol
    # ------------------------------------------------------------------ #
    def migrate_context(
        self, context_name: str, dest: str, freeze: float = 0.0
    ) -> int:
        """Move a context to ``dest`` the way the live protocol does:
        capture the waiter table, pin the placement on the ring, restore
        the cache metadata on the destination and replay the captured
        waiters there ``freeze`` virtual seconds later (the cutover
        freeze + redirect window).  Hot by construction — no waiter is
        lost, matching the live tier's zero-lost-replies contract.
        Returns the number of waiters moved."""
        if context_name not in self._specs:
            raise InvalidArgumentError(f"unknown context {context_name!r}")
        node = self.nodes.get(dest)
        if node is None or not node.alive:
            raise InvalidArgumentError(f"destination {dest!r} is not alive")
        src = self._located[context_name]
        if src == dest:
            return 0
        source = self.nodes[src]
        context = self._specs[context_name]
        shard = source.coordinator.shard(context_name)
        with shard.lock:
            captured = [
                (client_id, context_name, context.filename_of(key))
                for key, waiting in shard.waiters.items()
                for client_id in waiting
            ]
            shard.waiters.clear()
            resident = sorted(shard.area.keys())
            # In-flight re-simulations migrate too (the live protocol's
            # sims markers): pull them out before unregister kills them.
            moving_sims = [s for s in shard.sims.values() if not s.done]
            shard.sims.clear()
            shard.in_flight.clear()
        source.coordinator.unregister_context(context_name)
        self.ring.pin(context_name, dest)
        self._register_on(context_name, dest)
        # Storage manifest handoff: the destination's cache starts warm
        # with everything the source held (live: PFS scan + data-plane
        # pull), so migrated clients keep their hits.
        dest_shard = node.coordinator.shard(context_name)
        with dest_shard.lock:
            for key in resident:
                if key not in dest_shard.area:
                    dest_shard.area.insert(
                        key, cost=float(context.geometry.miss_cost(key))
                    )
        for client_id, contexts in self._attachments.items():
            if context_name in contexts:
                node.coordinator.client_connect(client_id, context_name)
        # Resume the moved sims on the destination executor: productions
        # keep their absolute times, re-keyed under the destination's id
        # space (per-coordinator counters would otherwise collide).
        for sim in moving_sims:
            with dest_shard.lock:
                new_id = next(dest_shard._sim_ids)
                source.executor.handoff(sim.sim_id, new_id, node.executor)
                sim.sim_id = new_id
                dest_shard.sims[new_id] = sim
                for key in sim.planned_keys:
                    if key not in dest_shard.area:
                        dest_shard.in_flight.setdefault(key, new_id)
            self.resumed_sims += 1
        self.migrations += 1
        self.migrated_waiters += len(captured)
        # The live protocol's trace, in virtual time: the freeze span
        # covers exactly the frozen window [now, now + freeze] (waiters
        # replay at its end), and the cutover lands in the journal.
        now = self.engine.now()
        tc = source.obs.start_trace(sampled=True)
        self.last_trace_id = f"{tc.trace_id:016x}"
        source.obs.record(
            "migrate.freeze", tc, now, now + freeze,
            context=context_name, dest=dest,
        )
        source.obs.journal(
            "migrate.cutover", context=context_name, dest=dest,
            freeze_seconds=freeze, moved_waiters=len(captured),
            trace_id=self.last_trace_id,
        )
        if captured:
            self.engine.schedule(freeze, lambda: self._replay(captured))
        return len(captured)

    # ------------------------------------------------------------------ #
    def run(self, until: float | None = None) -> float:
        return self.engine.run(until=until)

    @property
    def fwd_ratio(self) -> float:
        """Fraction of client ops that crossed a gateway hop."""
        return self.forwarded_ops / self.total_ops if self.total_ops else 0.0

    def stats(self) -> dict:
        """Cluster-level summary plus every node's metrics snapshot."""
        return {
            "nodes": {
                node_id: {
                    "alive": node.alive,
                    "contexts": sorted(
                        name for name, where in self._located.items()
                        if where == node_id
                    ),
                }
                for node_id, node in self.nodes.items()
            },
            "epoch": self.ring.epoch,
            "pins": dict(sorted(self.ring.pins().items())),
            "failovers": self.failovers,
            "replayed_waits": self.replayed_waits,
            "forwarded_ops": self.forwarded_ops,
            "total_ops": self.total_ops,
            "migrations": self.migrations,
            "migrated_waiters": self.migrated_waiters,
            "resumed_sims": self.resumed_sims,
            "replication": {
                "factor": self.replication_factor,
                "promotions": self.promotions,
                "hot_restored_waiters": self.hot_restored_waiters,
                "lost_waiters": self.lost_waiters,
                "healed": self.healed,
                "replicas_ok": dict(sorted(self._replicas_ok.items())),
            },
        }

    def trace(self, trace_id: str | int) -> list[dict]:
        """One trace's spans merged across every virtual node — the DES
        mirror of the cluster-wide ``trace`` op."""
        spans: list[dict] = []
        for node_id in sorted(self.nodes):
            spans.extend(self.nodes[node_id].obs.trace(trace_id))
        spans.sort(key=lambda s: (s["start"], s["end"]))
        return spans

    def journal_entries(self, kind: str | None = None) -> list[dict]:
        """Merged decision journal of every virtual node, by timestamp."""
        entries: list[dict] = []
        for node_id in sorted(self.nodes):
            entries.extend(self.nodes[node_id].obs.journal_entries(kind))
        entries.sort(key=lambda e: e.get("ts", 0.0))
        return entries

    def _route(self, notification: Notification) -> None:
        key = (
            notification.client_id, notification.context_name,
            notification.filename,
        )
        tc = self._wait_tc.pop(key, None)
        if tc is not None:
            started = self._wait_started_at.get(key, self.engine.now())
            owner = self.ring.owner(notification.context_name)
            if owner is not None:
                self.nodes[owner].obs.record(
                    "sim.wait", tc, started, self.engine.now(),
                    context=notification.context_name,
                    file=notification.filename,
                    client=notification.client_id,
                )
        analysis = self._analyses.get(notification.client_id)
        if analysis is not None:
            analysis.on_notification(notification)


# --------------------------------------------------------------------- #
# Virtual data plane: the bulk transfer tier on the virtual clock
# --------------------------------------------------------------------- #
class VirtualTransfer:
    """One in-flight (or finished) transfer on the virtual data plane."""

    def __init__(
        self,
        transfer_id: int,
        path: tuple[str, ...],
        size: float,
        priority: int,
        started: float,
        on_complete: Callable[["VirtualTransfer"], None] | None,
    ) -> None:
        self.transfer_id = transfer_id
        self.path = path
        self.size = float(size)
        self.priority = priority
        self.remaining = float(size)
        self.started = started
        self.finished: float | None = None
        self.on_complete = on_complete

    @property
    def done(self) -> bool:
        return self.finished is not None

    @property
    def seconds(self) -> float:
        if self.finished is None:
            raise InvalidArgumentError("transfer has not completed")
        return self.finished - self.started

    @property
    def throughput(self) -> float:
        """Average bytes/s over the transfer's lifetime."""
        return self.size / max(1e-12, self.seconds)


class VirtualDataPlane:
    """The bulk data plane in virtual time — the DES mirror of
    :class:`repro.data.DataServer` + :class:`~repro.data.BandwidthScheduler`.

    Links are named capacity pipes (bytes/s); a transfer occupies a *path*
    of one or more links (multi-hop forwarding: an ingress proxying a
    fetch from the ring owner traverses ``owner->ingress`` then
    ``ingress->client``).  Bandwidth is re-shared every ``tick`` virtual
    seconds with the same progressive-filling
    :func:`~repro.data.scheduler.max_min_rates` the live scheduler's
    fairness analysis uses, and the control lane mirrors the live strict
    priority: control transfers are allocated first each tick, bulk
    shares whatever capacity remains on each link.

    Modeling choices (explicit, like :class:`VirtualCluster`):

    * Rates are piecewise-constant per tick; a transfer admitted mid-tick
      starts progressing at the next tick boundary, and completions land
      on tick boundaries — granularity is ``tick``, so scenario sweeps
      should size transfers in whole ticks of the expected rate.
    * The plane stops scheduling tick events as soon as no transfer is
      active, so ``engine.run()`` terminates with the rest of the DES.
    * Per-link byte counters feed :meth:`utilization`; capacity a
      finishing transfer strands inside its final tick is *not* counted
      as moved bytes (accounting is of payload, not reservations).
    """

    def __init__(self, engine: DESEngine, tick: float = 0.01) -> None:
        if tick <= 0:
            raise InvalidArgumentError(f"tick must be > 0, got {tick}")
        self.engine = engine
        self.tick = tick
        self._capacity: dict[str, float] = {}
        self._active: dict[int, VirtualTransfer] = {}
        self._ids = itertools.count(1)
        self._ticking = False
        self.completed: list[VirtualTransfer] = []
        self.link_bytes: dict[str, float] = {}
        #: virtual seconds each link spent with >= 1 transfer on it
        self.link_busy: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    def add_link(self, name: str, capacity: float) -> None:
        """Declare a link with ``capacity`` bytes/s (must be > 0)."""
        if capacity <= 0:
            raise InvalidArgumentError(
                f"link capacity must be > 0, got {capacity}"
            )
        self._capacity[name] = float(capacity)
        self.link_bytes.setdefault(name, 0.0)
        self.link_busy.setdefault(name, 0.0)

    def links(self) -> dict[str, float]:
        return dict(self._capacity)

    def start_transfer(
        self,
        size: float,
        path: Sequence[str],
        priority: int = PRIO_BULK,
        on_complete: Callable[[VirtualTransfer], None] | None = None,
    ) -> VirtualTransfer:
        """Begin moving ``size`` bytes across the links of ``path``."""
        if size <= 0:
            raise InvalidArgumentError(f"transfer size must be > 0, got {size}")
        if not path:
            raise InvalidArgumentError("transfer path needs >= 1 link")
        for link in path:
            if link not in self._capacity:
                raise InvalidArgumentError(f"unknown link {link!r}")
        transfer = VirtualTransfer(
            next(self._ids), tuple(path), size, priority,
            self.engine.now(), on_complete,
        )
        self._active[transfer.transfer_id] = transfer
        if not self._ticking:
            self._ticking = True
            self.engine.schedule(self.tick, self._tick)
        return transfer

    def ping(
        self,
        path: Sequence[str],
        size: float = 1024.0,
        on_complete: Callable[[VirtualTransfer], None] | None = None,
    ) -> VirtualTransfer:
        """A control-lane message: tiny, strictly prioritised over bulk."""
        return self.start_transfer(
            size, path, priority=PRIO_CONTROL, on_complete=on_complete
        )

    # ------------------------------------------------------------------ #
    def current_rates(self) -> dict[int, float]:
        """Per-transfer rates for the coming tick: control first (full
        capacities), bulk max-min shares the residual."""
        control = {
            t.transfer_id: t.path for t in self._active.values()
            if t.priority == PRIO_CONTROL
        }
        bulk = {
            t.transfer_id: t.path for t in self._active.values()
            if t.priority != PRIO_CONTROL
        }
        rates = max_min_rates(self._capacity, control) if control else {}
        residual = dict(self._capacity)
        for transfer_id, rate in rates.items():
            for link in control[transfer_id]:
                residual[link] = max(0.0, residual[link] - rate)
        if bulk:
            rates.update(max_min_rates(residual, bulk))
        return rates

    def _tick(self) -> None:
        rates = self.current_rates()
        now = self.engine.now()
        busy: set[str] = set()
        finished: list[VirtualTransfer] = []
        for transfer in self._active.values():
            busy.update(transfer.path)
            moved = min(
                transfer.remaining,
                rates.get(transfer.transfer_id, 0.0) * self.tick,
            )
            transfer.remaining -= moved
            for link in transfer.path:
                self.link_bytes[link] += moved
            if transfer.remaining <= 1e-9:
                transfer.remaining = 0.0
                transfer.finished = now
                finished.append(transfer)
        for link in busy:
            self.link_busy[link] += self.tick
        for transfer in finished:
            del self._active[transfer.transfer_id]
            self.completed.append(transfer)
            if transfer.on_complete is not None:
                transfer.on_complete(transfer)
        if self._active:
            self.engine.schedule(self.tick, self._tick)
        else:
            self._ticking = False

    # ------------------------------------------------------------------ #
    def utilization(self, link: str, start: float, end: float) -> float:
        """Fraction of ``link``'s capacity used over ``[start, end]``."""
        if end <= start:
            raise InvalidArgumentError("utilization window must be positive")
        capacity = self._capacity.get(link)
        if not capacity:
            raise InvalidArgumentError(f"unknown link {link!r}")
        return self.link_bytes.get(link, 0.0) / (capacity * (end - start))

    def stats(self) -> dict:
        return {
            "links": {
                name: {
                    "capacity": capacity,
                    "bytes": self.link_bytes.get(name, 0.0),
                    "busy_seconds": self.link_busy.get(name, 0.0),
                }
                for name, capacity in sorted(self._capacity.items())
            },
            "active": len(self._active),
            "completed": len(self.completed),
        }
