"""Context shards: the per-context DV control plane (paper Sec. III).

A :class:`ContextShard` owns everything the DV knows about one simulation
context — the bounded storage area, the waiter table, the running and
queued re-simulations, one prefetch agent per client, and the restart
latency EMA — plus its **own re-entrant lock**.  Every public method is
self-locking, so front ends (the TCP daemon's socket handlers, the DES,
the in-process connection) call straight into the shard without any global
serialization: operations on ``cosmo`` never contend with ``flash``.

:class:`DVCoordinator` (:mod:`repro.dv.coordinator`) is the thin registry
that routes ``context_name`` to the right shard; it holds no data-path
state of its own.

Queued jobs live in a :class:`JobQueue`, a heap-backed priority structure
that serves demand re-simulations before prefetch jobs while preserving
FIFO order within each class — the same discipline the paper's daemon
implements, without the O(n) ``list.pop(0)`` scans.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, NamedTuple, Protocol

from repro.cache.manager import StorageArea
from repro.core.context import SimulationContext
from repro.core.errors import (
    FileNotInContextError,
    InvalidArgumentError,
    SimFSError,
)
from repro.core.status import FileState
from repro.prefetch.agent import PrefetchAction, PrefetchAgent
from repro.util.ema import ExponentialMovingAverage

if TYPE_CHECKING:
    from repro.metrics import MetricsRegistry
    from repro.obs import SpanRecorder

__all__ = [
    "SimulationExecutor",
    "RunningSim",
    "OpenResult",
    "Notification",
    "JobQueue",
    "ContextShard",
]


class SimulationExecutor(Protocol):
    """How a shard starts and stops re-simulations.

    Real mode: a thread-pool launcher running driver jobs (or batch-system
    submission).  Virtual-time mode: the DES schedules production events.
    """

    def launch(self, context: SimulationContext, sim: "RunningSim") -> None:
        """Start the simulation; file-completion callbacks flow back into
        the shard asynchronously."""
        ...

    def kill(self, sim_id: int) -> None:
        """Best-effort stop of a running simulation."""
        ...


@dataclass
class RunningSim:
    """Book-keeping for one launched re-simulation."""

    sim_id: int
    context_name: str
    start_restart: int
    stop_restart: int
    parallelism_level: int
    launch_time: float
    is_prefetch: bool
    owner_client: str | None
    planned_keys: list[int]
    produced_keys: set[int] = field(default_factory=set)
    first_output_time: float | None = None
    killed: bool = False
    #: Trace context of the open that demanded this sim (wire string).
    tc: str | None = None
    #: Launch time on the span recorder's clock (see SpanRecorder.now).
    obs_start: float | None = None

    @property
    def done(self) -> bool:
        return self.produced_keys >= set(self.planned_keys)


_ON_DISK = FileState.ON_DISK


class OpenResult(NamedTuple):
    """Outcome of a client open/acquire on one file."""

    filename: str
    state: FileState
    estimated_wait: float = 0.0

    @property
    def available(self) -> bool:
        return self.state is _ON_DISK


@dataclass(frozen=True)
class Notification:
    """File-ready (or failed) message to deliver to a waiting client."""

    client_id: str
    context_name: str
    filename: str
    ok: bool = True
    #: Trace context of the open that registered the waiter (wire string);
    #: carried onto the ready frame so the fan-out hop is traced too.
    tc: str | None = None


def _raised(results: list) -> list:
    """``handle_run``'s results, or the first error among them raised."""
    for result in results:
        if isinstance(result, SimFSError):
            raise result
    return results


class JobQueue:
    """Priority queue of pending re-simulations.

    Demand jobs drain before prefetch jobs; within each class the order is
    FIFO.  Killed entries are pruned lazily (:meth:`prune_killed`) or
    skipped by the caller at pop time, exactly like the daemon's original
    list-based queue.
    """

    _DEMAND, _PREFETCH = 0, 1

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, RunningSim]] = []
        self._seq = itertools.count()

    def push(self, sim: RunningSim) -> None:
        rank = self._PREFETCH if sim.is_prefetch else self._DEMAND
        heapq.heappush(self._heap, (rank, next(self._seq), sim))

    def pop(self) -> RunningSim:
        return heapq.heappop(self._heap)[2]

    def prune_killed(self) -> None:
        live = [entry for entry in self._heap if not entry[2].killed]
        if len(live) != len(self._heap):
            self._heap = live
            heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[RunningSim]:
        """Iterate pending sims in service order (tests and introspection)."""
        return (entry[2] for entry in sorted(self._heap))


class ContextShard:
    """Self-locking DV control plane for one simulation context."""

    def __init__(
        self,
        context: SimulationContext,
        executor: SimulationExecutor,
        sim_ids: Iterator[int],
        notify: Callable[[Notification], None],
        metrics: "MetricsRegistry | None" = None,
        on_evict_file: Callable[[str], None] | None = None,
        obs: "SpanRecorder | None" = None,
        present: Callable[[str], bool] | None = None,
    ) -> None:
        self.lock = threading.RLock()
        # Is an output file on disk?  Asked under the lock, where
        # evictions unlink (see sim_file_closed); None trusts every close.
        self._present = present
        self.context = context
        self._executor = executor
        self._sim_ids = sim_ids
        self._notify = notify
        self.obs = obs
        # (key, client_id) -> (tc, recorder-clock wait start) for traced
        # waiters: the basis of the "sim.wait" span at notification time.
        self._waiter_obs: dict[tuple[int, str], tuple[str | None, float]] = {}
        config = context.config

        def evict_cb(key: int) -> None:
            if on_evict_file is not None:
                on_evict_file(context.filename_of(key))

        self.area = StorageArea(
            config.replacement_policy,
            capacity_bytes=config.max_storage_bytes,
            entry_bytes=config.output_step_bytes,
            on_evict=evict_cb,
            metrics=metrics,
            metrics_prefix=f"cache.{context.name}",
        )
        self.alpha_ema = ExponentialMovingAverage(
            config.ema_smoothing, initial=context.perf.alpha_sim
        )
        self.waiters: dict[int, set[str]] = {}
        self.in_flight: dict[int, int] = {}  # key -> sim_id
        # filename -> key memo: the naming convention is static per
        # context, and every open/release/wclose re-derives the key from
        # the name (a string parse) — cache the bounded valid set.
        self._key_memo: dict[str, int] = {}
        self.sims: dict[int, RunningSim] = {}
        self.pending_jobs = JobQueue()
        self.agents: dict[str, PrefetchAgent] = {}
        # keys each client has open (for pin bookkeeping on disconnect)
        self.open_files: dict[str, list[int]] = {}
        # when each client's last access was *served* (hit time or
        # notification time) — the basis of the pure-processing-time τcli
        # measurement
        self.last_served: dict[str, float] = {}
        # Aggregate experiment counters (Fig. 5 reports these).
        self.total_restarts = 0
        self.total_simulated_outputs = 0
        self.total_killed_sims = 0
        # Metrics plane (no-ops when the deployment carries no registry).
        if metrics is not None:
            prefix = f"dv.{context.name}"
            self._m_opens = metrics.counter(f"{prefix}.opens")
            self._m_hits = metrics.counter(f"{prefix}.hits")
            self._m_misses = metrics.counter(f"{prefix}.misses")
            self._m_releases = metrics.counter(f"{prefix}.releases")
            self._m_restarts = metrics.counter(f"{prefix}.restarts_launched")
            self._m_outputs = metrics.counter(f"{prefix}.outputs_produced")
            self._m_killed = metrics.counter(f"{prefix}.sims_killed")
            self._m_notifications = metrics.counter(f"{prefix}.notifications")
            self._m_running = metrics.gauge(f"{prefix}.running_sims")
            self._m_queued = metrics.gauge(f"{prefix}.queued_jobs")
            self._m_clients = metrics.gauge(f"{prefix}.clients")
            self._m_wait = metrics.histogram(f"{prefix}.estimated_wait")
            # The storage area's hit/miss series are the shard's, under
            # their cache names: one counter each, exported twice.
            metrics.alias(f"cache.{context.name}.hits", self._m_hits)
            metrics.alias(f"cache.{context.name}.misses", self._m_misses)
        else:
            self._m_opens = self._m_hits = self._m_misses = None
            self._m_releases = self._m_restarts = self._m_outputs = None
            self._m_killed = self._m_notifications = None
            self._m_running = self._m_queued = self._m_clients = None
            self._m_wait = None

    @property
    def name(self) -> str:
        return self.context.name

    @property
    def running_count(self) -> int:
        return len(self.sims)

    def summary(self) -> dict:
        """Point-in-time shard state for the ``stats`` op."""
        with self.lock:
            return {
                "context": self.name,
                "clients": len(self.agents),
                "resident_steps": len(self.area),
                "used_bytes": self.area.used_bytes,
                "running_sims": len(self.sims),
                "queued_jobs": len(self.pending_jobs),
                "waited_keys": len(self.waiters),
                "total_restarts": self.total_restarts,
                "total_simulated_outputs": self.total_simulated_outputs,
                "total_killed_sims": self.total_killed_sims,
                "alpha_estimate": self.alpha_ema.value,
            }

    def capture_repl_state(self) -> dict:
        """JSON-serializable snapshot of the shard's warm state — what a
        replica needs to promote itself into a working owner: attached
        clients, the files each holds open (``[client, file, count]``),
        the waiter table, cache-resident keys (storage metadata),
        running/queued re-simulation progress markers, and the restart
        latency estimate.  Read-only: unlike :meth:`capture_handoff` the
        shard keeps serving (this is the replication stream's source, not
        an ownership handoff)."""
        with self.lock:
            sims = [
                {
                    "start": sim.start_restart,
                    "stop": sim.stop_restart,
                    "level": sim.parallelism_level,
                    "prefetch": sim.is_prefetch,
                    "owner": sim.owner_client,
                    "produced": sorted(sim.produced_keys),
                }
                for sim in list(self.sims.values())
                + [s for s in self.pending_jobs if not s.killed]
            ]
            return {
                "clients": sorted(self.agents),
                "held": sorted(
                    [client_id, self.context.filename_of(key), count]
                    for client_id, keys in self.open_files.items()
                    for key, count in Counter(keys).items()
                ),
                "waiters": sorted(
                    (client_id, self.context.filename_of(key))
                    for key, waiting in self.waiters.items()
                    for client_id in waiting
                ),
                "resident": sorted(self.area.keys()),
                "sims": sims,
                "alpha": self.alpha_ema.value,
                "alpha_count": self.alpha_ema.count,
            }

    def restore_repl_state(self, state: dict, now: float) -> list[Notification]:
        """Promotion: rebuild this shard's control plane from a replicated
        snapshot (the inverse of :meth:`capture_repl_state`).

        Re-attaches clients, re-registers every replicated waiter through
        the normal open path (relaunching demand re-simulations for files
        not on disk), gives every client back the files it held open with
        their pin counts, and relaunches in-flight re-simulations whose
        planned outputs have not materialized.  Returns ready
        notifications for waited files already on disk — the caller
        delivers those to the blocked clients immediately; the rest flow
        through the shard's normal notify path when their simulations
        produce them."""
        ready: list[Notification] = []
        with self.lock:
            alpha = state.get("alpha")
            if (
                isinstance(alpha, (int, float))
                and state.get("alpha_count")
                and self.alpha_ema.count == 0
            ):
                # Seed the latency estimate with the dead owner's learned
                # value instead of restarting the EMA from optimism.
                self.alpha_ema.observe(float(alpha))
            for client_id in state.get("clients", ()):
                if client_id not in self.agents:
                    self.client_connect(client_id)
            for entry in state.get("waiters", ()):
                client_id, filename = entry[0], entry[1]
                if client_id not in self.agents:
                    self.client_connect(client_id)
                result = self.handle_open(client_id, filename, now)
                if result.available:
                    ready.append(
                        Notification(client_id, self.name, filename, ok=True)
                    )
            for client_id, filename, count in state.get("held", ()):
                if client_id not in self.agents:
                    self.client_connect(client_id)
                key = self._key_of(filename)
                # Topped up, not added: a restored waiter whose file is on
                # disk already holds it through the open above, and a
                # second restore of the same state must not pin twice.
                open_list = self.open_files[client_id]
                for _ in range(int(count) - open_list.count(key)):
                    open_list.append(key)
                    if key in self.area:
                        self.area.pin(key)
            for marker in state.get("sims", ()):
                # Resume interrupted re-simulations (prefetches included):
                # _launch plans only keys still missing, so progress the
                # dead owner already banked is not re-simulated.
                try:
                    start = int(marker["start"])
                    stop = int(marker["stop"])
                    level = int(marker.get("level", 1))
                except (KeyError, TypeError, ValueError):
                    continue
                owner = marker.get("owner")
                if (
                    owner is not None
                    and owner not in self.agents
                    and bool(marker.get("prefetch", False))
                ):
                    continue  # prefetch for a client that is gone: skip
                missing = [
                    k
                    for k in self.context.geometry.outputs_between_restarts(
                        start, stop
                    )
                    if k not in self.area and k not in self.in_flight
                ]
                if not missing:
                    continue  # fully materialized or already relaunched
                self._launch(
                    start, stop, level=level, now=now,
                    is_prefetch=bool(marker.get("prefetch", False)),
                    owner=owner if owner in self.agents else None,
                )
        return ready

    def capture_handoff(self) -> tuple[list[str], list[tuple[str, str]]]:
        """Atomically capture client state for an ownership handoff.

        Returns ``(attached_client_ids, [(client_id, filename), ...])`` —
        everyone attached to this shard plus every outstanding waiter —
        and clears the waiter table, so a subsequent unregister does not
        fail those waits: the new owner replays them instead.  Used when a
        context moves between cluster nodes.
        """
        with self.lock:
            attached = list(self.agents)
            captured = [
                (client_id, self.context.filename_of(key))
                for key, waiting in self.waiters.items()
                for client_id in waiting
            ]
            self.waiters.clear()
            self._waiter_obs.clear()
        return attached, captured

    # ------------------------------------------------------------------ #
    # Client management
    # ------------------------------------------------------------------ #
    def client_connect(self, client_id: str) -> None:
        """``SIMFS_Init``: attach a client (and its prefetch agent)."""
        with self.lock:
            if client_id in self.agents:
                raise InvalidArgumentError(
                    f"client {client_id!r} already attached to {self.name!r}"
                )
            self.agents[client_id] = PrefetchAgent(
                self.context.config, self.context.perf, self.alpha_ema
            )
            self.open_files[client_id] = []
            if self._m_clients is not None:
                self._m_clients.set(len(self.agents))

    def client_disconnect(self, client_id: str, now: float) -> None:
        """``SIMFS_Finalize``: drop pins, reset the agent, kill orphaned
        prefetch simulations."""
        with self.lock:
            agent = self.agents.pop(client_id, None)
            self.last_served.pop(client_id, None)
            for key in self.open_files.pop(client_id, []):
                if key in self.area:
                    self.area.unpin(key)
            for key, waiting in list(self.waiters.items()):
                waiting.discard(client_id)
                self._waiter_obs.pop((key, client_id), None)
                if not waiting:
                    del self.waiters[key]
            if agent is not None:
                self._kill_useless_prefetches(client_id)
            self.area.evict_until_fits()
            if self._m_clients is not None:
                self._m_clients.set(len(self.agents))

    # ------------------------------------------------------------------ #
    # Client data path
    # ------------------------------------------------------------------ #
    def handle_run(
        self,
        client_id: str,
        ops: Sequence[tuple[bool, str, str | None]],
        now: float,
        stamps: list[float] | None = None,
    ) -> list[OpenResult | SimFSError | None]:
        """One client's consecutive ops, each ``(is_open, filename, tc)``
        — an ``open``, else a ``release`` — under one lock acquisition and
        one attachment check.  Per op: the :class:`OpenResult`, ``None``
        for a release, or the :class:`SimFSError` it failed with (a failed
        op does not stop the ones behind it).  ``stamps``, when given,
        receives a ``perf_counter`` reading as each op finishes, so a
        front end can still time every op on its own."""
        results: list[OpenResult | SimFSError | None] = []
        opened = hits = released = 0
        with self.lock:
            try:
                self._require_client(client_id)
            except SimFSError as exc:
                return [exc] * len(ops)
            try:
                for is_open, filename, tc in ops:
                    try:
                        if is_open:
                            result = self._open_locked(client_id, filename, now, tc)
                            opened += 1
                            hits += result.state is _ON_DISK
                        else:
                            result = self._release_locked(client_id, filename)
                            released += 1
                    except SimFSError as exc:
                        result = exc
                    results.append(result)
                    if stamps is not None:
                        stamps.append(perf_counter())
            finally:
                # One locked inc per counter per run, not per op.
                if self._m_opens is not None:
                    if opened:
                        self._m_opens.inc(opened)
                        if hits:
                            self._m_hits.inc(hits)
                        if opened > hits:
                            self._m_misses.inc(opened - hits)
                    if released:
                        self._m_releases.inc(released)
        return results

    def handle_open(
        self, client_id: str, filename: str, now: float,
        tc: str | None = None,
    ) -> OpenResult:
        """An analysis wants ``filename`` (transparent open or acquire):
        a run of one, its error raised (see :meth:`_open_locked`)."""
        return _raised(self.handle_run(client_id, ((True, filename, tc),), now))[0]

    def handle_acquire(
        self, client_id: str, filenames: list[str], now: float,
        tc: str | None = None,
    ) -> list[OpenResult]:
        """``SIMFS_Acquire``: open semantics over a set of files.  Every
        file is asked for; the first one that failed raises."""
        return _raised(self.handle_run(
            client_id, [(True, name, tc) for name in filenames], now
        ))

    def handle_release(self, client_id: str, filename: str, now: float) -> None:
        """``SIMFS_Release`` / transparent read-close: drop the pin."""
        _raised(self.handle_run(client_id, ((False, filename, None),), now))

    def handle_bitrep(self, filename: str, path: str) -> bool:
        """``SIMFS_Bitrep``: does the file at ``path`` match the checksum
        recorded for ``filename`` at initial-simulation time?

        The checksum itself runs *outside* the shard lock — it is pure
        file I/O and must not stall the context's control plane.
        """
        with self.lock:
            reference = self.context.reference_checksum(filename)
            if reference is None:
                from repro.core.errors import ChecksumUnavailableError

                raise ChecksumUnavailableError(
                    f"no reference checksum recorded for {filename!r}"
                )
            driver = self.context.driver
        try:
            return driver.checksum(path) == reference
        except OSError as exc:
            # The file can vanish mid-checksum (eviction runs under the
            # shard lock we just released); answer with an error reply
            # rather than an escaping OSError.
            raise InvalidArgumentError(
                f"cannot read {path!r} for bitrep: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # Simulator data path (DVLib intercepts the simulator's closes)
    # ------------------------------------------------------------------ #
    def sim_file_closed(self, filename: str, now: float) -> list[Notification]:
        """A running simulation closed an output file: it is ready on disk
        (Fig. 4 step 5).  Inserts it into the storage area, updates the
        latency estimate, notifies waiters, and starts queued jobs when a
        simulation completes.  A close whose file an eviction already
        unlinked (a second simulation rewrote a resident step, and the
        step was evicted before its close arrived) is dropped, leaving
        the in-flight claim and the waiters alone: the step is not
        resident, so its next ``open`` misses and re-simulates it."""
        with self.lock:
            naming = self.context.driver.naming
            if naming.is_restart(filename):
                return []  # checkpoint writes are not analysis-visible
            if self._present is not None and not self._present(filename):
                return []
            key = self._key_of(filename)

            # The file exists now, whichever simulation produced it: the
            # in-flight claim is satisfied unconditionally (the claiming
            # sim may be queued or already gone).
            owner = self.in_flight.pop(key, None)
            sim = self.sims.get(owner) if owner is not None else None
            if sim is not None:
                sim.produced_keys.add(key)
                if sim.first_output_time is None:
                    sim.first_output_time = now
                    # Observed restart latency: launch -> first output,
                    # minus one production period (Sec. IV-C1c).
                    tau = self.context.perf.tau(sim.parallelism_level)
                    self.alpha_ema.observe(
                        max(0.0, now - sim.launch_time - tau)
                    )
            self.total_simulated_outputs += 1
            if self._m_outputs is not None:
                self._m_outputs.inc()

            waiting = self.waiters.pop(key, set())
            cost = float(self.context.geometry.miss_cost(key))
            # Atomic pinned insert: a step with waiters must not be
            # evicted by the cache pressure of its own insertion wave.
            self.area.insert(key, cost=cost, pinned=bool(waiting))
            notifications = []
            for idx, client_id in enumerate(waiting):
                if idx > 0:
                    self.area.pin(key)
                self.open_files[client_id].append(key)
                self.last_served[client_id] = now
                notifications.append(
                    Notification(client_id, self.name, filename, ok=True,
                                 tc=self._waiter_span(key, client_id))
                )
            if sim is not None and sim.done:
                self._sim_finished(sim, now)
            if self._m_notifications is not None and notifications:
                self._m_notifications.inc(len(notifications))
            for notification in notifications:
                self._notify(notification)
            return notifications

    def sim_completed(self, sim_id: int, now: float) -> None:
        """The executor reports a simulation process exited."""
        with self.lock:
            sim = self.sims.get(sim_id)
            if sim is not None:
                self._sim_finished(sim, now)

    def sim_failed(self, sim_id: int, now: float) -> list[Notification]:
        """A re-simulation crashed: fail its waiters (Sec. III-C status)."""
        with self.lock:
            sim = self.sims.pop(sim_id, None)
            if sim is None:
                return []
            notifications = []
            for key in sim.planned_keys:
                if self.in_flight.get(key) == sim_id:
                    del self.in_flight[key]
                for client_id in self.waiters.pop(key, set()):
                    notifications.append(
                        Notification(
                            client_id,
                            self.name,
                            self.context.filename_of(key),
                            ok=False,
                            tc=self._waiter_span(key, client_id, ok=False),
                        )
                    )
            self._start_queued(now)
            for notification in notifications:
                self._notify(notification)
            return notifications

    # ------------------------------------------------------------------ #
    # Internals (all called with the shard lock held)
    # ------------------------------------------------------------------ #
    def _waiter_span(
        self, key: int, client_id: str, ok: bool = True
    ) -> str | None:
        """Close out a traced waiter: emit its ``sim.wait`` span and hand
        back the tc for the ready notification (None when untraced)."""
        if self.obs is None:
            return None
        tc, began = self._waiter_obs.pop((key, client_id), (None, None))
        if tc is None:
            return None
        self.obs.record(
            "sim.wait", tc, began, self.obs.now(),
            context=self.name, file=self.context.filename_of(key),
            ok=None if ok else False,
        )
        return tc

    def _open_locked(
        self, client_id: str, filename: str, now: float, tc: str | None
    ) -> OpenResult:
        """The one ``open`` (lock held, client attached).  On a hit the
        file is pinned for the client and reported available.  On a miss
        the client is registered as a waiter and a demand re-simulation
        is launched unless one already covers the step; prefetch
        decisions from the client's agent are executed either way."""
        key = self._key_of(filename)

        hit = self.area.access(key)
        if hit:
            self.area.pin(key)
            self.open_files[client_id].append(key)

        # Pure analysis processing time: gap since this client's
        # previous access was served (excludes time blocked on
        # re-simulations).
        previous_serve = self.last_served.get(client_id)
        processing_time = (
            None if previous_serve is None else now - previous_serve
        )
        if hit:
            self.last_served[client_id] = now

        agent = self.agents[client_id]
        decision = agent.observe_access(key, now, hit, processing_time)
        if decision.pollution:
            # A prefetched step was evicted before use: cache
            # pollution; reset every agent of the context (Sec. IV-C).
            for other in self.agents.values():
                other.reset()
        if decision.pattern_broken:
            self._kill_useless_prefetches(client_id)

        estimated = 0.0
        if not hit:
            self.waiters.setdefault(key, set()).add(client_id)
            if self.obs is not None and tc is not None:
                self._waiter_obs[(key, client_id)] = (tc, self.obs.now())
            if key not in self.in_flight:
                sim = self._launch_demand(client_id, key, now, tc=tc)
                agent.note_demand_job(sim.start_restart, sim.stop_restart)
            estimated = self._estimate_wait(key, now)

        # Execute prefetch launches after the demand job so coverage
        # bookkeeping extends from its edge.
        for action in decision.launch:
            self._launch_prefetch(client_id, action, now)

        if not hit and self._m_wait is not None:
            self._m_wait.observe(estimated)
        return OpenResult(
            filename, _ON_DISK if hit else self._flight_state(key), estimated
        )

    def _release_locked(self, client_id: str, filename: str) -> None:
        """The one ``release`` (lock held, client attached)."""
        key = self._key_of(filename)
        open_list = self.open_files[client_id]
        if key not in open_list:
            raise InvalidArgumentError(
                f"client {client_id!r} does not hold {filename!r}"
            )
        open_list.remove(key)
        if key in self.area:
            self.area.unpin(key)
            self.area.evict_until_fits()

    def _require_client(self, client_id: str) -> None:
        if client_id not in self.agents:
            raise InvalidArgumentError(
                f"client {client_id!r} is not attached to {self.name!r} "
                "(call client_connect first)"
            )

    def _key_of(self, filename: str) -> int:
        key = self._key_memo.get(filename)
        if key is not None:
            return key
        try:
            key = self.context.key_of(filename)
        except FileNotInContextError:
            raise
        except Exception as exc:  # driver bugs surface as context errors
            raise FileNotInContextError(str(exc)) from exc
        # Only valid names are cached, so the memo is bounded by the
        # context's output-step count (invalid probes cannot grow it).
        self._key_memo[filename] = key
        return key

    def _flight_state(self, key: int) -> FileState:
        sim_id = self.in_flight.get(key)
        if sim_id is None:
            return FileState.UNKNOWN
        sim = self.sims.get(sim_id)
        if sim is None:
            return FileState.QUEUED
        return FileState.SIMULATING

    def _launch_demand(
        self, client_id: str, key: int, now: float, tc: str | None = None
    ) -> RunningSim:
        geo = self.context.geometry
        start_r, stop_r = geo.resim_job_extent(key)
        return self._launch(
            start_r,
            stop_r,
            level=self.context.config.default_parallelism_level,
            now=now,
            is_prefetch=False,
            owner=client_id,
            tc=tc,
        )

    def _launch_prefetch(
        self, client_id: str, action: PrefetchAction, now: float
    ) -> RunningSim | None:
        geo = self.context.geometry
        planned = [
            k
            for k in geo.outputs_between_restarts(
                action.start_restart, action.stop_restart
            )
            if k not in self.area and k not in self.in_flight
        ]
        if not planned:
            return None
        return self._launch(
            action.start_restart,
            action.stop_restart,
            level=action.parallelism_level,
            now=now,
            is_prefetch=True,
            owner=client_id,
        )

    def _launch(
        self,
        start_r: int,
        stop_r: int,
        level: int,
        now: float,
        is_prefetch: bool,
        owner: str | None,
        tc: str | None = None,
    ) -> RunningSim:
        geo = self.context.geometry
        planned = [
            k
            for k in geo.outputs_between_restarts(start_r, stop_r)
            if k not in self.area
        ]
        sim = RunningSim(
            sim_id=next(self._sim_ids),
            context_name=self.name,
            start_restart=start_r,
            stop_restart=stop_r,
            parallelism_level=level,
            launch_time=now,
            is_prefetch=is_prefetch,
            owner_client=owner,
            planned_keys=planned,
            tc=tc,
        )
        for key in planned:
            self.in_flight.setdefault(key, sim.sim_id)
        if self.running_count >= self.context.config.smax:
            # smax reached: queue (demand jobs drain before prefetch jobs).
            self.pending_jobs.push(sim)
            if self._m_queued is not None:
                self._m_queued.set(len(self.pending_jobs))
            return sim
        self._start(sim, now)
        return sim

    def _start(self, sim: RunningSim, now: float) -> None:
        sim.launch_time = now
        if self.obs is not None and sim.tc is not None:
            sim.obs_start = self.obs.now()
        self.sims[sim.sim_id] = sim
        self.total_restarts += 1
        if self._m_restarts is not None:
            self._m_restarts.inc()
            self._m_running.set(len(self.sims))
        self._executor.launch(self.context, sim)

    def _sim_finished(self, sim: RunningSim, now: float) -> None:
        if (
            self.obs is not None
            and sim.tc is not None
            and sim.obs_start is not None
        ):
            self.obs.record(
                "sim.run", sim.tc, sim.obs_start, self.obs.now(),
                context=self.name, sim_id=sim.sim_id,
                prefetch=sim.is_prefetch or None,
            )
        self.sims.pop(sim.sim_id, None)
        for key in sim.planned_keys:
            if self.in_flight.get(key) == sim.sim_id:
                del self.in_flight[key]
        self._start_queued(now)
        if self._m_running is not None:
            self._m_running.set(len(self.sims))

    def _start_queued(self, now: float) -> None:
        while self.pending_jobs and self.running_count < self.context.config.smax:
            sim = self.pending_jobs.pop()
            if sim.killed:
                self._release_claims(sim)
                continue
            # Drop keys that materialized while queued — releasing their
            # in-flight claims, or later misses would wait on a simulation
            # that never runs.
            dropped = [k for k in sim.planned_keys if k in self.area]
            sim.planned_keys = [k for k in sim.planned_keys if k not in self.area]
            for key in dropped:
                if self.in_flight.get(key) == sim.sim_id:
                    del self.in_flight[key]
            if not sim.planned_keys:
                continue
            self._start(sim, now)
        if self._m_queued is not None:
            self._m_queued.set(len(self.pending_jobs))

    def _release_claims(self, sim: RunningSim) -> None:
        for key in sim.planned_keys:
            if self.in_flight.get(key) == sim.sim_id:
                del self.in_flight[key]

    def _kill_useless_prefetches(self, client_id: str) -> None:
        """Kill prefetch sims of this client nobody else is waiting on
        (Sec. IV-C, prefetching effectiveness)."""
        if not self.sims and not self.pending_jobs:
            # Every broken pattern lands here, on the hit path too: with
            # nothing running or queued there is nothing to kill or prune.
            return
        for sim in list(self.sims.values()) + list(self.pending_jobs):
            if not sim.is_prefetch or sim.owner_client != client_id or sim.killed:
                continue
            has_waiters = any(
                self.waiters.get(key) for key in sim.planned_keys
            )
            if has_waiters:
                continue
            sim.killed = True
            self.total_killed_sims += 1
            if self._m_killed is not None:
                self._m_killed.inc()
            if sim.sim_id in self.sims:
                del self.sims[sim.sim_id]
                self._executor.kill(sim.sim_id)
            for key in sim.planned_keys:
                if self.in_flight.get(key) == sim.sim_id:
                    del self.in_flight[key]
        self.pending_jobs.prune_killed()
        if self._m_running is not None:
            self._m_running.set(len(self.sims))
            self._m_queued.set(len(self.pending_jobs))

    def _estimate_wait(self, key: int, now: float) -> float:
        """Estimated seconds until ``key`` is on disk (Sec. III-C status)."""
        sim_id = self.in_flight.get(key)
        perf = self.context.perf
        alpha = self.alpha_ema.value
        if sim_id is None or sim_id not in self.sims:
            # Queued or unknown: full latency plus the worst-case interval.
            return alpha + self.context.geometry.outputs_per_restart_interval * perf.tau(
                self.context.config.default_parallelism_level
            )
        sim = self.sims[sim_id]
        tau = perf.tau(sim.parallelism_level)
        try:
            position = sim.planned_keys.index(key) + 1
        except ValueError:
            position = len(sim.planned_keys)
        expected = alpha + position * tau
        elapsed = now - sim.launch_time
        return max(0.0, expected - elapsed)
