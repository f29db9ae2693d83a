"""Virtual-time SimFS: the DV coordinator wired to the DES engine.

:class:`DESExecutor` interprets a launched re-simulation as a stream of
production events — the first output after ``αsim(p) + τsim(p)`` virtual
seconds, then one every ``τsim(p)``, on the schedule the live launcher
also keeps (:func:`~repro.core.perfmodel.production_offset`) — optionally
adding stochastic batch queueing delay (Sec. IV-C1c).
:class:`VirtualAnalysis` models an analysis process with inter-access
time ``τcli``: it opens files through the very same
``DVCoordinator.handle_open`` the TCP daemon uses, blocks on misses until
the notification arrives, and records its completion time.

This is the DES of one daemon behind the paper's evaluation (Figs.
13-19).  The cluster tier and the data plane have no virtual-time model
(ARCHITECTURE.md, "The DES twin: measured once, deleted").
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.context import SimulationContext
from repro.core.errors import InvalidArgumentError
from repro.core.perfmodel import production_offset
from repro.des.engine import DESEngine, EventHandle
from repro.dv.coordinator import DVCoordinator, Notification, RunningSim
from repro.metrics import MetricsRegistry

__all__ = ["DESExecutor", "VirtualAnalysis", "VirtualSimFS"]


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
                    production_offset(alpha, tau, position),
                    self._make_production(context.name, sim.sim_id, filename),
                )
            )
        # Completion is signalled unconditionally after the last production
        # (real mode does the same when driver.execute returns).  Relying
        # on per-key attribution alone deadlocks when overlapping sims
        # produce each other's planned keys: nobody reaches `done`, the
        # smax slots never free, and queued jobs starve.
        done_at = production_offset(alpha, tau, len(sim.planned_keys))
        handles.append(
            self.engine.schedule(
                done_at,
                lambda: self.coordinator.sim_completed(
                    context.name, sim.sim_id, self.engine.now()
                ),
            )
        )
        self._events[sim.sim_id] = handles

    def kill(self, sim_id: int) -> None:
        for handle in self._events.pop(sim_id, []):
            handle.cancel()

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
