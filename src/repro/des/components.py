"""Virtual-time SimFS: the DV coordinator and the daemon's launcher on
the DES engine.

:class:`VirtualSimFS` binds the real
:class:`~repro.dv.launcher.ThreadedLauncher` to the engine, which is both
its clock and its loop: a launched re-simulation is the launcher's chain
of productions, the first output ``αsim(p) + τsim(p)`` virtual seconds
after the launch and one every ``τsim(p)`` after it
(:func:`~repro.core.perfmodel.production_offset`), optionally with a
stochastic batch queueing delay added to ``α`` (Sec. IV-C1c).  Each
context's driver is file-less (:class:`PlannedOutputs`): a job yields
the sim's planned outputs and writes nothing.
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
from repro.core.perfmodel import PerformanceModel
from repro.des.engine import DESEngine
from repro.dv.coordinator import DVCoordinator, Notification, RunningSim
from repro.dv.launcher import ThreadedLauncher
from repro.metrics import MetricsRegistry
from repro.simulators.driver import SimulationJobSpec, SteppedDriver

__all__ = ["PlannedOutputs", "VirtualAnalysis", "VirtualSimFS"]


class PlannedOutputs(SteppedDriver):
    """A context's driver in virtual time: a job's productions are the
    sim's planned outputs (``job.planned_keys``), and nothing is
    written.  Its step is known to be 0 bytes, so the launcher runs each
    production on the engine, at the instant it is due."""

    def steps(
        self, job: SimulationJobSpec, output_dir: str, restart_dir: str,
        stop=None,
    ):
        return map(self.naming.filename, job.planned_keys)

    def output_bytes(self, output_dir: str, filename: str | None = None) -> int:
        return 0


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
        self.engine.call_at(at, self._issue_access)

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
    """Bundle of engine + coordinator + launcher with analysis routing."""

    engine: DESEngine = field(default_factory=DESEngine)
    #: Extra restart latency per job (models batch queueing time).
    queue_delay: Callable[[], float] | None = None

    def __post_init__(self) -> None:
        self.launcher = ThreadedLauncher(clock=self.engine, loop=self.engine)
        self.metrics = MetricsRegistry()
        self.coordinator = DVCoordinator(
            self.launcher, notify=self._route, metrics=self.metrics
        )
        self.launcher.bind(self.coordinator)
        self._analyses: dict[str, VirtualAnalysis] = {}

    def add_context(self, context: SimulationContext) -> None:
        self.coordinator.register_context(context)
        self.launcher.register_context(
            context.name, PlannedOutputs(context.driver.naming), "", "",
            pace=self._pace(context.perf),
        )

    def _pace(self, perf: PerformanceModel) -> Callable[[RunningSim], tuple[float, float]]:
        """A run's ``(α, τ)`` at its parallelism level, its queueing
        delay drawn once, at its launch."""
        queue_delay = self.queue_delay or (lambda: 0.0)

        def pace(sim: RunningSim) -> tuple[float, float]:
            level = sim.parallelism_level
            return perf.alpha(level) + max(0.0, queue_delay()), perf.tau(level)

        return pace

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
