"""Real-mode simulation launcher: runs re-simulations on worker threads.

The original SimFS shells out to batch-system scripts generated by the LUA
drivers.  The reproduction's real mode runs driver jobs on a thread pool in
the DV process instead: each launched :class:`RunningSim` becomes a worker
thread executing ``driver.execute``, which reports every produced output
file back to the coordinator (``sim_file_closed``) and the final completion
(``sim_completed``/``sim_failed``).

The coordinator routes those reports into the owning context's shard,
which serializes them under its *own* lock — the launcher no longer holds
a global lock around coordinator calls, so worker threads of different
contexts report concurrently.  A small internal mutex protects only the
launcher's thread table.

Optional pacing (``alpha_delay`` / ``tau_delay``) injects real sleeps to
emulate restart latency and inter-production time for end-to-end
demonstrations; tests leave both at zero.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.core.context import SimulationContext
from repro.core.errors import ContextError
from repro.dv.coordinator import DVCoordinator, RunningSim
from repro.metrics import MetricsRegistry
from repro.simulators.driver import SimulationDriver, SimulationJobSpec
from repro.util.clock import Clock, WallClock

__all__ = ["ThreadedLauncher"]


@dataclass
class _ContextRuntime:
    driver: SimulationDriver
    output_dir: str
    restart_dir: str
    alpha_delay: float = 0.0
    tau_delay: float = 0.0
    areas: tuple[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.areas = (os.path.realpath(self.output_dir),
                      os.path.realpath(self.restart_dir))


class ThreadedLauncher:
    """`SimulationExecutor` running jobs on daemon threads."""

    def __init__(
        self, clock: Clock | None = None, metrics: MetricsRegistry | None = None,
        obs=None,
    ) -> None:
        self.clock: Clock = clock or WallClock()
        #: Optional SpanRecorder: traced demand sims get a "sim.exec" span
        #: covering the driver execution itself (launch -> exit).
        self.obs = obs
        self._coordinator: DVCoordinator | None = None
        self._contexts: dict[str, _ContextRuntime] = {}
        self._mutex = threading.Lock()  # guards the three tables below
        self._killed: set[int] = set()
        self._threads: dict[int, threading.Thread] = {}
        self._sims: dict[int, RunningSim] = {}
        # Signalled whenever the last tracked simulation retires; lets
        # drains block on idleness instead of polling running_threads.
        self._idle = threading.Condition(self._mutex)
        if metrics is not None:
            self._m_launched = metrics.counter("launcher.sims_launched")
            self._m_completed = metrics.counter("launcher.sims_completed")
            self._m_failed = metrics.counter("launcher.sims_failed")
            self._m_running = metrics.gauge("launcher.running_threads")
        else:
            self._m_launched = self._m_completed = None
            self._m_failed = self._m_running = None

    # ------------------------------------------------------------------ #
    def bind(self, coordinator: DVCoordinator) -> None:
        """Attach the coordinator the launcher reports back to."""
        self._coordinator = coordinator

    def register_context(
        self,
        context_name: str,
        driver: SimulationDriver,
        output_dir: str,
        restart_dir: str,
        alpha_delay: float = 0.0,
        tau_delay: float = 0.0,
    ) -> None:
        """Declare where a context's files live and how to run its jobs."""
        self._contexts[context_name] = _ContextRuntime(
            driver, output_dir, restart_dir, alpha_delay, tau_delay
        )

    def _runtime(self, context_name: str) -> _ContextRuntime:
        try:
            return self._contexts[context_name]
        except KeyError:
            raise ContextError(
                f"launcher has no runtime for {context_name!r}"
            ) from None

    def output_dir(self, context_name: str) -> str:
        """Storage-area directory of a registered context."""
        return self._runtime(context_name).output_dir

    def restart_dir(self, context_name: str) -> str:
        """Restart-file directory of a registered context."""
        return self._runtime(context_name).restart_dir

    def areas(self, context_name: str) -> tuple[str, str]:
        """The output and restart directories as real paths, resolved at
        registration (what :func:`~repro.core.context.confine` takes)."""
        return self._runtime(context_name).areas

    # -- SimulationExecutor interface ------------------------------------ #
    def launch(self, context: SimulationContext, sim: RunningSim) -> None:
        runtime = self._runtime(context.name)
        thread = threading.Thread(
            target=self._run,
            args=(context, sim, runtime),
            name=f"simfs-sim-{sim.sim_id}",
            daemon=True,
        )
        with self._mutex:
            self._sims[sim.sim_id] = sim
            self._threads[sim.sim_id] = thread
        if self._m_launched is not None:
            self._m_launched.inc()
        thread.start()

    def kill(self, sim_id: int) -> None:
        with self._mutex:
            self._killed.add(sim_id)

    # ------------------------------------------------------------------ #
    def wait_all(self, timeout: float = 30.0) -> None:
        """Block until every launched simulation thread exits (tests)."""
        self.wait_idle(timeout)

    def wait_idle(self, timeout: float) -> bool:
        """Block until no launched simulation is still running/reporting.

        Event-driven counterpart of polling :attr:`running_threads`: the
        retiring simulation thread signals, so a drain waiting on a
        multi-second re-simulation sleeps instead of spinning.  Returns
        True when idle within ``timeout``.
        """
        with self._idle:
            return self._idle.wait_for(lambda: not self._threads, timeout)

    @property
    def running_threads(self) -> int:
        with self._mutex:
            return len(self._threads)

    def _retire(self, sim_id: int) -> None:
        """Drop a finished simulation's table entries (its coordinator
        report is already delivered) and signal idleness on the last."""
        with self._mutex:
            self._threads.pop(sim_id, None)
            self._sims.pop(sim_id, None)
            self._killed.discard(sim_id)
            if not self._threads:
                self._idle.notify_all()

    # ------------------------------------------------------------------ #
    def _run(self, context: SimulationContext, sim: RunningSim, runtime: _ContextRuntime) -> None:
        assert self._coordinator is not None, "launcher not bound"
        import time

        if self._m_running is not None:
            self._m_running.inc()
        if runtime.alpha_delay > 0:
            time.sleep(runtime.alpha_delay)

        def on_output(filename: str) -> None:
            if runtime.tau_delay > 0:
                time.sleep(runtime.tau_delay)
            try:
                self._coordinator.sim_file_closed(
                    context.name, filename, self.clock.now()
                )
            except ContextError:
                # The context was deregistered mid-flight (migration
                # cutover): the output still lands on the PFS for the
                # new owner; nobody here is waiting on it anymore.
                pass

        def stop() -> bool:
            with self._mutex:
                return sim.sim_id in self._killed

        job = SimulationJobSpec(
            context_name=context.name,
            start_restart=sim.start_restart,
            stop_restart=sim.stop_restart,
            parallelism_level=sim.parallelism_level,
        )
        exec_began = (
            self.obs.now()
            if self.obs is not None and sim.tc is not None
            else None
        )
        try:
            runtime.driver.execute(
                job,
                runtime.output_dir,
                runtime.restart_dir,
                on_output=on_output,
                stop=stop,
            )
        except Exception:
            if exec_began is not None:
                self.obs.record(
                    "sim.exec", sim.tc, exec_began, self.obs.now(),
                    context=context.name, sim_id=sim.sim_id, ok=False,
                )
            try:
                self._coordinator.sim_failed(
                    context.name, sim.sim_id, self.clock.now()
                )
            except ContextError:
                pass
            if self._m_failed is not None:
                self._m_failed.inc()
                self._m_running.dec()
            self._retire(sim.sim_id)
            return
        if exec_began is not None:
            self.obs.record(
                "sim.exec", sim.tc, exec_began, self.obs.now(),
                context=context.name, sim_id=sim.sim_id,
            )
        try:
            self._coordinator.sim_completed(
                context.name, sim.sim_id, self.clock.now()
            )
        except ContextError:
            pass  # deregistered mid-flight; see on_output
        if self._m_completed is not None:
            self._m_completed.inc()
            self._m_running.dec()
        self._retire(sim.sim_id)
