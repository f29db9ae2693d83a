"""Real-mode simulation launcher: each re-simulation is a chain of timers
on the node's event loop (Sec. III, IV-A).

The original SimFS shells out to batch-system scripts generated by the LUA
drivers.  The reproduction runs driver jobs in the DV process, on the
performance model's schedule: a launched :class:`RunningSim` produces its
*i*-th output ``α + i·τ`` seconds after its launch
(:func:`~repro.core.perfmodel.production_offset`; *i* counts the sim's
``planned_keys`` only), reports it to the coordinator
(``sim_file_closed``) and reports its completion with its last output
(``sim_completed``/``sim_failed``).  The DES runs this same launcher on
its engine (:mod:`repro.des.components`).

Pacing is fixed per run, at its launch: ``(α, τ)`` is the context's
``pace(sim)``, which :meth:`ThreadedLauncher.register_context` builds
from ``alpha_delay``/``tau_delay`` (the DES passes the performance
model's ``α`` plus a batch-queueing delay, and its ``τ``).

A driver with ``steps()`` (:class:`~repro.simulators.base.ForwardDriver`:
synthetic, COSMO, FLASH; the archive copy; the DES's file-less driver)
hands over its job as a generator that yields after each closed output.
Its productions are a chain of timers on the loop and hold no thread:

- a production whose context's output step fits one data-port chunk
  frame (:data:`~repro.dv.protocol.CHUNK_MAX`, 256 KiB) runs on the I/O
  thread; a larger one, or one whose size is not known yet, runs on a
  worker and is announced back on the loop;
- an output not planned (resident at launch) is produced with the next
  planned one, and the last planned output brings the rest of the job
  (trailing steps, checkpoints) with it, so the completion follows it.

There is one kill rule: kill sets the run's flag, and the chain ends
before its next production.  A production in progress is still
announced (its file is on disk), and nothing after it; the chain reports
its completion then, or when its next production would have run.  No
timer is cancelled, so a killed chain leaves at most one on the loop.
On a virtual clock a production is instant: nothing is in progress at a
kill, and nothing is announced after it.

A driver without ``steps()`` — :class:`~repro.simulators.pipeline.PipelineDriver`,
whose job blocks on another context's readies — is the one exception: it
runs ``execute`` on a ``simfs-sim-<id>`` thread of its own, which announces
each output once it is due, and polls the kill flag each timestep.

In a daemon the chains run on the node's loop (``loop``, set by
:class:`~repro.dv.server.DVServer`).  A launcher with no running loop — a
bare one, or one behind a ``LocalConnection`` over an unstarted server —
runs them on one loop of its own (``simfs-sim-io`` and one worker),
started at its first launch and stopped by :meth:`ThreadedLauncher.close`.

The coordinator routes the reports into the owning context's shard,
which serializes them under its own lock; a small internal mutex
protects only the launcher's table of running simulations.  Tests leave
both delays at zero, and the productions then run back to back, each a
hand-off of its own, so the loop serves its sockets between two of them.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.core.context import SimulationContext
from repro.core.errors import ContextError
from repro.core.perfmodel import production_offset
from repro.dv.coordinator import DVCoordinator, RunningSim
from repro.dv.loop import EventLoop
from repro.dv.protocol import CHUNK_MAX
from repro.metrics import MetricsRegistry
from repro.simulators.driver import SimulationDriver, SimulationJobSpec
from repro.util.clock import Clock, WallClock

__all__ = ["ThreadedLauncher"]


@dataclass
class _ContextRuntime:
    driver: SimulationDriver
    output_dir: str
    restart_dir: str
    #: A launched sim's ``(α, τ)``, fixed for its run.
    pace: Callable[[RunningSim], tuple[float, float]]
    areas: tuple[str, str] = field(init=False)
    #: Bytes of one output step, as last seen (None: not yet): what
    #: decides where a production runs.
    step_bytes: int | None = field(init=False)

    def __post_init__(self) -> None:
        self.areas = (os.path.realpath(self.output_dir),
                      os.path.realpath(self.restart_dir))
        self.step_bytes = self.driver.output_bytes(self.output_dir)


@dataclass(eq=False)
class _Run:
    """One launched simulation: a chain on ``loop``, or (``loop`` None)
    a thread of its own."""

    context: SimulationContext
    sim: RunningSim
    runtime: _ContextRuntime
    loop: EventLoop | None
    #: The launch, on the clock that paces the run.
    began: float
    #: The run's pacing: output *i* is due ``alpha + i·tau`` after
    #: ``began``.
    alpha: float
    tau: float
    #: The driver's productions (``steps()``); None on a thread.
    outputs: Iterator[str] | None = None
    #: The outputs the sim plans: the model's ``n``.
    planned: frozenset = frozenset()
    #: Planned outputs announced so far.
    position: int = 0
    killed: bool = False
    exec_began: float | None = None


class ThreadedLauncher:
    """`SimulationExecutor` running jobs on the event loop's clock."""

    def __init__(
        self, clock: Clock | None = None, metrics: MetricsRegistry | None = None,
        obs=None, loop: EventLoop | None = None,
    ) -> None:
        self.clock: Clock = clock or WallClock()
        #: Optional SpanRecorder: traced demand sims get a "sim.exec" span
        #: covering the driver execution itself (launch -> exit).
        self.obs = obs
        #: The node's event loop: chains run on it while it runs.
        self.loop = loop
        self._coordinator: DVCoordinator | None = None
        self._contexts: dict[str, _ContextRuntime] = {}
        self._mutex = threading.Lock()  # guards the table below
        self._runs: dict[int, _Run] = {}
        self._own_loop: EventLoop | None = None
        self._closed = False
        # Signalled whenever the last tracked simulation retires; lets
        # drains block on idleness instead of polling running_threads.
        self._idle = threading.Condition(self._mutex)
        if metrics is not None:
            self._m_launched = metrics.counter("launcher.sims_launched")
            self._m_completed = metrics.counter("launcher.sims_completed")
            self._m_failed = metrics.counter("launcher.sims_failed")
            self._m_running = metrics.gauge("launcher.running_sims")
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
        pace: Callable[[RunningSim], tuple[float, float]] | None = None,
    ) -> None:
        """Declare where a context's files live and how to run its jobs:
        each run paced by ``pace(sim) -> (α, τ)``, by default
        ``(alpha_delay, tau_delay)``."""
        if pace is None:
            def pace(_sim):
                return alpha_delay, tau_delay
        self._contexts[context_name] = _ContextRuntime(
            driver, output_dir, restart_dir, pace
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
        assert self._coordinator is not None, "launcher not bound"
        runtime = self._runtime(context.name)
        job = SimulationJobSpec(
            context_name=context.name,
            start_restart=sim.start_restart,
            stop_restart=sim.stop_restart,
            parallelism_level=sim.parallelism_level,
            planned_keys=tuple(sim.planned_keys),
        )
        steps = getattr(runtime.driver, "steps", None)
        with self._mutex:
            if self._closed:
                return  # a stopped daemon starts nothing
            alpha, tau = runtime.pace(sim)
            if steps is None:
                run = _Run(context, sim, runtime, None, time.monotonic(),
                           alpha, tau)
            else:
                loop = self.loop
                if loop is None or not loop.running:
                    if self._own_loop is None:
                        self._own_loop = EventLoop(workers=1, name="simfs-sim")
                        self._own_loop.start()
                    loop = self._own_loop
                run = _Run(
                    context, sim, runtime, loop, loop.time(), alpha, tau,
                    outputs=steps(job, runtime.output_dir, runtime.restart_dir),
                    planned=frozenset(map(context.filename_of, sim.planned_keys)),
                )
            if self.obs is not None and sim.tc is not None:
                run.exec_began = self.obs.now()
            self._runs[sim.sim_id] = run
            running = len(self._runs)
        if self._m_launched is not None:
            self._m_launched.inc()
            self._m_running.set(running)
        if run.loop is None:
            threading.Thread(
                target=self._thread, args=(run, job),
                name=f"simfs-sim-{sim.sim_id}", daemon=True,
            ).start()
        elif run.loop.on_io_thread():
            self._schedule(run)
        else:
            run.loop.call_soon(self._schedule, run)

    def kill(self, sim_id: int) -> None:
        with self._mutex:
            run = self._runs.get(sim_id)
        if run is not None:
            run.killed = True

    def close(self) -> None:
        """The daemon stopped, and its loop with it: stop the loop of the
        launcher's own, forget the chains that ran on either, and launch
        nothing more."""
        with self._mutex:
            self._closed = True
            own, self._own_loop = self._own_loop, None
        if own is not None:
            own.stop()
        with self._mutex:
            for sim_id, run in list(self._runs.items()):
                if run.loop is not None and not run.loop.running:
                    del self._runs[sim_id]
            if not self._runs:
                self._idle.notify_all()

    # ------------------------------------------------------------------ #
    def wait_all(self, timeout: float = 30.0) -> None:
        """Block until every launched simulation has retired (tests)."""
        self.wait_idle(timeout)

    def wait_idle(self, timeout: float) -> bool:
        """Block until no launched simulation is still running/reporting.

        Event-driven counterpart of polling :attr:`running_threads`: the
        retiring simulation signals, so a drain waiting on a multi-second
        re-simulation sleeps instead of spinning.  Returns True when idle
        within ``timeout``.
        """
        with self._idle:
            return self._idle.wait_for(lambda: not self._runs, timeout)

    @property
    def running_threads(self) -> int:
        """Simulations launched and not yet retired (chains and threads)."""
        with self._mutex:
            return len(self._runs)

    def _retire(self, run: _Run) -> None:
        """Drop a finished simulation's table entry (its coordinator
        report is already delivered) and signal idleness on the last."""
        with self._mutex:
            self._runs.pop(run.sim.sim_id, None)
            running = len(self._runs)
            if not running:
                self._idle.notify_all()
        if self._m_running is not None:
            self._m_running.set(running)
        close = getattr(run.outputs, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------ #
    # A chain, on its loop
    # ------------------------------------------------------------------ #
    def _schedule(self, run: _Run) -> None:
        """Have ``run``'s next production run when it is due: at once
        (after the loop's sockets get a turn) when that is past."""
        due = run.began + production_offset(run.alpha, run.tau, run.position + 1)
        if due > run.loop.time():
            run.loop.call_at(due, self._produce, run)
        else:
            run.loop.call_soon(self._produce, run)

    def _produce(self, run: _Run) -> None:
        """The next production is due: run it here when the context's
        output step fits one chunk frame, else on a worker."""
        if not run.loop.running:
            self._retire(run)  # a stopped daemon: nobody to report to
            return
        if run.killed:
            self._complete(run)
            return
        step_bytes = run.runtime.step_bytes
        if step_bytes is not None and step_bytes <= CHUNK_MAX:
            self._produced(run, self._production(run))
        else:
            run.loop.submit(self._produce_off, run)

    def _produce_off(self, run: _Run) -> None:
        outcome = self._production(run)
        run.loop.call_soon(self._produced, run, outcome)

    def _production(self, run: _Run) -> tuple[list[str], object]:
        """Advance the driver to its next planned output: the names it
        closed, and True when the job ended, False when more is due, or
        the exception it failed with.  The last planned output brings the
        rest of the job with it."""
        names: list[str] = []
        try:
            for name in run.outputs:
                names.append(name)
                if name in run.planned and run.position + 1 < len(run.planned):
                    return names, False
            return names, True
        except Exception as exc:
            return names, exc
        finally:
            if names:
                runtime = run.runtime
                size = runtime.driver.output_bytes(runtime.output_dir, names[-1])
                if size is not None:
                    runtime.step_bytes = size

    def _produced(self, run: _Run, outcome: tuple[list[str], object]) -> None:
        """On the loop: announce what a production closed, then go on,
        complete or fail."""
        names, state = outcome
        run.position += 1
        try:
            for name in names:
                self._announce(run, name)
        except Exception as exc:
            state = exc
        if isinstance(state, Exception):
            self._fail(run)
        elif not run.loop.running:
            self._retire(run)
        elif state or run.killed:
            self._complete(run)
        else:
            self._schedule(run)

    # ------------------------------------------------------------------ #
    # A thread of its own (a driver without steps())
    # ------------------------------------------------------------------ #
    def _thread(self, run: _Run, job: SimulationJobSpec) -> None:
        runtime = run.runtime

        def on_output(filename: str) -> None:
            run.position += 1
            wait = run.began + production_offset(
                run.alpha, run.tau, run.position
            ) - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._announce(run, filename)

        try:
            runtime.driver.execute(
                job, runtime.output_dir, runtime.restart_dir,
                on_output=on_output, stop=lambda: run.killed,
            )
        except Exception:
            self._fail(run)
            return
        self._complete(run)

    # ------------------------------------------------------------------ #
    # Reports
    # ------------------------------------------------------------------ #
    def _announce(self, run: _Run, filename: str) -> None:
        try:
            self._coordinator.sim_file_closed(
                run.context.name, filename, self.clock.now()
            )
        except ContextError:
            # The context was deregistered mid-flight (migration
            # cutover): the output still lands on the PFS for the new
            # owner; nobody here is waiting on it anymore.
            pass

    def _record_exec(self, run: _Run, **extra) -> None:
        if run.exec_began is not None:
            self.obs.record(
                "sim.exec", run.sim.tc, run.exec_began, self.obs.now(),
                context=run.context.name, sim_id=run.sim.sim_id, **extra,
            )

    def _complete(self, run: _Run) -> None:
        self._record_exec(run)
        try:
            self._coordinator.sim_completed(
                run.context.name, run.sim.sim_id, self.clock.now()
            )
        except ContextError:
            pass  # deregistered mid-flight; see _announce
        if self._m_completed is not None:
            self._m_completed.inc()
        self._retire(run)

    def _fail(self, run: _Run) -> None:
        self._record_exec(run, ok=False)
        try:
            self._coordinator.sim_failed(
                run.context.name, run.sim.sim_id, self.clock.now()
            )
        except ContextError:
            pass
        if self._m_failed is not None:
            self._m_failed.inc()
        self._retire(run)
