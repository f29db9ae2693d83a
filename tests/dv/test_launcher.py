"""The launcher: a re-simulation is a chain of timers on an event loop.

Output *i* of a launched simulation is produced and announced ``α + i·τ``
after its launch — taken from the launch and not from the previous
output — and its completion follows its last output.  A production whose
output step fits one chunk frame runs on the I/O thread, a larger one on
a worker; kill ends the chain before its next production.  The same
launcher runs the DES: on the engine's clock the schedule is exact.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel, production_offset
from repro.des import VirtualSimFS
from repro.des.engine import DESEngine
from repro.dv import launcher as launcher_module
from repro.dv.launcher import ThreadedLauncher
from repro.dv.loop import EventLoop
from repro.dv.protocol import CHUNK_MAX
from repro.dv.shard import RunningSim
from repro.simulators import SyntheticDriver

ALPHA, TAU = 0.05, 0.02
#: One restart interval of eight outputs.
INTERVAL = 8
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Recorder:
    """A coordinator that notes each report and when it came, on
    ``clock``."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.events = []
        self.done = threading.Event()

    def sim_file_closed(self, context_name, filename, now):
        self.events.append(("output", filename, self.clock()))
        return []

    def sim_completed(self, context_name, sim_id, now):
        self.events.append(("done", sim_id, self.clock()))
        self.done.set()

    def sim_failed(self, context_name, sim_id, now):
        self.events.append(("failed", sim_id, self.clock()))
        self.done.set()
        return []

    def outputs(self):
        return [name for kind, name, _t in self.events if kind == "output"]


@pytest.fixture
def node_loop():
    """A running event loop, as a node's DV server has."""
    loop = EventLoop(workers=1)
    loop.start()
    yield loop
    loop.stop()


def make_context(tmp_path, cells=64, name="ctx"):
    """A synthetic context after its initial run, every output kept:
    one output per timestep, ``INTERVAL`` per restart interval."""
    config = ContextConfig(
        name=name, delta_d=1, delta_r=INTERVAL, num_timesteps=4 * INTERVAL
    )
    driver = SyntheticDriver(config.geometry, prefix=name, cells=cells)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=TAU, alpha_sim=ALPHA),
    )
    out, rst = str(tmp_path / f"{name}-out"), str(tmp_path / f"{name}-rst")
    os.makedirs(out)
    os.makedirs(rst)
    driver.execute(driver.make_job(name, 0, 4, write_restarts=True), out, rst)
    return context, out, rst


def sim_of(context, sim_id=1, start=1, resident=()):
    """A sim over one restart interval, planning every output of it but
    the ``resident`` ones (what a shard plans: the keys not in its area)."""
    return RunningSim(
        sim_id=sim_id, context_name=context.name, start_restart=start,
        stop_restart=start + 1, parallelism_level=0, launch_time=0.0,
        is_prefetch=False, owner_client=None,
        planned_keys=[
            key for key in context.geometry.outputs_between_restarts(start, start + 1)
            if key not in resident
        ],
    )


@pytest.fixture
def launcher_for():
    """Builds launchers bound to a recorder; closes them at teardown."""
    launchers = []

    def build(context, out, rst, recorder, loop=None, **pacing):
        launcher = ThreadedLauncher(loop=loop)
        launcher.bind(recorder)
        launcher.register_context(context.name, context.driver, out, rst, **pacing)
        launchers.append(launcher)
        return launcher

    yield build
    for launcher in launchers:
        launcher.close()


@pytest.mark.parametrize("resident", [(), (11, 16)], ids=["cold", "partly-resident"])
def test_the_engine_clock_keeps_the_schedule_exactly(tmp_path, launcher_for, resident):
    """One launch at virtual second 5: planned output *i* is announced at
    exactly ``5 + production_offset(α, τ, i)``, and the completion comes
    with the last.  Positions count planned outputs only: the live job
    still rewrites an output that was resident at launch, with the next
    planned one (the window's last with the last planned one), and is not
    charged a τ."""
    context, out, rst = make_context(tmp_path)
    sim = sim_of(context, resident=resident)
    engine = DESEngine()
    recorder = Recorder(engine.now)
    launcher = launcher_for(
        context, out, rst, recorder, engine, alpha_delay=ALPHA, tau_delay=TAU
    )
    engine.call_at(5.0, launcher.launch, context, sim)
    engine.run()
    planned = [context.filename_of(key) for key in sim.planned_keys]
    at = {name: when for kind, name, when in recorder.events if kind == "output"}
    assert [at[name] for name in planned] == [
        5.0 + production_offset(ALPHA, TAU, i) for i in range(1, len(planned) + 1)
    ]
    assert len(recorder.events) == INTERVAL + 1
    assert recorder.events[-1] == ("done", sim.sim_id, at[planned[-1]])
    for key, rides_with in zip(resident, (12, 15)):
        assert at[context.filename_of(key)] == at[context.filename_of(rides_with)]
    assert launcher.running_threads == 0


def test_a_kill_on_the_engine_clock_announces_nothing_after_it(tmp_path, launcher_for):
    """Killed between its second and third outputs, a chain announces
    nothing more; its one pending timer reports the completion when the
    third would have been due, and nothing else is left on the engine."""
    context, out, rst = make_context(tmp_path)
    engine = DESEngine()
    recorder = Recorder(engine.now)
    launcher = launcher_for(
        context, out, rst, recorder, engine, alpha_delay=ALPHA, tau_delay=TAU
    )
    launcher.launch(context, sim_of(context))
    killed_at = production_offset(ALPHA, TAU, 2) + TAU / 2
    engine.call_at(killed_at, launcher.kill, 1)
    engine.run()
    assert recorder.outputs() == [context.filename_of(k) for k in (9, 10)]
    assert all(when < killed_at for kind, _n, when in recorder.events
               if kind == "output")
    assert recorder.events[-1] == ("done", 1, production_offset(ALPHA, TAU, 3))
    assert engine.events_processed == 4  # two outputs, the kill, one timer
    assert launcher.running_threads == 0


def test_a_virtual_run_starts_no_thread(monkeypatch):
    """The DES runs the daemon's launcher on its engine: re-simulations
    launch, and no thread starts, nor does the launcher build a loop.
    Each production runs at the event it is due at, not as a worker job
    (the file-less driver's step is known to fit a chunk frame)."""

    def no_loop(*args, **kwargs):
        raise AssertionError("the launcher built a loop of its own")

    monkeypatch.setattr(launcher_module, "EventLoop", no_loop)
    config = ContextConfig(name="v", delta_d=1, delta_r=INTERVAL,
                           num_timesteps=4 * INTERVAL, smax=2)
    context = SimulationContext(
        config=config, driver=SyntheticDriver(config.geometry, prefix="v", cells=4),
        perf=PerformanceModel(tau_sim=TAU, alpha_sim=ALPHA),
    )
    before = threading.active_count()
    simfs = VirtualSimFS()
    jobs = []
    hand_off = simfs.engine.call_soon
    simfs.engine.submit = lambda fn, *args: (jobs.append(fn), hand_off(fn, *args))
    simfs.add_context(context)
    analysis = simfs.add_analysis(context, list(range(1, 4 * INTERVAL + 1)), 0.01)
    simfs.run()
    assert analysis.done and simfs.coordinator.total_restarts >= 4
    assert simfs.launcher.loop is simfs.engine and jobs == []
    assert threading.active_count() == before


def test_outputs_keep_the_schedule_of_their_launch(tmp_path, launcher_for):
    """Each production takes 10 ms: paced from the previous output the
    last one would land ``n × 10`` ms late; paced from the launch, output
    *i* is announced at ``α + i·τ`` plus one production."""
    context, out, rst = make_context(tmp_path)
    simulator = context.driver.simulator
    real = simulator.output_variables

    def slow_output(state):
        time.sleep(0.01)
        return real(state)

    simulator.output_variables = slow_output
    recorder = Recorder()
    launcher = launcher_for(
        context, out, rst, recorder, alpha_delay=ALPHA, tau_delay=TAU
    )
    began = time.monotonic()
    launcher.launch(context, sim_of(context))
    assert recorder.done.wait(10.0)
    outputs = [t for kind, _name, t in recorder.events if kind == "output"]
    assert len(outputs) == INTERVAL
    for position, announced in enumerate(outputs, start=1):
        assert announced >= began + ALPHA + position * TAU
    assert outputs[-1] - (began + ALPHA + INTERVAL * TAU) < 0.025
    assert launcher.wait_idle(5.0)


def test_kill_ends_the_chain_after_the_production_in_progress(tmp_path, launcher_for):
    context, out, rst = make_context(tmp_path)
    simulator = context.driver.simulator
    real = simulator.output_variables
    calls, entered, release = [], threading.Event(), threading.Event()

    def held_second(state):
        calls.append(1)
        if len(calls) == 2:
            entered.set()
            release.wait(5.0)
        return real(state)

    simulator.output_variables = held_second
    recorder = Recorder()
    launcher = launcher_for(context, out, rst, recorder, tau_delay=0.01)
    launcher.launch(context, sim_of(context))
    assert entered.wait(5.0)
    launcher.kill(1)
    release.set()
    assert launcher.wait_idle(5.0)
    assert recorder.outputs() == [context.filename_of(k) for k in (9, 10)]
    assert [kind for kind, _n, _t in recorder.events][-1] == "done"
    assert len(calls) == 2


@pytest.mark.parametrize("cells, on_workers", [(4096, False), (40000, True)])
def test_a_step_larger_than_a_chunk_frame_is_produced_on_a_worker(
    tmp_path, node_loop, launcher_for, cells, on_workers
):
    loop = node_loop
    context, out, rst = make_context(tmp_path, cells=cells)
    size = os.path.getsize(os.path.join(out, context.filename_of(1)))
    assert (size > CHUNK_MAX) is on_workers
    submitted = []
    submit = loop.submit
    loop.submit = lambda fn, *args: (submitted.append(fn), submit(fn, *args))
    recorder = Recorder()
    launcher = launcher_for(context, out, rst, recorder, loop=loop)
    launcher.launch(context, sim_of(context))
    assert recorder.done.wait(10.0)
    assert launcher.wait_idle(5.0)
    assert len(recorder.outputs()) == INTERVAL
    assert len(submitted) == (INTERVAL if on_workers else 0)


def test_a_failing_production_reports_the_failure(tmp_path, launcher_for):
    context, out, rst = make_context(tmp_path)
    os.unlink(os.path.join(rst, context.driver.restart_filename(1)))
    recorder = Recorder()
    launcher = launcher_for(context, out, rst, recorder)
    launcher.launch(context, sim_of(context))
    assert recorder.done.wait(5.0)
    assert [kind for kind, _n, _t in recorder.events] == ["failed"]
    assert launcher.wait_idle(5.0)


def test_a_bare_launcher_runs_a_job_to_completion(tmp_path):
    """What the benchmark's layers stage does: a ``ThreadedLauncher()``
    bound to a stub coordinator, no pacing, one restart interval."""
    context, out, rst = make_context(tmp_path)
    recorder = Recorder()
    launcher = ThreadedLauncher()
    launcher.bind(recorder)
    launcher.register_context(context.name, context.driver, out, rst)
    before = set(threading.enumerate())
    launcher.launch(context, sim_of(context, start=2))
    assert recorder.done.wait(10.0)
    assert recorder.outputs() == [
        context.filename_of(k) for k in range(2 * INTERVAL + 1, 3 * INTERVAL + 1)
    ]
    assert launcher.wait_idle(5.0)
    assert sorted(t.name for t in set(threading.enumerate()) - before) == [
        "simfs-sim-io", "simfs-sim-worker-0"]
    launcher.close()
    assert not set(threading.enumerate()) - before


def test_the_quickstart_example_runs(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "examples", "quickstart.py")],
        env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
