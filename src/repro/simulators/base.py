"""Forward-in-time simulator protocol and the generic run loop.

Every concrete simulator (COSMO-like stencil, FLASH-like Sedov solver,
synthetic) implements :class:`ForwardSimulator`; :func:`simulation_steps`
drives it between two restart steps, writing output and restart files
through the hookable ``simio`` API so DVLib virtualizes the paths exactly
as it does for the original codes.  It is a generator that yields after
each closed output, so a launcher can pace the productions on a clock
(:class:`ForwardDriver`'s ``steps``); :func:`run_simulation` runs them back
to back.

Determinism contract: ``step`` must be a pure function of the state, and
``restart_to_state(state_to_restart(s))`` must reproduce ``s`` bitwise —
that is what makes re-simulated files bitwise-identical to the originals
(paper Sec. I).
"""

from __future__ import annotations

import abc
import os
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.core.errors import InvalidArgumentError
from repro.core.steps import StepGeometry
from repro.simio import read_file, sio_create
from repro.simulators.driver import (
    SimulationJobSpec,
    SteppedDriver,
    collect_outputs,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ForwardDriver",
    "ForwardSimulator",
    "run_simulation",
    "simulation_steps",
]


class ForwardSimulator(abc.ABC):
    """A deterministic forward-in-time simulation kernel."""

    #: short identifier used in file attrs
    name: str = "simulator"

    @abc.abstractmethod
    def initial_state(self) -> Any:
        """State at timestep 0 (the initial conditions)."""

    @abc.abstractmethod
    def step(self, state: Any) -> Any:
        """Advance one timestep; must be deterministic."""

    @abc.abstractmethod
    def output_variables(self, state: Any) -> dict[str, np.ndarray]:
        """Arrays written into an output step file."""

    @abc.abstractmethod
    def state_to_restart(self, state: Any) -> dict[str, np.ndarray]:
        """Full-precision arrays capturing the entire state."""

    @abc.abstractmethod
    def restart_to_state(self, variables: dict[str, np.ndarray]) -> Any:
        """Inverse of :meth:`state_to_restart` (bitwise)."""


def simulation_steps(
    simulator: ForwardSimulator,
    geometry: StepGeometry,
    start_restart: int,
    stop_restart: int,
    output_dir: str,
    restart_dir: str,
    output_name: Any,
    restart_name: Any,
    write_restarts: bool = False,
    stop: Any = None,
) -> Iterator[str]:
    """Run ``simulator`` from restart ``r_start`` to ``r_stop``, yielding
    the name of each output file right after it is closed.

    Produces the output steps in the exclusive window
    ``(start*Δr, stop*Δr]``, clamped to the simulation end.  Output files go
    through :func:`repro.simio.sio_create`, so installed DVLib hooks see
    every create/close (that is how the DV learns files are ready, Fig. 4).
    The work between two yields is one *production*: a launcher runs each
    one when the performance model says it is due.

    Parameters
    ----------
    output_name / restart_name:
        Callables mapping an output key / restart index to a file name.
    write_restarts:
        True for the initial simulation (which must persist checkpoints);
        re-simulations leave existing restart files untouched.
    stop:
        Optional ``() -> bool`` polled each timestep; returning True kills
        the simulation cooperatively (the DV kills prefetched simulations
        whose analysis changed direction, Sec. IV-C).
    """
    if stop_restart <= start_restart:
        raise InvalidArgumentError("stop_restart must be > start_restart")
    start_ts = start_restart * geometry.delta_r
    end_ts = stop_restart * geometry.delta_r
    if geometry.num_timesteps is not None:
        if start_ts >= geometry.num_timesteps:
            raise InvalidArgumentError(
                f"restart r_{start_restart} (t={start_ts}) is at or past the "
                f"simulation end (t={geometry.num_timesteps})"
            )
        end_ts = min(end_ts, geometry.num_timesteps)

    if start_restart == 0:
        state = simulator.initial_state()
    else:
        restart_path = os.path.join(restart_dir, restart_name(start_restart))
        variables, attrs = read_file(restart_path)
        if attrs.get("timestep") != start_ts:
            raise InvalidArgumentError(
                f"restart file {restart_path} is for timestep "
                f"{attrs.get('timestep')}, expected {start_ts}"
            )
        state = simulator.restart_to_state(variables)

    for ts in range(start_ts + 1, end_ts + 1):
        if stop is not None and stop():
            break
        state = simulator.step(state)
        if ts % geometry.delta_d == 0:
            key = ts // geometry.delta_d
            fname = output_name(key)
            with sio_create(os.path.join(output_dir, fname)) as out:
                for var, arr in simulator.output_variables(state).items():
                    out.write(var, arr)
                out.set_attrs(timestep=ts, key=key, simulator=simulator.name)
            yield fname
        if write_restarts and ts % geometry.delta_r == 0:
            rname = restart_name(ts // geometry.delta_r)
            with sio_create(os.path.join(restart_dir, rname)) as out:
                for var, arr in simulator.state_to_restart(state).items():
                    out.write(var, arr)
                out.set_attrs(timestep=ts, simulator=simulator.name)


def run_simulation(
    simulator: ForwardSimulator,
    geometry: StepGeometry,
    start_restart: int,
    stop_restart: int,
    output_dir: str,
    restart_dir: str,
    output_name: Any,
    restart_name: Any,
    write_restarts: bool = False,
    on_output: Any = None,
    stop: Any = None,
) -> list[str]:
    """:func:`simulation_steps` run to the end: returns the produced
    output file names in production order, each also passed to the
    optional ``on_output(filename)`` right after it is closed."""
    return collect_outputs(simulation_steps(
        simulator, geometry, start_restart, stop_restart, output_dir,
        restart_dir, output_name, restart_name, write_restarts, stop,
    ), on_output)


class ForwardDriver(SteppedDriver):
    """A driver running its :class:`ForwardSimulator` in-process, one
    production per output step.  Subclasses set ``simulator`` and
    ``geometry``."""

    simulator: ForwardSimulator
    geometry: StepGeometry

    def steps(
        self, job: SimulationJobSpec, output_dir: str, restart_dir: str,
        stop: Any = None,
    ) -> Iterator[str]:
        return simulation_steps(
            self.simulator,
            self.geometry,
            job.start_restart,
            job.stop_restart,
            output_dir,
            restart_dir,
            output_name=self.naming.filename,
            restart_name=self.naming.restart_filename,
            write_restarts=job.write_restarts,
            stop=stop,
        )
