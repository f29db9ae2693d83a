"""Forward-in-time simulator protocol and the generic run loop.

Every concrete simulator (COSMO-like stencil, FLASH-like Sedov solver,
synthetic) implements :class:`ForwardSimulator`; :func:`run_simulation`
drives it between two restart steps, writing output and restart files
through the hookable ``simio`` API so DVLib virtualizes the paths exactly
as it does for the original codes.

Determinism contract: ``step`` must be a pure function of the state, and
``restart_to_state(state_to_restart(s))`` must reproduce ``s`` bitwise —
that is what makes re-simulated files bitwise-identical to the originals
(paper Sec. I).
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Any

from repro.core.errors import InvalidArgumentError
from repro.core.steps import StepGeometry
from repro.simio import read_file, sio_create

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ForwardSimulator", "run_simulation"]


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
    """Run ``simulator`` from restart ``r_start`` to ``r_stop``.

    Produces the output steps in the exclusive window
    ``(start*Δr, stop*Δr]``, clamped to the simulation end.  Output files go
    through :func:`repro.simio.sio_create`, so installed DVLib hooks see
    every create/close (that is how the DV learns files are ready, Fig. 4).

    Parameters
    ----------
    output_name / restart_name:
        Callables mapping an output key / restart index to a file name.
    write_restarts:
        True for the initial simulation (which must persist checkpoints);
        re-simulations leave existing restart files untouched.
    on_output:
        Optional ``(filename) -> None`` callback fired after each output
        file is closed — the in-process launcher uses it to notify the DV
        without going through the process-global simio hooks.
    stop:
        Optional ``() -> bool`` polled each timestep; returning True kills
        the simulation cooperatively (the DV kills prefetched simulations
        whose analysis changed direction, Sec. IV-C).

    Returns the produced output file names in production order.
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

    produced: list[str] = []
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
            produced.append(fname)
            if on_output is not None:
                on_output(fname)
        if write_restarts and ts % geometry.delta_r == 0:
            rname = restart_name(ts // geometry.delta_r)
            with sio_create(os.path.join(restart_dir, rname)) as out:
                for var, arr in simulator.state_to_restart(state).items():
                    out.write(var, arr)
                out.set_attrs(timestep=ts, simulator=simulator.name)
    return produced
