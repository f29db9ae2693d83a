"""COSMO-like toy climate simulator.

The paper virtualizes COSMO, a non-hydrostatic regional atmospheric model,
on Piz Daint.  The reproduction substitutes a deterministic 2-D
advection-diffusion stencil on a periodic domain (a classic transport
kernel): what SimFS needs from the simulator is a forward-in-time state
with Δd/Δr output/restart cadence and bitwise checkpoint/restart — the
stencil provides exactly that with real (if small) numerics.

The *timing* characteristics of the paper's COSMO context (τsim = 3 s,
αsim = 13 s, Δd = 5, Δr = 60, P = 100 nodes) live in
:data:`COSMO_EVAL_PERF` / :data:`COSMO_EVAL_CONFIG` and are consumed by the
virtual-time experiments of Figs. 16-17.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import ContextConfig
from repro.core.errors import InvalidArgumentError
from repro.core.perfmodel import PerformanceModel
from repro.core.steps import StepGeometry
from repro.simulators.base import ForwardDriver, ForwardSimulator
from repro.simulators.driver import FilePatternNaming

__all__ = [
    "CosmoSimulator",
    "CosmoDriver",
    "COSMO_EVAL_PERF",
    "COSMO_EVAL_CONFIG",
]

#: Performance model measured in the paper's Sec. VI COSMO benchmark.
#: The context is configured with the *optimal* node count (P = 100) as
#: default — raising parallelism gives no benefit, so prefetch strategy (2)
#: applies (Sec. VI): a single parallelism level models that.
COSMO_EVAL_PERF = PerformanceModel(
    tau_sim=3.0,
    alpha_sim=13.0,
    nodes_per_level=(100,),
)

#: The paper's COSMO evaluation context: one-minute timesteps, one output
#: step every 5 minutes, one restart per hour, 6 h analysed (72 outputs)
#: out of a longer run; smax swept in Fig. 16.
COSMO_EVAL_CONFIG = ContextConfig(
    name="cosmo",
    delta_d=5,
    delta_r=60,
    num_timesteps=4 * 24 * 60,  # a 4-day simulated period
    smax=8,
)


@dataclass
class _State:
    timestep: int
    temperature: np.ndarray  # (ny, nx) float64


class CosmoSimulator(ForwardSimulator):
    """2-D periodic advection-diffusion of a temperature field.

    ``T' = T - dt * (u dT/dx + v dT/dy) + dt * nu * lap(T)`` with central
    differences and `np.roll` periodic boundaries.  All operations are
    elementwise NumPy kernels in a fixed order, so stepping is bitwise
    deterministic and checkpoints restart exactly.
    """

    name = "cosmo"

    def __init__(
        self,
        nx: int = 64,
        ny: int = 48,
        u: float = 0.7,
        v: float = -0.4,
        nu: float = 0.08,
        dt: float = 0.2,
        seed: int = 2024,
    ) -> None:
        if nx < 4 or ny < 4:
            raise InvalidArgumentError("domain must be at least 4x4")
        # Stability guard (explicit scheme): advective and diffusive CFL.
        if dt * (abs(u) + abs(v)) >= 1.0 or dt * nu * 4.0 >= 1.0:
            raise InvalidArgumentError(
                f"unstable configuration: dt={dt}, u={u}, v={v}, nu={nu}"
            )
        self.nx, self.ny = nx, ny
        self.u, self.v, self.nu, self.dt = u, v, nu, dt
        self.seed = seed

    def initial_state(self) -> _State:
        rng = np.random.default_rng(self.seed)
        yy, xx = np.mgrid[0 : self.ny, 0 : self.nx]
        # Smooth synoptic background plus random perturbations.
        base = 280.0 + 8.0 * np.sin(2 * np.pi * xx / self.nx) * np.cos(
            2 * np.pi * yy / self.ny
        )
        perturbation = rng.normal(0.0, 0.5, size=(self.ny, self.nx))
        return _State(timestep=0, temperature=base + perturbation)

    def step(self, state: _State) -> _State:
        t = state.temperature
        ddx = (np.roll(t, -1, axis=1) - np.roll(t, 1, axis=1)) * 0.5
        ddy = (np.roll(t, -1, axis=0) - np.roll(t, 1, axis=0)) * 0.5
        lap = (
            np.roll(t, -1, axis=1)
            + np.roll(t, 1, axis=1)
            + np.roll(t, -1, axis=0)
            + np.roll(t, 1, axis=0)
            - 4.0 * t
        )
        t_new = t - self.dt * (self.u * ddx + self.v * ddy) + self.dt * self.nu * lap
        return _State(timestep=state.timestep + 1, temperature=t_new)

    def output_variables(self, state: _State) -> dict[str, np.ndarray]:
        # Output steps are reduced precision (so < sr in the paper's cost
        # calibration: 6 GiB outputs vs 36 GiB restarts).
        return {"temperature": state.temperature.astype(np.float32)}

    def state_to_restart(self, state: _State) -> dict[str, np.ndarray]:
        return {
            "temperature": state.temperature,
            "timestep": np.array([state.timestep], dtype=np.int64),
        }

    def restart_to_state(self, variables: dict[str, np.ndarray]) -> _State:
        return _State(
            timestep=int(variables["timestep"][0]),
            temperature=variables["temperature"].astype(np.float64, copy=True),
        )


class CosmoDriver(ForwardDriver):
    """Driver running the toy COSMO in-process."""

    def __init__(
        self,
        geometry: StepGeometry,
        prefix: str = "cosmo",
        max_parallelism_level: int = 3,
        **sim_kwargs,
    ) -> None:
        super().__init__(FilePatternNaming(prefix), max_parallelism_level)
        self.geometry = geometry
        self.simulator = CosmoSimulator(**sim_kwargs)
