"""FLASH-like toy hydrodynamics simulator: 1-D Sedov blast wave.

The paper virtualizes a FLASH Sedov simulation — the evolution of a blast
wave from an initial pressure perturbation in a homogeneous medium.  The
reproduction implements a 1-D compressible Euler solver (finite volume,
HLL approximate Riemann solver, fixed timestep for determinism) with the
Sedov initial condition: a thin central region of very high pressure.

Timing characteristics of the paper's FLASH context (τsim = 14 s,
αsim = 7 s, Δd = 1, Δr = 20, 0.005 s timesteps over 1 s of blast
evolution → 200 output steps) live in :data:`FLASH_EVAL_PERF` /
:data:`FLASH_EVAL_CONFIG` for the Figs. 18-19 experiments.
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
    "FlashSimulator",
    "FlashDriver",
    "FLASH_EVAL_PERF",
    "FLASH_EVAL_CONFIG",
]

#: Performance model measured in the paper's Sec. VI FLASH benchmark.
#: Like the COSMO context, FLASH runs at its optimal allocation (54 nodes
#: at 32^3 cells per block, one block per core), so only prefetch strategy
#: (2) — parallel re-simulations — applies.
FLASH_EVAL_PERF = PerformanceModel(
    tau_sim=14.0,
    alpha_sim=7.0,
    nodes_per_level=(54,),
)

#: The paper's FLASH evaluation context: Δd = 1 (output every timestep),
#: Δr = 20 (restart every 0.1 s of 0.005 s timesteps), 1 s simulated.
FLASH_EVAL_CONFIG = ContextConfig(
    name="flash",
    delta_d=1,
    delta_r=20,
    num_timesteps=600,
    smax=8,
)


@dataclass
class _State:
    timestep: int
    rho: np.ndarray   # density
    mom: np.ndarray   # momentum density
    ene: np.ndarray   # total energy density


class FlashSimulator(ForwardSimulator):
    """1-D Euler equations, HLL finite-volume scheme, outflow boundaries.

    The fixed timestep ``dt`` is chosen conservatively for the Sedov
    parameters; a state-dependent CFL timestep would make the number of
    steps data-dependent and complicate the Δd/Δr cadence, so FLASH's
    adaptive stepping is intentionally not modelled.
    """

    name = "flash"

    def __init__(
        self,
        cells: int = 256,
        gamma: float = 1.4,
        dt: float = 1e-4,
        blast_pressure: float = 100.0,
        ambient_pressure: float = 1e-2,
        blast_width: int = 4,
    ) -> None:
        if cells < 16:
            raise InvalidArgumentError(f"cells must be >= 16, got {cells}")
        if not 1.0 < gamma < 2.0:
            raise InvalidArgumentError(f"gamma must be in (1, 2), got {gamma}")
        # CFL guard: the fastest signal is bounded by twice the blast sound
        # speed; a fixed dt above that limit diverges.
        blast_sound = (gamma * blast_pressure) ** 0.5
        if dt * 2.0 * blast_sound * cells > 1.0:
            raise InvalidArgumentError(
                f"dt={dt} violates CFL for cells={cells}, "
                f"blast_pressure={blast_pressure} "
                f"(need dt <= {1.0 / (2.0 * blast_sound * cells):.2e})"
            )
        self.cells = cells
        self.gamma = gamma
        self.dt = dt
        self.dx = 1.0 / cells
        self.blast_pressure = blast_pressure
        self.ambient_pressure = ambient_pressure
        self.blast_width = blast_width

    # ------------------------------------------------------------------ #
    def initial_state(self) -> _State:
        rho = np.ones(self.cells)
        mom = np.zeros(self.cells)
        pressure = np.full(self.cells, self.ambient_pressure)
        center = self.cells // 2
        half = self.blast_width // 2
        pressure[center - half : center + half + max(1, self.blast_width % 2)] = (
            self.blast_pressure
        )
        ene = pressure / (self.gamma - 1.0)  # zero initial velocity
        return _State(timestep=0, rho=rho, mom=mom, ene=ene)

    def step(self, state: _State) -> _State:
        rho, mom, ene = state.rho, state.mom, state.ene
        flux_rho, flux_mom, flux_ene = self._hll_fluxes(rho, mom, ene)
        coeff = self.dt / self.dx
        new_rho = rho - coeff * (flux_rho[1:] - flux_rho[:-1])
        new_mom = mom - coeff * (flux_mom[1:] - flux_mom[:-1])
        new_ene = ene - coeff * (flux_ene[1:] - flux_ene[:-1])
        # Positivity floors guard against negative density/pressure noise.
        new_rho = np.maximum(new_rho, 1e-10)
        return _State(
            timestep=state.timestep + 1, rho=new_rho, mom=new_mom, ene=new_ene
        )

    def _primitives(
        self, rho: np.ndarray, mom: np.ndarray, ene: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        vel = mom / rho
        pressure = (self.gamma - 1.0) * (ene - 0.5 * rho * vel**2)
        pressure = np.maximum(pressure, 1e-12)
        return vel, pressure

    def _hll_fluxes(
        self, rho: np.ndarray, mom: np.ndarray, ene: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Outflow (zero-gradient) ghost cells on both ends.
        rho_g = np.concatenate(([rho[0]], rho, [rho[-1]]))
        mom_g = np.concatenate(([mom[0]], mom, [mom[-1]]))
        ene_g = np.concatenate(([ene[0]], ene, [ene[-1]]))
        vel, pressure = self._primitives(rho_g, mom_g, ene_g)
        sound = np.sqrt(self.gamma * pressure / rho_g)

        f_rho = mom_g
        f_mom = mom_g * vel + pressure
        f_ene = (ene_g + pressure) * vel

        # Interface left/right states (cells i and i+1 of the ghosted grid).
        sl = np.minimum(vel[:-1] - sound[:-1], vel[1:] - sound[1:])
        sr = np.maximum(vel[:-1] + sound[:-1], vel[1:] + sound[1:])

        def hll(f_l, f_r, u_l, u_r):
            flux = np.where(
                sl >= 0.0,
                f_l,
                np.where(
                    sr <= 0.0,
                    f_r,
                    (sr * f_l - sl * f_r + sl * sr * (u_r - u_l))
                    / np.maximum(sr - sl, 1e-12),
                ),
            )
            return flux

        return (
            hll(f_rho[:-1], f_rho[1:], rho_g[:-1], rho_g[1:]),
            hll(f_mom[:-1], f_mom[1:], mom_g[:-1], mom_g[1:]),
            hll(f_ene[:-1], f_ene[1:], ene_g[:-1], ene_g[1:]),
        )

    # ------------------------------------------------------------------ #
    def output_variables(self, state: _State) -> dict[str, np.ndarray]:
        vel, pressure = self._primitives(state.rho, state.mom, state.ene)
        return {
            "density": state.rho.astype(np.float32),
            "velocity": vel.astype(np.float32),
            "pressure": pressure.astype(np.float32),
        }

    def state_to_restart(self, state: _State) -> dict[str, np.ndarray]:
        return {
            "rho": state.rho,
            "mom": state.mom,
            "ene": state.ene,
            "timestep": np.array([state.timestep], dtype=np.int64),
        }

    def restart_to_state(self, variables: dict[str, np.ndarray]) -> _State:
        return _State(
            timestep=int(variables["timestep"][0]),
            rho=variables["rho"].astype(np.float64, copy=True),
            mom=variables["mom"].astype(np.float64, copy=True),
            ene=variables["ene"].astype(np.float64, copy=True),
        )


class FlashDriver(ForwardDriver):
    """Driver running the toy FLASH in-process."""

    def __init__(
        self,
        geometry: StepGeometry,
        prefix: str = "flash",
        max_parallelism_level: int = 3,
        **sim_kwargs,
    ) -> None:
        super().__init__(FilePatternNaming(prefix), max_parallelism_level)
        self.geometry = geometry
        self.simulator = FlashSimulator(**sim_kwargs)
