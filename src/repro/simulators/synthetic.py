"""Synthetic simulator: configurable-rate deterministic data producer.

The paper's prefetching studies (Figs. 17, 19) use "a synthetic simulator
that can be configured to produce output steps at a given rate (1/τsim) and
after a given restart latency".  This is that simulator.  Its physics is a
trivial deterministic recurrence (cheap to run, still bitwise-restartable);
its *performance* — τsim and αsim — is carried by the associated
:class:`repro.core.perfmodel.PerformanceModel`, which the DES interprets in
virtual time and which the real-mode driver can optionally honour with real
sleeps for end-to-end demonstrations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import InvalidArgumentError
from repro.core.steps import StepGeometry
from repro.simulators.base import ForwardDriver, ForwardSimulator
from repro.simulators.driver import FilePatternNaming

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SyntheticSimulator", "SyntheticDriver"]


@dataclass
class _State:
    timestep: int
    field: np.ndarray


class SyntheticSimulator(ForwardSimulator):
    """Deterministic linear-congruential field evolution.

    Each timestep applies an integer LCG to a small lattice and derives a
    float field from it.  Integer state avoids any dependence on
    floating-point associativity: restartability is bitwise by
    construction.
    """

    name = "synthetic"

    # Plain ints, wrapped as uint64 at use: numpy is loaded by the first
    # simulation step, not by importing this module.
    _A = 6364136223846793005
    _C = 1442695040888963407

    def __init__(self, cells: int = 64, seed: int = 1) -> None:
        if cells < 1:
            raise InvalidArgumentError(f"cells must be >= 1, got {cells}")
        self.cells = cells
        self.seed = seed

    def initial_state(self) -> _State:
        import numpy as np

        lattice = (
            np.arange(self.cells, dtype=np.uint64) * np.uint64(2654435761)
            + np.uint64(self.seed)
        )
        return _State(timestep=0, field=lattice)

    def step(self, state: _State) -> _State:
        import numpy as np

        with np.errstate(over="ignore"):
            lattice = state.field * np.uint64(self._A) + np.uint64(self._C)
        return _State(timestep=state.timestep + 1, field=lattice)

    def output_variables(self, state: _State) -> dict[str, np.ndarray]:
        import numpy as np

        # Map the integer lattice to [0, 1) floats for analysis tools.
        as_float = (state.field >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        return {"value": as_float}

    def state_to_restart(self, state: _State) -> dict[str, np.ndarray]:
        import numpy as np

        return {
            "lattice": state.field,
            "timestep": np.array([state.timestep], dtype=np.int64),
        }

    def restart_to_state(self, variables: dict[str, np.ndarray]) -> _State:
        import numpy as np

        return _State(
            timestep=int(variables["timestep"][0]),
            field=variables["lattice"].astype(np.uint64, copy=True),
        )


class SyntheticDriver(ForwardDriver):
    """Driver running the synthetic simulator in-process."""

    def __init__(
        self,
        geometry: StepGeometry,
        prefix: str = "synth",
        cells: int = 64,
        seed: int = 1,
        max_parallelism_level: int = 3,
    ) -> None:
        super().__init__(FilePatternNaming(prefix), max_parallelism_level)
        self.geometry = geometry
        self.simulator = SyntheticSimulator(cells=cells, seed=seed)
