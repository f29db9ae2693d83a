"""Simulation/analysis performance model (paper Sec. IV-A).

The paper deliberately keeps the model simulator-agnostic:

* ``alpha_sim(p)`` — *restart latency*: non-functional delay before a
  re-simulation starts producing output (queueing time, checkpoint read,
  model initialization), as a function of the parallelism level ``p``.
* ``tau_sim(p)`` — *inter-production time*: seconds between two consecutive
  output steps once the simulation is running.
* ``T_sim(n, p) = alpha_sim(p) + n * tau_sim(p)`` — time to simulate ``n``
  output steps.
* ``tau_cli(k)`` — analysis-side time between two consecutive ``k``-strided
  accesses.

Parallelism levels are small integers ``0 .. max_level``; the mapping from a
level to a concrete node count is simulator-specific and owned by the
simulation driver (paper Sec. III-B), which lets SimFS raise parallelism
without knowing the simulator's allocation constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import InvalidArgumentError

__all__ = ["PerformanceModel", "ScalingModel", "production_offset"]


def production_offset(alpha: float, tau: float, position: int) -> float:
    """Seconds from a launch to its ``position``-th output (1-based), and
    to its completion when ``position`` is the output count:
    ``T_sim(i) = alpha + i * tau``.  The one schedule of both clocks: the
    DES schedules its productions at these offsets and the live launcher
    runs them at these offsets from the launch."""
    return alpha + position * tau


@dataclass(frozen=True)
class ScalingModel:
    """Strong-scaling model for ``tau_sim(p)``.

    ``tau_sim(level)`` is derived from the base inter-production time at
    level 0 with an Amdahl-style speedup over the node count the driver
    assigns to each level:

    ``tau(p) = tau0 * (serial + (1 - serial) / (nodes(p) / nodes(0)))``

    A ``serial`` fraction of 0 gives perfect scaling; 1 gives none.
    """

    serial_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise InvalidArgumentError(
                f"serial_fraction must be in [0, 1], got {self.serial_fraction}"
            )

    def speedup(self, node_ratio: float) -> float:
        """Amdahl speedup for ``nodes(p)/nodes(0) = node_ratio``."""
        if node_ratio <= 0:
            raise InvalidArgumentError(f"node ratio must be > 0, got {node_ratio}")
        s = self.serial_fraction
        return 1.0 / (s + (1.0 - s) / node_ratio)


@dataclass(frozen=True)
class PerformanceModel:
    """Calibrated (αsim, τsim) model for one simulation context.

    Parameters
    ----------
    tau_sim:
        Inter-production time at the default parallelism level (seconds per
        output step).
    alpha_sim:
        Restart latency at the default parallelism level (seconds), not
        including batch-queue waiting time (which the batch substrate adds).
    nodes_per_level:
        Node count for each parallelism level; index 0 is the default.
        The paper's COSMO context, e.g., runs P=100 nodes at level 0.
    scaling:
        Strong-scaling model applied when the parallelism level is raised.
    alpha_scales_with_nodes:
        If True, the non-queueing part of the restart latency (checkpoint
        read, init) shrinks with the same speedup as ``tau_sim``; real
        systems often see flat or *growing* startup at scale, so the default
        keeps αsim constant across levels.
    """

    tau_sim: float
    alpha_sim: float
    nodes_per_level: tuple[int, ...] = (1,)
    scaling: ScalingModel = field(default_factory=ScalingModel)
    alpha_scales_with_nodes: bool = False

    def __post_init__(self) -> None:
        if self.tau_sim <= 0:
            raise InvalidArgumentError(f"tau_sim must be > 0, got {self.tau_sim}")
        if self.alpha_sim < 0:
            raise InvalidArgumentError(f"alpha_sim must be >= 0, got {self.alpha_sim}")
        if not self.nodes_per_level:
            raise InvalidArgumentError("nodes_per_level must not be empty")
        if any(n <= 0 for n in self.nodes_per_level):
            raise InvalidArgumentError("node counts must be positive")
        if list(self.nodes_per_level) != sorted(self.nodes_per_level):
            raise InvalidArgumentError("nodes_per_level must be non-decreasing")

    # ------------------------------------------------------------------ #
    @property
    def max_level(self) -> int:
        """Highest valid parallelism level."""
        return len(self.nodes_per_level) - 1

    def nodes(self, level: int = 0) -> int:
        """Node count used at parallelism ``level``."""
        self._check_level(level)
        return self.nodes_per_level[level]

    def tau(self, level: int = 0) -> float:
        """``tau_sim(p)`` — seconds per output step at parallelism ``level``."""
        self._check_level(level)
        if level == 0:
            return self.tau_sim
        ratio = self.nodes_per_level[level] / self.nodes_per_level[0]
        return self.tau_sim / self.scaling.speedup(ratio)

    def alpha(self, level: int = 0) -> float:
        """``alpha_sim(p)`` — restart latency at parallelism ``level``."""
        self._check_level(level)
        if level == 0 or not self.alpha_scales_with_nodes:
            return self.alpha_sim
        ratio = self.nodes_per_level[level] / self.nodes_per_level[0]
        return self.alpha_sim / self.scaling.speedup(ratio)

    def simulation_time(self, n_outputs: int, level: int = 0) -> float:
        """``T_sim(n, p) = alpha_sim(p) + n * tau_sim(p)`` (seconds)."""
        if n_outputs < 0:
            raise InvalidArgumentError(f"n_outputs must be >= 0, got {n_outputs}")
        return self.alpha(level) + n_outputs * self.tau(level)

    def next_level_is_faster(self, level: int) -> bool:
        """Whether raising parallelism beyond ``level`` still reduces τsim.

        The forward-prefetch strategy (1) keeps raising the level while this
        is true and the max level is not reached (paper Sec. IV-B1b).
        """
        if level >= self.max_level:
            return False
        return self.tau(level + 1) < self.tau(level)

    # ------------------------------------------------------------------ #
    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.max_level:
            raise InvalidArgumentError(
                f"parallelism level {level} out of range [0, {self.max_level}]"
            )
