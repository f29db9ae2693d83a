"""Simulation contexts (paper Sec. II-A, *Simulation Contexts*).

A *simulation context* couples a simulator with one of its configurations:
the output/restart cadence (``Δd``, ``Δr``), the file naming convention, the
storage area (a directory with a maximum size), the cache replacement scheme,
and the prefetching parameters.  Analyses always operate within a context;
multiple contexts may share the same restart files and offer differently
grained outputs at different re-simulation speeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.errors import FileNotInContextError, InvalidArgumentError
from repro.core.perfmodel import PerformanceModel
from repro.core.steps import StepGeometry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulators.driver import SimulationDriver

__all__ = ["ContextConfig", "SimulationContext", "confine"]


def confine(name: str, *dirs: str) -> str:
    """The real path ``name`` names, taken relative to the first of
    ``dirs``, if it lies inside one of them.  A client-supplied name that
    escapes them (``..``, an absolute path, a symlink out) raises
    :class:`FileNotInContextError`: a client may not probe other files."""
    path = os.path.realpath(os.path.join(dirs[0], name))
    for base in map(os.path.realpath, dirs):
        if os.path.commonpath([path, base]) == base:
            return path
    raise FileNotInContextError(f"file {name!r} escapes context directory")


@dataclass(frozen=True)
class ContextConfig:
    """Declarative configuration of a simulation context.

    This is the Python equivalent of SimFS's per-context section of the DV
    configuration file (the original uses JSON + LUA driver scripts).

    Attributes
    ----------
    name:
        Context name; analyses select a context by name (via the
        ``SIMFS_CONTEXT`` environment variable in transparent mode or the
        ``SIMFS_Init`` argument).
    delta_d / delta_r / num_timesteps:
        Output/restart cadence, see :class:`repro.core.steps.StepGeometry`.
    max_storage_bytes:
        Maximum size of the context storage area; the DV evicts output steps
        when the area would exceed it.  ``None`` disables eviction.
    replacement_policy:
        One of ``lru``, ``lirs``, ``arc``, ``bcl``, ``dcl`` (paper default:
        ``dcl``).
    smax:
        Maximum number of re-simulations of this context that may run
        concurrently (bounds prefetch strategy (2), Sec. IV-B1b / VI).
    prefetch_enabled:
        Enable prefetch agents for analyses on this context.
    prefetch_ramp_doubling:
        Start with one prefetched simulation and double per prefetch step
        instead of launching ``s_opt`` at once.  Off by default — the paper
        launches ``s_opt`` directly and offers the doubling ramp as an
        opt-in safeguard against over-prefetching (Sec. IV-B1b).
    ema_smoothing:
        Smoothing factor of the exponential moving average used to estimate
        restart latencies (Sec. IV-C1c); 1.0 keeps only the latest sample.
    default_parallelism_level:
        Parallelism level used for re-simulations unless the prefetch agent
        raises it (strategy (1)).
    output_step_bytes / restart_step_bytes:
        Nominal file sizes, used by the cost models and by the virtual-time
        mode where no real files exist.  Real mode measures actual sizes.
    """

    name: str
    delta_d: int
    delta_r: int
    num_timesteps: int | None = None
    max_storage_bytes: int | None = None
    replacement_policy: str = "dcl"
    smax: int = 8
    prefetch_enabled: bool = True
    prefetch_ramp_doubling: bool = False
    ema_smoothing: float = 0.5
    default_parallelism_level: int = 0
    output_step_bytes: int = 1
    restart_step_bytes: int = 1

    _POLICIES = ("lru", "lirs", "arc", "bcl", "dcl")

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidArgumentError("context name must be non-empty")
        if self.replacement_policy not in self._POLICIES:
            raise InvalidArgumentError(
                f"unknown replacement policy {self.replacement_policy!r}; "
                f"expected one of {self._POLICIES}"
            )
        if self.smax < 1:
            raise InvalidArgumentError(f"smax must be >= 1, got {self.smax}")
        if not 0.0 < self.ema_smoothing <= 1.0:
            raise InvalidArgumentError(
                f"ema_smoothing must be in (0, 1], got {self.ema_smoothing}"
            )
        if self.output_step_bytes <= 0 or self.restart_step_bytes <= 0:
            raise InvalidArgumentError("step sizes must be positive")
        # Validate cadence eagerly by building the geometry.
        StepGeometry(self.delta_d, self.delta_r, self.num_timesteps)

    @property
    def geometry(self) -> StepGeometry:
        """Step geometry implied by this configuration."""
        return StepGeometry(self.delta_d, self.delta_r, self.num_timesteps)

    def with_overrides(self, **kwargs) -> "ContextConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass
class SimulationContext:
    """A live context: configuration + simulation driver + performance model.

    The DV holds one of these per registered context; DVLib clients refer to
    it by name.  ``checksums`` backs ``SIMFS_Bitrep`` (Sec. III-C2): it maps
    output file names to the checksum recorded when the *initial* simulation
    ran, populated by the ``simfs-ctl record-checksums`` utility or by the
    driver at initial-simulation time.
    """

    config: ContextConfig
    driver: "SimulationDriver"
    perf: PerformanceModel
    checksums: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def geometry(self) -> StepGeometry:
        return self.config.geometry

    # ------------------------------------------------------------------ #
    # Naming convention (delegated to the driver, Sec. III-B)
    # ------------------------------------------------------------------ #
    def key_of(self, filename: str) -> int:
        """Monotone integer key of an output file (driver ``key`` function)."""
        return self.driver.key(filename)

    def filename_of(self, key: int) -> str:
        """Output file name for the output step with the given key."""
        return self.driver.filename(key)

    def restart_name_of(self, restart_index: int) -> str:
        """Restart file name for restart step ``r_j``."""
        return self.driver.restart_filename(restart_index)

    def output_files(self, directory: str) -> list[str]:
        """The output files in ``directory`` (a storage area), sorted."""
        naming = self.driver.naming
        try:
            return sorted(
                name for name in os.listdir(directory)
                if naming.is_output(name)
                and os.path.isfile(os.path.join(directory, name))
            )
        except OSError:
            return []

    # ------------------------------------------------------------------ #
    def record_checksum(self, filename: str, checksum: str) -> None:
        """Record the reference checksum of ``filename`` (initial run)."""
        self.checksums[filename] = checksum

    def reference_checksum(self, filename: str) -> str | None:
        """Reference checksum of ``filename``, or ``None`` if not recorded."""
        return self.checksums.get(filename)
