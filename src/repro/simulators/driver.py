"""Simulation driver interface (paper Sec. III-B).

The original SimFS configures each simulator through a LUA *simulation
driver* providing (1) the file **naming convention** — a ``key`` function
mapping output file names to monotone integers — and (2) the **simulation
job** factory — given start/stop output-step keys and a parallelism level,
produce something the DV can execute, honouring simulator-specific resource
constraints (e.g. "square process counts only").

Here drivers are Python objects.  :class:`FilePatternNaming` implements the
common zero-padded numbering convention; :class:`SimulationJobSpec` is the
executable job description consumed by the launcher (real mode) or by the
DES (virtual-time mode).
"""

from __future__ import annotations

import abc
import os
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from repro.core.errors import FileNotInContextError, InvalidArgumentError
from repro.util.checksums import file_checksum

__all__ = [
    "FilePatternNaming",
    "SimulationDriver",
    "SimulationJobSpec",
    "SteppedDriver",
    "collect_outputs",
]


@dataclass(frozen=True)
class SimulationJobSpec:
    """Everything the DV needs to start one (re-)simulation.

    ``start_restart``/``stop_restart`` delimit the job: it loads checkpoint
    ``r_start`` and runs forward to ``r_stop``, producing the output steps
    in the exclusive window ``(start*Δr, stop*Δr]``.  ``planned_keys`` are
    the outputs of the window the DV waits for (those not resident at
    launch); a driver that writes files ignores them and writes the whole
    window, the DES's file-less driver yields only them.
    """

    context_name: str
    start_restart: int
    stop_restart: int
    parallelism_level: int = 0
    write_restarts: bool = False
    planned_keys: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start_restart < 0:
            raise InvalidArgumentError(
                f"start_restart must be >= 0, got {self.start_restart}"
            )
        if self.stop_restart <= self.start_restart:
            raise InvalidArgumentError(
                f"stop_restart ({self.stop_restart}) must be > "
                f"start_restart ({self.start_restart})"
            )

    @property
    def num_intervals(self) -> int:
        return self.stop_restart - self.start_restart


class FilePatternNaming:
    """Zero-padded numeric naming convention.

    Output steps are named ``{prefix}_out_{key:0{width}d}.sdf`` and restart
    steps ``{prefix}_restart_{index:0{width}d}.sdf``; zero padding makes the
    lexicographic order match the key order, as real simulators commonly do.
    """

    def __init__(self, prefix: str, width: int = 8) -> None:
        if not prefix or "/" in prefix:
            raise InvalidArgumentError(f"bad naming prefix {prefix!r}")
        if width < 1:
            raise InvalidArgumentError(f"width must be >= 1, got {width}")
        self.prefix = prefix
        self.width = width
        self._out_re = re.compile(
            rf"^{re.escape(prefix)}_out_(\d{{{width}}})\.sdf$"
        )
        self._restart_re = re.compile(
            rf"^{re.escape(prefix)}_restart_(\d{{{width}}})\.sdf$"
        )

    def filename(self, key: int) -> str:
        if key < 1:
            raise InvalidArgumentError(f"output key must be >= 1, got {key}")
        return f"{self.prefix}_out_{key:0{self.width}d}.sdf"

    def key(self, filename: str) -> int:
        match = self._out_re.match(filename)
        if match is None:
            raise FileNotInContextError(
                f"{filename!r} does not match the {self.prefix!r} output naming"
            )
        return int(match.group(1))

    def restart_filename(self, index: int) -> str:
        if index < 0:
            raise InvalidArgumentError(f"restart index must be >= 0, got {index}")
        return f"{self.prefix}_restart_{index:0{self.width}d}.sdf"

    def restart_index(self, filename: str) -> int:
        match = self._restart_re.match(filename)
        if match is None:
            raise FileNotInContextError(
                f"{filename!r} does not match the {self.prefix!r} restart naming"
            )
        return int(match.group(1))

    def is_output(self, filename: str) -> bool:
        return self._out_re.match(filename) is not None

    def is_restart(self, filename: str) -> bool:
        return self._restart_re.match(filename) is not None


class SimulationDriver(abc.ABC):
    """Simulator-specific functionality the DV depends on (Sec. III-B)."""

    def __init__(self, naming: FilePatternNaming, max_parallelism_level: int = 0) -> None:
        self.naming = naming
        if max_parallelism_level < 0:
            raise InvalidArgumentError(
                f"max_parallelism_level must be >= 0, got {max_parallelism_level}"
            )
        self.max_parallelism_level = max_parallelism_level

    # -- naming convention ---------------------------------------------- #
    def key(self, filename: str) -> int:
        """Monotone integer key of an output file name."""
        return self.naming.key(filename)

    def filename(self, key: int) -> str:
        return self.naming.filename(key)

    def restart_filename(self, index: int) -> str:
        return self.naming.restart_filename(index)

    # -- simulation job -------------------------------------------------- #
    def make_job(
        self,
        context_name: str,
        start_restart: int,
        stop_restart: int,
        parallelism_level: int = 0,
        write_restarts: bool = False,
    ) -> SimulationJobSpec:
        """Build a job spec, clamping the parallelism level to the driver's
        maximum (the driver, not the DV, owns resource constraints)."""
        level = max(0, min(parallelism_level, self.max_parallelism_level))
        return SimulationJobSpec(
            context_name=context_name,
            start_restart=start_restart,
            stop_restart=stop_restart,
            parallelism_level=level,
            write_restarts=write_restarts,
        )

    @abc.abstractmethod
    def execute(
        self,
        job: SimulationJobSpec,
        output_dir: str,
        restart_dir: str,
        on_output=None,
        stop=None,
    ) -> list[str]:
        """Run the job synchronously (real mode); returns produced output
        file names in production order.  ``on_output(filename)`` fires
        after each output file is written; ``stop()`` is polled each
        timestep for cooperative cancellation.  A driver that also
        offers ``steps(job, output_dir, restart_dir)`` — the job as a
        generator yielding each output once it is closed — is paced by
        the launcher on the node's event loop; this one runs on a thread
        of its own (:mod:`repro.dv.launcher`)."""

    def output_bytes(self, output_dir: str, filename: str | None = None) -> int | None:
        """Bytes of one output step in ``output_dir``: of ``filename``, or
        of the first output there; None when there is none.  The launcher
        decides by it where a production runs."""
        try:
            if filename is not None:
                return os.path.getsize(os.path.join(output_dir, filename))
            with os.scandir(output_dir) as entries:
                for entry in entries:
                    if self.naming.is_output(entry.name):
                        return entry.stat().st_size
        except OSError:
            pass
        return None

    # -- checksums (``SIMFS_Bitrep`` support) ---------------------------- #
    def checksum(self, path: str) -> str:
        """Checksum used for bit-reproducibility checks; whole-file SHA-256
        by default, overridable per simulator."""
        return file_checksum(path)


def collect_outputs(
    outputs: Iterable[str], on_output: Callable[[str], None] | None = None
) -> list[str]:
    """Run a job's productions back to back: the names ``outputs``
    yields, in production order, each passed to ``on_output(filename)``
    as it is closed."""
    produced: list[str] = []
    for fname in outputs:
        produced.append(fname)
        if on_output is not None:
            on_output(fname)
    return produced


class SteppedDriver(SimulationDriver):
    """A driver whose job is a generator of productions (:meth:`steps`):
    the launcher runs each on the node's event loop when the performance
    model says it is due, and :meth:`execute` runs them back to back."""

    @abc.abstractmethod
    def steps(
        self, job: SimulationJobSpec, output_dir: str, restart_dir: str,
        stop=None,
    ) -> Iterator[str]:
        """The job's output file names, each yielded once it is closed;
        ``stop()`` is polled as :meth:`execute` polls it."""

    def execute(
        self,
        job: SimulationJobSpec,
        output_dir: str,
        restart_dir: str,
        on_output=None,
        stop=None,
    ) -> list[str]:
        return collect_outputs(
            self.steps(job, output_dir, restart_dir, stop), on_output
        )
