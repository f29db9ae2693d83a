"""Virtualizing simulation pipelines (paper Sec. III-E).

Scientific simulations are often staged: boundary conditions are copied
from long-term storage to drive a coarse-grain simulation whose output
feeds a finer-grain one.  When every stage is virtualized, a miss cascades
*recursively*: if the fine-grain re-simulation needs coarse-grain input
that is itself missing, opening that input through SimFS triggers the
coarse-grain re-simulation first (Fig. 6).

Two drivers implement the pattern:

* :class:`PipelineDriver` wraps a stage's simulator driver and, before
  executing a job, acquires the upstream files the job depends on through
  a DVLib connection — blocking until the upstream context (re)produces
  them.
* :class:`ArchiveCopyDriver` is the first stage of Fig. 6: its "job" does
  not simulate anything, it copies the requested files from a long-term
  storage area into the context's storage area ("this job will not start a
  simulation but just issue the copy of the data from the long-term
  storage area").
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable

from repro.core.errors import ContextError, RestartFailedError
from repro.core.steps import StepGeometry
from repro.simulators.driver import (
    FilePatternNaming,
    SimulationDriver,
    SimulationJobSpec,
    SteppedDriver,
)

__all__ = ["PipelineDriver", "ArchiveCopyDriver"]


class PipelineDriver(SimulationDriver):
    """A stage driver whose jobs depend on another virtualized context.

    It has no ``steps()``: a job blocks on the upstream context's readies
    before it produces anything, so the launcher runs it on a thread of
    its own (the one driver that does).

    Parameters
    ----------
    base:
        The stage's own simulator driver (runs the actual simulation).
    upstream_context:
        Name of the context producing this stage's input.
    inputs_for:
        ``(job) -> list[str]``: upstream output files the job needs — e.g.
        the coarse-grain steps spanning the fine-grain job's window.
    input_timeout:
        Upper bound on waiting for one upstream file (the upstream
        re-simulation may itself cascade further).
    """

    def __init__(
        self,
        base: SimulationDriver,
        upstream_context: str,
        inputs_for: Callable[[SimulationJobSpec], list[str]],
        input_timeout: float | None = 300.0,
    ) -> None:
        super().__init__(base.naming, base.max_parallelism_level)
        self.base = base
        self.upstream_context = upstream_context
        self.inputs_for = inputs_for
        self.input_timeout = input_timeout
        self._connection = None

    def bind_connection(self, connection) -> None:
        """Attach the DVLib connection used to reach the upstream context.

        The DV server itself acts as a client of the upstream stage here —
        the reproduction of Fig. 6's SimFS-inside-SimFS arrows.
        """
        self._connection = connection

    def execute(
        self,
        job: SimulationJobSpec,
        output_dir: str,
        restart_dir: str,
        on_output=None,
        stop=None,
    ) -> list[str]:
        if self._connection is None:
            raise ContextError(
                f"pipeline stage for {self.upstream_context!r} has no "
                "connection; call bind_connection() first"
            )
        needed = self.inputs_for(job)
        for filename in needed:
            if stop is not None and stop():
                return []
            # Blocks until the upstream file is on disk, triggering the
            # upstream re-simulation on a miss (the Sec. III-E cascade).
            self._connection.wait_ready(
                self.upstream_context, filename, timeout=self.input_timeout
            )
        produced = self.base.execute(
            job, output_dir, restart_dir, on_output=on_output, stop=stop
        )
        for filename in needed:
            self._connection.release(self.upstream_context, filename)
        return produced


class ArchiveCopyDriver(SteppedDriver):
    """First pipeline stage: "re-simulation" = copy from long-term storage.

    The archive directory holds the stage's full output (e.g. on tape or a
    cold object store); a job copies the requested window's files into the
    context storage area at archive speed instead of re-computing them.
    """

    def __init__(
        self,
        geometry: StepGeometry,
        archive_dir: str,
        prefix: str = "archive",
    ) -> None:
        super().__init__(FilePatternNaming(prefix), max_parallelism_level=0)
        self.geometry = geometry
        self.archive_dir = archive_dir

    def steps(
        self, job: SimulationJobSpec, output_dir: str, restart_dir: str,
        stop=None,
    ):
        """The job's copies, one production each: yields each file name
        once its copy is in the storage area."""
        for key in self.geometry.outputs_between_restarts(
            job.start_restart, job.stop_restart
        ):
            if stop is not None and stop():
                return
            filename = self.naming.filename(key)
            source = os.path.join(self.archive_dir, filename)
            if not os.path.exists(source):
                raise RestartFailedError(
                    f"archive copy failed: {source} does not exist"
                )
            shutil.copyfile(source, os.path.join(output_dir, filename))
            yield filename
