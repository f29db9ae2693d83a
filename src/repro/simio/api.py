"""File-handle I/O API over the SDF format, with interception hooks.

This is the stand-in for the netCDF/HDF5/ADIOS client libraries of Table I.
Analyses and simulators call :func:`sio_open` / :func:`sio_create` /
:meth:`DataFile.read` / :meth:`DataFile.close`; DVLib virtualizes those
calls by installing an :class:`IOHooks` implementation (exactly where the
original SimFS interposes on the C I/O libraries):

* ``on_open`` runs before an open for reading — DVLib asks the DV for the
  file and blocks until it is on disk;
* ``on_create`` runs before a create — DVLib may *redirect* the path into
  the context storage area and returns the effective path;
* ``on_close`` runs after a close — for files opened for writing, DVLib
  notifies the DV that the file is complete (the "file ready" signal of
  Fig. 4); for reads it releases the reference.

The hook installation is process-global per the original design (one DVLib
per client process), but re-entrant and restorable for tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from repro.core.errors import InvalidArgumentError, SimFSError
from repro.simio import format as sdf

if TYPE_CHECKING:
    import numpy as np

__all__ = ["IOHooks", "DataFile", "sio_open", "sio_create", "install_hooks", "current_hooks"]


class IOHooks(Protocol):
    """Interception points DVLib installs around the I/O library."""

    def on_open(self, path: str) -> str:
        """Called before opening ``path`` for reading; returns the
        (possibly redirected) path to actually open."""
        ...

    def on_create(self, path: str) -> str:
        """Called before creating ``path``; returns the effective path."""
        ...

    def on_close(self, path: str, mode: str) -> None:
        """Called after closing the file (``mode`` is ``'r'`` or ``'w'``)."""
        ...


class _NullHooks:
    """Default no-op hooks: plain filesystem behaviour."""

    def on_open(self, path: str) -> str:
        return path

    def on_create(self, path: str) -> str:
        return path

    def on_close(self, path: str, mode: str) -> None:
        return None


_hooks: IOHooks = _NullHooks()


def install_hooks(hooks: IOHooks | None) -> IOHooks:
    """Install process-global interception hooks; returns the previous ones.

    Passing ``None`` restores plain filesystem behaviour.
    """
    global _hooks
    previous = _hooks
    _hooks = hooks if hooks is not None else _NullHooks()
    return previous


def current_hooks() -> IOHooks:
    """The currently installed hooks (for tests and diagnostics)."""
    return _hooks


class DataFile:
    """An open SDF file, read or write mode.

    Read mode loads the container eagerly (files are one output step — the
    paper's unit of access).  Write mode accumulates variables in memory and
    serializes on :meth:`close`, which is also when the DV learns the file
    is ready (DVLib intercepts *close*, Fig. 4 step 5).
    """

    def __init__(self, path: str, mode: str, _effective_path: str) -> None:
        if mode not in ("r", "w"):
            raise InvalidArgumentError(f"mode must be 'r' or 'w', got {mode!r}")
        self.path = path                      # logical (virtualized) path
        self.effective_path = _effective_path  # physical path on disk
        self.mode = mode
        self._closed = False
        self._vars: dict[str, np.ndarray] = {}
        self._attrs: dict[str, Any] = {}
        if mode == "r":
            self._vars, self._attrs = sdf.read_file(_effective_path)

    # -- reading -------------------------------------------------------- #
    def variables(self) -> list[str]:
        """Names of variables in the file."""
        self._check_open()
        return sorted(self._vars)

    def read(self, name: str) -> np.ndarray:
        """Read one variable (the ``nc_vara_get``/``H5Dread`` of Table I)."""
        self._check_open()
        try:
            return self._vars[name]
        except KeyError:
            raise SimFSError(f"no variable {name!r} in {self.path}") from None

    def attrs(self) -> dict[str, Any]:
        """File-level attributes."""
        self._check_open()
        return dict(self._attrs)

    # -- writing -------------------------------------------------------- #
    def write(self, name: str, array: np.ndarray) -> None:
        """Stage a variable for writing."""
        self._check_open()
        if self.mode != "w":
            raise SimFSError(f"{self.path} is open read-only")
        import numpy as np

        self._vars[name] = np.asarray(array)

    def set_attrs(self, **attrs: Any) -> None:
        """Stage file-level attributes."""
        self._check_open()
        if self.mode != "w":
            raise SimFSError(f"{self.path} is open read-only")
        self._attrs.update(attrs)

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Flush (write mode) and fire the ``on_close`` hook. Idempotent."""
        if self._closed:
            return
        if self.mode == "w":
            sdf.write_file(self.effective_path, self._vars, self._attrs)
        self._closed = True
        _hooks.on_close(self.path, self.mode)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DataFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SimFSError(f"{self.path} is closed")


def sio_open(path: str) -> DataFile:
    """Open an existing data file for reading (may block under DVLib while
    a re-simulation produces it)."""
    effective = _hooks.on_open(path)
    return DataFile(path, "r", effective)


def sio_create(path: str) -> DataFile:
    """Create a data file for writing (DVLib may redirect it into the
    context storage area)."""
    effective = _hooks.on_create(path)
    return DataFile(path, "w", effective)
