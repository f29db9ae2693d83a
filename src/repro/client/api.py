"""The SimFS APIs (paper Sec. III-C2) in both C-style and Pythonic form.

The original exposes ``SIMFS_Init/Acquire/Acquire_nb/Wait/Test/Waitsome/
Testsome/Release/Bitrep/Finalize`` returning ``int`` error codes with out
parameters.  Python has no out parameters, so the C-style shims return
``(ErrorCode, value)`` tuples with the exact call semantics; the
:class:`SimFSSession` class is the idiomatic interface both the examples
and the shims build on.
"""

from __future__ import annotations

import threading

from repro.client.dvlib import DVConnection
from repro.core.errors import ErrorCode, InvalidArgumentError, SimFSError
from repro.core.status import AcquireRequest, FileState, Status
from repro.simio import DataFile, sio_open

__all__ = [
    "SimFSSession",
    "simfs_init",
    "simfs_finalize",
    "simfs_acquire",
    "simfs_acquire_nb",
    "simfs_release",
    "simfs_wait",
    "simfs_test",
    "simfs_waitsome",
    "simfs_testsome",
    "simfs_bitrep",
]


class SimFSSession:
    """A client's attachment to one simulation context.

    Holds the non-blocking request plumbing: every ``ready`` notification
    from the DV is fanned out to outstanding :class:`AcquireRequest`
    objects through a ready-table watcher.
    """

    def __init__(self, connection: DVConnection, context: str) -> None:
        self.connection = connection
        self.context = context
        self._requests: list[AcquireRequest] = []
        self._requests_lock = threading.Lock()
        connection.attach(context)
        connection.ready_table.add_watcher(self._on_notification)
        self._finalized = False

    # ------------------------------------------------------------------ #
    # Acquire / release
    # ------------------------------------------------------------------ #
    def acquire(self, filenames: list[str], timeout: float | None = None) -> Status:
        """Blocking acquire: returns when every file is on disk."""
        since = self.connection.ready_table.stamp
        infos = self.connection.acquire(self.context, filenames)
        status = self._status_from_infos(infos)
        missing = [i.filename for i in infos if not i.available]
        for filename in missing:
            ok = self.connection.ready_table.wait(
                self.context, filename, timeout, since)
            status.file_states[filename] = (
                FileState.ON_DISK if ok else FileState.FAILED
            )
            if not ok:
                status.error = int(ErrorCode.ERR_RESTART_FAILED)
        if status.ok:
            status.estimated_wait = 0.0
        return status

    def acquire_nb(self, filenames: list[str]) -> tuple[Status, AcquireRequest]:
        """Non-blocking acquire (``SIMFS_Acquire_nb``)."""
        request = AcquireRequest(filenames=list(filenames))
        with self._requests_lock:
            self._requests.append(request)
        since = self.connection.ready_table.stamp
        infos = self.connection.acquire(self.context, filenames)
        for info in infos:
            if info.available:
                request.mark_ready(info.filename)
            elif self.connection.ready_table.is_ready(
                self.context, info.filename, since
            ):
                # Notification raced ahead of the acquire reply.
                request.mark_ready(info.filename)
        return self._status_from_infos(infos), request

    def release(self, filename: str) -> None:
        """``SIMFS_Release``: drop the reference to a file."""
        self.connection.release(self.context, filename)

    def release_many(self, filenames: list[str]) -> None:
        """Release several files, their requests pipelined.

        Equivalent to :meth:`release` per file but with a single round
        trip — the counterpart to acquiring a window of steps at once.
        Every file is released; the first failure is raised after.
        """
        if filenames:
            self.connection.release_many(self.context, filenames)

    def stats(self) -> dict:
        """Metrics-plane snapshot of the DV this session talks to.

        Over TCP the snapshot additionally carries ``client_wire`` — this
        connection's own frame/byte counters and negotiated codec — so an
        analysis can see both ends of the wire in one call.
        """
        snapshot = self.connection.stats()
        wire_stats = getattr(self.connection, "wire_stats", None)
        if callable(wire_stats):
            snapshot["client_wire"] = wire_stats()
        return snapshot

    # ------------------------------------------------------------------ #
    # Wait / test
    # ------------------------------------------------------------------ #
    def wait(self, request: AcquireRequest, timeout: float | None = None) -> Status:
        """``SIMFS_Wait``: block until every file of the request resolves."""
        complete = request.wait(timeout)
        return self._status_from_request(request, complete)

    def test(self, request: AcquireRequest) -> tuple[bool, Status]:
        """``SIMFS_Test``: non-blocking completion check."""
        complete = request.complete
        return complete, self._status_from_request(request, complete)

    def waitsome(
        self, request: AcquireRequest, timeout: float | None = None
    ) -> tuple[list[int], Status]:
        """``SIMFS_Waitsome``: block for at least one newly ready file;
        returns their indices within the request."""
        indices = request.wait_some(timeout)
        return indices, self._status_from_request(request, request.complete)

    def testsome(self, request: AcquireRequest) -> tuple[list[int], Status]:
        """``SIMFS_Testsome``: non-blocking variant of waitsome."""
        indices = request.test_some()
        return indices, self._status_from_request(request, request.complete)

    # ------------------------------------------------------------------ #
    # Data access and checks
    # ------------------------------------------------------------------ #
    def open_file(self, filename: str, timeout: float | None = None) -> DataFile:
        """Convenience: blocking acquire of one file plus a simio open of
        its physical path.  Closing the handle does *not* release the DV
        reference; call :meth:`release` when done."""
        self.connection.wait_ready(self.context, filename, timeout)
        return sio_open(self.connection.storage_path(self.context, filename))

    def bitrep(self, filename: str) -> bool:
        """``SIMFS_Bitrep``: does the on-disk file match the initial run?"""
        return self.connection.bitrep(self.context, filename)

    def fetch_file(self, filename: str, dest: str, *, resume: bool = True):
        """Pull one of this context's files over the bulk data plane into
        ``dest`` (chunked, resumable, checksum-verified).  Requires a
        connection flavour with a data plane (:class:`TcpConnection` to a
        daemon advertising one); returns a ``FetchResult``."""
        fetch = getattr(self.connection, "fetch_file", None)
        if not callable(fetch):
            raise InvalidArgumentError(
                "this connection flavour has no bulk data plane"
            )
        return fetch(self.context, filename, dest, resume=resume)

    def fetch_context(self, dest_dir: str, *, resume: bool = True) -> dict:
        """Pull every available output file of this context into
        ``dest_dir``; returns ``{filename: FetchResult}``."""
        fetch = getattr(self.connection, "fetch_context", None)
        if not callable(fetch):
            raise InvalidArgumentError(
                "this connection flavour has no bulk data plane"
            )
        return fetch(self.context, dest_dir, resume=resume)

    def reconnect(self) -> None:
        """Re-establish the session after a :class:`DVConnectionLost`
        (or after :meth:`finalize`).

        Re-dials the DV (fresh ``hello`` handshake) when the underlying
        connection supports it, then re-registers the context — the
        failover primitive the cluster tier builds on: a client whose
        daemon restarted (or whose context moved to another node) calls
        this and resumes on the same session object.  Acquire requests
        that were in flight when the link died have already failed;
        re-issue them after reconnecting.
        """
        reconnect = getattr(self.connection, "reconnect", None)
        if callable(reconnect):
            reconnect()
        self.connection.attach(self.context)
        if self._finalized:
            self.connection.ready_table.add_watcher(self._on_notification)
            self._finalized = False

    def finalize(self) -> None:
        """``SIMFS_Finalize``: detach from the context."""
        if not self._finalized:
            self.connection.finalize(self.context)
            self._finalized = True
            self.connection.ready_table.remove_watcher(self._on_notification)

    def __enter__(self) -> "SimFSSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finalize()

    # ------------------------------------------------------------------ #
    def _on_notification(self, context: str, filename: str, ok: bool) -> None:
        if context != self.context:
            return
        with self._requests_lock:
            live = [r for r in self._requests if not r.complete]
            self._requests = live
            targets = [r for r in live if filename in r.filenames]
        for request in targets:
            if ok:
                request.mark_ready(filename)
            else:
                request.mark_failed(filename)

    def _status_from_infos(self, infos) -> Status:
        status = Status()
        status.estimated_wait = max(
            (i.estimated_wait for i in infos if not i.available), default=0.0
        )
        for info in infos:
            status.file_states[info.filename] = info.state
        return status

    def _status_from_request(self, request: AcquireRequest, complete: bool) -> Status:
        status = Status()
        if request.any_failed:
            status.error = int(ErrorCode.ERR_RESTART_FAILED)
        elif not complete:
            status.error = int(ErrorCode.ERR_PENDING)
        for filename in request.filenames:
            if filename in request.ready_files():
                status.file_states[filename] = FileState.ON_DISK
        return status


# --------------------------------------------------------------------- #
# C-style shims mirroring the paper's signatures
# --------------------------------------------------------------------- #
def _guard(func):
    """Run an API body, mapping SimFS exceptions to error codes."""
    try:
        return func()
    except SimFSError as exc:
        return int(exc.code), None


def simfs_init(connection: DVConnection, sim_context: str):
    """``int SIMFS_Init(char *sim_context, SIMFS_Context *context)``."""
    return _guard(lambda: (int(ErrorCode.SUCCESS), SimFSSession(connection, sim_context)))


def simfs_finalize(session: SimFSSession):
    """``int SIMFS_Finalize(SIMFS_Context *context)``."""

    def body():
        session.finalize()
        return int(ErrorCode.SUCCESS), None

    return _guard(body)[0]


def simfs_acquire(session: SimFSSession, filenames: list[str]):
    """``int SIMFS_Acquire(...)`` -> ``(code, SIMFS_Status)``."""

    def body():
        status = session.acquire(filenames)
        return status.error, status

    return _guard(body)


def simfs_acquire_nb(session: SimFSSession, filenames: list[str]):
    """``int SIMFS_Acquire_nb(...)`` -> ``(code, status, SIMFS_Req)``."""
    try:
        status, request = session.acquire_nb(filenames)
        return int(ErrorCode.SUCCESS), status, request
    except SimFSError as exc:
        return int(exc.code), None, None


def simfs_release(session: SimFSSession, filename: str):
    """``int SIMFS_Release(...)``."""

    def body():
        session.release(filename)
        return int(ErrorCode.SUCCESS), None

    return _guard(body)[0]


def simfs_wait(session: SimFSSession, request: AcquireRequest):
    """``int SIMFS_Wait(SIMFS_Req *req, SIMFS_Status *status)``."""

    def body():
        status = session.wait(request)
        return status.error, status

    return _guard(body)


def simfs_test(session: SimFSSession, request: AcquireRequest):
    """``int SIMFS_Test(...)`` -> ``(code, flag, status)``."""
    try:
        flag, status = session.test(request)
        return int(ErrorCode.SUCCESS), flag, status
    except SimFSError as exc:
        return int(exc.code), False, None


def simfs_waitsome(session: SimFSSession, request: AcquireRequest):
    """``int SIMFS_Waitsome(...)`` -> ``(code, readyidx, status)``."""
    try:
        indices, status = session.waitsome(request)
        return int(ErrorCode.SUCCESS), indices, status
    except SimFSError as exc:
        return int(exc.code), [], None


def simfs_testsome(session: SimFSSession, request: AcquireRequest):
    """``int SIMFS_Testsome(...)`` -> ``(code, readyidx, status)``."""
    try:
        indices, status = session.testsome(request)
        return int(ErrorCode.SUCCESS), indices, status
    except SimFSError as exc:
        return int(exc.code), [], None


def simfs_bitrep(session: SimFSSession, filename: str):
    """``int SIMFS_Bitrep(...)`` -> ``(code, flag)``."""
    try:
        return int(ErrorCode.SUCCESS), session.bitrep(filename)
    except SimFSError as exc:
        return int(exc.code), False
