"""DVLib: the client library connecting analyses/simulators to the DV
(paper Sec. III).

Two interchangeable connection flavours expose the same interface:

* :class:`TcpConnection` — talks to a :class:`repro.dv.server.DVServer`
  over the JSON wire protocol, with a background listener thread matching
  replies and recording unsolicited ``ready`` notifications (the paper's
  deployment: DVLib and DV are separate processes).
* :class:`LocalConnection` — drives a :class:`DVCoordinator` in-process
  (handy for examples, tests, and single-process pipelines).

Blocking-on-read semantics (Sec. III-C1: the *open* is non-blocking, the
*read* blocks until the DV notifies) are implemented by
:meth:`DVConnection.wait_ready`, which the transparent-mode hooks call
before letting the I/O library touch the file.
"""

from __future__ import annotations

import abc
import itertools
import os
import queue
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass

from repro.core.errors import (
    ConnectionLostError,
    DETAIL_ALREADY_CONNECTED,
    DVConnectionLost,
    ErrorCode,
    FileNotInContextError,
    ProtocolError,
    RestartFailedError,
    SimFSError,
)
from repro.core.status import FileState
from repro.dv.protocol import (
    CODEC_BINARY,
    PROTOCOL_VERSION,
    MessageReader,
    encode_binary,
    encode_open_request,
    send_message,
)
from repro.obs.trace import new_trace

__all__ = [
    "FileInfo",
    "DVConnection",
    "TcpConnection",
    "LocalConnection",
    "fetch_stats",
]


def fetch_stats(host: str, port: int) -> dict:
    """One-shot ``stats`` query against a running DV daemon (backs the
    ``simfs-dv --stats`` and ``simfs-ctl dv-stats`` entry points)."""
    with TcpConnection(host, port, {}, {}) as conn:
        return conn.stats()


@dataclass(frozen=True)
class FileInfo:
    """Availability report for one requested file."""

    filename: str
    available: bool
    state: FileState
    estimated_wait: float


class _ReadyTable:
    """Thread-safe record of ready/failed notifications per (context, file).

    Notifications may arrive *before* the reply of the open that caused
    them; recording everything unconditionally makes the race harmless.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._ready: set[tuple[str, str]] = set()
        self._failed: set[tuple[str, str]] = set()
        self._watchers: list = []

    def add_watcher(self, callback) -> None:
        """Register a callback fired on every notification (used to update
        outstanding non-blocking acquire requests)."""
        with self._cond:
            self._watchers.append(callback)

    def record(self, context: str, filename: str, ok: bool) -> None:
        with self._cond:
            (self._ready if ok else self._failed).add((context, filename))
            watchers = list(self._watchers)
            self._cond.notify_all()
        for watcher in watchers:
            watcher(context, filename, ok)

    def wait(self, context: str, filename: str, timeout: float | None) -> bool:
        """Block until the file is ready; returns False if it failed.

        Raises ``TimeoutError`` when the timeout expires first.
        """
        key = (context, filename)
        with self._cond:
            happened = self._cond.wait_for(
                lambda: key in self._ready or key in self._failed,
                timeout=timeout,
            )
            if not happened:
                raise TimeoutError(
                    f"timed out waiting for {filename!r} in context {context!r}"
                )
            return key in self._ready

    def is_ready(self, context: str, filename: str) -> bool:
        with self._cond:
            return (context, filename) in self._ready

    def forget(self, context: str, filename: str) -> None:
        """Drop state for a file (after release, so re-acquires re-wait)."""
        with self._cond:
            self._ready.discard((context, filename))
            self._failed.discard((context, filename))


class DVConnection(abc.ABC):
    """Common DVLib connection interface."""

    def __init__(self, client_id: str | None = None) -> None:
        self.client_id = client_id or f"dvlib-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.ready_table = _ReadyTable()

    # -- control plane ---------------------------------------------------- #
    @abc.abstractmethod
    def attach(self, context: str) -> None:
        """Attach this client to a simulation context (``SIMFS_Init``)."""

    @abc.abstractmethod
    def finalize(self, context: str) -> None:
        """Detach from a context (``SIMFS_Finalize``)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear down the connection."""

    # -- data plane --------------------------------------------------------#
    @abc.abstractmethod
    def open(self, context: str, filename: str) -> FileInfo:
        """Request one file; never blocks (Sec. III-C1 open semantics)."""

    @abc.abstractmethod
    def acquire(self, context: str, filenames: list[str]) -> list[FileInfo]:
        """Request a set of files (``SIMFS_Acquire`` core)."""

    @abc.abstractmethod
    def release(self, context: str, filename: str) -> None:
        """Drop the reference to a file."""

    @abc.abstractmethod
    def notify_write_close(self, context: str, filename: str) -> None:
        """Simulator-side: an output file was closed and is ready on disk."""

    @abc.abstractmethod
    def bitrep(self, context: str, filename: str, path: str | None = None) -> bool:
        """Compare a file against the recorded initial-run checksum."""

    @abc.abstractmethod
    def batch(self, ops: list[dict]) -> list[dict]:
        """Pipelined sub-ops: send many requests in one frame, get the
        per-sub-op reply payloads back in order.  Each payload carries its
        own ``error`` field; a failing sub-op does not abort the rest."""

    @abc.abstractmethod
    def stats(self) -> dict:
        """Snapshot of the DV's metrics plane (the ``stats`` op)."""

    @abc.abstractmethod
    def storage_path(self, context: str, filename: str) -> str:
        """Physical path of an output file in the context storage area."""

    @abc.abstractmethod
    def restart_dir(self, context: str) -> str:
        """Directory holding the context's restart files."""

    # -- blocking helper ---------------------------------------------------#
    def wait_ready(
        self, context: str, filename: str, timeout: float | None = None
    ) -> None:
        """Block until ``filename`` is on disk; raises on failed restarts."""
        info = self.open(context, filename)
        if info.available:
            return
        ok = self.ready_table.wait(context, filename, timeout)
        if not ok:
            raise RestartFailedError(
                f"re-simulation for {filename!r} failed (context {context!r})"
            )

    def __enter__(self) -> "DVConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------- #
class TcpConnection(DVConnection):
    """DVLib over the TCP wire protocol.

    The ``hello`` handshake is one newline-JSON line each way; every
    frame after it is binary.  A DV whose hello reply does not grant the
    binary codec is refused with :class:`ProtocolError`.

    ``trace`` opts requests into distributed tracing: ``True`` traces
    every request, a float in ``(0, 1]`` head-samples that fraction.
    Tracing is negotiated during ``hello``; sampled requests carry a
    compact trace context the DV chain propagates hop by hop.
    :attr:`last_trace_id` holds the trace id of the most recent sampled
    request for ``simfs-ctl trace``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        storage_dirs: dict[str, str],
        restart_dirs: dict[str, str],
        client_id: str | None = None,
        connect_timeout: float = 10.0,
        trace: bool | float = False,
    ) -> None:
        super().__init__(client_id)
        self._trace_rate = 1.0 if trace is True else max(0.0, float(trace))
        self._trace_granted = False
        self._trace_rng = random.Random()
        #: Trace id (hex) of the most recent head-sampled request.
        self.last_trace_id: str | None = None
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._storage_dirs = dict(storage_dirs)
        self._restart_dirs = dict(restart_dirs)
        self._send_lock = threading.Lock()
        self._reqs = itertools.count(1)
        self._replies: dict[int, queue.Queue] = {}
        self._replies_lock = threading.Lock()
        self._closed = False
        self._lost = True  # until the first handshake succeeds
        #: Extra fields the daemon attached to its hello reply (a cluster
        #: node reports its ring/membership view here).
        self.server_info: dict = {}
        # Client-side mirror of the daemon's wire counters (guarded by the
        # matching send/replies locks; surfaced via :meth:`wire_stats`).
        self._frames_sent = 0
        self._bytes_sent = 0
        self._frames_recv = 0
        self._bytes_recv = 0
        self._connect()

    def _connect(self, deadline: float | None = None) -> None:
        """Dial and run the hello handshake; starts the listener thread.

        The hello and its reply travel as newline JSON; ``connect_timeout``
        stays on the socket until the reply is read (a wedged daemon's
        backlog still completes the TCP connect).  ``deadline`` (reconnect
        path) allows brief retries of a "client_id already connected"
        rejection while the daemon finishes tearing down our previous
        connection.
        """
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
        except OSError as exc:
            raise DVConnectionLost(
                f"cannot reach DV at {self._host}:{self._port}: {exc}"
            ) from exc
        # Request/reply frames are tiny: Nagle's algorithm only adds
        # latency to every RPC round trip.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        hello = {"op": "hello", "req": 0, "client_id": self.client_id,
                 "vers": PROTOCOL_VERSION, "codec": CODEC_BINARY}
        if self._trace_rate > 0.0:
            hello["trace"] = 1
        try:
            send_message(sock, hello)
            reader = MessageReader(sock)
            reply = reader.read_message()
        except (OSError, SimFSError) as exc:
            sock.close()
            raise DVConnectionLost(f"DV handshake failed: {exc}") from exc
        if reply is None or reply.get("op") != "reply":
            sock.close()
            raise DVConnectionLost("DV handshake failed")
        if reply.get("error"):
            sock.close()
            error = _error_from_code(reply["error"], reply.get("detail", ""))
            if deadline is not None and DETAIL_ALREADY_CONNECTED in str(error):
                # Reconnect race: the daemon releases a dead connection's
                # client_id asynchronously (worker-pool cleanup); ours may
                # still be reserved for a few milliseconds.
                if time.monotonic() < deadline:
                    time.sleep(0.05)
                    return self._connect(deadline)
            raise error
        if reply.get("codec") != CODEC_BINARY:
            sock.close()
            raise ProtocolError(
                f"DV at {self._host}:{self._port} did not grant the binary "
                f"codec (hello reply: {reply!r})"
            )
        sock.settimeout(None)
        reader.set_codec(CODEC_BINARY)
        self._trace_granted = bool(reply.get("trace"))
        self.server_info = {
            key: value for key, value in reply.items()
            if key not in ("op", "req", "error", "detail")
        }
        self._sock = sock
        # Swap reader and clear the lost flag atomically with respect to
        # the old listener's teardown check (see _listen).
        with self._replies_lock:
            self._reader = reader
            self._lost = False
        self._listener = threading.Thread(
            target=self._listen, args=(reader,),
            name=f"dvlib-listen-{self.client_id}", daemon=True,
        )
        self._listener.start()

    @property
    def address(self) -> tuple[str, int]:
        """The daemon address this connection dials."""
        return (self._host, self._port)

    @property
    def is_lost(self) -> bool:
        """True once the link died (or was closed); :meth:`reconnect`
        clears it."""
        return self._lost or self._closed

    def reconnect(self) -> None:
        """Re-dial the daemon: fresh socket, fresh ``hello`` handshake.

        The client_id and the ready table survive, so a
        :class:`~repro.client.api.SimFSSession` can re-register its
        context and resume after a daemon restart or failover.  RPCs that
        were in flight when the link died have already failed with
        :class:`DVConnectionLost`; callers re-issue them.
        """
        if self._closed:
            raise DVConnectionLost("connection is closed")
        self._lost = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except (OSError, AttributeError):
            pass
        try:
            self._sock.close()
        except (OSError, AttributeError):
            pass
        self._fail_outstanding()
        self._connect(deadline=time.monotonic() + 5.0)

    def wire_stats(self) -> dict:
        """Client-side wire counters (frames/bytes in each direction)."""
        with self._send_lock:
            sent = {"frames_sent": self._frames_sent,
                    "bytes_sent": self._bytes_sent}
        with self._replies_lock:
            recv = {"frames_recv": self._frames_recv,
                    "bytes_recv": self._bytes_recv}
        return {"codec": CODEC_BINARY, **sent, **recv}

    # -- plumbing ----------------------------------------------------------#
    def _listen(self, reader: MessageReader) -> None:
        try:
            while not self._closed and self._reader is reader:
                message = reader.read_message()
                if message is None:
                    break
                with self._replies_lock:
                    self._frames_recv += 1
                    self._bytes_recv = reader.bytes_read
                if message.get("op") == "ready":
                    self.ready_table.record(
                        message["context"], message["file"], bool(message.get("ok", True))
                    )
                elif message.get("op") == "reply":
                    with self._replies_lock:
                        waiter = self._replies.pop(message.get("req"), None)
                    if waiter is not None:
                        waiter.put(message)
        except Exception:
            pass  # a frame this code cannot digest loses the link too
        finally:
            # Mark the link dead and unblock any RPC still waiting — but
            # only if this listener still owns the connection (a reconnect
            # swaps in a new reader before this thread observes the old
            # socket die).  The check-and-set is atomic under
            # _replies_lock: a stale listener racing a concurrent reconnect
            # must not mark the fresh connection lost after the swap.
            with self._replies_lock:
                owns = self._reader is reader
                if owns:
                    self._lost = True
            if owns:
                self._fail_outstanding()

    def _fail_outstanding(self) -> None:
        with self._replies_lock:
            waiters = list(self._replies.values())
            self._replies.clear()
        for waiter in waiters:
            waiter.put(None)  # sentinel: the link is gone

    def _next_tc(self) -> str | None:
        """Head-sampling coin flip: a fresh sampled trace context (wire
        form) for this request, or ``None`` when untraced."""
        if not self._trace_granted or self._trace_rate <= 0.0:
            return None
        if self._trace_rate < 1.0 and self._trace_rng.random() >= self._trace_rate:
            return None
        tc = new_trace(sampled=True)
        self.last_trace_id = f"{tc.trace_id:016x}"
        return tc.to_wire()

    def _rpc(self, message: dict, timeout: float = 60.0) -> dict:
        if self._closed:
            raise ConnectionLostError("connection is closed")
        if "tc" not in message:
            tc = self._next_tc()
            if tc is not None:
                message["tc"] = tc
        req = next(self._reqs)
        message["req"] = req
        return self._rpc_send(req, encode_binary(message), timeout)

    def call(self, message: dict, timeout: float = 60.0) -> dict:
        """Generic RPC: send any op-bearing message, return its reply.

        The escape hatch for service-level ops outside the classic DVLib
        surface (``{"op": "cluster"}``, future admin ops).
        """
        return self._rpc(dict(message), timeout)

    def _rpc_send(self, req: int, data: bytes, timeout: float = 60.0) -> dict:
        """Ship one pre-encoded request frame and await its reply."""
        if self._lost:
            raise DVConnectionLost("DV connection lost (reconnect to resume)")
        waiter: queue.Queue = queue.Queue(maxsize=1)
        with self._replies_lock:
            self._replies[req] = waiter
        try:
            with self._send_lock:
                self._frames_sent += 1
                self._bytes_sent += len(data)
                self._sock.sendall(data)
        except OSError as exc:
            self._lost = True
            with self._replies_lock:
                self._replies.pop(req, None)
            raise DVConnectionLost(f"DV connection lost: {exc}") from exc
        try:
            reply = waiter.get(timeout=timeout)
        except queue.Empty:
            with self._replies_lock:
                self._replies.pop(req, None)
            raise ConnectionLostError("DV reply timed out") from None
        if reply is None:
            raise DVConnectionLost("DV connection lost mid-request")
        error = reply.get("error", 0)
        if error:
            raise _error_from_code(error, reply.get("detail", ""))
        return reply

    # -- interface ----------------------------------------------------------#
    def attach(self, context: str) -> None:
        self._rpc({"op": "attach", "context": context})

    def finalize(self, context: str) -> None:
        self._rpc({"op": "finalize", "context": context})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # shutdown() (not just close()) is required: the listener thread is
        # blocked in recv() on this socket, which keeps the kernel-side file
        # description alive — a bare close() would neither wake it nor send
        # the FIN the DV needs to clean up this client.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def open(self, context: str, filename: str) -> FileInfo:
        # The transparent path's hottest RPC: packed straight from the
        # fields, skipping the dict round-trip.
        if self._closed:
            raise ConnectionLostError("connection is closed")
        req = next(self._reqs)
        reply = self._rpc_send(
            req,
            encode_open_request(
                req, context, filename, CODEC_BINARY, tc=self._next_tc()
            ),
        )
        return FileInfo(
            filename=filename,
            available=bool(reply["available"]),
            state=FileState(reply["state"]),
            estimated_wait=float(reply["wait"]),
        )

    def acquire(self, context: str, filenames: list[str]) -> list[FileInfo]:
        reply = self._rpc({"op": "acquire", "context": context, "files": filenames})
        return [
            FileInfo(
                filename=item["file"],
                available=bool(item["available"]),
                state=FileState(item["state"]),
                estimated_wait=float(item["wait"]),
            )
            for item in reply["results"]
        ]

    def release(self, context: str, filename: str) -> None:
        self._rpc({"op": "release", "context": context, "file": filename})
        self.ready_table.forget(context, filename)

    def notify_write_close(self, context: str, filename: str) -> None:
        self._rpc({"op": "wclose", "context": context, "file": filename})

    def bitrep(self, context: str, filename: str, path: str | None = None) -> bool:
        message = {"op": "bitrep", "context": context, "file": filename}
        if path is not None:
            message["path"] = path
        return bool(self._rpc(message)["matches"])

    def batch(self, ops: list[dict]) -> list[dict]:
        return list(self._rpc({"op": "batch", "ops": list(ops)})["results"])

    def stats(self) -> dict:
        return dict(self._rpc({"op": "stats"})["stats"])

    # -- bulk data plane ---------------------------------------------------#
    def fetch_info(self, context: str, filename: str | None = None) -> dict:
        """Ask the control plane where a context file can be pulled from.

        Routable: whichever daemon this connection reaches forwards the
        question to the context's owner, so the reply's ``data_host``/
        ``data_port`` name the owner's data plane.  Without ``filename``
        the reply enumerates the context's available output files.
        """
        message = {"op": "fetch_info", "context": context}
        if filename is not None:
            message["file"] = filename
        return self._rpc(message)

    def fetch_file(
        self,
        context: str,
        filename: str,
        dest: str,
        *,
        resume: bool = True,
        timeout: float = 60.0,
    ):
        """Pull one context file over the bulk data plane into ``dest``.

        The transfer is chunked, resumable (a leftover ``dest.part`` from
        an interrupted pull continues from its offset) and verified
        against the server's whole-file SHA-256 before the rename into
        place.  Returns a :class:`repro.data.client.FetchResult`.
        """
        from repro.data.client import DataClient

        info = self.fetch_info(context, filename)
        if not info.get("exists"):
            raise FileNotInContextError(
                f"file {filename!r} has no bytes to fetch in {context!r}"
            )
        host, port = info.get("data_host"), info.get("data_port")
        if not host or not port:
            raise ConnectionLostError(
                f"context {context!r}'s owner advertises no data plane"
            )
        with DataClient(host, port, timeout=timeout) as client:
            return client.fetch(
                context, filename, dest, resume=resume, tc=self._next_tc()
            )

    def fetch_context(
        self,
        context: str,
        dest_dir: str,
        *,
        resume: bool = True,
        timeout: float = 60.0,
    ) -> dict:
        """Pull every available output file of ``context`` into
        ``dest_dir``; returns ``{filename: FetchResult}``."""
        from repro.data.client import DataClient

        info = self.fetch_info(context)
        host, port = info.get("data_host"), info.get("data_port")
        names = list(info.get("files", []))
        results: dict = {}
        if not names:
            return results
        if not host or not port:
            raise ConnectionLostError(
                f"context {context!r}'s owner advertises no data plane"
            )
        os.makedirs(dest_dir, exist_ok=True)
        tc = self._next_tc()
        with DataClient(host, port, timeout=timeout) as client:
            for name in names:
                results[name] = client.fetch(
                    context, name, os.path.join(dest_dir, name),
                    resume=resume, tc=tc,
                )
        return results

    def storage_path(self, context: str, filename: str) -> str:
        return os.path.join(self._storage_dirs[context], filename)

    def restart_dir(self, context: str) -> str:
        return self._restart_dirs[context]


# --------------------------------------------------------------------- #
class LocalConnection(DVConnection):
    """DVLib talking to an in-process DV server (no sockets)."""

    def __init__(self, server, client_id: str | None = None) -> None:
        """``server`` is a :class:`repro.dv.server.DVServer` (not started)
        or anything exposing ``coordinator``, ``launcher`` and
        ``storage_path``."""
        super().__init__(client_id)
        self._server = server
        self._coordinator = server.coordinator
        self._clock = server.launcher.clock
        self._contexts: set[str] = set()
        # Splice this client's notifications into the ready table.
        inner = self._coordinator._notify

        def notify(notification) -> None:
            inner(notification)
            if notification.client_id == self.client_id:
                self.ready_table.record(
                    notification.context_name, notification.filename, notification.ok
                )

        self._coordinator._notify = notify

    def attach(self, context: str) -> None:
        # Shards serialize their own state: no front-end lock is needed.
        self._coordinator.client_connect(self.client_id, context)
        self._contexts.add(context)

    def finalize(self, context: str) -> None:
        self._coordinator.client_disconnect(
            self.client_id, context, self._clock.now()
        )
        self._contexts.discard(context)

    def close(self) -> None:
        for context in list(self._contexts):
            try:
                self.finalize(context)
            except SimFSError:
                pass

    def open(self, context: str, filename: str) -> FileInfo:
        result = self._coordinator.handle_open(
            self.client_id, context, filename, self._clock.now()
        )
        return FileInfo(
            filename=filename,
            available=result.available,
            state=result.state,
            estimated_wait=result.estimated_wait,
        )

    def acquire(self, context: str, filenames: list[str]) -> list[FileInfo]:
        return [self.open(context, name) for name in filenames]

    def release(self, context: str, filename: str) -> None:
        self._coordinator.handle_release(
            self.client_id, context, filename, self._clock.now()
        )
        self.ready_table.forget(context, filename)

    def notify_write_close(self, context: str, filename: str) -> None:
        self._coordinator.sim_file_closed(context, filename, self._clock.now())

    def bitrep(self, context: str, filename: str, path: str | None = None) -> bool:
        if path is None:
            path = self.storage_path(context, filename)
        return self._coordinator.handle_bitrep(context, filename, path)

    def batch(self, ops: list[dict]) -> list[dict]:
        """In-process mirror of the daemon's ``batch`` op semantics."""
        results = []
        for sub in ops:
            sub_op = sub.get("op") if isinstance(sub, dict) else None
            try:
                payload = self._local_op(sub_op, sub)
            except SimFSError as exc:
                payload = {"error": int(exc.code), "detail": str(exc)}
            payload.setdefault("error", int(ErrorCode.SUCCESS))
            payload["op"] = sub_op
            results.append(payload)
        return results

    def _local_op(self, sub_op: str | None, sub: dict) -> dict:
        if sub_op == "open":
            info = self.open(sub["context"], sub["file"])
            return {"available": info.available, "state": info.state.value,
                    "wait": info.estimated_wait}
        if sub_op == "acquire":
            infos = self.acquire(sub["context"], list(sub["files"]))
            return {"results": [
                {"file": i.filename, "available": i.available,
                 "state": i.state.value, "wait": i.estimated_wait}
                for i in infos
            ]}
        if sub_op == "release":
            self.release(sub["context"], sub["file"])
            return {}
        if sub_op == "wclose":
            self.notify_write_close(sub["context"], sub["file"])
            return {}
        if sub_op == "bitrep":
            return {"matches": self.bitrep(
                sub["context"], sub["file"], sub.get("path")
            )}
        if sub_op == "attach":
            self.attach(sub["context"])
            return {}
        if sub_op == "finalize":
            self.finalize(sub["context"])
            return {}
        if sub_op == "stats":
            return {"stats": self.stats()}
        raise ProtocolError(f"unknown or non-batchable sub-op {sub_op!r}")

    def stats(self) -> dict:
        return self._coordinator.stats_snapshot()

    def storage_path(self, context: str, filename: str) -> str:
        return self._server.storage_path(context, filename)

    def restart_dir(self, context: str) -> str:
        return self._server.launcher.restart_dir(context)


def _error_from_code(code: int, detail: str) -> SimFSError:
    """Map a wire error code back to the local exception hierarchy."""
    from repro.core import errors as err

    mapping: dict[int, type[SimFSError]] = {
        int(ErrorCode.ERR_CONTEXT): err.ContextError,
        int(ErrorCode.ERR_RESTART_FAILED): err.RestartFailedError,
        int(ErrorCode.ERR_NOT_FOUND): err.FileNotInContextError,
        int(ErrorCode.ERR_PROTOCOL): err.ProtocolError,
        int(ErrorCode.ERR_CONNECTION): err.ConnectionLostError,
        int(ErrorCode.ERR_INVALID): err.InvalidArgumentError,
        int(ErrorCode.ERR_CHECKSUM): err.ChecksumUnavailableError,
    }
    cls = mapping.get(code, SimFSError)
    return cls(detail or f"DV error code {code}")
