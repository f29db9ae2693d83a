"""DVLib: the client library connecting analyses/simulators to the DV
(paper Sec. III).

Two interchangeable connection flavours expose the same interface:

* :class:`TcpConnection` — talks to a :class:`repro.dv.server.DVServer`
  over the binary wire protocol, one
  :class:`~repro.dv.channel.RpcChannel` per daemon (its reader thread
  matches replies and records unsolicited ``ready`` notifications).  In
  a cluster it is its own router: it learns the ring from the hello
  reply and sends each context's ops straight to the context's owner
  (the paper's deployment: DVLib is the analysis' direct line to the DV
  that owns its context).
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
import random
import threading
import time
import uuid
from dataclasses import dataclass

from repro.cluster.link import DialBackoff
from repro.cluster.ring import HashRing
from repro.core.errors import (
    ConnectionLostError,
    DETAIL_ALREADY_ATTACHED,
    DETAIL_ALREADY_CONNECTED,
    DVConnectionLost,
    ErrorCode,
    FileNotInContextError,
    InvalidArgumentError,
    ProtocolError,
    RestartFailedError,
    SimFSError,
)
from repro.core.status import FileState
from repro.data import DataClientPool
from repro.dv.channel import HelloRefused, RpcChannel
from repro.dv.protocol import (
    CODEC_BINARY,
    PROTOCOL_VERSION,
    encode_binary,
    encode_open_request,
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

    Every outcome is stamped; :attr:`stamp` is the latest.  Notifications
    may arrive *before* the reply of the open that caused them, so a
    caller takes ``stamp`` before it sends its ``open`` and asks for the
    outcomes ``since`` then: a ``ready`` racing the reply counts, one left
    from an earlier re-simulation (a failure, which leaves the client
    nothing to release) does not.  Outcomes are never dropped; without
    ``since`` a query counts what came after the file's last
    :meth:`forget`.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._outcomes: dict[tuple[str, str], tuple[int, bool]] = {}
        self._forgotten: dict[tuple[str, str], int] = {}
        self._watchers: list = []
        #: Stamp of the latest outcome recorded.
        self.stamp = 0

    def add_watcher(self, callback) -> None:
        """Register a callback fired on every notification (used to update
        outstanding non-blocking acquire requests)."""
        with self._cond:
            self._watchers.append(callback)

    def remove_watcher(self, callback) -> None:
        with self._cond:
            self._watchers.remove(callback)

    def record(self, context: str, filename: str, ok: bool) -> None:
        with self._cond:
            self.stamp += 1
            self._outcomes[(context, filename)] = (self.stamp, ok)
            watchers = list(self._watchers)
            self._cond.notify_all()
        for watcher in watchers:
            watcher(context, filename, ok)

    def _outcome(self, key: tuple[str, str], since: int | None) -> bool | None:
        stamp, ok = self._outcomes.get(key, (0, None))
        if since is None:
            since = self._forgotten.get(key, 0)
        return ok if stamp > since else None

    def wait(self, context: str, filename: str, timeout: float | None,
             since: int | None = None) -> bool:
        """Block until the file has an outcome recorded after ``since``;
        returns False if it failed.

        Raises ``TimeoutError`` when the timeout expires first.
        """
        key = (context, filename)
        with self._cond:
            happened = self._cond.wait_for(
                lambda: self._outcome(key, since) is not None,
                timeout=timeout,
            )
            if not happened:
                raise TimeoutError(
                    f"timed out waiting for {filename!r} in context {context!r}"
                )
            return self._outcome(key, since)

    def is_ready(self, context: str, filename: str,
                 since: int | None = None) -> bool:
        with self._cond:
            return self._outcome((context, filename), since) is True

    def forget(self, context: str, filename: str) -> None:
        """Stop counting the file's outcomes so far for queries without
        ``since`` (after release, so re-acquires re-wait)."""
        with self._cond:
            self._forgotten[(context, filename)] = self.stamp


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

    def release_many(self, context: str, filenames: list[str]) -> None:
        """Drop the references to several files: every one is released;
        the first failure is raised once all have been tried."""
        first_error = None
        for filename in filenames:
            try:
                self.release(context, filename)
            except SimFSError as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error

    @abc.abstractmethod
    def notify_write_close(self, context: str, filename: str) -> None:
        """Simulator-side: an output file was closed and is ready on disk."""

    @abc.abstractmethod
    def bitrep(self, context: str, filename: str, path: str | None = None) -> bool:
        """Compare a file against the recorded initial-run checksum."""

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
        since = self.ready_table.stamp
        info = self.open(context, filename)
        if info.available:
            return
        ok = self.ready_table.wait(context, filename, timeout, since)
        if not ok:
            raise RestartFailedError(
                f"re-simulation for {filename!r} failed (context {context!r})"
            )

    def __enter__(self) -> "DVConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------- #
#: Channel counters :meth:`TcpConnection.wire_stats` sums.
_WIRE_KEYS = ("frames_sent", "bytes_sent", "frames_recv", "bytes_recv")


class TcpConnection(DVConnection):
    """DVLib over the TCP wire protocol.

    The ``hello`` handshake is one newline-JSON line each way; every
    frame after it is binary.  A DV whose hello reply does not grant the
    binary codec is refused with :class:`ProtocolError`.

    **The owner is the door.**  Given one address, the connection learns
    the ring from the ``cluster`` view every cluster node's hello reply
    carries, and :meth:`attach` dials the context's owner (same
    ``client_id``, same ready table) when that is not the node dialled
    first.  From then on every op naming the context is one dict lookup
    away from its channel.  The first node stays open as the admin
    channel (``stats``, ``cluster``, :meth:`call`) and as the fallback
    door: an owner that cannot be dialled — refused, or inside its
    :class:`~repro.cluster.link.DialBackoff` window — is reached through
    it, and it forwards.  A plain :class:`~repro.dv.server.DVServer`
    carries no view, and a context the first node owns needs no second
    socket.

    When an owner channel tears, RPCs in flight on it raise
    :class:`DVConnectionLost` (they may have executed: nothing is
    re-sent), and its contexts are routed anew at once: one ``cluster``
    call on the first channel refreshes the view, the context is
    re-attached on its new route, and opens still blocked on a ``ready``
    are re-issued there.  A stale view costs a hop, never correctness:
    every node forwards.  No redirect hint travels on the wire — the
    view in the hello reply is all a client learns from.

    ``trace`` opts requests into distributed tracing: ``True`` traces
    every request, a float in ``(0, 1]`` head-samples that fraction.
    Tracing is negotiated during ``hello``; sampled requests carry a
    compact trace context the DV chain propagates hop by hop.
    :attr:`last_trace_id` holds the trace id of the most recent sampled
    request for ``simfs-ctl trace``.

    ``owner_dial`` is a test seam, not an option: the factory owner
    channels are dialled with (:class:`~repro.dv.channel.RpcChannel`'s
    signature), so a test can make an owner unreachable and drive the
    forwarding fallback.
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
        owner_dial=RpcChannel,
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
        self._owner_dial = owner_dial
        self._reqs = itertools.count(1)
        self._closed = False
        #: Extra fields the daemon attached to its hello reply (a cluster
        #: node reports its ring/membership view here).
        self.server_info: dict = {}
        # Routing state, changed under _lock (the op paths only read it):
        # the view's ring and node addresses, one channel per owner
        # dialled, the channel each attached context's ops take, and the
        # channel each blocked open waits on.
        self._lock = threading.RLock()
        self._ring: HashRing | None = None
        self._addrs: dict[str, tuple[str, int]] = {}
        self._entry_id: str | None = None
        self._owners: dict[str, RpcChannel] = {}
        self._routes: dict[str, RpcChannel] = {}
        self._waits: dict[tuple[str, str], RpcChannel] = {}
        self._dial_backoff = DialBackoff(base=0.1, cap=2.0)
        # Counters of channels already replaced: wire_stats stays cumulative.
        self._retired = dict.fromkeys(_WIRE_KEYS, 0)
        # Idle data-port connections, reused by fetch_file/fetch_context.
        self._data = DataClientPool()
        self._entry = self._connect()

    def _connect(self, deadline: float | None = None) -> RpcChannel:
        """Dial the address this connection was given and learn the view
        its hello reply carries."""
        channel = self._dial(RpcChannel, self._host, self._port, deadline)
        reply = channel.hello_reply
        self._trace_granted = bool(reply.get("trace"))
        self.server_info = {
            key: value for key, value in reply.items()
            if key not in ("op", "req", "error", "detail")
        }
        self._learn(self.server_info.get("cluster"))
        return channel

    def _dial(
        self, dial, host: str, port: int, deadline: float | None = None,
        on_down=None,
    ) -> RpcChannel:
        """One channel to ``host:port`` under this client's id, its
        refusals mapped to the local exceptions.  ``deadline`` (reconnect
        path) allows brief retries of a "client_id already connected"
        rejection while the daemon finishes tearing down our previous
        connection."""
        hello = {"op": "hello", "req": 0, "client_id": self.client_id,
                 "vers": PROTOCOL_VERSION, "codec": CODEC_BINARY}
        if self._trace_rate > 0.0:
            hello["trace"] = 1
        while True:
            try:
                return dial(
                    host, port, hello,
                    on_frame=self._on_frame, on_down=on_down,
                    connect_timeout=self._connect_timeout,
                )
            except HelloRefused as exc:
                reply = exc.reply
                if not reply or reply.get("op") != "reply":
                    raise
                if not reply.get("error"):
                    raise ProtocolError(
                        f"DV at {host}:{port} did not grant the binary "
                        f"codec (hello reply: {reply!r})"
                    ) from None
                error = _error_from_code(reply["error"], reply.get("detail", ""))
                if (
                    deadline is None or DETAIL_ALREADY_CONNECTED not in str(error)
                    or time.monotonic() >= deadline
                ):
                    raise error from None
            # Reconnect race: the daemon releases a dead connection's
            # client_id asynchronously (worker-pool cleanup); ours may
            # still be reserved for a few milliseconds.
            time.sleep(0.05)

    @property
    def address(self) -> tuple[str, int]:
        """The daemon address this connection dials."""
        return (self._host, self._port)

    @property
    def is_lost(self) -> bool:
        """True once the link to the address given died (or the
        connection was closed); :meth:`reconnect` clears it."""
        return self._closed or self._entry.closed

    def reconnect(self) -> None:
        """Re-dial the daemon: fresh socket, fresh ``hello`` handshake,
        fresh view; owner channels are dropped.

        The client_id and the ready table survive, so a
        :class:`~repro.client.api.SimFSSession` can re-register its
        context and resume after a daemon restart or failover.  RPCs that
        were in flight when the link died have already failed with
        :class:`DVConnectionLost`; callers re-issue them.
        """
        if self._closed:
            raise DVConnectionLost("connection is closed")
        with self._lock:
            for channel in (self._entry, *self._owners.values()):
                channel.close()
            for channel in self._owners.values():
                self._retire(channel)
            self._owners.clear()
            self._routes.clear()
            self._waits.clear()
            entry = self._connect(deadline=time.monotonic() + 5.0)
            self._retire(self._entry)
            self._entry = entry

    def wire_stats(self) -> dict:
        """Client-side wire counters (frames/bytes in each direction),
        summed over every channel this connection opened."""
        with self._lock:
            totals = dict(self._retired)
            channels = (self._entry, *self._owners.values())
        for channel in channels:
            for key in _WIRE_KEYS:
                totals[key] += getattr(channel, key)
        return {"codec": CODEC_BINARY, **totals}

    # -- routing ------------------------------------------------------------#
    def _learn(self, view) -> None:
        """Adopt a cluster view (hello reply or ``cluster`` op): the ring
        rebuilt from its live nodes and pins, the way the daemons build
        theirs, so client and daemons agree on owners."""
        if not isinstance(view, dict):
            return
        ring = HashRing(int(view.get("vnodes", 16)))
        addrs: dict[str, tuple[str, int]] = {}
        for node in view.get("nodes", ()):
            node_id = node.get("id")
            if node.get("alive", True) and isinstance(node_id, str):
                ring.add_node(node_id)
                addrs[node_id] = (str(node.get("host")), int(node.get("port")))
        for name, target in (view.get("pins") or {}).items():
            if isinstance(target, str) and target in ring:
                ring.pin(str(name), target)
        if len(ring):
            self._ring, self._addrs = ring, addrs
            self._entry_id = view.get("self")

    def _door(self, context: str) -> RpcChannel:
        """The channel ``context``'s ops should take (lock held): its
        owner's, dialled if need be — or the first channel when there is
        no view, the first node owns the context, or the owner cannot be
        dialled now."""
        owner = self._ring.owner(context) if self._ring is not None else None
        if owner is None or owner == self._entry_id or owner not in self._addrs:
            return self._entry
        channel = self._owners.get(owner)
        if channel is not None and not channel.closed:
            return channel
        if not self._dial_backoff.ready(owner):
            return self._entry
        try:
            fresh = self._dial(
                self._owner_dial, *self._addrs[owner],
                on_down=self._channel_down,
            )
        except SimFSError:
            self._dial_backoff.failed(owner)
            return self._entry
        self._dial_backoff.succeeded(owner)
        if channel is not None:
            self._retire(channel)
        self._owners[owner] = fresh
        if self._closed:  # close() raced the dial: it may not have seen it
            fresh.close()
            raise ConnectionLostError("connection is closed")
        return fresh

    def _retire(self, channel: RpcChannel) -> None:
        for key in _WIRE_KEYS:
            self._retired[key] += getattr(channel, key)

    def _reroute(self, context) -> RpcChannel:
        """The slow path of every op: its channel is gone."""
        with self._lock:
            channel = self._routes.get(context, self._entry)
            if channel.closed:
                channel = self._move(context, channel)
            return channel

    def _move(self, context, dead: RpcChannel) -> RpcChannel:
        """Route an attached context whose channel died anew (lock held):
        refresh the view, re-attach on the new route and re-issue the
        opens that were blocked on the dead channel."""
        if self._closed:
            raise ConnectionLostError("connection is closed")
        if self._entry.closed:
            raise DVConnectionLost("DV connection lost (reconnect to resume)")
        self._learn(self._call_on(self._entry, {"op": "cluster"}).get("cluster"))
        channel = self._door(context)
        try:
            self._call_on(channel, {"op": "attach", "context": context})
        except InvalidArgumentError as exc:
            # A promoted or migrated owner restored our attachment with
            # the context's state.
            if DETAIL_ALREADY_ATTACHED not in str(exc):
                raise
        self._routes[context] = channel
        for (waited, filename), waited_on in list(self._waits.items()):
            if waited == context and waited_on is dead:
                self._reopen(channel, context, filename)
        return channel

    def _reopen(self, channel: RpcChannel, context: str, filename: str) -> None:
        since = self.ready_table.stamp
        try:
            reply = self._call_on(
                channel, {"op": "open", "context": context, "file": filename}
            )
        except ConnectionLostError:
            raise
        except SimFSError:
            self._ready(context, filename, False)
            return
        if not reply["available"]:
            self._wait(channel, context, filename, since)
        else:  # produced while no channel could carry its ready
            self._ready(context, filename, True)

    def _channel_down(self, channel: RpcChannel) -> None:
        """An owner channel was lost (called on its reader thread, on the
        way out): its contexts move now, not at their next op — a client
        blocked on a ``ready`` issues no op, and its open must be
        re-issued where the ready can come from.  (Losing the first
        channel loses the connection: ops raise until :meth:`reconnect`.)"""
        delay = 0.05
        while not self._closed and not self._entry.closed:
            try:
                with self._lock:
                    for context, routed in list(self._routes.items()):
                        if routed is channel:
                            self._move(context, channel)
                return
            except ConnectionLostError:
                time.sleep(delay)
                delay = min(2 * delay, 2.0)
            except SimFSError:
                # Nobody serves the context any more: fail its waits.
                for key, waited_on in list(self._waits.items()):
                    if waited_on is channel:
                        self._ready(*key, False)
                return

    def _on_frame(self, message: dict) -> None:
        """Every channel's unsolicited frames: ``ready`` notifications."""
        if message.get("op") == "ready":
            self._ready(
                message["context"], message["file"], bool(message.get("ok", True))
            )

    def _ready(self, context: str, filename: str, ok: bool) -> None:
        self._waits.pop((context, filename), None)
        self.ready_table.record(context, filename, ok)

    def _wait(self, channel: RpcChannel, context: str, filename: str,
              since: int) -> None:
        """Remember which channel an open sent after ``since`` blocked on
        (a ready that beat the reply has already resolved it)."""
        key = (context, filename)
        self._waits[key] = channel
        if self.ready_table.is_ready(context, filename, since):
            self._waits.pop(key, None)

    # -- plumbing ----------------------------------------------------------#
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

    def _rpc(self, message: dict, context=None, timeout: float = 60.0) -> dict:
        """Send ``message`` on ``context``'s channel (the first channel
        when ``context`` is None or not attached)."""
        if self._closed:
            raise ConnectionLostError("connection is closed")
        channel = self._routes.get(context, self._entry)
        if channel.closed:
            channel = self._reroute(context)
        if "tc" not in message:
            tc = self._next_tc()
            if tc is not None:
                message["tc"] = tc
        return self._call_on(channel, message, timeout)

    def _call_on(
        self, channel: RpcChannel, message: dict, timeout: float = 60.0
    ) -> dict:
        req = next(self._reqs)
        message["req"] = req
        return self._roundtrip(channel, req, encode_binary(message), timeout)

    @staticmethod
    def _roundtrip(
        channel: RpcChannel, req: int, data: bytes, timeout: float = 60.0
    ) -> dict:
        """Ship one pre-encoded request frame and await its reply."""
        reply = channel.request(req, data, timeout)
        error = reply.get("error", 0)
        if error:
            raise _error_from_code(error, reply.get("detail", ""))
        return reply

    def call(self, message: dict, timeout: float = 60.0) -> dict:
        """Generic RPC on the first channel: send any op-bearing message,
        return its reply.

        The escape hatch for service-level ops outside the classic DVLib
        surface (``{"op": "cluster"}``, future admin ops).
        """
        return self._rpc(dict(message), timeout=timeout)

    # -- interface ----------------------------------------------------------#
    def attach(self, context: str) -> None:
        with self._lock:
            channel = self._door(context)
        self._call_on(channel, {"op": "attach", "context": context})
        self._routes[context] = channel

    def finalize(self, context: str) -> None:
        self._rpc({"op": "finalize", "context": context}, context)
        self._routes.pop(context, None)
        for key in [k for k in self._waits if k[0] == context]:
            self._waits.pop(key, None)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for channel in (self._entry, *list(self._owners.values())):
            channel.close()
        self._data.close()

    def open(self, context: str, filename: str) -> FileInfo:
        # The transparent path's hottest RPC: packed straight from the
        # fields, skipping the dict round-trip.
        if self._closed:
            raise ConnectionLostError("connection is closed")
        channel = self._routes.get(context, self._entry)
        if channel.closed:
            channel = self._reroute(context)
        since = self.ready_table.stamp
        req = next(self._reqs)
        reply = self._roundtrip(
            channel, req,
            encode_open_request(
                req, context, filename, CODEC_BINARY, tc=self._next_tc()
            ),
        )
        if not reply["available"]:
            self._wait(channel, context, filename, since)
        return FileInfo(
            filename=filename,
            available=bool(reply["available"]),
            state=FileState(reply["state"]),
            estimated_wait=float(reply["wait"]),
        )

    def _pipeline(self, op: str, context: str, filenames: list[str]):
        """One ``op`` per file, pipelined on ``context``'s channel: its
        frames leave in one write (a daemon runs them as one run) and
        every reply is awaited.  Returns the channel and the replies."""
        if self._closed:
            raise ConnectionLostError("connection is closed")
        channel = self._routes.get(context, self._entry)
        if channel.closed:
            channel = self._reroute(context)
        tc = self._next_tc()
        reqs = [next(self._reqs) for _ in filenames]
        frames = []
        for req, filename in zip(reqs, filenames):
            message = {"op": op, "req": req, "context": context, "file": filename}
            if tc is not None:
                message["tc"] = tc
            frames.append(encode_binary(message))
        return channel, channel.pipeline(reqs, b"".join(frames), 60.0)

    def acquire(self, context: str, filenames: list[str]) -> list[FileInfo]:
        """``SIMFS_Acquire``: an ``open`` per file, pipelined.  Every file
        is asked for; the first that failed raises once all replies are in."""
        since = self.ready_table.stamp
        channel, replies = self._pipeline("open", context, filenames)
        _raise_first(replies)
        infos = []
        for filename, reply in zip(filenames, replies):
            if not reply["available"]:
                self._wait(channel, context, filename, since)
            infos.append(FileInfo(
                filename=filename,
                available=bool(reply["available"]),
                state=FileState(reply["state"]),
                estimated_wait=float(reply["wait"]),
            ))
        return infos

    def release(self, context: str, filename: str) -> None:
        self._rpc({"op": "release", "context": context, "file": filename}, context)
        self._waits.pop((context, filename), None)
        self.ready_table.forget(context, filename)

    def release_many(self, context: str, filenames: list[str]) -> None:
        """A ``release`` per file, pipelined: every file is released; the
        first failure is raised once all replies are in."""
        _channel, replies = self._pipeline("release", context, filenames)
        for filename, reply in zip(filenames, replies):
            if not reply.get("error"):
                self._waits.pop((context, filename), None)
                self.ready_table.forget(context, filename)
        _raise_first(replies)

    def notify_write_close(self, context: str, filename: str) -> None:
        self._rpc({"op": "wclose", "context": context, "file": filename}, context)

    def bitrep(self, context: str, filename: str, path: str | None = None) -> bool:
        message = {"op": "bitrep", "context": context, "file": filename}
        if path is not None:
            message["path"] = path
        return bool(self._rpc(message, context)["matches"])

    def stats(self) -> dict:
        return dict(self._rpc({"op": "stats"})["stats"])

    # -- bulk data plane ---------------------------------------------------#
    def fetch_info(self, context: str, filename: str | None = None) -> dict:
        """Ask the control plane where a context file can be pulled from.

        Asked on the context's channel: its owner answers, or a node that
        forwards the question to the owner, so the reply's ``data_host``/
        ``data_port`` name the owner's data plane.  Without ``filename``
        the reply enumerates the context's available output files.
        """
        message = {"op": "fetch_info", "context": context}
        if filename is not None:
            message["file"] = filename
        return self._rpc(message, context)

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

        One ``fetch_info`` names the data port, and the fetch runs on a
        connection to it this client keeps between fetches (see
        :class:`repro.data.client.DataClientPool`).  The transfer is
        chunked, resumable (a leftover ``dest.part`` from an interrupted
        pull continues from its offset) and verified against the
        server's whole-file SHA-256 before the rename into place.
        Returns a :class:`repro.data.client.FetchResult`.
        """
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
        return self._data.fetch(
            host, port, timeout, context, filename, dest,
            resume=resume, tc=self._next_tc(),
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
        for name in names:
            results[name] = self._data.fetch(
                host, port, timeout, context, name,
                os.path.join(dest_dir, name), resume=resume, tc=tc,
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

    def stats(self) -> dict:
        return self._coordinator.stats_snapshot()

    def storage_path(self, context: str, filename: str) -> str:
        return self._server.storage_path(context, filename)

    def restart_dir(self, context: str) -> str:
        return self._server.launcher.restart_dir(context)


def _raise_first(replies: list[dict]) -> None:
    """Raise the error of the first reply that carries one."""
    for reply in replies:
        if reply.get("error"):
            raise _error_from_code(reply["error"], reply.get("detail", ""))


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
