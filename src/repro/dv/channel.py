"""One dialled wire connection: the request/reply multiplexer.

An :class:`RpcChannel` is the client half of a DV wire connection.  It
dials, runs the newline-JSON ``hello`` (``connect_timeout`` stays on the
socket until the reply is read: a wedged daemon's backlog still
completes the TCP connect), then owns the socket's reader thread.  The
thread matches every frame carrying a ``req`` to the call waiting on it
and hands every other frame — a ``ready`` for DVLib, a routed ``fwd``
for a peer link — to one ``on_frame`` callback.  However the loop ends
(EOF, a torn socket, a frame it cannot digest, a callback that raises),
the channel closes, every outstanding call fails with
:class:`~repro.core.errors.DVConnectionLost`, and — unless the owner
closed it — ``on_down(channel)`` fires, once.

DVLib's :class:`~repro.client.dvlib.TcpConnection` holds one channel per
daemon it talks to, and the cluster's
:class:`~repro.cluster.link.PeerLink` *is* one; a wire change (a hello
field, a framing rule, a failure mode) lands here once.
"""

from __future__ import annotations

import itertools
import socket
import threading
from collections.abc import Callable

from repro.core.errors import DVConnectionLost, SimFSError
from repro.dv.protocol import (
    CODEC_BINARY,
    MessageReader,
    encode_binary,
    send_message,
)

__all__ = ["HelloRefused", "ReplyTimeout", "RpcChannel"]


class HelloRefused(DVConnectionLost):
    """The far end answered the hello without granting the connection
    (an error reply, no binary codec, or no reply at all); ``reply`` is
    what it said (``None`` when it said nothing)."""

    def __init__(self, what: str, reply: dict | None) -> None:
        super().__init__(f"{what} rejected the hello: {reply!r}")
        self.reply = reply


class ReplyTimeout(DVConnectionLost):
    """No reply within the call's timeout.

    Distinct from a torn channel on purpose: a slow far end (workers
    parked on PFS I/O) is *not* evidence that it died, and the request
    may still execute there, so a caller must never re-send it."""


class RpcChannel:
    """A negotiated binary-codec connection with its reader thread.

    ``hello`` is sent as given.  ``what`` names the far end in error
    messages (``"DV"``, ``"peer 'n2'"``).  The frame and byte counters
    mirror the daemon's wire counters from this end.
    """

    def __init__(
        self,
        host: str,
        port: int,
        hello: dict,
        *,
        on_frame: Callable[[dict], None] | None = None,
        on_down: Callable[["RpcChannel"], None] | None = None,
        connect_timeout: float = 10.0,
        what: str = "DV",
    ) -> None:
        self.what = what
        #: True once the channel is gone (closed here or lost); a plain
        #: attribute, so a caller's liveness check costs no call.
        self.closed = False
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_recv = 0
        self._on_frame = on_frame
        self._on_down = on_down
        self._reqs = itertools.count(1)
        # req -> [lock held until the reply lands, reply]
        self._waiters: dict = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        try:
            self.sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise DVConnectionLost(
                f"cannot reach {what} at {host}:{port}: {exc}"
            ) from exc
        # Request/reply frames are tiny: Nagle's algorithm only adds
        # latency to every round trip.
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        try:
            send_message(self.sock, hello)
            self._reader = MessageReader(self.sock)
            reply = self._reader.read_message()
        except (OSError, SimFSError) as exc:
            self._abandon()
            raise DVConnectionLost(
                f"handshake with {what} at {host}:{port} failed: {exc}"
            ) from exc
        if (
            reply is None or reply.get("op") != "reply"
            or reply.get("error") or reply.get("codec") != CODEC_BINARY
        ):
            self._abandon()
            raise HelloRefused(f"{what} at {host}:{port}", reply)
        self.sock.settimeout(None)
        self._reader.set_codec(CODEC_BINARY)
        #: The hello reply (a cluster node appends its ring view here).
        self.hello_reply = reply
        self._thread = threading.Thread(
            target=self._listen,
            name=f"rpc-{hello.get('client_id')}@{host}:{port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def bytes_recv(self) -> int:
        return self._reader.bytes_read

    # ------------------------------------------------------------------ #
    def _listen(self) -> None:
        reader, waiters, lock = self._reader, self._waiters, self._lock
        try:
            while True:
                message = reader.read_message()
                if message is None:
                    break
                self.frames_recv += 1
                req = message.get("req")
                if req is None:
                    if self._on_frame is not None:
                        self._on_frame(message)
                    continue
                with lock:
                    waiter = waiters.pop(req, None)
                if waiter is not None:
                    waiter[1] = message
                    waiter[0].release()
        except Exception:
            pass  # a frame this code cannot digest loses the channel too
        finally:
            # Nobody reads this socket any more: close it before failing
            # the calls in flight, so one racing in fails on its send
            # instead of waiting out its timeout.
            lost = not self.closed
            self.close()
            if lost and self._on_down is not None:
                self._on_down(self)

    def _fail_outstanding(self) -> None:
        with self._lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter[0].release()  # reply stays None: the channel is gone

    # ------------------------------------------------------------------ #
    def call(self, message: dict, timeout: float = 10.0) -> dict:
        """Request/reply round trip for ``message`` (a fresh ``req`` is
        set on a copy); raises :class:`DVConnectionLost` when the channel
        dies and :class:`ReplyTimeout` when the far end stops answering."""
        req = next(self._reqs)
        message = dict(message)
        message["req"] = req
        return self.request(req, encode_binary(message), timeout)

    def request(self, req: int, data: bytes, timeout: float) -> dict:
        """Ship one pre-encoded request frame carrying ``req`` and wait
        for its reply.  A caller that numbers its own requests sends them
        all this way: mixed with :meth:`call`, two counters would hand
        out one ``req`` twice."""
        if self.closed:
            raise DVConnectionLost(f"{self.what} connection is closed")
        done = threading.Lock()
        done.acquire()
        waiter = [done, None]
        with self._lock:
            self._waiters[req] = waiter
        try:
            self._write(data)
        except DVConnectionLost:
            with self._lock:
                self._waiters.pop(req, None)
            raise
        if not done.acquire(timeout=timeout):
            with self._lock:
                self._waiters.pop(req, None)
            raise ReplyTimeout(
                f"{self.what} did not answer within {timeout}s"
            )
        if waiter[1] is None:
            raise DVConnectionLost(f"{self.what} connection lost mid-request")
        return waiter[1]

    def send(self, message: dict) -> None:
        """One-way frame (no reply expected)."""
        self._write(encode_binary(message))

    def _write(self, data: bytes) -> None:
        try:
            with self._send_lock:
                self.sock.sendall(data)
                self.frames_sent += 1
                self.bytes_sent += len(data)
        except OSError as exc:
            raise DVConnectionLost(
                f"{self.what} connection lost: {exc}"
            ) from exc

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # shutdown() (not just close()) is required: the reader thread is
        # blocked in recv() on this socket, which keeps the kernel-side
        # file description alive — a bare close() would neither wake it
        # nor send the FIN the far end needs to clean up this client.
        self._abandon()
        self._fail_outstanding()

    def _abandon(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
