"""One dialled wire connection: the request/reply multiplexer.

An :class:`RpcChannel` is the client half of a DV wire connection.  It
dials and runs the newline-JSON ``hello`` (``connect_timeout`` stays on
the socket until the reply is read: a wedged daemon's backlog still
completes the TCP connect).  After that one request table and one frame
dispatch serve it: every frame carrying a ``req`` settles the request
waiting on it, and every other frame — a ``ready`` for DVLib, a routed
``fwd`` for a peer link — goes to one ``on_frame`` callback.  What
feeds the dispatch is the channel's reader: its own thread (DVLib's
connections), or, given a node's :class:`~repro.dv.loop.EventLoop`, that
loop's I/O thread (a cluster node's peer links), which then also sends
what the kernel does not take at once.  However reading ends (EOF, a
torn socket, a frame it cannot digest, a callback that raises), the
channel closes, every outstanding request fails with
:class:`~repro.core.errors.DVConnectionLost`, and — unless the owner
closed it — ``on_down(channel)`` fires, once (on a loop's worker, for a
channel on a loop).

A request waits one of two ways: :meth:`RpcChannel.call` and its kin
block the calling thread, and :meth:`RpcChannel.start` — on a loop's
I/O thread only — hands the reply to a callback there, so nothing
waits; its timeout is a deadline on the loop, one armed timer per
channel.  A blocking call on that I/O thread would wait on itself: it
raises instead.

DVLib's :class:`~repro.client.dvlib.TcpConnection` holds one channel per
daemon it talks to, and the cluster's
:class:`~repro.cluster.link.PeerLink` *is* one; a wire change (a hello
field, a framing rule, a failure mode) lands here once.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading
import time
from collections.abc import Callable

from repro.core.errors import DVConnectionLost, SimFSError
from repro.dv.protocol import (
    CODEC_BINARY,
    MessageReader,
    encode_binary,
    send_message,
)

__all__ = ["HelloRefused", "ReplyTimeout", "RpcChannel"]

_RECV_SIZE = 65536


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


class _Waiter:
    """A blocked caller's entry in the request table: the reply, or the
    :class:`DVConnectionLost` that ended the wait, releases ``done``."""

    __slots__ = ("done", "reply")

    def __init__(self) -> None:
        self.done = threading.Lock()
        self.done.acquire()
        self.reply = None

    def __call__(self, reply) -> None:
        self.reply = reply
        self.done.release()


class RpcChannel:
    """A negotiated binary-codec connection and its request table.

    ``hello`` is sent as given.  ``what`` names the far end in error
    messages (``"DV"``, ``"peer 'n2'"``).  With ``loop`` the loop reads
    and writes the socket; without, a thread of its own reads it.  The
    frame and byte counters mirror the daemon's wire counters from this
    end.
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
        loop=None,
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
        self._loop = loop
        self._reqs = itertools.count(1)
        # req -> what takes its reply (or the DVConnectionLost ending it)
        self._waiters: dict = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        # On a loop: what the kernel has not taken yet, the socket's
        # selector interest, and the deadlines of :meth:`start`'s
        # requests with whether a timer is armed for them (I/O thread).
        self._out = bytearray()
        self._mask = 0
        self._deadlines: dict[int, float] = {}
        self._armed = False
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
            reader = MessageReader(self.sock)
            reply = reader.read_message()
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
        reader.set_codec(CODEC_BINARY)
        #: The hello reply (a cluster node appends its ring view here).
        self.hello_reply = reply
        self._decoder = reader.decoder
        if loop is not None:
            self.sock.setblocking(False)
            loop.call_soon(self._sync)  # until then, the kernel buffers
            return
        self.sock.settimeout(None)
        self._reader = reader
        self._thread = threading.Thread(
            target=self._listen,
            name=f"rpc-{hello.get('client_id')}@{host}:{port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def bytes_recv(self) -> int:
        return self._decoder.bytes_fed

    # ------------------------------------------------------------------ #
    # Frames in: the one dispatch, and its two readers
    # ------------------------------------------------------------------ #
    def _dispatch(self, message: dict) -> None:
        self.frames_recv += 1
        req = message.get("req")
        if req is None:
            if self._on_frame is not None:
                self._on_frame(message)
            return
        self._deadlines.pop(req, None)
        with self._lock:
            waiter = self._waiters.pop(req, None)
        if waiter is not None:
            waiter(message)

    def _listen(self) -> None:
        reader, dispatch = self._reader, self._dispatch
        try:
            while (message := reader.read_message()) is not None:
                dispatch(message)
        except Exception:
            pass  # a frame this code cannot digest loses the channel too
        # Nobody reads this socket any more: close it before failing the
        # calls in flight, so one racing in fails on its send instead of
        # waiting out its timeout.
        self._lost()

    def _readable(self, _arg) -> None:
        """The loop's reader: what one ``recv`` returned, dispatched."""
        try:
            chunk = self.sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if chunk and not self.closed:
            self._decoder.feed(chunk)
            try:
                for message in self._decoder.drain():
                    self._dispatch(message)
                return
            except Exception:
                pass  # as in _listen
        self._lost()

    def _lost(self) -> None:
        lost = not self.closed
        self.close()
        if lost and self._on_down is not None:
            if self._loop is None:
                self._on_down(self)
            else:  # it may take locks the I/O thread must not wait on
                self._loop.submit(self._on_down, self)

    def _fail_outstanding(self) -> None:
        with self._lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter(DVConnectionLost(f"{self.what} connection lost mid-request"))

    # ------------------------------------------------------------------ #
    # Requests
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
        all this way (or :meth:`pipeline`): mixed with :meth:`call`, two
        counters would hand out one ``req`` twice."""
        return self.pipeline((req,), data, timeout)[0]

    def pipeline(self, reqs, data: bytes, timeout: float) -> list[dict]:
        """Ship several pre-encoded request frames — ``data``, carrying
        ``reqs`` in order — in one write and wait for all their replies,
        returned in ``reqs`` order.  ``timeout`` bounds the whole wait."""
        if self._loop is not None and self._loop.on_io_thread():
            raise RuntimeError(
                f"a blocking call to {self.what} on the event loop's I/O "
                "thread would wait on itself"
            )
        if self.closed:
            raise DVConnectionLost(f"{self.what} connection is closed")
        waiters = [_Waiter() for _req in reqs]
        with self._lock:
            self._waiters.update(zip(reqs, waiters))
        try:
            self._write(data, len(waiters))
            deadline = time.monotonic() + timeout
            for waiter in waiters:
                if not waiter.done.acquire(
                    timeout=max(0.0, deadline - time.monotonic())
                ):
                    raise ReplyTimeout(
                        f"{self.what} did not answer within {timeout}s"
                    )
                if isinstance(waiter.reply, DVConnectionLost):
                    raise waiter.reply
        except DVConnectionLost:
            with self._lock:
                for req in reqs:
                    self._waiters.pop(req, None)
            raise
        return [waiter.reply for waiter in waiters]

    def start(
        self, message: dict, timeout: float, on_reply: Callable[[object], None]
    ) -> None:
        """On the loop's I/O thread: send ``message`` with a fresh
        ``req`` and return.  ``on_reply`` then runs once: on the I/O
        thread with the reply, or with :class:`ReplyTimeout` once
        ``timeout`` passed; or with :class:`DVConnectionLost` on whichever
        thread loses the channel.  Never inside this call: a failed send
        is found by the reader.  Raises, with nothing sent, what encoding
        ``message`` raises, and :class:`DVConnectionLost` on a closed
        channel."""
        req = next(self._reqs)
        data = encode_binary({**message, "req": req})
        if self.closed:
            raise DVConnectionLost(f"{self.what} connection is closed")
        with self._lock:
            self._waiters[req] = on_reply
        self._deadlines[req] = time.monotonic() + timeout
        self._arm()
        try:
            self._write(data)
        except DVConnectionLost:
            pass  # the socket is shut down: the reader fails the request

    def _arm(self) -> None:
        """One timer per channel, at the earliest deadline (I/O thread)."""
        if not self._armed and self._deadlines:
            self._armed = True
            self._loop.call_at(min(self._deadlines.values()), self._expire)

    def _expire(self) -> None:
        self._armed = False
        now = time.monotonic()
        for req in [r for r, due in self._deadlines.items() if due <= now]:
            del self._deadlines[req]
            with self._lock:
                waiter = self._waiters.pop(req, None)
            if waiter is not None:
                waiter(ReplyTimeout(f"{self.what} did not answer in time"))
        self._arm()

    def send(self, message: dict) -> None:
        """One-way frame (no reply expected)."""
        self._write(encode_binary(message))

    # ------------------------------------------------------------------ #
    # Frames out
    # ------------------------------------------------------------------ #
    def _write(self, data: bytes, frames: int = 1) -> None:
        try:
            with self._send_lock:
                if self._loop is None:
                    self.sock.sendall(data)
                elif self._out:
                    self._out += data  # behind the backlog the loop sends
                else:
                    try:
                        sent = self.sock.send(data)
                    except BlockingIOError:
                        sent = 0
                    if sent < len(data):
                        self._out += memoryview(data)[sent:]
                        self._loop.call_soon(self._sync)
                self.frames_sent += frames
                self.bytes_sent += len(data)
        except OSError as exc:
            if self._loop is not None:
                self._shut()
            raise DVConnectionLost(
                f"{self.what} connection lost: {exc}"
            ) from exc

    def _writable(self, _arg) -> None:
        """The loop sends what the kernel did not take before."""
        with self._send_lock:
            try:
                del self._out[:self.sock.send(self._out)]
            except BlockingIOError:
                return
            except OSError:
                self._out.clear()
                self._shut()
        self._sync()

    def _shut(self) -> None:
        """A send failed on the loop: its reader sees the end and loses
        the channel, the one place that does."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _sync(self) -> None:
        """On the loop: read, and write while output is left over."""
        if not self.closed:
            mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._out else 0)
            self._mask = self._loop.watch(
                self.sock, self._mask, mask, (self._readable, self._writable, None)
            )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._loop is None:
            # shutdown() (not just close()) is required: the reader
            # thread is blocked in recv() on this socket, which keeps the
            # kernel-side file description alive — a bare close() would
            # neither wake it nor send the FIN the far end needs to clean
            # up this client.
            self._abandon()
        else:
            # The loop owns the selector entry: it unwatches and closes
            # the socket (at its stop at the latest).
            self._loop.call_soon(self._drop)
        self._fail_outstanding()

    def _drop(self) -> None:
        self._mask = self._loop.drop(self.sock, self._mask)

    def _abandon(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
