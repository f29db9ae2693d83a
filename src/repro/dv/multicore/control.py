"""Supervisor <-> executor control plane.

Each executor process keeps exactly one :class:`ControlChannel` to the
supervisor: a Unix socketpair created before the fork, carrying binary
wire-codec frames (:mod:`repro.dv.protocol`) in both directions.  The
channel is symmetric — either side issues requests (``req`` / a
``ctl.reply`` frame echoing ``reply_to``) and one-way frames; incoming
requests are dispatched on their own threads so a blocked handler (the
supervisor fanning a ``ctl.stats`` query back out to every executor,
including the one that asked) can never deadlock the channel.

EOF or a socket error fires ``on_down`` exactly once and fails every
outstanding call with :class:`~repro.core.errors.DVConnectionLost`; the
supervisor treats that as the executor's death certificate (a ``kill
-9`` closes the socketpair's far end immediately, long before a missed
heartbeat would).
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
from collections.abc import Callable

from repro.core.errors import DVConnectionLost, SimFSError
from repro.dv.protocol import CODEC_BINARY, StreamDecoder, encode_frame

__all__ = [
    "CTL_HELLO",
    "CTL_RING",
    "CTL_PING",
    "CTL_STATS",
    "CTL_STATS_ALL",
    "CTL_OBS",
    "CTL_OBS_ALL",
    "CTL_DRAIN",
    "CTL_STOP",
    "CTL_DEACTIVATE",
    "CTL_REPLY",
    "ControlChannel",
]

#: Executor -> supervisor, one-way: ``{executor, pid, path}`` — sent once
#: after the executor's listeners are up; unblocks the spawn barrier.
CTL_HELLO = "ctl.hello"
#: Supervisor -> executor, request: ``{epoch, executors: {id: path},
#: active: [context, ...]}`` — the authoritative membership + activation
#: view.  The executor reconciles before replying; stranded waiter
#: replays run after the reply so serial broadcasts cannot deadlock.
CTL_RING = "ctl.ring"
#: Supervisor -> executor, request: liveness/hang probe.
CTL_PING = "ctl.ping"
#: Supervisor -> executor, request: one executor's stats snapshot.
CTL_STATS = "ctl.stats"
#: Executor -> supervisor, request: the merged all-executor stats payload
#: (what a client's ``stats`` op should see).
CTL_STATS_ALL = "ctl.stats_all"
#: Supervisor -> executor, request: ``{kind: "trace"|"slow", trace_id |
#: limit}`` — one executor's recorded spans for the query.
CTL_OBS = "ctl.obs"
#: Executor -> supervisor, request: the pool-merged span payload (what a
#: client's ``trace`` / ``trace_slow`` op should see).
CTL_OBS_ALL = "ctl.obs_all"
#: Supervisor -> executor, request: ``{timeout}`` — phase one of the
#: graceful stop: close client listeners, drain in-flight work.
CTL_DRAIN = "ctl.drain"
#: Supervisor -> executor, request: phase two — tear down and exit.
CTL_STOP = "ctl.stop"
#: Supervisor -> executor, request (cluster engine mode): ``{context}`` —
#: release a context shard, returning captured waiters for replay.
CTL_DEACTIVATE = "ctl.deactivate"
#: Reply frame for any request: echoes the request's ``req`` as
#: ``reply_to``.
CTL_REPLY = "ctl.reply"

_RECV_SIZE = 65536


class ControlChannel:
    """One side of a supervisor<->executor control socketpair."""

    def __init__(
        self,
        sock: socket.socket,
        handler: Callable[[dict], dict | None] | None = None,
        name: str = "ctl",
        on_down: Callable[[], None] | None = None,
    ) -> None:
        self._sock = sock
        self._sock.setblocking(True)
        self._handler = handler
        self.name = name
        self._on_down = on_down
        self._decoder = StreamDecoder(CODEC_BINARY)
        self._reqs = itertools.count(1)
        self._waiters: dict[int, queue.Queue] = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._closed = False
        self._listener: threading.Thread | None = None

    def start(self) -> None:
        self._listener = threading.Thread(
            target=self._listen, name=f"simfs-{self.name}", daemon=True
        )
        self._listener.start()

    # ------------------------------------------------------------------ #
    def send(self, message: dict) -> None:
        """One-way frame (no reply expected)."""
        data = encode_frame(message, CODEC_BINARY)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            raise DVConnectionLost(
                f"control channel {self.name!r} died on send: {exc}"
            ) from exc

    def call(self, message: dict, timeout: float = 10.0) -> dict:
        """Request/reply round trip; :class:`DVConnectionLost` when the
        channel dies, ``TimeoutError`` when the peer does not answer."""
        if self._closed:
            raise DVConnectionLost(f"control channel {self.name!r} is closed")
        req = next(self._reqs)
        message = dict(message)
        message["req"] = req
        waiter: queue.Queue = queue.Queue(maxsize=1)
        with self._lock:
            self._waiters[req] = waiter
        try:
            self.send(message)
            reply = waiter.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"control peer {self.name!r} did not answer "
                f"{message.get('op')!r} within {timeout}s"
            ) from None
        finally:
            with self._lock:
                self._waiters.pop(req, None)
        if reply is None:
            raise DVConnectionLost(
                f"control channel {self.name!r} died mid-call"
            )
        return reply

    # ------------------------------------------------------------------ #
    def _listen(self) -> None:
        try:
            while not self._closed:
                chunk = self._sock.recv(_RECV_SIZE)
                if not chunk:
                    break
                self._decoder.feed(chunk)
                while True:
                    message = self._decoder.next_message()
                    if message is None:
                        break
                    self._dispatch(message)
        except (OSError, SimFSError):
            pass
        self._fail_outstanding()
        if not self._closed and self._on_down is not None:
            try:
                self._on_down()
            except Exception:
                pass

    def _dispatch(self, message: dict) -> None:
        if message.get("op") == CTL_REPLY:
            with self._lock:
                waiter = self._waiters.pop(message.get("reply_to"), None)
            if waiter is not None:
                waiter.put(message)
            return
        # Each request runs on its own thread: a handler blocking on a
        # round trip back through this very channel (merged stats) must
        # not stall pings, replies or later requests.
        threading.Thread(
            target=self._handle,
            args=(message,),
            name=f"simfs-{self.name}-req",
            daemon=True,
        ).start()

    def _handle(self, message: dict) -> None:
        reply: dict | None = None
        try:
            if self._handler is not None:
                reply = self._handler(message)
        except Exception as exc:
            reply = {"error": 1, "detail": f"{type(exc).__name__}: {exc}"}
        req = message.get("req")
        if req is None or reply is None:
            return
        reply = dict(reply)
        reply["op"] = CTL_REPLY
        reply["reply_to"] = req
        try:
            self.send(reply)
        except DVConnectionLost:
            pass

    def _fail_outstanding(self) -> None:
        with self._lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter.put(None)

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

