"""Selector-based bulk data server: the node's data port.

One ``DataServer`` runs next to each DV daemon (or cluster node) on its
own port.  It speaks the control port's binary frames
(:mod:`repro.dv.protocol`), with no ``hello``: requests and answers are
JSON frames, and file bytes are ``chunk`` frames.  Design points:

* **One fetch per connection.**  A connection holds at most one fetch,
  from its ``fetch`` until its ``fetch_end``, its error answer or the
  connection's end; another ``fetch`` meanwhile is refused with
  ``ERR_INVALID``.  Concurrent pulls are concurrent connections.
* **Zero-copy body path.**  A chunk's header is written apart from its
  body, so the body goes straight from the page cache to the socket with
  ``os.sendfile``; where sendfile is unavailable the fallback is
  ``os.pread`` + ``memoryview`` send (no intermediate slicing copies).
* **Resumable.**  A fetch names ``(context, file, offset)``; the server
  streams from ``offset`` and announces the whole-file SHA-256 up front so
  the client can verify after completing a resumed download.
* **Fair.**  All transfers on the link share one
  :class:`~repro.data.scheduler.BandwidthScheduler` (token bucket + DRR).
  A connection's answers (pongs, ``fetch_start`` / ``fetch_end``, errors)
  leave from its own buffer at the next chunk boundary, never behind the
  link's queue.
* **Bounded answers.**  A connection whose unsent answers pass
  ``_CTRL_HIGH_WATER`` is not read again until they drain, so a client
  that asks without reading cannot grow the server's memory.
* **Non-blocking I/O thread.**  Like the DV control server, a single
  selector thread owns all sockets; blocking work (request validation,
  path resolution, stat, checksum) runs on one prepare worker, which
  answers every request it cannot serve with an error frame.
* **Local bytes only.**  A server streams files its resolver finds on
  this node and nothing else; it never fetches on a client's behalf.

The listener is bound in ``__init__`` (so the port is known before the
daemon advertises it) but threads start only in :meth:`start`.
"""

from __future__ import annotations

import errno
import logging
import os
import queue
import selectors
import socket
import threading
import time
from collections import deque
from collections.abc import Callable

from repro.core.context import confine
from repro.core.errors import (
    ErrorCode,
    FileNotInContextError,
    InvalidArgumentError,
    ProtocolError,
    SimFSError,
)
from repro.data.scheduler import BandwidthScheduler
from repro.dv.protocol import (
    CODEC_BINARY,
    StreamDecoder,
    encode_binary,
    encode_chunk_header,
)
from repro.metrics import MetricsRegistry
from repro.obs import SpanRecorder
from repro.obs.trace import parse_wire
from repro.util.checksums import file_checksum

__all__ = ["DataServer"]

log = logging.getLogger("repro.data.server")

_RECV_SIZE = 64 * 1024

#: Most file bytes one chunk frame carries.
_CHUNK = 256 * 1024

#: Deficit round-robin quantum: what a ready transfer may send per turn.
_QUANTUM = 64 * 1024

#: Unsent answer bytes past which a connection is not read until they
#: drain (one read past it adds at most the answers to ``_RECV_SIZE``).
_CTRL_HIGH_WATER = 256 * 1024

#: Throughput histogram bounds, MB/s (localhost loopback reaches GB/s).
_MBPS_BUCKETS = (1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)


class _Transfer:
    """A connection's one fetch: being prepared while ``fd`` is None,
    then streaming."""

    __slots__ = (
        "conn", "context", "filename", "fd", "offset", "remaining",
        "frame_left", "head", "started", "sent", "tc", "obs_began",
    )

    def __init__(self, conn):
        self.conn = conn
        self.fd = None
        self.frame_left = 0
        self.head = b""
        self.sent = 0
        self.tc = None


class _DataConn:
    __slots__ = (
        "sock", "fd", "decoder", "ctrl_out", "blocked", "transfer",
        "events", "closing",
    )

    def __init__(self, sock):
        self.sock = sock
        self.fd = sock.fileno()
        self.decoder = StreamDecoder(CODEC_BINARY)
        self.ctrl_out = bytearray()
        self.blocked = False
        self.transfer: _Transfer | None = None
        self.events = selectors.EVENT_READ
        self.closing = False


def _error(code: ErrorCode, detail: str) -> dict:
    return {"op": "error", "code": int(code), "error": detail}


class DataServer:
    """Bulk data port for one node.

    ``resolver(context, filename) -> path`` maps requests to files (it
    runs on the prepare worker and refuses by raising
    :class:`~repro.core.errors.FileNotInContextError`); the default
    resolver looks up directories registered via :meth:`add_context`
    with path confinement.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        link_rate: float | None = None,
        burst: float | None = None,
        resolver: Callable[[str, str], str] | None = None,
        metrics: MetricsRegistry | None = None,
        obs: SpanRecorder | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Span recorder for traced transfers — share the owning daemon's
        #: so ``data.fetch`` spans land in the same per-node ring.
        self.obs = obs if obs is not None else SpanRecorder(node="data")
        self._resolver = resolver
        self._dirs: dict[str, str] = {}
        self._sched = BandwidthScheduler(rate=link_rate, burst=burst, quantum=_QUANTUM)
        self._sums: dict[str, tuple[int, int, str]] = {}
        self._sums_lock = threading.Lock()
        self._use_sendfile = hasattr(os, "sendfile")

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self.host, self.port = self._listener.getsockname()[:2]

        self._selector: selectors.BaseSelector | None = None
        self._conns: dict[int, _DataConn] = {}
        self._work: queue.Queue = queue.Queue()
        self._done: deque = deque()
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._running = False
        self._io_thread: threading.Thread | None = None
        self._worker: threading.Thread | None = None

        m = self.metrics
        self._m_bytes = m.counter("transfer.bytes_sent")
        self._m_frames = m.counter("transfer.frames_sent")
        self._m_active = m.gauge("transfer.active")
        self._m_completed = m.counter("transfer.completed")
        self._m_resumed = m.counter("transfer.resumed")
        self._m_errors = m.counter("transfer.errors")
        self._m_queue = m.gauge("transfer.queue_depth")
        self._m_mbps = m.histogram("transfer.throughput_mbps", buckets=_MBPS_BUCKETS)

    # -- context registration -------------------------------------------

    def add_context(self, name: str, directory: str) -> None:
        self._dirs[name] = os.path.realpath(directory)

    def _resolve(self, context: str, filename: str) -> str:
        if self._resolver is not None:
            return self._resolver(context, filename)
        directory = self._dirs.get(context)
        if directory is None:
            raise FileNotInContextError(f"unknown context {context!r}")
        return confine(filename, directory)

    def checksum(self, path: str) -> str:
        """Whole-file SHA-256, cached by (path, size, mtime_ns)."""
        st = os.stat(path)
        key = (st.st_size, st.st_mtime_ns)
        with self._sums_lock:
            cached = self._sums.get(path)
            if cached is not None and cached[:2] == key:
                return cached[2]
        digest = file_checksum(path)
        with self._sums_lock:
            self._sums[path] = (st.st_size, st.st_mtime_ns, digest)
        return digest

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._listener.listen(128)
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "listener")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "waker")
        self._worker = threading.Thread(
            target=self._worker_loop, name="data-worker", daemon=True
        )
        self._worker.start()
        self._io_thread = threading.Thread(
            target=self._serve, name="data-io", daemon=True
        )
        self._io_thread.start()

    def stop(self) -> None:
        if not self._running:
            self._listener.close()
            return
        self._running = False
        self._wake()
        if self._io_thread is not None:
            self._io_thread.join(timeout=5.0)
        self._work.put(None)
        self._worker.join(timeout=5.0)
        for conn in list(self._conns.values()):
            self._teardown(conn)
        if self._selector is not None:
            self._selector.close()
        for s in (self._wake_r, self._wake_w):
            if s is not None:
                s.close()
        self._listener.close()

    def _wake(self) -> None:
        if self._wake_w is None:
            return
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass

    def stats(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "connections": len(self._conns),
            "metrics": self.metrics.snapshot("transfer."),
        }

    # -- prepare worker --------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            transfer, message = item
            try:
                result = self._prepare(message)
            except Exception as exc:
                # Every failure gets an answer, a bug included: a worker
                # that dies takes every later request on the port with it.
                code, detail = ErrorCode.ERR_PROTOCOL, f"{type(exc).__name__}: {exc}"
                if isinstance(exc, SimFSError):
                    code, detail = exc.code, str(exc)
                elif isinstance(exc, OSError):
                    code = ErrorCode.ERR_NOT_FOUND
                else:
                    log.exception("data-plane fetch failed")
                result = _error(code, detail)
            self._done.append((transfer, result))
            self._wake()

    def _prepare(self, message: dict) -> dict:
        context = message.get("context", "")
        filename = message.get("file", "")
        offset = message.get("offset", 0)
        if not isinstance(context, str):
            raise ProtocolError("fetch: 'context' must be a string")
        if not isinstance(filename, str):
            raise ProtocolError("fetch: 'file' must be a string")
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ProtocolError("fetch: 'offset' must be an integer")
        path = self._resolve(context, filename)
        if not os.path.isfile(path):
            raise FileNotInContextError(
                f"file {filename!r} not available in context {context!r}"
            )
        size = os.path.getsize(path)
        if offset < 0 or offset > size:
            # ERR_INVALID, not a protocol error: the client maps it to a
            # stale-.part condition and retries the fetch from offset 0.
            raise InvalidArgumentError(
                f"fetch offset {offset} out of range for size {size}"
            )
        digest = self.checksum(path)
        fd = os.open(path, os.O_RDONLY)
        return {
            "op": "start",
            "fd": fd,
            "size": size,
            "offset": offset,
            "checksum": digest,
            "context": context,
            "file": filename,
            "tc": message.get("tc"),
        }

    # -- selector loop ---------------------------------------------------

    def _serve(self) -> None:
        sel = self._selector
        wait: float | None = None
        while self._running:
            timeout = 0.5 if wait is None else max(0.0, min(wait, 0.5))
            try:
                events = sel.select(timeout)
            except OSError:
                continue
            for key, mask in events:
                if key.data == "listener":
                    self._accept()
                elif key.data == "waker":
                    try:
                        self._wake_r.recv(4096)
                    except OSError:
                        pass
                else:
                    conn = key.data
                    if mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    if mask & selectors.EVENT_WRITE and conn.fd in self._conns:
                        self._on_writable(conn)
            self._drain_done()
            wait = self._pump()
            self._m_queue.set(self._sched.queue_depth())

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:  # BlockingIOError included: none left
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _DataConn(sock)
            self._conns[conn.fd] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _arm(self, conn: _DataConn) -> None:
        """Wait for what the connection can use: writability while it is
        blocked, and more requests unless it is closing or its unsent
        answers are past the high-water mark."""
        events = selectors.EVENT_WRITE if conn.blocked else 0
        if not conn.closing and len(conn.ctrl_out) <= _CTRL_HIGH_WATER:
            events |= selectors.EVENT_READ
        if conn.events == events or conn.fd not in self._conns:
            return
        try:
            if not events:
                self._selector.unregister(conn.sock)
            elif not conn.events:
                self._selector.register(conn.sock, events, conn)
            else:
                self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):
            pass
        conn.events = events

    def _on_readable(self, conn: _DataConn) -> None:
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._teardown(conn)
            return
        if not data:
            self._teardown(conn)
            return
        conn.decoder.feed(data)
        try:
            messages = conn.decoder.drain()
        except ProtocolError as exc:
            # The stream is lost: say why and close, mid-chunk at once.
            self._m_errors.inc()
            transfer = conn.transfer
            if transfer is not None and transfer.frame_left:
                self._teardown(conn)
                return
            self._drop_transfer(conn)
            conn.closing = True
            self._send_ctrl(conn, _error(ErrorCode.ERR_PROTOCOL, str(exc)))
            if not conn.ctrl_out:
                self._teardown(conn)
            else:
                self._arm(conn)
            return
        for message in messages:
            if conn.fd not in self._conns:  # an answer found it gone
                return
            self._handle(conn, message)
        self._arm(conn)

    def _handle(self, conn: _DataConn, message: dict) -> None:
        op = message["op"]
        if op == "ping":
            self._send_ctrl(conn, {"op": "pong", "t": message.get("t")})
        elif op != "fetch":
            self._refuse(conn, _error(ErrorCode.ERR_PROTOCOL,
                                      f"unknown data-plane op {op!r}"))
        elif conn.transfer is not None:
            self._refuse(conn, _error(ErrorCode.ERR_INVALID,
                                      "this connection's fetch is not done"))
        else:
            conn.transfer = _Transfer(conn)
            self._work.put((conn.transfer, message))

    def _refuse(self, conn: _DataConn, error: dict) -> None:
        self._m_errors.inc()
        self._send_ctrl(conn, error)

    def _drain_done(self) -> None:
        while self._done:
            transfer, result = self._done.popleft()
            conn = transfer.conn
            if conn.transfer is not transfer:  # the connection went first
                if result["op"] == "start":
                    os.close(result["fd"])
            elif result["op"] == "error":
                conn.transfer = None
                self._refuse(conn, result)
            else:
                self._begin_transfer(conn, transfer, result)

    def _begin_transfer(self, conn: _DataConn, transfer: _Transfer,
                        result: dict) -> None:
        transfer.context, transfer.filename = result["context"], result["file"]
        transfer.fd, transfer.offset = result["fd"], result["offset"]
        transfer.remaining = result["size"] - result["offset"]
        transfer.started = time.monotonic()
        tc_wire = result["tc"]
        if isinstance(tc_wire, str):
            transfer.tc = parse_wire(tc_wire)
        transfer.obs_began = self.obs.now()
        self._send_ctrl(conn, {
            "op": "fetch_start", "size": result["size"],
            "offset": result["offset"], "checksum": result["checksum"],
        })
        if result["offset"]:
            self._m_resumed.inc()
        self._m_active.inc()
        if transfer.remaining <= 0:
            self._finish_transfer(conn, transfer)
            return
        self._sched.register(transfer)
        if not conn.blocked:
            self._sched.mark_ready(transfer)

    # -- the send pump ---------------------------------------------------

    def _pump(self) -> float | None:
        """Grant/send until the link is starved, blocked, or idle.

        Returns the scheduler's suggested wait (seconds) when
        token-starved, else None.
        """
        sched = self._sched
        spins = 0
        limit = max(128, 4 * sched.queue_depth() + 8)
        while self._running and spins < limit:
            spins += 1
            now = time.monotonic()
            transfer, budget = sched.grant(now)
            if transfer is None:
                return budget  # None (idle) or wait seconds
            conn = transfer.conn
            self._advance(conn, transfer, budget, now)
            if conn.transfer is transfer and not conn.blocked:
                sched.mark_ready(transfer)
        # Spin limit reached with streams still ready: come straight back.
        return 0.0 if sched.queue_depth() > 0 else None

    def _advance(self, conn: _DataConn, transfer: _Transfer,
                 budget: int, now: float) -> None:
        """Send up to ``budget`` body bytes of the connection's transfer."""
        if transfer.frame_left == 0:
            chunk = min(budget, _CHUNK, transfer.remaining)
            transfer.head = encode_chunk_header(chunk)
            transfer.frame_left = chunk
        try:
            while transfer.head:
                n = conn.sock.send(transfer.head)
                transfer.head = transfer.head[n:]
            want = min(budget, transfer.frame_left)
            sent = self._send_body(conn, transfer, want)
        except (BlockingIOError, InterruptedError):
            self._block(conn)
            return
        except OSError:
            self._teardown(conn)
            return
        transfer.offset += sent
        transfer.remaining -= sent
        transfer.frame_left -= sent
        transfer.sent += sent
        self._m_bytes.inc(sent)
        self._sched.charge(transfer, sent, now)
        if transfer.frame_left == 0:
            self._m_frames.inc()
            if transfer.remaining <= 0:
                self._finish_transfer(conn, transfer)
            else:
                self._flush_ctrl(conn)  # answers go at chunk boundaries
        elif sent < want:
            self._block(conn)

    def _send_body(self, conn: _DataConn, transfer: _Transfer, want: int) -> int:
        if self._use_sendfile:
            try:
                n = os.sendfile(conn.fd, transfer.fd, transfer.offset, want)
                if n == 0:
                    raise OSError(errno.EIO, "file truncated mid-transfer")
                return n
            except OSError as exc:
                if exc.errno in (errno.EAGAIN, errno.EWOULDBLOCK):
                    raise BlockingIOError from exc
                if exc.errno in (errno.EINVAL, errno.ENOSYS, errno.ENOTSOCK):
                    self._use_sendfile = False
                else:
                    raise
        data = os.pread(transfer.fd, want, transfer.offset)
        if not data:
            raise OSError(errno.EIO, "file truncated mid-transfer")
        with memoryview(data) as view:
            return conn.sock.send(view)

    def _block(self, conn: _DataConn) -> None:
        conn.blocked = True
        if conn.transfer is not None:
            self._sched.mark_idle(conn.transfer)
        self._arm(conn)

    def _on_writable(self, conn: _DataConn) -> None:
        conn.blocked = False
        self._flush_ctrl(conn)
        if conn.closing and not conn.ctrl_out:
            self._teardown(conn)
            return
        self._arm(conn)
        if not conn.blocked and conn.transfer is not None:
            self._sched.mark_ready(conn.transfer)

    def _flush_ctrl(self, conn: _DataConn) -> None:
        """Write the connection's answers; only a chunk on its way out may
        hold them back (frames are atomic on the wire)."""
        transfer = conn.transfer
        if conn.blocked or not conn.ctrl_out or (
            transfer is not None and transfer.frame_left
        ):
            return
        try:
            while conn.ctrl_out:
                n = conn.sock.send(conn.ctrl_out)
                del conn.ctrl_out[:n]
        except (BlockingIOError, InterruptedError):
            self._block(conn)
            return
        except OSError:
            self._teardown(conn)
            return
        self._arm(conn)  # reading resumes once the answers are out

    def _send_ctrl(self, conn: _DataConn, message: dict) -> None:
        conn.ctrl_out += encode_binary(message)
        self._flush_ctrl(conn)

    def _finish_transfer(self, conn: _DataConn, transfer: _Transfer) -> None:
        os.close(transfer.fd)
        conn.transfer = None
        self._sched.unregister(transfer)
        seconds = max(1e-9, time.monotonic() - transfer.started)
        # Account before fetch_end leaves: a client that saw the transfer
        # finish must also see it in the metrics snapshot.
        self._m_active.dec()
        self._m_completed.inc()
        if transfer.sent:
            self._m_mbps.observe(transfer.sent / seconds / 1e6)
        if transfer.tc is not None:
            self.obs.record(
                "data.fetch", transfer.tc, transfer.obs_began, self.obs.now(),
                context=transfer.context, file=transfer.filename,
                bytes=transfer.sent, offset=transfer.offset - transfer.sent,
            )
        self._send_ctrl(conn, {"op": "fetch_end", "bytes": transfer.sent})

    def _drop_transfer(self, conn: _DataConn) -> None:
        """Free the connection's slot without finishing its transfer."""
        transfer, conn.transfer = conn.transfer, None
        if transfer is None or transfer.fd is None:
            return  # none, or still with the worker (its fd is closed there)
        try:
            os.close(transfer.fd)
        except OSError:
            pass
        self._sched.unregister(transfer)
        self._m_active.dec()

    def _teardown(self, conn: _DataConn) -> None:
        if self._conns.pop(conn.fd, None) is None:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._drop_transfer(conn)
        try:
            conn.sock.close()
        except OSError:
            pass
