"""Selector-based bulk data server: the node's data port.

One ``DataServer`` runs next to each DV daemon (or cluster node) on its
own port, streaming context files in
length-prefixed chunks.  Design points:

* **Zero-copy body path.**  DATA frame headers are written separately from
  their bodies so the body can go straight from the page cache to the
  socket with ``os.sendfile``; where sendfile is unavailable the fallback
  is ``os.pread`` + ``memoryview`` send (no intermediate slicing copies).
* **Resumable.**  A fetch names ``(context, file, offset)``; the server
  streams from ``offset`` and announces the whole-file SHA-256 up front so
  the client can verify after completing a resumed download.
* **Fair + priority-aware.**  All transfers on the link share a
  :class:`~repro.data.scheduler.BandwidthScheduler` (token bucket + DRR),
  and each connection's control bytes (pong replies, ``fetch_start`` /
  ``fetch_end`` metadata) are flushed ahead of queued bulk frames —
  control only ever waits for an in-flight DATA frame to finish, never for
  the bulk queue to drain.
* **Non-blocking I/O thread.**  Like the DV control server, a single
  selector thread owns all sockets; blocking work (path resolution, stat,
  checksum, one-hop upstream proxy pulls) happens on a small worker pool.

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
from repro.data.protocol import (
    DEFAULT_CHUNK,
    KIND_CTRL,
    decode_ctrl,
    encode_ctrl,
    encode_data_header,
)
from repro.data.scheduler import PRIO_CONTROL, BandwidthScheduler
from repro.metrics import MetricsRegistry
from repro.obs import SpanRecorder
from repro.obs.trace import parse_wire
from repro.util.checksums import file_checksum

__all__ = ["DataServer"]

log = logging.getLogger("repro.data.server")

_RECV_SIZE = 64 * 1024

#: Throughput histogram bounds, MB/s (localhost loopback reaches GB/s).
_MBPS_BUCKETS = (1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)


class _Transfer:
    """One in-flight (context, file, offset) pull on one connection."""

    __slots__ = (
        "channel", "conn", "context", "filename", "fd", "offset",
        "remaining", "size", "frame_left", "head", "started", "sent",
        "tc", "obs_began",
    )

    def __init__(self, conn, channel, context, filename, fd, offset, size):
        self.conn = conn
        self.channel = channel
        self.context = context
        self.filename = filename
        self.fd = fd
        self.offset = offset
        self.size = size
        self.remaining = size - offset
        self.frame_left = 0
        self.head = b""
        self.started = time.monotonic()
        self.sent = 0
        self.tc = None
        self.obs_began = 0.0


class _DataConn:
    __slots__ = (
        "sock", "fd", "addr", "decoder", "ctrl_out", "blocked",
        "transfers", "inflight", "events", "closing",
    )

    def __init__(self, sock, addr):
        from repro.data.protocol import DataFrameDecoder

        self.sock = sock
        self.fd = sock.fileno()
        self.addr = addr
        self.decoder = DataFrameDecoder()
        self.ctrl_out = bytearray()
        self.blocked = False
        self.transfers: dict[int, _Transfer] = {}
        self.inflight: _Transfer | None = None
        self.events = selectors.EVENT_READ
        self.closing = False


class DataServer:
    """Bulk data port for one node.

    ``resolver(context, filename) -> path`` maps requests to files; the
    default resolver looks up directories registered via
    :meth:`add_context` with path confinement.  ``upstream(context,
    filename) -> path | None`` is the one-hop proxy hook: called (on a
    worker thread) when a file is not local, it may pull the file from the
    owning node and return a local spool path to serve.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        link_rate: float | None = None,
        burst: float | None = None,
        chunk_size: int = DEFAULT_CHUNK,
        quantum: int = 64 * 1024,
        resolver: Callable[[str, str], str] | None = None,
        lister: Callable[[str], list[str]] | None = None,
        upstream: Callable[[str, str], str | None] | None = None,
        metrics: MetricsRegistry | None = None,
        workers: int = 1,
        obs: SpanRecorder | None = None,
    ) -> None:
        self.chunk_size = int(chunk_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Span recorder for traced transfers — share the owning daemon's
        #: so ``data.fetch`` spans land in the same per-node ring.
        self.obs = obs if obs is not None else SpanRecorder(node="data")
        self._resolver = resolver
        self._lister = lister
        self.upstream = upstream
        self._dirs: dict[str, str] = {}
        self._sched = BandwidthScheduler(rate=link_rate, burst=burst, quantum=quantum)
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
        self._workers = max(1, int(workers))
        self._worker_threads: list[threading.Thread] = []

        m = self.metrics
        self._m_bytes = m.counter("transfer.bytes_sent")
        self._m_frames = m.counter("transfer.frames_sent")
        self._m_active = m.gauge("transfer.active")
        self._m_completed = m.counter("transfer.completed")
        self._m_resumed = m.counter("transfer.resumed")
        self._m_errors = m.counter("transfer.errors")
        self._m_proxied = m.counter("transfer.proxied")
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

    def _list(self, context: str) -> list[str]:
        if self._lister is not None:
            return self._lister(context)
        directory = self._dirs.get(context)
        if directory is None:
            raise FileNotInContextError(f"unknown context {context!r}")
        try:
            names = sorted(
                n for n in os.listdir(directory)
                if os.path.isfile(os.path.join(directory, n))
            )
        except OSError:
            names = []
        return names

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
        for i in range(self._workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"data-worker-{i}", daemon=True
            )
            t.start()
            self._worker_threads.append(t)
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
        for _ in self._worker_threads:
            self._work.put(None)
        for t in self._worker_threads:
            t.join(timeout=5.0)
        self._worker_threads.clear()
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

    # -- worker pool -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            conn, message = item
            try:
                result = self._prepare(message)
            except SimFSError as exc:
                result = {
                    "op": "error",
                    "channel": message.get("channel", 0),
                    "code": int(exc.code),
                    "error": str(exc),
                }
            except OSError as exc:
                result = {
                    "op": "error",
                    "channel": message.get("channel", 0),
                    "code": int(ErrorCode.ERR_NOT_FOUND),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            self._done.append((conn, message, result))
            self._wake()

    def _prepare(self, message: dict) -> dict:
        op = message.get("op")
        context = message.get("context", "")
        if op == "list":
            return {
                "op": "listing",
                "channel": message.get("channel", 0),
                "context": context,
                "files": self._list(context),
            }
        filename = message.get("file", "")
        proxied = False
        try:
            path = self._resolve(context, filename)
            exists = os.path.isfile(path)
        except FileNotInContextError:
            path, exists = "", False
        if not exists and self.upstream is not None:
            pulled = self.upstream(context, filename)
            if pulled:
                path, exists, proxied = pulled, os.path.isfile(pulled), True
        if not exists:
            raise FileNotInContextError(
                f"file {filename!r} not available in context {context!r}"
            )
        size = os.path.getsize(path)
        offset = int(message.get("offset", 0))
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
            "channel": message.get("channel", 0),
            "path": path,
            "fd": fd,
            "size": size,
            "offset": offset,
            "checksum": digest,
            "proxied": proxied,
            "priority": message.get("priority", "bulk"),
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
                sock, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _DataConn(sock, addr)
            self._conns[conn.fd] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _set_events(self, conn: _DataConn, events: int) -> None:
        if conn.events != events and conn.fd in self._conns:
            conn.events = events
            try:
                self._selector.modify(conn.sock, events, conn)
            except (KeyError, ValueError, OSError):
                pass

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
        try:
            frames = conn.decoder.feed(data)
        except ProtocolError as exc:
            self._m_errors.inc()
            self._send_ctrl(conn, {"op": "error", "channel": 0,
                                   "code": int(ErrorCode.ERR_PROTOCOL),
                                   "error": str(exc)})
            conn.closing = True
            if conn.inflight is None and not conn.ctrl_out:
                self._teardown(conn)
            return
        for kind, channel, payload in frames:
            if kind != KIND_CTRL:
                self._teardown(conn)
                return
            try:
                message = decode_ctrl(payload)
            except ProtocolError as exc:
                self._m_errors.inc()
                self._send_ctrl(conn, {"op": "error", "channel": channel,
                                       "code": int(ErrorCode.ERR_PROTOCOL),
                                       "error": str(exc)})
                continue
            self._handle_ctrl(conn, channel, message)

    def _handle_ctrl(self, conn: _DataConn, channel: int, message: dict) -> None:
        op = message.get("op")
        if op == "ping":
            self._send_ctrl(conn, {"op": "pong", "channel": channel,
                                   "t": message.get("t")})
        elif op in ("fetch", "list"):
            message.setdefault("channel", channel)
            if op == "fetch" and message["channel"] in conn.transfers:
                self._m_errors.inc()
                self._send_ctrl(conn, {
                    "op": "error", "channel": message["channel"],
                    "code": int(ErrorCode.ERR_INVALID),
                    "error": f"channel {message['channel']} already transferring",
                })
                return
            self._work.put((conn, message))
        else:
            self._m_errors.inc()
            self._send_ctrl(conn, {"op": "error", "channel": channel,
                                   "code": int(ErrorCode.ERR_PROTOCOL),
                                   "error": f"unknown data-plane op {op!r}"})

    def _drain_done(self) -> None:
        while self._done:
            conn, message, result = self._done.popleft()
            if conn.fd not in self._conns or conn.closing:
                if result.get("op") == "start":
                    os.close(result["fd"])
                continue
            if result["op"] != "start":
                if result["op"] == "error":
                    self._m_errors.inc()
                self._send_ctrl(conn, result)
                continue
            self._begin_transfer(conn, result)

    def _begin_transfer(self, conn: _DataConn, result: dict) -> None:
        channel = result["channel"] & 0xFFFF
        if channel in conn.transfers:
            # Authoritative duplicate check: _handle_ctrl's early reject
            # cannot see fetches still sitting in the worker queue.
            os.close(result["fd"])
            self._m_errors.inc()
            self._send_ctrl(conn, {
                "op": "error", "channel": channel,
                "code": int(ErrorCode.ERR_INVALID),
                "error": f"channel {channel} already transferring",
            })
            return
        transfer = _Transfer(
            conn, channel, result["context"], result["file"],
            result["fd"], result["offset"], result["size"],
        )
        tc_wire = result.get("tc")
        if isinstance(tc_wire, str):
            transfer.tc = parse_wire(tc_wire)
        transfer.obs_began = self.obs.now()
        self._send_ctrl(conn, {
            "op": "fetch_start", "channel": channel,
            "size": result["size"], "offset": result["offset"],
            "checksum": result["checksum"],
        })
        if result["proxied"]:
            self._m_proxied.inc()
        if result["offset"]:
            self._m_resumed.inc()
        if transfer.remaining <= 0:
            os.close(transfer.fd)
            self._send_ctrl(conn, {"op": "fetch_end", "channel": channel,
                                   "bytes": 0})
            self._m_completed.inc()
            return
        conn.transfers[channel] = transfer
        priority = PRIO_CONTROL if result.get("priority") == "control" else None
        if priority is not None:
            self._sched.register(transfer, priority)
        else:
            self._sched.register(transfer)
        self._sched.mark_ready(transfer)
        self._m_active.inc()

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
            if conn.fd not in self._conns:
                self._abort_transfer(transfer)
                continue
            if conn.blocked:
                sched.mark_idle(transfer)
                continue
            # Priority lane: control bytes go out before any new bulk frame.
            self._flush_ctrl(conn)
            if conn.blocked:
                sched.mark_idle(transfer)
                continue
            if conn.inflight is not None and conn.inflight is not transfer:
                # Another transfer holds this connection mid-frame; this
                # one re-queues when the frame completes or the socket
                # unblocks.
                sched.mark_idle(transfer)
                continue
            sent = self._advance(conn, transfer, budget, now)
            if conn.fd not in self._conns:
                continue
            if sent == 0 and not conn.blocked:
                # No forward progress without a socket block: park the
                # stream and wait for the next event rather than spin.
                sched.mark_idle(transfer)
                return None
            if not conn.blocked and transfer.remaining > 0:
                sched.mark_ready(transfer)
        # Spin limit reached with streams still ready: come straight back.
        return 0.0 if sched.queue_depth() > 0 else None

    def _advance(self, conn: _DataConn, transfer: _Transfer,
                 budget: int, now: float) -> int:
        """Send up to ``budget`` body bytes of one transfer; returns sent."""
        if transfer.frame_left == 0:
            chunk = min(budget, self.chunk_size, transfer.remaining)
            if chunk <= 0:
                return 0
            transfer.head = encode_data_header(transfer.channel, chunk)
            transfer.frame_left = chunk
            conn.inflight = transfer
        try:
            while transfer.head:
                n = conn.sock.send(transfer.head)
                transfer.head = transfer.head[n:]
            want = min(budget, transfer.frame_left)
            sent = self._send_body(conn, transfer, want) if want > 0 else 0
        except (BlockingIOError, InterruptedError):
            self._block(conn, transfer)
            return 0
        except OSError:
            self._teardown(conn)
            return 0
        if sent:
            transfer.offset += sent
            transfer.remaining -= sent
            transfer.frame_left -= sent
            transfer.sent += sent
            self._m_bytes.inc(sent)
            self._sched.charge(transfer, sent, now)
        if transfer.frame_left == 0:
            conn.inflight = None
            self._m_frames.inc()
            self._flush_ctrl(conn)
            if transfer.remaining <= 0:
                self._finish_transfer(conn, transfer)
            else:
                # Frame boundary: any siblings parked behind it may go.
                self._reready(conn)
        elif sent < want:
            self._block(conn, transfer)
        return sent

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

    def _block(self, conn: _DataConn, transfer: _Transfer | None = None) -> None:
        conn.blocked = True
        if transfer is not None:
            self._sched.mark_idle(transfer)
        for t in conn.transfers.values():
            self._sched.mark_idle(t)
        self._set_events(conn, selectors.EVENT_READ | selectors.EVENT_WRITE)

    def _reready(self, conn: _DataConn) -> None:
        if conn.blocked:
            return
        for t in conn.transfers.values():
            if t.remaining > 0 and (conn.inflight is None or conn.inflight is t):
                self._sched.mark_ready(t)

    def _on_writable(self, conn: _DataConn) -> None:
        conn.blocked = False
        self._set_events(conn, selectors.EVENT_READ)
        self._flush_ctrl(conn)
        if conn.closing and not conn.ctrl_out and conn.inflight is None:
            self._teardown(conn)
            return
        self._reready(conn)

    def _flush_ctrl(self, conn: _DataConn) -> None:
        """Flush the priority lane; only an in-flight DATA frame may
        legitimately delay control bytes (frames are atomic on the wire)."""
        if conn.blocked or conn.inflight is not None or not conn.ctrl_out:
            return
        try:
            while conn.ctrl_out:
                n = conn.sock.send(conn.ctrl_out)
                del conn.ctrl_out[:n]
        except (BlockingIOError, InterruptedError):
            self._block(conn)
        except OSError:
            self._teardown(conn)

    def _send_ctrl(self, conn: _DataConn, message: dict) -> None:
        conn.ctrl_out += encode_ctrl(message)
        self._flush_ctrl(conn)

    def _finish_transfer(self, conn: _DataConn, transfer: _Transfer) -> None:
        os.close(transfer.fd)
        conn.transfers.pop(transfer.channel, None)
        self._sched.unregister(transfer)
        seconds = max(1e-9, time.monotonic() - transfer.started)
        # Account before fetch_end leaves: a client that saw the transfer
        # finish must also see it in the metrics snapshot.
        self._m_active.dec()
        self._m_completed.inc()
        self._m_mbps.observe(transfer.sent / seconds / 1e6)
        if transfer.tc is not None:
            self.obs.record(
                "data.fetch", transfer.tc, transfer.obs_began, self.obs.now(),
                context=transfer.context, file=transfer.filename,
                bytes=transfer.sent, offset=transfer.offset - transfer.sent,
            )
        self._send_ctrl(conn, {
            "op": "fetch_end", "channel": transfer.channel,
            "bytes": transfer.sent,
        })

    def _abort_transfer(self, transfer: _Transfer) -> None:
        try:
            os.close(transfer.fd)
        except OSError:
            pass
        self._sched.unregister(transfer)

    def _teardown(self, conn: _DataConn) -> None:
        if self._conns.pop(conn.fd, None) is None:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        for transfer in conn.transfers.values():
            self._abort_transfer(transfer)
            self._m_active.dec()
        conn.transfers.clear()
        conn.inflight = None
        try:
            conn.sock.close()
        except OSError:
            pass
