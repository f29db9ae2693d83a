"""The node's data port: bulk bytes served from the DV daemon's loop.

One ``DataServer`` runs beside each DV daemon (or cluster node) on its
own port, as a second handler on the daemon's
:class:`~repro.dv.loop.EventLoop`: it owns no thread, selector or
wake-up pair.  It speaks the control port's binary frames
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
  :class:`~repro.data.scheduler.BandwidthScheduler` (token bucket + DRR)
  whose quantum is one full chunk frame, so an unlimited link sends
  256 KiB frames.  A connection's answers (pongs, ``fetch_start`` /
  ``fetch_end``, errors) leave from its own buffer at the next chunk
  boundary, never behind the link's queue; the answers to one read
  leave in one ``send``.
* **Bounded answers.**  A connection whose unsent answers pass
  ``_CTRL_HIGH_WATER`` is not read again until they drain, so a client
  that asks without reading cannot grow the server's memory.
* **One loop per node.**  The data sockets share the daemon's I/O
  thread, and so does a fetch's *prepare*: validation, path resolution,
  one non-blocking ``open`` and ``fstat``, and the whole-file SHA-256
  when it is cached or the file fits one chunk frame.  Only the hash of
  an uncached file larger than that, or a resolver that cannot answer
  without waiting, sends the prepare to the worker pool, one at a time.
  Every request a prepare cannot serve is answered with an error frame.
  A prepare opens the file once and takes its type, size and checksum
  from that descriptor, so what ``fetch_start`` announces describes the
  bytes sent even if a new version is renamed over the path meanwhile.
  A pump of the link makes a few grants and yields to the loop's other
  sockets; a token-starved link waits on a loop timer.
* **Local bytes only.**  A server streams files its resolver finds on
  this node and nothing else; it never fetches on a client's behalf.

The listener is bound in ``__init__`` (so the port is known before the
daemon advertises it) and registered on the loop in :meth:`start`.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import os
import selectors
import socket
import stat
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
    CHUNK_MAX,
    CODEC_BINARY,
    StreamDecoder,
    encode_binary,
    encode_chunk_header,
)
from repro.dv.loop import EventLoop
from repro.metrics import MetricsRegistry
from repro.obs import SpanRecorder
from repro.obs.trace import parse_wire

__all__ = ["DataServer"]

log = logging.getLogger("repro.data.server")

_RECV_SIZE = 64 * 1024

#: Most file bytes one chunk frame carries, and the deficit round-robin
#: quantum (what a ready transfer may send per turn): a link with tokens
#: to spare sends whole frames.
_CHUNK = CHUNK_MAX

#: Grants one pump of the link may make before the loop's other sockets
#: get a turn (and at least one per ready transfer): up to 1 MiB on an
#: unlimited link.
_PUMP_GRANTS = 4

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
        self.events = 0  # selector interest: none until _arm
        self.closing = False


def _error(code: ErrorCode, detail: str) -> dict:
    return {"op": "error", "code": int(code), "error": detail}


class DataServer:
    """Bulk data port for one node, served on ``loop`` (the node's DV
    server's :attr:`~repro.dv.server.DVServer.loop`).

    ``resolver(context, filename, wait) -> path`` maps requests to files
    and refuses by raising
    :class:`~repro.core.errors.FileNotInContextError`.  It is asked on
    the loop's I/O thread with ``wait`` False, where it must not block:
    it returns None when it cannot answer at once, and is asked again on
    a worker with ``wait`` True.  The default resolver looks up
    directories registered via :meth:`add_context` with path
    confinement.
    """

    def __init__(
        self,
        loop: EventLoop,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        link_rate: float | None = None,
        burst: float | None = None,
        resolver: Callable[[str, str], str] | None = None,
        metrics: MetricsRegistry | None = None,
        obs: SpanRecorder | None = None,
    ) -> None:
        self.loop = loop
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Span recorder for traced transfers — share the owning daemon's
        #: so ``data.fetch`` spans land in the same per-node ring.
        self.obs = obs if obs is not None else SpanRecorder(node="data")
        self._resolver = resolver
        self._dirs: dict[str, str] = {}
        self._sched = BandwidthScheduler(rate=link_rate, burst=burst, quantum=_CHUNK)
        self._sums: dict[str, tuple[tuple[int, int, int], str]] = {}
        self._use_sendfile = hasattr(os, "sendfile")

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self.host, self.port = self._listener.getsockname()[:2]

        self._conns: dict[int, _DataConn] = {}
        #: Fetches whose prepare left the loop, the first one on a
        #: worker: one at a time, so hashes hold at most one worker of
        #: the node's pool.
        self._prepares: deque = deque()
        #: A pump of the link is queued: soon, or on a timer while the
        #: link is out of tokens.
        self._pump_due = False

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

    def _resolve(self, context: str, filename: str, wait: bool) -> str | None:
        if self._resolver is not None:
            return self._resolver(context, filename, wait)
        directory = self._dirs.get(context)
        if directory is None:
            raise FileNotInContextError(f"unknown context {context!r}")
        return confine(filename, directory)

    def _cached(self, path: str, st: os.stat_result) -> str | None:
        """The cached SHA-256 of the file at ``path`` whose ``fstat`` is
        ``st``, if its (inode, size, mtime_ns) still match."""
        cached = self._sums.get(path)
        if cached is not None and cached[0] == (st.st_ino, st.st_size, st.st_mtime_ns):
            return cached[1]
        return None

    def _checksum(self, path: str, fd: int, st: os.stat_result) -> str:
        """Whole-file SHA-256 of the open ``fd`` (``st`` its ``fstat``),
        cached by path and (inode, size, mtime_ns)."""
        digest = self._cached(path, st)
        if digest is None:
            with open(fd, "rb", closefd=False) as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            self._sums[path] = ((st.st_ino, st.st_size, st.st_mtime_ns), digest)
        return digest

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._listener.listen(128)
        self.loop.listen(self._listener, self._accepted)

    def stop(self) -> None:
        """Close the port and its connections; the loop serves on."""
        self.loop.call(self._close)

    def _close(self) -> None:
        self.loop.unlisten(self._listener)
        for conn in list(self._conns.values()):
            self._teardown(conn)

    def stats(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "connections": len(self._conns),
            "metrics": self.metrics.snapshot("transfer."),
        }

    # -- prepares ---------------------------------------------------------

    def _run_prepare(self, transfer: _Transfer, message: dict) -> None:
        """On a worker: a prepare that left the loop."""
        self.loop.call_soon(self._prepared, transfer, self._answer(message, False))

    def _answer(self, message: dict, on_loop: bool) -> dict | None:
        """:meth:`_prepare`'s start answer, its refusal as an error
        answer, or None (on the loop: the prepare must go to a worker)."""
        try:
            return self._prepare(message, on_loop)
        except Exception as exc:
            # Every failure gets an answer, a bug included.
            code, detail = ErrorCode.ERR_PROTOCOL, f"{type(exc).__name__}: {exc}"
            if isinstance(exc, SimFSError):
                code, detail = exc.code, str(exc)
            elif isinstance(exc, OSError):
                code = ErrorCode.ERR_NOT_FOUND
            else:
                log.exception("data-plane fetch failed")
            return _error(code, detail)

    def _prepare(self, message: dict, on_loop: bool) -> dict | None:
        """Check a fetch and open its file.  On the loop it must not
        wait: it returns None, holding nothing open, when the resolver
        cannot answer at once or the file's checksum is not cached and
        the file is larger than one chunk frame."""
        context = message.get("context", "")
        filename = message.get("file", "")
        offset = message.get("offset", 0)
        if not isinstance(context, str):
            raise ProtocolError("fetch: 'context' must be a string")
        if not isinstance(filename, str):
            raise ProtocolError("fetch: 'file' must be a string")
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ProtocolError("fetch: 'offset' must be an integer")
        path = self._resolve(context, filename, not on_loop)
        if path is None:
            return None
        missing = FileNotInContextError(
            f"file {filename!r} not available in context {context!r}"
        )
        try:  # non-blocking: a FIFO must not hold the thread (refused below)
            fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        except OSError:
            raise missing from None
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                raise missing
            if offset < 0 or offset > st.st_size:
                # ERR_INVALID, not a protocol error: the client maps it to
                # a stale-.part condition and retries from offset 0.
                raise InvalidArgumentError(
                    f"fetch offset {offset} out of range for size {st.st_size}"
                )
            if on_loop and st.st_size > _CHUNK and self._cached(path, st) is None:
                os.close(fd)
                return None  # a hash that long goes to a worker
            digest = self._checksum(path, fd, st)
        except BaseException:
            os.close(fd)
            raise
        return {
            "op": "start",
            "fd": fd,
            "size": st.st_size,
            "offset": offset,
            "checksum": digest,
            "context": context,
            "file": filename,
            "tc": message.get("tc"),
        }

    # -- on the loop thread ----------------------------------------------

    def _accepted(self, sock: socket.socket) -> None:
        conn = _DataConn(sock)
        self._conns[conn.fd] = conn
        self._arm(conn)

    def _arm(self, conn: _DataConn) -> None:
        """Wait for what the connection can use: writability while it is
        blocked, and more requests unless it is closing or its unsent
        answers are past the high-water mark."""
        events = selectors.EVENT_WRITE if conn.blocked else 0
        if not conn.closing and len(conn.ctrl_out) <= _CTRL_HIGH_WATER:
            events |= selectors.EVENT_READ
        if conn.fd in self._conns:
            conn.events = self.loop.watch(
                conn.sock, conn.events, events, (self._on_readable, self._on_writable, conn)
            )

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
            self._flush_ctrl(conn)
            if not conn.ctrl_out:
                self._teardown(conn)
            else:
                self._arm(conn)
            return
        for message in messages:
            self._handle(conn, message)
        self._flush_ctrl(conn)  # the answers to one read, in one send
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
            transfer = conn.transfer = _Transfer(conn)
            result = self._answer(message, True)
            if result is not None:
                self._start(transfer, result)
                return
            self._prepares.append((transfer, message))
            if len(self._prepares) == 1:
                self.loop.submit(self._run_prepare, transfer, message)

    def _refuse(self, conn: _DataConn, error: dict) -> None:
        self._m_errors.inc()
        self._send_ctrl(conn, error)

    def _prepared(self, transfer: _Transfer, result: dict) -> None:
        """A worker's prepare is answered: the next one may go."""
        self._prepares.popleft()
        if self._prepares:
            self.loop.submit(self._run_prepare, *self._prepares[0])
        self._start(transfer, result)

    def _start(self, transfer: _Transfer, result: dict) -> None:
        """A prepare's answer: the transfer begins, or is refused — or,
        when its connection (or the server) went first, its fd closes."""
        conn = transfer.conn
        if conn.transfer is not transfer:
            if result["op"] == "start":
                os.close(result["fd"])
            return
        if result["op"] == "error":
            conn.transfer = None
            self._refuse(conn, result)
            self._flush_ctrl(conn)
            return
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
        else:
            self._sched.register(transfer)
            if not conn.blocked:
                self._ready(transfer)
        self._flush_ctrl(conn)

    # -- the send pump ---------------------------------------------------

    def _ready(self, transfer: _Transfer) -> None:
        """``transfer`` has bytes to send: queue it, and a pump."""
        self._sched.mark_ready(transfer)
        if not self._pump_due:
            self._pump_due = True
            self.loop.call_soon(self._pump)

    def _pump(self) -> None:
        """Up to ``_PUMP_GRANTS`` grants, and at least one round of the
        ready transfers; then the loop's other sockets get a turn before
        the next pump.  A token-starved link comes back on a timer."""
        self._pump_due = False
        sched = self._sched
        for _ in range(max(_PUMP_GRANTS, sched.queue_depth())):
            now = time.monotonic()
            transfer, budget = sched.grant(now)
            if transfer is None:
                if budget is not None:  # out of tokens: back when there are
                    self._pump_due = True
                    self.loop.call_at(now + budget, self._pump)
                break
            conn = transfer.conn
            self._advance(conn, transfer, budget, now)
            if conn.transfer is transfer and not conn.blocked:
                sched.mark_ready(transfer)
        depth = sched.queue_depth()
        self._m_queue.set(depth)
        if depth and not self._pump_due:
            self._pump_due = True
            self.loop.call_soon(self._pump)

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
            except OSError as exc:  # EAGAIN is a BlockingIOError already
                if exc.errno not in (errno.EINVAL, errno.ENOSYS, errno.ENOTSOCK):
                    raise
                self._use_sendfile = False
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
            self._ready(conn.transfer)

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
        """Queue an answer; whoever queues it flushes (:meth:`_flush_ctrl`)
        once it has queued the rest."""
        conn.ctrl_out += encode_binary(message)

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
            return  # none, or still preparing (_prepared closes its fd)
        try:
            os.close(transfer.fd)
        except OSError:
            pass
        self._sched.unregister(transfer)
        self._m_active.dec()

    def _teardown(self, conn: _DataConn) -> None:
        if self._conns.pop(conn.fd, None) is None:
            return
        conn.events = self.loop.drop(conn.sock, conn.events)
        self._drop_transfer(conn)
