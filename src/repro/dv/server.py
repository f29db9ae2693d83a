"""The DV daemon: a TCP front end over the sharded coordinator (Sec. III).

The front end is an event-driven server: **one I/O thread** multiplexes
every client socket through :mod:`selectors`, decodes frames
incrementally, and hands complete messages to a small worker pool that
dispatches into the target context's shard.  Each connection is processed
serially (its messages keep their arrival order) but different
connections run on different workers, so independent contexts still
proceed fully in parallel.  All writes go through per-connection output
buffers drained by the I/O thread — queued ``ready`` notifications and
replies coalesce into single ``send`` calls instead of one syscall per
frame.

Every connection starts with one newline-JSON ``hello`` line and its
reply line; every frame after that is binary (:mod:`repro.dv.protocol`).
A hello that fails validation gets an error reply line and the connection
stays un-negotiated.  What each op is comes from the op table
(:mod:`repro.dv.ops`); a message that is no well-formed op is answered
``ERR_PROTOCOL`` and the connection is served on.

Beyond the classic per-file ops, ``stats`` snapshots the metrics plane
(per-shard summaries plus every counter/gauge/histogram), also reachable
as ``simfs-dv --stats``.  The wire itself is metered too:
``wire.frames_sent`` / ``wire.bytes_sent`` / ``wire.frames_recv`` /
``wire.bytes_recv``.

The daemon is also usable in-process via :meth:`DVServer.start` /
:meth:`DVServer.stop` — integration tests and the examples run it that
way on an ephemeral localhost port.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import queue
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.core.context import SimulationContext
from repro.core.errors import (
    DETAIL_ALREADY_ATTACHED,
    DETAIL_ALREADY_CONNECTED,
    ContextError,
    ErrorCode,
    InvalidArgumentError,
    ProtocolError,
    SimFSError,
)
from repro.dv.coordinator import DVCoordinator, Notification, OpenResult
from repro.dv.launcher import ThreadedLauncher
from repro.dv.ops import BOUNDED, OPS, WORKER, checked, problem
from repro.dv.protocol import (
    CODEC_BINARY,
    FWD_RUN_MAX,
    OP_FWD,
    PROTOCOL_VERSION,
    StreamDecoder,
    decode_frames,
    encode_binary,
    encode_message,
    encode_ok_reply,
    encode_open_reply,
    negotiate_codec,
    negotiate_trace,
    unpack_run,
)
from repro.metrics import MetricsRegistry
from repro.obs import SpanRecorder
from repro.obs.export import render_prometheus
from repro.util.clock import WallClock

__all__ = ["DVServer", "main"]

_RECV_SIZE = 65536

#: Flush a worker's reply collector once it holds this many bytes, even
#: mid-drain, so a huge pipelined burst cannot buffer unboundedly.
_COLLECT_MAX = 1 << 18

#: Backpressure high-water marks: stop reading a connection whose queued
#: messages or un-drained output exceed these.
_INBOX_HIGH = 1024
_OUTBUF_HIGH = 1 << 22

#: Hard cap on a connection's queued output.  Read-side backpressure
#: (``paused``) only throttles a peer's *requests*; server-initiated
#: fan-out (``ready`` notifications) keeps landing in ``outbuf`` no matter
#: how slowly the peer reads.  A connection that lets its backlog grow
#: past this is stalled or dead and gets disconnected instead of growing
#: the buffer without bound.
_OUTBUF_HARD = 4 * _OUTBUF_HIGH

#: How the splitter says a piece of a batch executes: as a local run (one
#: ``handle_run``), as a routed run (one ``fwd`` to the owner), as the
#: hello of an un-negotiated connection, or as one message on its own.
_LOCAL, _ROUTED, _HELLO, _ONE = range(4)

#: Per-op service-time buckets (seconds): finer than DEFAULT_BUCKETS at the
#: microsecond end, where the in-memory ops live.
_SERVICE_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.025, 0.1, 0.5, 2.5,
)


def _error_payload(exc: SimFSError) -> dict:
    """The reply payload of an op that failed with ``exc``."""
    return {"error": int(exc.code), "detail": str(exc)}


def reply_frame(message: dict, payload: dict, tc=None) -> bytes:
    """The reply frame a client reads for ``message`` answered with
    ``payload``, whichever daemon makes it: an ``open``'s reply leads
    with the op (and, for a trace-negotiated peer, a success carries the
    request's ``tc``), any other's with the payload — whose own ``op``,
    if it names one (``fwd_reply``), replaces ``reply``."""
    if message.get("op") != "open":
        return encode_binary({
            **payload, "op": payload.get("op", "reply"), "req": message.get("req"),
        })
    reply = {"op": "reply", "req": message.get("req"), **payload}
    if tc is not None and not payload.get("error"):
        reply["tc"] = tc
    return encode_binary(reply)


def reply_payloads(data: bytes) -> list[dict]:
    """Reply frames back as the payloads they were made of — for the
    few that read them: an answer the hop carried, a replay, a re-attach."""
    replies = decode_frames(data)
    for reply in replies:
        del reply["op"]
        reply.pop("req", None)
    return replies


@dataclass
class _ClientConn:
    """Per-connection state.

    ``send_lock`` guards the output buffer; ``inbox``/``busy`` implement
    the per-connection serialization (a connection is queued to the worker
    pool only while it is not already being worked on).  ``client_id`` is
    set by a valid ``hello``: until then the connection is un-negotiated
    (newline-JSON lines both ways), afterwards every frame is binary.
    """

    sock: socket.socket
    client_id: str | None = None
    #: Tracing negotiated on hello: traced packed binary frames (and
    #: ``tc`` fields on replies/notifications) may be sent to this peer.
    trace: bool = False
    contexts: set[str] = field(default_factory=set)
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    decoder: StreamDecoder = field(default_factory=StreamDecoder)
    outbuf: bytearray = field(default_factory=bytearray)
    inbox: collections.deque = field(default_factory=collections.deque)
    busy: bool = False
    closing: bool = False
    want_write: bool = False
    #: A flush request for this connection is already queued to the I/O
    #: thread — appending more output needs no further wake-up.
    flush_requested: bool = False
    #: Reading is suspended: inbox or outbuf crossed the high-water mark
    #: (backpressure — the peer outpaces its shard or stopped draining).
    paused: bool = False
    #: Event mask currently registered with the selector (0 = none).
    sel_mask: int = 0


class DVServer:
    """TCP Data Virtualizer daemon (selector event loop + worker pool)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._num_workers = workers or max(2, min(8, os.cpu_count() or 2))
        self._clock = WallClock()
        self.metrics = MetricsRegistry()
        # Span plane: every subsystem below (shards, launcher, cluster
        # node, data plane) records into this one recorder; the node id
        # is stamped in by the embedding layer (see repro.cluster.node).
        self.obs = SpanRecorder(node="dv")
        self.launcher = ThreadedLauncher(
            self._clock, metrics=self.metrics, obs=self.obs
        )
        self.coordinator = DVCoordinator(
            self.launcher, notify=self._push_ready, metrics=self.metrics,
            obs=self.obs,
        )
        self.launcher.bind(self.coordinator)
        # Client table: mutated by the I/O and worker threads, read by
        # notifier threads — every access goes through ``_clients_lock``.
        self._clients: dict[str, _ClientConn] = {}
        self._clients_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._io_thread: threading.Thread | None = None
        self._worker_threads: list[threading.Thread] = []
        self._work_queue: queue.Queue[_ClientConn | None] = queue.Queue()
        self._selector: selectors.DefaultSelector | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        # Connections whose outbuf gained data / that must be closed /
        # that may resume reading; the I/O thread drains all three after
        # a wake-up.
        self._flush_pending: collections.deque[_ClientConn] = collections.deque()
        self._close_pending: collections.deque[_ClientConn] = collections.deque()
        self._resume_pending: collections.deque[_ClientConn] = collections.deque()
        self._running = False
        # Contexts with a bounded storage area: their release/wclose/
        # finalize ops may evict-and-unlink on the PFS and must not run
        # on the event loop (see _needs_worker).  Everyone else's may.
        self._evicting_contexts: set[str] = set()
        # Cluster-tier hooks, all optional (see repro.cluster.node):
        #   _route_ops    — gateway: handle one client's consecutive ops
        #                   for a non-local context, returning their reply
        #                   frames in order, joined (runs on a worker)
        #   _ready_router — deliver a notification whose client_id is not a
        #                   local connection (a proxied cluster client)
        #   _hello_extra  — extra fields merged into every hello reply
        #   _drop_hook    — observe client disconnects (proxy cleanup)
        self._route_ops = None
        self._ready_router = None
        self._hello_extra = None
        self._drop_hook = None
        # One-slot memo so a notification fanned out to many waiters is
        # encoded once, not once per waiter.
        self._ready_memo: tuple[tuple[str, str, bool], bytes] | None = None
        self._ready_memo_lock = threading.Lock()
        # Worker-local reply collector: while a worker drains one
        # connection's inbox, its replies accumulate here and leave in a
        # single send (see _process_inbox).
        self._tl = threading.local()
        self._m_frames_sent = self.metrics.counter("wire.frames_sent")
        self._m_bytes_sent = self.metrics.counter("wire.bytes_sent")
        self._m_frames_recv = self.metrics.counter("wire.frames_recv")
        self._m_bytes_recv = self.metrics.counter("wire.bytes_recv")
        # Per-op service-time histograms (p50/p95/p99 in the stats op),
        # created lazily on first dispatch of each op.
        self._op_hist: dict[str, object] = {}
        # Handlers of the table's ops that are not run ops (those
        # execute as runs only), ``register_op`` adding to them.
        self._handlers = {
            "wclose": self._op_wclose,
            "bitrep": self._op_bitrep,
            "attach": self._op_attach,
            "finalize": self._op_finalize,
            "stats": self._op_stats,
            "fetch_info": self._op_fetch_info,
            "trace": self._op_trace,
            "trace_slow": self._op_trace_slow,
            "metrics_text": self._op_metrics_text,
        }
        # (host, port) of the bulk data plane serving this daemon's files,
        # advertised through the fetch_info op (see set_data_endpoint).
        self._data_endpoint: tuple[str, int] | None = None
        self._m_slow_close = self.metrics.counter("wire.slow_disconnects")

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def add_context(
        self,
        context: SimulationContext,
        output_dir: str,
        restart_dir: str,
        alpha_delay: float = 0.0,
        tau_delay: float = 0.0,
    ) -> None:
        """Register a context and where its files live."""
        os.makedirs(output_dir, exist_ok=True)
        os.makedirs(restart_dir, exist_ok=True)

        def delete_file(filename: str) -> None:
            try:
                os.unlink(os.path.join(output_dir, filename))
            except FileNotFoundError:
                pass

        shard = self.coordinator.register_context(context, on_evict_file=delete_file)
        if context.config.max_storage_bytes is not None:
            self._evicting_contexts.add(context.name)
        self.launcher.register_context(
            context.name, context.driver, output_dir, restart_dir,
            alpha_delay=alpha_delay, tau_delay=tau_delay,
        )
        # Files already on disk (e.g. from the initial simulation) are part
        # of the cache state at daemon start.
        for fname in sorted(os.listdir(output_dir)):
            if context.driver.naming.is_output(fname):
                key = context.key_of(fname)
                cost = float(context.geometry.miss_cost(key))
                shard.area.insert(key, cost=cost)

    def storage_path(self, context_name: str, filename: str) -> str:
        return os.path.join(self.launcher.output_dir(context_name), filename)

    def register_op(self, name: str, handler, replace: bool = False) -> None:
        """Serve the op table's row ``name`` with ``handler(conn,
        message) -> payload`` (a cluster node's ops).  The row says where
        it runs; a payload of ``None`` sends no reply (a routed ``ready``)
        and one may name its reply op (``fwd_reply``).

        ``replace=True`` shadows a built-in handler (a cluster node
        overrides ``trace`` with a cluster-wide view).  The handshake and
        the run ops execute nowhere else, so they cannot be registered.
        """
        row = OPS.get(name)
        if row is None or row.runs or name == "hello":
            raise InvalidArgumentError(f"op {name!r} cannot be registered")
        if name in self._handlers and not replace:
            raise InvalidArgumentError(f"op {name!r} is already defined")
        self._handlers[name] = handler

    def set_data_endpoint(self, host: str, port: int) -> None:
        """Advertise the bulk data plane serving this daemon's context
        files; ``fetch_info`` replies carry it so clients know where to
        pull bytes from."""
        self._data_endpoint = (host, int(port))

    def data_endpoint(self) -> tuple[str, int] | None:
        return self._data_endpoint

    def set_cluster_hooks(
        self,
        route_ops=None,
        ready_router=None,
        hello_extra=None,
        drop_hook=None,
    ) -> None:
        """Install the gateway/membership callbacks (cluster tier)."""
        self._route_ops = route_ops
        self._ready_router = ready_router
        self._hello_extra = hello_extra
        self._drop_hook = drop_hook

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the daemon listens on; valid after :meth:`start`."""
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        """Bind, listen, and serve clients on background threads."""
        self._listener = socket.create_server((self._host, self._port))
        self._listener.setblocking(False)
        self._running = True
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        for idx in range(self._num_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"simfs-dv-worker-{idx}", daemon=True
            )
            thread.start()
            self._worker_threads.append(thread)
        self._io_thread = threading.Thread(
            target=self._io_loop, name="simfs-dv-io", daemon=True
        )
        self._io_thread.start()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight work, and close every client.

        Graceful teardown: new connections stop first, then running
        re-simulations report their last files, the worker
        pool finishes the queued messages, and every per-connection
        coalescing writer is flushed — a ``ready`` notification or reply
        already produced (or about to be, by an in-flight simulation) is
        delivered instead of dropped with the socket.  ``drain_timeout``
        bounds the whole wait; pass ``0`` for an abrupt teardown (what a
        crash looks like to clients and cluster peers).
        """
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if drain_timeout > 0 and self._running:
            self._drain_for_stop(drain_timeout)
        self._running = False
        self._wake()
        if self._io_thread is not None:
            self._io_thread.join(timeout=10.0)
        for _ in self._worker_threads:
            self._work_queue.put(None)
        for thread in self._worker_threads:
            thread.join(timeout=10.0)
        self._worker_threads.clear()
        with self._clients_lock:
            conns = list(self._clients.values())
            self._clients.clear()
        for conn in conns:
            self._shutdown_socket(conn.sock)

    def _drain_for_stop(self, timeout: float) -> bool:
        """Best-effort quiesce before teardown: wait until running
        re-simulations have reported (their ready notifications are what
        clients block on), the worker pool has drained every inbox, and
        the I/O thread has flushed every output buffer (the I/O machinery
        keeps running throughout)."""
        deadline = time.monotonic() + timeout
        # The slow part first, event-driven: block on the launcher's idle
        # signal while in-flight re-simulations finish, instead of
        # spinning the poll loop below at 5ms for their whole runtime.
        self.launcher.wait_idle(timeout)
        while time.monotonic() < deadline:
            with self._clients_lock:
                conns = list(self._clients.values())
            pending = (
                not self._work_queue.empty()
                or self.launcher.running_threads > 0
            )
            for conn in conns:
                with conn.send_lock:
                    if conn.closing:
                        continue
                    if conn.busy or conn.inbox:
                        pending = True
                    elif conn.outbuf:
                        pending = True
                        if not conn.flush_requested:
                            conn.flush_requested = True
                            self._flush_pending.append(conn)
            if not pending:
                return True
            self._wake()
            time.sleep(0.005)
        return False

    def __enter__(self) -> "DVServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @staticmethod
    def _shutdown_socket(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    @staticmethod
    def _tune_socket(sock: socket.socket) -> None:
        try:
            # Reply and ready frames are small; don't let Nagle's
            # algorithm sit on them.  Keepalive makes the server
            # eventually notice half-open peers, so their client_id
            # (reserved against duplicate hellos) frees up.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            # Default kernel keepalive idles for hours; probe after 60s
            # so a crashed client's reserved client_id frees up within
            # ~2 minutes instead.
            if hasattr(socket, "TCP_KEEPIDLE"):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, 60)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPINTVL, 15)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPCNT, 4)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def _wake(self) -> None:
        if self._wake_w is None:
            return
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass

    def _io_loop(self) -> None:
        assert self._selector is not None
        try:
            while self._running:
                events = self._selector.select(timeout=1.0)
                for key, mask in events:
                    data = key.data
                    if data == "accept":
                        self._accept_ready()
                    elif data == "wake":
                        self._drain_wake()
                    else:
                        conn: _ClientConn = data
                        if mask & selectors.EVENT_READ:
                            self._read_ready(conn)
                        if mask & selectors.EVENT_WRITE and not conn.closing:
                            self._flush_conn(conn)
                self._drain_flush_requests()
                self._drain_resume_requests()
                self._drain_close_requests()
        finally:
            try:
                self._selector.close()
            except OSError:
                pass
            for sock in (self._wake_r, self._wake_w):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass

    def _accept_ready(self) -> None:
        assert self._selector is not None and self._listener is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return  # listener closed
            self._tune_socket(sock)
            sock.setblocking(False)
            conn = _ClientConn(sock)
            try:
                self._selector.register(sock, selectors.EVENT_READ, conn)
                conn.sel_mask = selectors.EVENT_READ
            except (KeyError, ValueError, OSError):
                self._shutdown_socket(sock)

    def _drain_wake(self) -> None:
        assert self._wake_r is not None
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _read_ready(self, conn: _ClientConn) -> None:
        try:
            chunk = conn.sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn)
            return
        if not chunk:
            self._close_conn(conn)
            return
        self._m_bytes_recv.inc(len(chunk))
        conn.decoder.feed(chunk)
        try:
            # Every op is validated here, once, before any rule reads it.
            messages = conn.decoder.drain(checked)
        except ProtocolError:
            # Unparseable or oversized stream: the only safe move is to
            # drop the connection (framing is lost).
            self._close_conn(conn)
            return
        if not messages:
            return
        for message in messages:
            if "tc" in message:
                # Traced request: stamp arrival so dispatch can emit a
                # queue-wait span (untraced messages pay nothing).
                message["_obs_t0"] = time.time()
        self._m_frames_recv.inc(len(messages))
        with conn.send_lock:
            backlog = conn.busy or bool(conn.inbox)
            if backlog:
                conn.inbox.extend(messages)
                schedule = not conn.busy
                if schedule:
                    conn.busy = True
                # Backpressure: a peer outpacing its shard (or one that
                # stopped draining replies) must not grow the queues
                # without bound — stop reading until they drain.
                conn.paused = (
                    len(conn.inbox) >= _INBOX_HIGH
                    or len(conn.outbuf) >= _OUTBUF_HIGH
                )
        if backlog:
            self._update_interest(conn)
            if schedule:
                self._work_queue.put(conn)
            return
        self._run_inline(conn, messages)
        with conn.send_lock:
            conn.paused = len(conn.outbuf) >= _OUTBUF_HIGH
        self._update_interest(conn)

    def _needs_worker(self, message: dict) -> bool:
        """Must ``message`` leave the event loop?  Its row's ``where``
        says (``bitrep`` checksums a step off the PFS, ``stats`` snapshots
        every shard; a bounded context's ``release``/``wclose``/
        ``finalize`` may evict and unlink files), except that an op the
        gateway forwards blocks on that round trip, a forwarded run stays
        on the loop when it is all one local run — the rule a client's
        run follows — and a cluster node's hello may wait on the cluster
        lock (activation holds it across PFS scans) or forward an attach."""
        op = message.get("op")
        row = OPS.get(op) if isinstance(op, str) else None
        if row is None:
            return False  # refused: answered on the loop
        context = message.get("context")
        if op == OP_FWD and "run" in message:
            try:
                _origin, client_id, ops = unpack_run(message)
            except ProtocolError:
                return False  # refused whole: answered on the loop
            count, how = self._split(client_id, ops, 0, inline=True, route=False)
            return how != _LOCAL or count < len(ops)
        if row.forwardable and self._forwards(context):
            return True
        if op == "hello":
            return self._hello_extra is not None or self._route_ops is not None
        if row.where == BOUNDED:
            return isinstance(context, str) and context in self._evicting_contexts
        return row.where == WORKER

    def _run_inline(self, conn: _ClientConn, messages: list[dict]) -> None:
        """Hot path: execute a quiescent connection's batch on the event
        loop itself — in-memory ops (open/release/attach/...) never pay
        a worker-pool hop.  The first op that may block (a ``bitrep``
        checksum reads the file off the PFS) hands the rest of the batch
        to the pool, keeping the loop responsive."""
        tl = self._tl
        tl.conn = conn
        tl.buf = bytearray()
        tl.frames = 0
        idx, total = 0, len(messages)
        try:
            while idx < total:
                try:
                    count, how = self._split(conn.client_id, messages, idx, True)
                    if how != _LOCAL and self._needs_worker(messages[idx]):
                        # Flush before handing over so replies leave in
                        # the order their requests arrived.
                        self._flush_collector()
                        with conn.send_lock:
                            conn.inbox.extend(messages[idx:])
                            conn.busy = True
                        self._work_queue.put(conn)
                        return
                    run = messages if count == total else messages[idx:idx + count]
                    self._execute(conn, run, how)
                except Exception:
                    tl.frames = 0  # the conn is going down: drop replies
                    self._close_conn(conn)
                    return
                idx += count
                if len(tl.buf) >= _COLLECT_MAX:
                    self._flush_collector()
        finally:
            self._flush_collector()
            tl.conn = None

    def _flush_conn(self, conn: _ClientConn) -> None:
        """Write as much buffered output as the socket accepts — every
        frame queued since the last flush leaves in one ``send``."""
        failed = False
        with conn.send_lock:
            conn.flush_requested = False
            if conn.outbuf:
                try:
                    sent = conn.sock.send(conn.outbuf)
                    del conn.outbuf[:sent]
                except BlockingIOError:
                    pass
                except OSError:
                    conn.outbuf.clear()
                    failed = True
            if not failed:
                conn.want_write = bool(conn.outbuf)
                if conn.paused and len(conn.outbuf) < _OUTBUF_HIGH \
                        and len(conn.inbox) < _INBOX_HIGH:
                    conn.paused = False  # drained: resume reading
        if failed:
            # Tear down outside send_lock: _drop_client reaches for the
            # shard lock, which notifier threads hold while waiting for
            # this very send_lock (_push_ready -> _queue_or_send).
            self._close_conn(conn)
            return
        self._update_interest(conn)

    def _update_interest(self, conn: _ClientConn) -> None:
        """Reconcile the selector registration with the connection state
        (I/O thread only; never called with send_lock held)."""
        assert self._selector is not None
        if conn.closing:
            return
        mask = 0
        if not conn.paused:
            mask |= selectors.EVENT_READ
        if conn.want_write:
            mask |= selectors.EVENT_WRITE
        if mask == conn.sel_mask:
            return
        try:
            if mask == 0:
                self._selector.unregister(conn.sock)
            elif conn.sel_mask == 0:
                self._selector.register(conn.sock, mask, conn)
            else:
                self._selector.modify(conn.sock, mask, conn)
            conn.sel_mask = mask
        except (KeyError, ValueError, OSError):
            pass

    def _drain_flush_requests(self) -> None:
        while True:
            try:
                conn = self._flush_pending.popleft()
            except IndexError:
                return
            if not conn.closing:
                self._flush_conn(conn)

    def _drain_close_requests(self) -> None:
        while True:
            try:
                conn = self._close_pending.popleft()
            except IndexError:
                return
            self._close_conn(conn)

    def _drain_resume_requests(self) -> None:
        while True:
            try:
                conn = self._resume_pending.popleft()
            except IndexError:
                return
            if conn.closing:
                continue
            with conn.send_lock:
                if (
                    len(conn.inbox) < _INBOX_HIGH
                    and len(conn.outbuf) < _OUTBUF_HIGH
                ):
                    conn.paused = False
            self._update_interest(conn)

    def _close_conn(self, conn: _ClientConn) -> None:
        """I/O-thread-side teardown of one connection.

        The socket and selector entry go away immediately; the shard-side
        cleanup (which may evict and delete files on bounded areas) runs
        on the worker pool.  The client_id stays reserved until that
        cleanup finishes, so a reconnect cannot race its own teardown.
        """
        if conn.closing:
            return
        conn.closing = True
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.sel_mask = 0
        self._shutdown_socket(conn.sock)
        if conn.client_id is not None or conn.contexts:
            self._work_queue.put(lambda: self._drop_client(conn))

    def _worker_loop(self) -> None:
        while True:
            item = self._work_queue.get()
            if item is None:
                return
            if callable(item):
                item()  # deferred cleanup (see _close_conn)
            else:
                self._process_inbox(item)

    def _process_inbox(self, conn: _ClientConn) -> None:
        """Drain one connection's queued messages in arrival order.

        While the drain runs, every frame this worker produces for the
        connection lands in a thread-local collector; it leaves as one
        coalesced send when the inbox is empty (or the collector fills),
        instead of one wake-up + syscall per message.
        """
        tl = self._tl
        tl.conn = conn
        tl.buf = bytearray()
        tl.frames = 0
        resume = False
        try:
            while True:
                with conn.send_lock:
                    drained = not conn.inbox or conn.closing
                    if not drained:
                        # The head messages that execute as one run leave
                        # the inbox together.
                        count, how = self._split(conn.client_id, conn.inbox)
                        run = [conn.inbox.popleft() for _ in range(count)]
                if drained:
                    # Flush *before* releasing the connection: once busy
                    # drops, the I/O thread may run newer messages inline,
                    # and their replies must not overtake the ones still
                    # sitting in this worker's collector.
                    self._flush_collector()
                    with conn.send_lock:
                        if not conn.inbox or conn.closing:
                            conn.busy = False
                            resume = conn.paused and not conn.closing
                            break
                    continue  # new messages arrived during the flush
                try:
                    self._execute(conn, run, how)
                except Exception:
                    # A failed send or an unexpected handler crash tears
                    # down this connection only — the worker must survive
                    # to serve every other client.
                    with conn.send_lock:
                        conn.busy = False
                    self._close_pending.append(conn)
                    self._wake()
                    return
                if len(tl.buf) >= _COLLECT_MAX:
                    self._flush_collector()
        finally:
            self._flush_collector()
            tl.conn = None
        if resume:
            # The drain brought a paused connection back under the
            # high-water marks: ask the I/O thread to read it again.
            self._resume_pending.append(conn)
            self._wake()

    def _flush_collector(self) -> None:
        """Hand the worker's accumulated output to the wire in one go."""
        tl = self._tl
        if not tl.frames:
            return
        buf, frames = tl.buf, tl.frames
        tl.buf = bytearray()
        tl.frames = 0
        self._m_frames_sent.inc(frames)
        self._m_bytes_sent.inc(len(buf))
        self._queue_or_send(tl.conn, buf)

    # ------------------------------------------------------------------ #
    # Runs: the unit of execution
    # ------------------------------------------------------------------ #
    def _forwards(self, context) -> bool:
        """Is an op naming ``context`` the gateway's to forward: a cluster
        tier is installed and the context is not served here?"""
        return (
            self._route_ops is not None
            and isinstance(context, str)
            and not self.coordinator.has_context(context)
        )

    def _split(
        self, client_id, messages, start: int = 0, inline: bool = False,
        route: bool = True,
    ) -> tuple[int, int]:
        """The run splitter (both drains and ``serve_ops``): how many of
        a client's ``messages`` from ``start`` on execute together, and
        how.  A run is consecutive ops the table says join runs, for one
        context, up to ``FWD_RUN_MAX``: a *local* run (one ``handle_run``:
        it holds the shard lock) or, when ``route`` and the context is
        the gateway's to forward, a *routed* one (one ``fwd`` frame).
        Another context and any other op end it; so does, on the event
        loop (``inline``), a local release that may evict — it must leave
        the loop.  Any other forwardable op is a run of one; everything
        else is one message on its own."""
        if client_id is None:
            return 1, _HELLO
        head = messages[start]
        row = OPS.get(head["op"])
        if row is None or not row.forwardable:
            return 1, _ONE
        context = head["context"]
        routed = route and self._forwards(context)
        if row.runs:
            evicts = inline and not routed and context in self._evicting_contexts
            end = start
            limit = min(len(messages), start + FWD_RUN_MAX)
            while end < limit:
                message = messages[end]
                row = OPS.get(message["op"])
                if (
                    row is None or not row.runs or message["context"] != context
                    or (evicts and row.where == BOUNDED)
                    # A traced op crosses the hop alone, its tc on the fwd.
                    or (routed and "tc" in message)
                ):
                    break
                end += 1
            if end > start:
                return end - start, _ROUTED if routed else _LOCAL
        return 1, _ROUTED if routed else _ONE

    def _execute(self, conn: _ClientConn, run: list[dict], how: int) -> None:
        """Execute what ``_split`` cut off the head of a batch."""
        if how == _LOCAL:
            self._serve_run(conn, run)
        elif how == _ROUTED:
            self._dispatch_run(conn, run)
        elif how == _HELLO:
            self._handle_hello(conn, run[0])
        else:
            self._dispatch(conn, run[0])

    def execute_run(
        self, client_id: str, run: list[dict], stamps: list | None = None
    ) -> list:
        """Every local run enters the shard here, a connection's and a
        routed client's alike: one ``handle_run`` for the lot.  Returns
        its results — per message an :class:`OpenResult`, ``None`` for a
        release, or the :class:`SimFSError` that op failed with."""
        try:
            shard = self.coordinator.shard(run[0]["context"])
        except ContextError as exc:
            return [exc] * len(run)
        return shard.handle_run(
            client_id,
            [(m["op"] == "open", m["file"], m.get("tc")) for m in run],
            self._clock.now(),
            stamps,
        )

    def _serve_run(self, conn: _ClientConn, run: list[dict]) -> None:
        """A connection's local run: every op is observed with its own
        service time — its turn in the shard, not the run it travelled
        with."""
        stamps = [time.perf_counter()]
        results = self.execute_run(conn.client_id, run, stamps)
        stamps += [stamps[-1]] * (len(run) + 1 - len(stamps))  # nothing ran
        frames = self._pack_run(run, results, conn.trace)
        self._send_raw(conn, b"".join(frames), len(run))
        for idx, message in enumerate(run):
            self._observe_op(
                message["op"], stamps[idx + 1] - stamps[idx], message,
                message.get("_obs_t0"), stamps[idx + 1],
            )

    @staticmethod
    def _pack_run(run: list[dict], results: list, trace: bool) -> list[bytes]:
        """A local run's reply frames, packed straight from its results:
        byte for byte what each op is answered with alone."""
        frames = []
        for message, result in zip(run, results):
            if result is None:
                frames.append(encode_ok_reply(message.get("req")))
            elif isinstance(result, OpenResult):
                frames.append(encode_open_reply(
                    message.get("req"), result.available, result.state.value,
                    result.estimated_wait, CODEC_BINARY,
                    tc=message.get("tc") if trace else None,
                ))
            else:
                frames.append(reply_frame(message, _error_payload(result)))
        return frames

    def serve_ops(self, client, ops: list[dict]) -> list[bytes]:
        """Run ``ops`` here, in order, forwarding nothing: local runs
        through ``execute_run``, the rest one by one.  Returns per op the
        reply frame a connected client would read.  The cluster tier's
        execute hook for a routed client; ``client`` quacks like a
        connection (``client_id``/``contexts``)."""
        frames: list[bytes] = []
        idx = 0
        while idx < len(ops):
            count, how = self._split(client.client_id, ops, idx, route=False)
            if how == _LOCAL:
                run = ops if count == len(ops) else ops[idx:idx + count]
                frames += self._pack_run(
                    run, self.execute_run(client.client_id, run), False
                )
            else:
                frames.append(reply_frame(ops[idx], self._answer(client, ops[idx])))
            idx += count
        return frames

    # ------------------------------------------------------------------ #
    # Handshake and dispatch
    # ------------------------------------------------------------------ #
    def _handle_hello(self, conn: _ClientConn, message: dict) -> None:
        """First message of a connection.  The hello and its reply are
        newline-JSON lines; a valid hello switches both directions to
        binary frames, a rejected one leaves the connection un-negotiated
        (the peer may send another hello)."""
        req = message.get("req")
        client_id = message.get("client_id")
        context_name = message.get("context")
        try:
            if message.get("op") != "hello":
                raise ProtocolError("first message must be hello")
            detail = problem(message)
            if detail is not None:
                raise ProtocolError(detail)
            codec = negotiate_codec(message)
            if not client_id:
                raise ProtocolError("hello needs a non-empty 'client_id'")
            with self._clients_lock:
                if client_id in self._clients:
                    # A second hello reusing a live client_id would silently
                    # orphan the first connection's notifications.
                    raise InvalidArgumentError(
                        f"client_id {client_id!r} is {DETAIL_ALREADY_CONNECTED}"
                    )
                conn.client_id = client_id
                self._clients[client_id] = conn
        except (ProtocolError, InvalidArgumentError) as exc:
            self._send_line(conn, {"op": "reply", "req": req,
                                   "error": int(exc.code), "detail": str(exc)})
            return
        trace = negotiate_trace(message)
        error = int(ErrorCode.SUCCESS)
        detail = ""
        if context_name:
            if self._forwards(context_name):
                # Gateway path: the context lives on a peer — forward the
                # attach so the owner registers this client as a waiter.
                payload = reply_payloads(self._route(
                    conn, [{"op": "attach", "context": context_name}]
                ))[0]
                error = int(payload.get("error", ErrorCode.SUCCESS))
                detail = payload.get("detail", "")
            else:
                try:
                    self.coordinator.client_connect(client_id, context_name)
                    conn.contexts.add(context_name)
                except SimFSError as exc:
                    error, detail = int(exc.code), str(exc)
        reply = {
            "op": "reply", "req": req,
            "error": error, "detail": detail,
            "vers": PROTOCOL_VERSION, "codec": codec,
        }
        if trace:
            reply["trace"] = 1
        if self._hello_extra is not None:
            reply.update(self._hello_extra())
        self._send_line(conn, reply)
        conn.decoder.set_codec(codec)
        conn.trace = trace

    def _dispatch(self, conn: _ClientConn, message: dict) -> None:
        started = time.perf_counter()
        arrived = message.pop("_obs_t0", None)
        try:
            self._dispatch_op(conn, message)
        finally:
            self._observe_op(
                message.get("op"), time.perf_counter() - started,
                message, arrived,
            )

    def _observe_op(
        self, op, elapsed: float, message: dict | None = None,
        arrived: float | None = None, ended: float | None = None,
    ) -> None:
        """Record one op's service time (dispatch entry to reply queued;
        for an op of a local run, its turn in the shard, which ended at
        ``perf_counter`` reading ``ended``).

        Traced messages additionally get an ``op.<op>`` span (plus a
        queue-wait span when the arrival timestamp is known) and an
        exemplar binding the latency bucket to the trace id; untraced
        ones only pay the histogram observe unless they cross the tail
        threshold.
        """
        if not isinstance(op, str):
            op = "unknown"
        hist = self._op_hist.get(op)
        if hist is None:
            hist = self.metrics.histogram(
                f"op.{op}.seconds", buckets=_SERVICE_BUCKETS
            )
            self._op_hist[op] = hist
        hist.observe(elapsed)
        if message is None:
            return
        tc = message.get("tc")
        if tc is None and elapsed < self.obs.slow_threshold:
            return
        end = time.time()
        if ended is not None:
            end -= time.perf_counter() - ended
        start = end - elapsed
        self.obs.record(
            f"op.{op}", tc, start, end,
            context=message.get("context"), file=message.get("file"),
        )
        if tc is not None:
            if arrived is not None and start > arrived:
                self.obs.record("op.queue", tc, arrived, start)
            self.obs.attach_exemplar(
                f"op.{op}.seconds", hist.bounds, elapsed, tc
            )

    def _dispatch_op(self, conn: _ClientConn, message: dict) -> None:
        payload = self._answer(conn, message)
        if payload is not None:  # None: a one-way frame, no reply
            self._send_raw(conn, reply_frame(message, payload))

    def _route(self, conn: _ClientConn, messages: list[dict]) -> bytes:
        """Gateway path: this daemon does not own the messages' context —
        the route hook forwards them to the owning peer and hands back
        their reply frames, in order, as the owner made them."""
        try:
            return self._route_ops(conn, messages)
        except SimFSError as exc:
            error = _error_payload(exc)
            return b"".join(reply_frame(message, error) for message in messages)

    def _dispatch_run(self, conn: _ClientConn, run: list[dict]) -> None:
        """Forward a run taken off the inbox and hand its reply frames to
        the connection in one piece; each op is observed like a dispatch
        of its own, from the start of the run to its reply queued (a
        traced op travels alone, its arrival stamp off before packing)."""
        started = time.perf_counter()
        arrived = run[0].pop("_obs_t0", None)
        self._send_raw(conn, self._route(conn, run), len(run))
        elapsed = time.perf_counter() - started
        for message in run:
            self._observe_op(message["op"], elapsed, message, arrived)

    def _answer(self, conn: _ClientConn, message: dict) -> dict | None:
        """Execute one op here: its handler's payload, a SimFS error as
        one, or — for a message refused by the table or an op this daemon
        has no handler for — ``ERR_PROTOCOL``."""
        handler = self._handlers.get(message["op"])
        if handler is None:
            return {
                "error": int(ErrorCode.ERR_PROTOCOL),
                "detail": message.get("_refused")
                or f"unknown op {message['op']!r}",
            }
        try:
            payload = handler(conn, message)
        except SimFSError as exc:
            return _error_payload(exc)
        if payload is not None:
            payload.setdefault("error", int(ErrorCode.SUCCESS))
        return payload

    # -- op handlers ------------------------------------------------------ #
    def _op_attach(self, conn: _ClientConn, message: dict) -> dict:
        context = message["context"]
        try:
            self.coordinator.client_connect(conn.client_id, context)
        except InvalidArgumentError as exc:
            if DETAIL_ALREADY_ATTACHED in str(exc):
                # Restored with the shard's state (a promotion, a
                # migration): the attachment is this connection's now,
                # and leaves with it.
                conn.contexts.add(context)
            raise
        conn.contexts.add(context)
        return {}

    def _op_wclose(self, conn: _ClientConn, message: dict) -> dict:
        self.coordinator.sim_file_closed(
            message["context"], message["file"], self._clock.now()
        )
        return {}

    def _op_bitrep(self, conn: _ClientConn, message: dict) -> dict:
        context = message["context"]
        filename = message["file"]
        path = message.get("path")
        if path is None:
            path = self.storage_path(context, filename)
        else:
            self._check_bitrep_path(context, path)
        matches = self.coordinator.handle_bitrep(context, filename, path)
        return {"matches": matches}

    def _check_bitrep_path(self, context: str, path: str) -> None:
        """A client-supplied ``path`` must stay inside the context's
        storage or restart directory — the checksum result would otherwise
        let a TCP client probe arbitrary server files byte-for-byte."""
        real = os.path.realpath(path)
        for allowed in (
            self.launcher.output_dir(context),
            self.launcher.restart_dir(context),
        ):
            base = os.path.realpath(allowed)
            if real == base or real.startswith(base + os.sep):
                return
        raise InvalidArgumentError(
            f"bitrep path {path!r} is outside the {context!r} storage areas"
        )

    def _op_finalize(self, conn: _ClientConn, message: dict) -> dict:
        context = message["context"]
        self.coordinator.client_disconnect(
            conn.client_id, context, self._clock.now()
        )
        conn.contexts.discard(context)
        return {}

    def _op_fetch_info(self, conn: _ClientConn, message: dict) -> dict:
        """Where (and whether) a context file can be pulled over the data
        plane.  Routable: asked of a non-owner, the gateway forwards it to
        the owning node, whose reply names *its* data endpoint —
        which is exactly the redirect the client needs.  Without ``file``
        the reply lists the context's available output files instead
        (the ``fetch_context`` enumeration)."""
        context = message["context"]
        if not self.coordinator.has_context(context):
            raise ContextError(f"unknown context {context!r}")
        out_dir = self.launcher.output_dir(context)
        host, port = self._data_endpoint or (None, 0)
        payload: dict = {
            "context": context,
            "data_host": host,
            "data_port": port,
        }
        filename = message.get("file")
        if filename is None:
            naming = self.coordinator.shard(context).context.driver.naming
            try:
                names = sorted(
                    n for n in os.listdir(out_dir)
                    if naming.is_output(n)
                    and os.path.isfile(os.path.join(out_dir, n))
                )
            except OSError:
                names = []
            payload["files"] = names
            return payload
        path = self.storage_path(context, filename)
        try:
            payload["size"] = os.path.getsize(path)
            payload["exists"] = True
        except OSError:
            payload["size"] = 0
            payload["exists"] = False
        return payload

    def _op_stats(self, conn: _ClientConn, message: dict) -> dict:
        snapshot = self.coordinator.stats_snapshot()
        with self._clients_lock:
            snapshot["server"] = {
                "connected_clients": len(self._clients),
                "mode": "selector",
                "workers": self._num_workers,
            }
        return {"stats": snapshot}

    # -- observability ops ------------------------------------------------ #
    # The cluster node shadows these three with fan-out versions
    # (register_op(..., replace=True)) that merge its peers' recorders;
    # the bodies below are the single-daemon view.
    def trace_spans(self, trace_id: str | int) -> list[dict]:
        """Retained spans of one trace on this daemon."""
        return self.obs.trace(trace_id)

    def slow_spans(self, limit: int = 20) -> list[dict]:
        """Slowest retained spans on this daemon (tail-sampled view)."""
        return self.obs.slow(limit)

    def metrics_text(self) -> str:
        """Prometheus text exposition of this daemon's metrics plane."""
        return render_prometheus(self.metrics.snapshot(), self.obs.exemplars())

    def _op_trace(self, conn: _ClientConn, message: dict) -> dict:
        trace_id = message["trace_id"]
        if not trace_id:
            raise InvalidArgumentError("trace requires a non-empty 'trace_id'")
        return {"trace": {
            "trace_id": trace_id.lower(),
            "spans": self.trace_spans(trace_id),
            "nodes": [self.obs.node],
            "unreachable": [],
        }}

    def _op_trace_slow(self, conn: _ClientConn, message: dict) -> dict:
        limit = message.get("limit", 20)
        return {"slow": {
            "spans": self.slow_spans(limit),
            "journal": self.obs.journal_entries(limit=limit),
            "nodes": [self.obs.node],
            "unreachable": [],
        }}

    def _op_metrics_text(self, conn: _ClientConn, message: dict) -> dict:
        return {"text": self.metrics_text(), "nodes": [self.obs.node],
                "unreachable": []}

    # ------------------------------------------------------------------ #
    def _drop_client(self, conn: _ClientConn) -> None:
        if conn.client_id is not None:
            with self._clients_lock:
                # Only remove our own entry — a rejected duplicate hello
                # must not evict the live connection owning the client_id.
                if self._clients.get(conn.client_id) is conn:
                    del self._clients[conn.client_id]
        for context in list(conn.contexts):
            try:
                self.coordinator.client_disconnect(
                    conn.client_id, context, self._clock.now()
                )
            except SimFSError:
                pass
        if self._drop_hook is not None and conn.client_id is not None:
            self._drop_hook(conn.client_id)

    def _push_ready(self, notification: Notification) -> None:
        with self._clients_lock:
            conn = self._clients.get(notification.client_id)
        if conn is None:
            # Not a local connection: a cluster owner delivering to a
            # client that entered through a peer gateway hands the
            # notification to the routing hook instead of dropping it.
            if self._ready_router is not None:
                self._ready_router(notification)
            return
        tc = notification.tc
        if tc is not None and conn.trace:
            # Traced delivery bypasses the fan-out memo (the tc is
            # per-waiter); only trace-negotiated peers may receive the
            # traced frame, everyone else gets the shared untraced bytes.
            start = time.time()
            data = encode_binary({
                "op": "ready",
                "context": notification.context_name,
                "file": notification.filename,
                "ok": notification.ok,
                "tc": tc,
            })
            self._send_raw(conn, data)
            self.obs.record(
                "ready.fanout", tc, start, time.time(),
                context=notification.context_name, file=notification.filename,
            )
            return
        self._send_raw(conn, self._encode_ready(notification))

    def _encode_ready(self, notification: Notification) -> bytes:
        """Encode a ``ready`` frame once and reuse it for every waiter of
        the same file (shards fan notifications out back to back, so a
        one-slot memo captures the whole wave)."""
        key = (notification.context_name, notification.filename, notification.ok)
        with self._ready_memo_lock:
            if self._ready_memo is None or self._ready_memo[0] != key:
                self._ready_memo = (key, encode_binary({
                    "op": "ready",
                    "context": notification.context_name,
                    "file": notification.filename,
                    "ok": notification.ok,
                }))
            return self._ready_memo[1]

    def _send(self, conn: _ClientConn, message: dict) -> None:
        self._send_raw(conn, encode_binary(message))

    def _send_line(self, conn: _ClientConn, message: dict) -> None:
        """The hello reply (granted or rejected): one newline-JSON line."""
        self._send_raw(conn, encode_message(message))

    def _send_raw(self, conn: _ClientConn, data: bytes, frames: int = 1) -> None:
        """Ship one encoded frame (or ``frames`` of them, joined) to a
        connection.

        First choice is the owning worker's collector (coalesced with the
        rest of the inbox drain); frames for *other* connections —
        ``ready`` fan-out, notifications from launcher threads — go
        through :meth:`_queue_or_send`.
        """
        tl = self._tl
        if getattr(tl, "conn", None) is conn:
            tl.buf += data
            tl.frames += frames
            return
        self._m_frames_sent.inc(frames)
        self._m_bytes_sent.inc(len(data))
        self._queue_or_send(conn, data)

    def _queue_or_send(self, conn: _ClientConn, data: bytes) -> None:
        """Send straight from this thread when the
        output buffer is clear (no wake-up, no extra hop); otherwise
        append behind the backlog and ask the I/O thread to drain it."""
        need_wake = False
        with conn.send_lock:
            if conn.closing:
                return
            if not conn.outbuf and not conn.want_write:
                try:
                    sent = conn.sock.send(data)
                except BlockingIOError:
                    sent = 0
                except OSError:
                    need_wake = True
                    sent = len(data)  # drop: the close tears the conn down
                if sent < len(data):
                    conn.outbuf += memoryview(data)[sent:]
            else:
                conn.outbuf += data
                if len(conn.outbuf) >= _OUTBUF_HARD:
                    # Fan-out to a peer that stopped reading: cut it loose
                    # rather than buffer without bound (read-side pause
                    # cannot help here — the bytes are server-initiated).
                    self._m_slow_close.inc()
                    need_wake = True
            if need_wake:  # OSError/overflow path: request teardown
                self._close_pending.append(conn)
            elif conn.outbuf and not conn.flush_requested:
                conn.flush_requested = True
                self._flush_pending.append(conn)
                need_wake = True
            else:
                return
        self._wake()


# --------------------------------------------------------------------- #
# CLI entry point: `simfs-dv --config dv.json` / `simfs-dv --stats`
# --------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    """Run a DV daemon from a JSON configuration file, or query a running
    daemon with ``--stats``.

    Config schema::

        {"host": "127.0.0.1", "port": 7878,
         "contexts": [
           {"name": "cosmo", "simulator": "cosmo",
            "delta_d": 5, "delta_r": 60, "num_timesteps": 5760,
            "output_dir": "...", "restart_dir": "...",
            "max_storage_bytes": 100000000, "policy": "dcl", "smax": 8,
            "alpha_delay": 0.0, "tau_delay": 0.0}]}

    ``alpha_delay``/``tau_delay`` (seconds) pace the built-in drivers'
    re-simulations — per sim launch and per produced output step — so a
    demo or failover drill has a real window in which clients block.

    Multi-daemon quickstart — run the same config (same context catalog,
    dirs on the shared PFS) on every node and name the peers::

        simfs-dv --config dv.json --node-id n1 \\
                 --peers n2@hostB:7878,n3@hostC:7878

    ``node_id``/``peers`` (plus ``vnodes``, ``heartbeat_interval``,
    ``suspect_after``, ``generation``, ``replication_factor``,
    ``repl_interval``, ``anti_entropy_interval``) may also live in the
    config file.  Each node activates only the contexts the
    consistent-hash ring assigns to it and forwards ops for the rest to
    their owners; clients may connect to any node.  With
    ``--replication-factor N`` every context is streamed to its N-1 ring
    successors for hot failover.  Inspect the ring with
    ``simfs-ctl cluster-status`` and the replication state with
    ``simfs-ctl ha-status``.
    """
    from repro.core.context import ContextConfig
    from repro.core.perfmodel import PerformanceModel

    parser = argparse.ArgumentParser(prog="simfs-dv", description=main.__doc__)
    parser.add_argument("--config", help="JSON config path (daemon mode)")
    parser.add_argument(
        "--stats", action="store_true",
        help="print the stats snapshot of a running daemon and exit",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon host for --stats (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7878,
                        help="daemon port for --stats (default 7878)")
    parser.add_argument(
        "--node-id",
        help="run as a cluster node with this id (see also --peers)",
    )
    parser.add_argument(
        "--peers",
        help="comma-separated peer daemons as [id@]host:port; implies "
             "cluster mode (the config file may also set node_id/peers)",
    )
    parser.add_argument(
        "--replication-factor", type=int, default=None, dest="replication_factor",
        help="replicate each context to its N-1 ring successors for hot "
             "failover (cluster mode only; the config file may also set "
             "\"replication_factor\")",
    )
    args = parser.parse_args(argv)

    if args.stats:
        from repro.client.dvlib import fetch_stats

        print(json.dumps(fetch_stats(args.host, args.port), indent=1, sort_keys=True))
        return 0
    if not args.config:
        parser.error("--config is required unless --stats is given")

    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if config.get("mode", "selector") != "selector":
        parser.error(
            f"config \"mode\": {config['mode']!r} is not supported "
            "(the selector front end is the only one)"
        )
    if config.get("workers", 1) not in (1, None):
        parser.error(
            f"config \"workers\": {config['workers']!r} is not supported "
            "(the multi-core engine is retired: run one cluster node per "
            "core instead)"
        )
    from repro.simulators import DRIVERS, driver_class

    for spec in config.get("contexts", []):
        if spec.get("simulator", "synthetic") not in DRIVERS:
            parser.error(
                f"context {spec.get('name')!r}: unknown \"simulator\" "
                f"{spec['simulator']!r} (choose from {', '.join(sorted(DRIVERS))})"
            )

    node_id = args.node_id or config.get("node_id")
    peer_arg = args.peers or config.get("peers")
    peers: list[str] = []
    if isinstance(peer_arg, str):
        peers = [p.strip() for p in peer_arg.split(",") if p.strip()]
    elif isinstance(peer_arg, list):
        peers = [str(p) for p in peer_arg]
    node = None
    if node_id or peers:
        from repro.cluster import ClusterNode

        node = ClusterNode(
            node_id or f"dv-{config.get('port', 7878)}",
            config.get("host", "127.0.0.1"),
            config.get("port", 7878),
            peers=peers,
            vnodes=int(config.get("vnodes", 16)),
            generation=int(config.get("generation", 1)),
            heartbeat_interval=float(config.get("heartbeat_interval", 0.5)),
            suspect_after=int(config.get("suspect_after", 3)),
            data_port=int(config.get("data_port", 0)),
            data_link_rate=config.get("data_link_rate"),
            replication_factor=int(
                args.replication_factor
                if args.replication_factor is not None
                else config.get("replication_factor", 1)
            ),
            repl_interval=float(config.get("repl_interval", 0.1)),
            anti_entropy_interval=float(
                config.get("anti_entropy_interval", 5.0)
            ),
        )
        server = node.server
    else:
        server = DVServer(
            config.get("host", "127.0.0.1"),
            config.get("port", 7878),
        )
    # Standalone data plane (cluster nodes carry their own).
    data_server = None
    if node is None and config.get("data_port") is not None:
        from repro.data.server import DataServer

        data_server = DataServer(
            config.get("host", "127.0.0.1"),
            int(config["data_port"]),
            link_rate=config.get("data_link_rate"),
            metrics=server.metrics,
            obs=server.obs,
        )
        server.set_data_endpoint(data_server.host, data_server.port)
    for spec in config.get("contexts", []):
        cc = ContextConfig(
            name=spec["name"],
            delta_d=spec["delta_d"],
            delta_r=spec["delta_r"],
            num_timesteps=spec.get("num_timesteps"),
            max_storage_bytes=spec.get("max_storage_bytes"),
            replacement_policy=spec.get("policy", "dcl"),
            smax=spec.get("smax", 8),
        )
        driver = driver_class(spec.get("simulator", "synthetic"))(
            cc.geometry, prefix=spec["name"]
        )
        perf = PerformanceModel(
            tau_sim=spec.get("tau_sim", 1.0), alpha_sim=spec.get("alpha_sim", 0.0)
        )
        context = SimulationContext(config=cc, driver=driver, perf=perf)
        # Optional pacing for the built-in drivers: without it a synthetic
        # re-simulation finishes in milliseconds, which makes blocked
        # waiters (and therefore HA failover demos) impossible to observe
        # on a live daemon.
        delays = {
            "alpha_delay": float(spec.get("alpha_delay", 0.0)),
            "tau_delay": float(spec.get("tau_delay", 0.0)),
        }
        if node is not None:
            node.add_context(
                context, spec["output_dir"], spec["restart_dir"], **delays
            )
        else:
            server.add_context(
                context, spec["output_dir"], spec["restart_dir"], **delays
            )
            if data_server is not None:
                data_server.add_context(spec["name"], spec["output_dir"])
    service = node if node is not None else server
    service.start()
    # Prometheus exporter endpoint (``"metrics_port": 0`` = ephemeral).
    exporter = None
    if config.get("metrics_port") is not None:
        from repro.obs.export import MetricsExporter

        exporter = MetricsExporter(
            server.metrics_text, config.get("host", "127.0.0.1"),
            int(config["metrics_port"]),
        )
        exporter.start()
        print(f"simfs-dv metrics exporter on "
              f"{config.get('host', '127.0.0.1')}:{exporter.port}/metrics")
    if data_server is not None:
        data_server.start()
        print(f"simfs-dv data plane on {data_server.host}:{data_server.port}")
    elif node is not None:
        print(f"simfs-dv data plane on {node.data.host}:{node.data.port}")
    host, port = server.address
    if node is not None:
        print(f"simfs-dv cluster node {node.node_id} listening on "
              f"{host}:{port}")
    else:
        print(f"simfs-dv listening on {host}:{port}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        service.stop()
        if exporter is not None:
            exporter.stop()
        if data_server is not None:
            data_server.stop()
    return 0
