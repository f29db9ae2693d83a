"""The DV daemon's connection core: everything between the bytes a client
sends and the bytes it is answered with, and no socket (Sec. III).

:meth:`DVCore.feed` takes what one ``recv`` returned for a connection: it
decodes the frames, validates every op once against the op table
(:mod:`repro.dv.ops`), stamps a traced request's arrival, queues the
messages on the connection's inbox and drains them.  :meth:`DVCore.drain`
is the one drain, on the event loop and on a worker alike: it cuts the
inbox into pieces with one splitter (:meth:`DVCore._split`) and runs
each with :meth:`DVCore._execute`, which also observes every op.  A
routed piece parks the drain instead (:meth:`DVCore._park`), on the
event loop and on a worker alike: the cluster tier forwards it as a
continuation on the loop and resumes the drain there when its replies
land.  Backpressure is one rule (:meth:`DVCore._pace`).

Every connection starts with one newline-JSON ``hello`` line and its
reply line; every frame after that is binary (:mod:`repro.dv.protocol`).
A hello that fails validation gets an error reply line and the
connection stays un-negotiated; a message that is no well-formed op is
answered ``ERR_PROTOCOL`` and the connection is served on.  Beyond the
per-file ops, ``stats`` snapshots the metrics plane, the wire included
(``wire.frames_sent`` / ``wire.bytes_sent`` / ``wire.frames_recv`` /
``wire.bytes_recv``), and ``trace`` / ``trace_slow`` / ``metrics_text``
inspect it (:mod:`repro.obs.inspection`).
"""

from __future__ import annotations

import collections
import os
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.core.context import SimulationContext, confine
from repro.core.errors import (
    DETAIL_ALREADY_ATTACHED,
    DETAIL_ALREADY_CONNECTED,
    ContextError,
    ErrorCode,
    FileNotInContextError,
    InvalidArgumentError,
    ProtocolError,
    SimFSError,
)
from repro.dv.coordinator import DVCoordinator, Notification, OpenResult
from repro.dv.launcher import ThreadedLauncher
from repro.dv.ops import OPS, WORKER, checked, problem
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
from repro.obs.inspection import Inspection
from repro.util.clock import WallClock

__all__ = ["DVCore", "reply_frame", "reply_payloads"]

#: Flush a drain's reply collector once it holds this many bytes, even
#: mid-drain, so a huge pipelined burst cannot buffer unboundedly.
_COLLECT_MAX = 1 << 18

#: Backpressure high-water marks: stop reading a connection whose queued
#: messages or unsent output exceed these.
_INBOX_HIGH = 1024
_OUTBUF_HIGH = 1 << 22

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


@dataclass(eq=False)
class _ClientConn:
    """Per-connection state.

    ``lock`` guards the output buffer, the inbox and the flags.  ``busy``
    says a drain owns the connection: only that drain takes messages off
    the inbox, so a connection's messages run serially and in arrival
    order.  ``client_id`` is set by a valid ``hello``: until then the
    connection is un-negotiated (newline-JSON lines both ways),
    afterwards every frame is binary.  ``sock``, ``sel_mask`` and
    ``closed`` are the shell's; the core never touches them.
    """

    sock: object
    client_id: str | None = None
    #: Tracing negotiated on hello: traced packed binary frames (and
    #: ``tc`` fields on replies/notifications) may be sent to this peer.
    trace: bool = False
    contexts: set[str] = field(default_factory=set)
    lock: threading.Lock = field(default_factory=threading.Lock)
    decoder: StreamDecoder = field(default_factory=StreamDecoder)
    outbuf: bytearray = field(default_factory=bytearray)
    inbox: collections.deque = field(default_factory=collections.deque)
    busy: bool = False
    #: Going down — end of stream, a failed send, a handler crash, output
    #: past the hard cap: nothing more is executed or sent.
    closing: bool = False
    #: Not read: the inbox or the output is past its mark (``_pace``).
    paused: bool = False
    #: Waiting in the shell's hand-off queue: no further wake-up needed.
    queued: bool = False
    sel_mask: int = 0
    closed: bool = False


class DVCore:
    """The connection core of a DV daemon (see the module docstring).

    What it does with a connection beyond its state is the shell's
    (:class:`~repro.dv.server.DVServer`): ``_schedule(conn)`` runs
    ``drain(conn)`` on a worker, ``_deliver(conn, data)`` writes to the
    connection from any thread, ``_handoff(conn)`` has the I/O thread
    bring the connection's socket in line with its state.
    """

    def __init__(self) -> None:
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
        # Cluster-tier hooks, all optional (see repro.cluster.node):
        #   _route_start  — gateway, on the I/O thread: forward one
        #                   client's consecutive ops for a non-local
        #                   context and resume the parked drain with their
        #                   reply frames, joined (see _park)
        #   _ready_router — deliver a notification whose client_id is not a
        #                   local connection (a proxied cluster client)
        #   _hello_extra  — extra fields merged into every hello reply
        #   _drop_hook    — observe client disconnects (proxy cleanup)
        self._route_start = None
        self._ready_router = None
        self._hello_extra = None
        self._drop_hook = None
        # One-slot memo so a notification fanned out to many waiters is
        # encoded once, not once per waiter.
        self._ready_memo: tuple[tuple[str, str, bool], bytes] | None = None
        self._ready_memo_lock = threading.Lock()
        # The drain's reply collector: while a thread drains a
        # connection, every frame it makes for that connection lands
        # here and leaves in one send (see drain).
        self._tl = threading.local()
        self._m_frames_sent = self.metrics.counter("wire.frames_sent")
        self._m_bytes_sent = self.metrics.counter("wire.bytes_sent")
        self._m_frames_recv = self.metrics.counter("wire.frames_recv")
        self._m_bytes_recv = self.metrics.counter("wire.bytes_recv")
        # Per-op service-time histograms (p50/p95/p99 in the stats op),
        # created lazily on first dispatch of each op.
        self._op_hist: dict[str, object] = {}
        self.inspection = Inspection(self.obs, self.metrics)
        # Handlers of the table's ops that are not run ops (those
        # execute as runs only), ``register_op`` adding to them.
        self._handlers = {
            "wclose": self._op_wclose,
            "bitrep": self._op_bitrep,
            "attach": self._op_attach,
            "finalize": self._op_finalize,
            "fetch_info": self._op_fetch_info,
            "trace": self.inspection.trace,
            "trace_slow": self.inspection.trace_slow,
            "metrics_text": self.inspection.metrics_text,
        }
        # (host, port) of the bulk data plane serving this daemon's files,
        # advertised through the fetch_info op (see set_data_endpoint).
        self._data_endpoint: tuple[str, int] | None = None

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

        def present(filename: str) -> bool:
            return os.path.exists(os.path.join(output_dir, filename))

        shard = self.coordinator.register_context(
            context, on_evict_file=delete_file, present=present
        )
        self.launcher.register_context(
            context.name, context.driver, output_dir, restart_dir,
            alpha_delay=alpha_delay, tau_delay=tau_delay,
        )
        # Files already on disk (e.g. from the initial simulation) are part
        # of the cache state at daemon start.
        for fname in context.output_files(output_dir):
            key = context.key_of(fname)
            shard.area.insert(key, cost=float(context.geometry.miss_cost(key)))

    def storage_path(self, context_name: str, filename: str) -> str:
        return os.path.join(self.launcher.output_dir(context_name), filename)

    def register_op(self, name: str, handler) -> None:
        """Serve the op table's row ``name`` with ``handler(conn,
        message) -> payload`` (a cluster node's ops).  The row says where
        it runs; a payload of ``None`` sends no reply (a routed ``ready``)
        and one may name its reply op (``fwd_reply``).  The handshake,
        the run ops and an op already served cannot be registered."""
        row = OPS.get(name)
        if row is None or row.runs or name == "hello":
            raise InvalidArgumentError(f"op {name!r} cannot be registered")
        if name in self._handlers:
            raise InvalidArgumentError(f"op {name!r} is already defined")
        self._handlers[name] = handler

    def set_data_endpoint(self, host: str, port: int) -> None:
        """Advertise the bulk data plane serving this daemon's context
        files; ``fetch_info`` replies carry it so clients know where to
        pull bytes from."""
        self._data_endpoint = (host, int(port))

    def set_cluster_hooks(
        self,
        ready_router=None,
        hello_extra=None,
        drop_hook=None,
        route_start=None,
    ) -> None:
        """Install the gateway/membership callbacks (cluster tier)."""
        self._route_start = route_start
        self._ready_router = ready_router
        self._hello_extra = hello_extra
        self._drop_hook = drop_hook

    # ------------------------------------------------------------------ #
    # Bytes in: feed, the one drain, backpressure
    # ------------------------------------------------------------------ #
    def feed(self, conn: _ClientConn, data: bytes) -> None:
        """Take what the wire delivered for ``conn``: decode it, validate
        every op once (a malformed one becomes its refusal), stamp a
        traced request's arrival, queue the messages and drain them here
        — unless a drain already owns the connection — then pace it.
        Bytes that break the framing close the connection."""
        self._m_bytes_recv.inc(len(data))
        conn.decoder.feed(data)
        try:
            messages = conn.decoder.drain(checked)
        except ProtocolError:
            self._close(conn)  # the framing is lost
            return
        if not messages:
            return
        for message in messages:
            if "tc" in message:
                # Traced: stamp the arrival, so the wait before its
                # execution becomes a span (untraced messages pay nothing).
                message["_obs_t0"] = time.time()
        self._m_frames_recv.inc(len(messages))
        with conn.lock:
            conn.inbox.extend(messages)
            idle = not conn.busy
            conn.busy = True
        if idle:
            self.drain(conn, on_loop=True)
        with conn.lock:
            self._pace(conn)

    @staticmethod
    def _pace(conn: _ClientConn) -> None:
        """Backpressure, the one rule (``conn.lock`` held): a connection
        whose queued messages or unsent output pass their high-water mark
        is not read — a peer outpacing its shard, or one that stopped
        reading its replies, must not grow the queues without bound —
        until both are back under."""
        conn.paused = (
            len(conn.inbox) >= _INBOX_HIGH or len(conn.outbuf) >= _OUTBUF_HIGH
        )

    def drain(
        self, conn: _ClientConn, on_loop: bool = False, answered=None
    ) -> None:
        """The one drain: run ``conn``'s inbox piece by piece, in arrival
        order, for whoever set ``busy``.  Every reply — and every frame
        this thread routes to ``conn`` meanwhile, such as the ``ready`` a
        ``wclose`` fans out — is collected and leaves in one send when the
        inbox is empty (or the collector is full).  The drain flushes
        before it clears ``busy``, so replies to messages fed later never
        overtake its own.  A routed piece parks the drain (:meth:`_park`);
        on the event loop (``on_loop``) the first other piece that must
        not run there (:meth:`_needs_worker`) hands the rest of the inbox
        to a worker.  A resumed drain starts with the parked piece's
        replies, ``answered`` (its frames and their count), in its
        collector."""
        tl = self._tl
        tl.conn, tl.buf, tl.frames = conn, bytearray(), 0
        if answered is not None:
            tl.buf += answered[0]
            tl.frames = answered[1]
        inbox = conn.inbox
        try:
            while True:
                # No lock to read the inbox: only the drain that owns the
                # connection takes from it, other threads only append.
                if inbox and not conn.closing:
                    count, how = self._split(conn.client_id, inbox)
                    # A routed piece waits on the hop; any other asks.
                    if how == _ROUTED or on_loop and how != _LOCAL and (
                        self._needs_worker(inbox[0])
                    ):
                        self._flush_collector()  # ours leave first
                        if how == _ROUTED:
                            self._park(conn, count, on_loop)
                        else:
                            self._schedule(conn)
                        return
                    piece = [inbox.popleft() for _ in range(count)]
                    frames = self._execute(conn, piece, how)
                    if frames:
                        tl.buf += b"".join(frames)
                        tl.frames += len(piece)
                        if len(tl.buf) >= _COLLECT_MAX:
                            self._flush_collector()
                    continue
                self._flush_collector()
                with conn.lock:
                    if not inbox or conn.closing:
                        conn.busy = False
                        resume = conn.paused
                        break
        except Exception:
            # A handler crash (a bug, not a SimFS error) costs this
            # connection only; the thread serves on.
            self._close(conn)
            return
        finally:
            tl.conn = None
        if resume:
            # The drain brought a paused connection back under its marks.
            self._handoff(conn)

    def _park(self, conn: _ClientConn, count: int, on_loop: bool) -> None:
        """Hand the routed run at the head of ``conn``'s inbox to the
        route hook on the I/O thread (from a worker, with ``call_soon``).
        The drain stays parked, ``busy`` set, so nothing fed meanwhile
        overtakes the run; once it is answered the drain resumes on the
        loop (:meth:`_resume`)."""
        piece = [conn.inbox.popleft() for _ in range(count)]
        arrived = [message.pop("_obs_t0", None) for message in piece]
        began = time.perf_counter()

        def resume(data: bytes | None) -> None:
            self._resume(conn, piece, arrived, began, data)

        if on_loop:
            self._route_start(conn, piece, resume)
        else:
            self.loop.call_soon(self._route_start, conn, piece, resume)

    def _resume(
        self, conn: _ClientConn, piece: list[dict], arrived: list,
        began: float, data: bytes | None,
    ) -> None:
        """A parked run is answered: observe it, and drain on from its
        replies (``None``: the route hook failed, the connection goes)."""
        self._observe_shared(piece, arrived, began, time.perf_counter())
        if data is None:
            self._close(conn)
        self.drain(conn, True, None if data is None else (data, len(piece)))

    def _close(self, conn: _ClientConn) -> None:
        """``conn`` is going down: the shell tears it down."""
        with conn.lock:
            conn.closing = True
        self._handoff(conn)

    def _needs_worker(self, message: dict) -> bool:
        """Must ``message``, the head of a piece that is no run, leave the
        event loop?  Its row's ``where`` says (``bitrep`` checksums a step
        off the PFS, ``stats`` snapshots every shard), except that a
        ``fetch_info`` naming no file lists the storage area, a forwarded
        run stays on the loop when it is all one local run or one op that
        stays there — the rules a client's ops follow — and a cluster
        node's hello may wait on the cluster lock (activation holds it
        across PFS scans) or wait for a forwarded attach.  (An op the
        gateway forwards is a routed piece: :meth:`_park`.)"""
        op = message.get("op")
        row = OPS.get(op) if isinstance(op, str) else None
        if row is None:
            return False  # refused: answered on the loop
        if op == OP_FWD and "run" in message:
            try:
                _origin, client_id, ops = unpack_run(message)
            except ProtocolError:
                return False  # refused whole: answered on the loop
            count, how = self._split(client_id, ops, route=False)
            if count < len(ops) or how == _HELLO:
                return True
            return how == _ONE and self._needs_worker(ops[0])
        if op == "hello":
            return self._hello_extra is not None or self._route_start is not None
        if op == "fetch_info":
            return "file" not in message
        return row.where == WORKER

    # ------------------------------------------------------------------ #
    # Pieces: the unit of execution
    # ------------------------------------------------------------------ #
    def _forwards(self, context) -> bool:
        """Is an op naming ``context`` the gateway's to forward: a cluster
        tier is installed and the context is not served here?"""
        return (
            self._route_start is not None
            and isinstance(context, str)
            and not self.coordinator.has_context(context)
        )

    def _split(
        self, client_id, messages, start: int = 0, route: bool = True,
    ) -> tuple[int, int]:
        """The run splitter (the drain and ``serve_ops``): how many of
        a client's ``messages`` from ``start`` on execute together, and
        how.  A run is consecutive ops the table says join runs, for one
        context, up to ``FWD_RUN_MAX``: a *local* run (one ``handle_run``:
        it holds the shard lock) or, when ``route`` and the context is
        the gateway's to forward, a *routed* one (one ``fwd`` frame).
        Another context and any other op end it.  Any other forwardable
        op is a run of one; everything else is one message on its own."""
        if client_id is None:
            return 1, _HELLO
        head = messages[start]
        row = OPS.get(head["op"])
        if row is None or not row.forwardable:
            return 1, _ONE
        context = head["context"]
        routed = route and self._forwards(context)
        if row.runs:
            end = start
            limit = min(len(messages), start + FWD_RUN_MAX)
            while end < limit:
                message = messages[end]
                row = OPS.get(message["op"])
                if (
                    row is None or not row.runs or message["context"] != context
                    # A traced op crosses the hop alone, its tc on the fwd.
                    or (routed and "tc" in message)
                ):
                    break
                end += 1
            if end > start:
                return end - start, _ROUTED if routed else _LOCAL
        return 1, _ROUTED if routed else _ONE

    def _execute(
        self, client, piece: list[dict], how: int, observe: bool = True
    ) -> list[bytes]:
        """Run one piece ``_split`` cut off a batch — a local run (one
        ``handle_run``), a hello, or one op; a routed run is parked, not
        executed — and return its reply frames: one per op, none for a
        one-way frame.  Each op is observed in
        ``op.<op>.seconds`` with its own service time — an op of a local
        run its turn in the shard, any other the piece's — except in
        ``serve_ops``: an op is observed where its client entered."""
        arrived = [message.pop("_obs_t0", None) for message in piece]
        stamps = [time.perf_counter()]
        if how == _LOCAL:
            results = self.execute_run(client.client_id, piece, stamps)
            frames = self._pack_run(piece, results, client.trace)
        elif how == _HELLO:
            frames = [self._hello(client, piece[0])]
        else:
            payload = self._answer(client, piece[0])
            frames = [] if payload is None else [reply_frame(piece[0], payload)]
        if not observe:
            return frames
        if how != _LOCAL:
            self._observe_shared(piece, arrived, stamps[0], time.perf_counter())
            return frames
        # Nothing ran for an unknown context: no turns stamped.
        stamps += [stamps[-1]] * (len(piece) + 1 - len(stamps))
        # A traced or slow op gets its spans; the rest are observed with
        # one histogram update per op name.
        slow = self.obs.slow_threshold
        untraced: dict[str, list[float]] = {}
        for message, arrival, began, ended in zip(piece, arrived, stamps, stamps[1:]):
            elapsed = ended - began
            if elapsed >= slow or message.get("tc") is not None:
                self._observe_op(message, elapsed, arrival, ended)
            else:
                untraced.setdefault(message["op"], []).append(elapsed)
        for op, values in untraced.items():
            self._histogram(op).observe_many(values)
        return frames

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
        """Run ``ops`` here, in order, forwarding nothing, piece by piece
        as a drain does.  Returns per op the reply frame a connected
        client would read.  The cluster tier's execute hook for a routed
        client; ``client`` quacks like a connection (``client_id``,
        ``contexts``, ``trace``)."""
        frames: list[bytes] = []
        idx = 0
        while idx < len(ops):
            count, how = self._split(client.client_id, ops, idx, route=False)
            frames += self._execute(
                client, ops[idx:idx + count], how, observe=False
            )
            idx += count
        return frames

    def _observe_shared(
        self, piece: list[dict], arrived: list, began: float, ended: float
    ) -> None:
        """Record the service time the ops of ``piece`` shared (a routed
        run's hop) with one histogram update per op name — each op of
        the piece as its own dispatch — unless the piece is one op, a
        traced one or slow: those get :meth:`_observe_op`'s spans."""
        elapsed = ended - began
        if len(piece) == 1 or elapsed >= self.obs.slow_threshold or any(arrived):
            for message, arrival in zip(piece, arrived):
                self._observe_op(message, elapsed, arrival, ended)
            return
        counts: dict[str, int] = {}  # a routed run's ops are the table's
        for message in piece:
            op = message["op"]
            counts[op] = counts.get(op, 0) + 1
        for op, count in counts.items():
            self._histogram(op).observe(elapsed, count)

    def _histogram(self, op: str):
        """``op``'s service-time histogram, made on first use."""
        hist = self._op_hist.get(op)
        if hist is None:
            hist = self.metrics.histogram(
                f"op.{op}.seconds", buckets=_SERVICE_BUCKETS
            )
            self._op_hist[op] = hist
        return hist

    def _observe_op(
        self, message: dict, elapsed: float, arrived: float | None,
        ended: float,
    ) -> None:
        """Record one op's service time, which ended at ``perf_counter``
        reading ``ended``.  Traced messages additionally get an
        ``op.<op>`` span (plus a queue-wait span from their arrival) and
        an exemplar binding the latency bucket to the trace id; untraced
        ones only pay the histogram observe unless they cross the tail
        threshold.  An op outside the table counts as ``unknown``."""
        op = message.get("op")
        if not isinstance(op, str) or op not in OPS:
            op = "unknown"
        hist = self._histogram(op)
        hist.observe(elapsed)
        tc = message.get("tc")
        if tc is None and elapsed < self.obs.slow_threshold:
            return
        end = time.time() - (time.perf_counter() - ended)
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

    # ------------------------------------------------------------------ #
    # Handshake and dispatch
    # ------------------------------------------------------------------ #
    def _hello(self, conn: _ClientConn, message: dict) -> bytes:
        """The first message of a connection, answered with one
        newline-JSON line: a valid hello switches both directions to
        binary frames, a rejected one leaves the connection un-negotiated
        (the peer may send another hello)."""
        client_id = message.get("client_id")
        context = message.get("context")
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
            return encode_message({
                "op": "reply", "req": message.get("req"), **_error_payload(exc),
            })
        reply = {
            "op": "reply", "req": message.get("req"),
            "error": int(ErrorCode.SUCCESS), "detail": "",
            "vers": PROTOCOL_VERSION, "codec": codec,
        }
        if context and self._forwards(context):
            # Gateway path: the context lives on a peer — forward the
            # attach so the owner registers this client as a waiter.  A
            # hello runs on a worker, which waits for the forward and runs
            # its blocking steps meanwhile (a step of ``None`` is the
            # answer: reply frames, or None when a bug ended the run).
            steps = queue.SimpleQueue()
            self.loop.call_soon(
                self._route_start, conn, [{"op": "attach", "context": context}],
                lambda data: steps.put((None, data)),
                lambda fn, *args: steps.put((fn, args)),
            )
            while (step := steps.get())[0] is not None:
                step[0](*step[1])
            payload = reply_payloads(step[1])[0]
            reply["error"] = int(payload.get("error", ErrorCode.SUCCESS))
            reply["detail"] = payload.get("detail", "")
        elif context:
            try:
                self.coordinator.client_connect(client_id, context)
                conn.contexts.add(context)
            except SimFSError as exc:
                reply.update(_error_payload(exc))
        conn.trace = negotiate_trace(message)
        if conn.trace:
            reply["trace"] = 1
        if self._hello_extra is not None:
            reply.update(self._hello_extra())
        conn.decoder.set_codec(codec)
        return encode_message(reply)

    def _answer(self, conn, message: dict) -> dict | None:
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
    def _op_attach(self, conn, message: dict) -> dict:
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

    def _op_wclose(self, conn, message: dict) -> dict:
        self.coordinator.sim_file_closed(
            message["context"], message["file"], self._clock.now()
        )
        return {}

    def _op_bitrep(self, conn, message: dict) -> dict:
        context = message["context"]
        path = message.get("path")
        if path is None:
            path = self.storage_path(context, message["file"])
        else:
            # The checksum result would otherwise let a client probe any
            # server file byte for byte.
            try:
                path = confine(path, *self.launcher.areas(context))
            except FileNotInContextError:
                raise InvalidArgumentError(
                    f"bitrep path {path!r} is outside the {context!r} "
                    "storage areas"
                ) from None
        return {"matches": self.coordinator.handle_bitrep(
            context, message["file"], path
        )}

    def _op_finalize(self, conn, message: dict) -> dict:
        context = message["context"]
        self.coordinator.client_disconnect(
            conn.client_id, context, self._clock.now()
        )
        conn.contexts.discard(context)
        return {}

    def _op_fetch_info(self, conn, message: dict) -> dict:
        """Where (and whether) a context file can be pulled over the data
        plane.  Routable: asked of a non-owner, the gateway forwards it to
        the owning node, whose reply names *its* data endpoint —
        which is exactly the redirect the client needs.  Without ``file``
        the reply lists the context's available output files instead
        (the ``fetch_context`` enumeration).  A ``file`` that escapes the
        storage area is refused, as the data plane refuses it."""
        context = message["context"]
        shard = self.coordinator.shard(context)
        out_dir = self.launcher.output_dir(context)
        host, port = self._data_endpoint or (None, 0)
        payload: dict = {"context": context, "data_host": host, "data_port": port}
        filename = message.get("file")
        if filename is None:
            payload["files"] = shard.context.output_files(out_dir)
            return payload
        try:
            payload["size"] = os.path.getsize(
                confine(filename, self.launcher.areas(context)[0])
            )
            payload["exists"] = True
        except OSError:
            payload["size"] = 0
            payload["exists"] = False
        return payload

    # ------------------------------------------------------------------ #
    # Bytes out
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
            self._send(conn, {
                "op": "ready",
                "context": notification.context_name,
                "file": notification.filename,
                "ok": notification.ok,
                "tc": tc,
            })
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

    def _send_raw(self, conn: _ClientConn, data: bytes) -> None:
        """Ship one encoded frame to a connection: into the collector
        when this thread is draining it (it leaves in order with the
        drain's replies), else to the wire."""
        tl = self._tl
        if getattr(tl, "conn", None) is conn:
            tl.buf += data
            tl.frames += 1
            return
        self._m_frames_sent.inc()
        self._m_bytes_sent.inc(len(data))
        self._deliver(conn, data)

    def _flush_collector(self) -> None:
        """Hand the drain's accumulated output to the wire in one go."""
        tl = self._tl
        if not tl.frames:
            return
        data, frames = tl.buf, tl.frames
        tl.buf, tl.frames = bytearray(), 0
        self._m_frames_sent.inc(frames)
        self._m_bytes_sent.inc(len(data))
        self._deliver(tl.conn, data)
