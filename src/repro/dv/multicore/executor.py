"""Shard-executor child process: one event loop, one core, one GIL.

:func:`run_executor` is the target of every process the supervisor
spawns.  It builds a :class:`~repro.dv.server.DVServer`
(its own worker pool, metrics plane and coordinator), a Unix-domain
listener for sibling peer links, and an
:class:`~repro.dv.multicore.gateway.ExecutorGateway` holding the
internal ring — then parks on the control channel until the supervisor
says stop.

The client plane follows ``spec.accept``:

* ``reuseport`` — the executor binds+listens its own SO_REUSEPORT share
  of the node's client port; the kernel load-balances connections.
* ``none`` — no client plane (cluster engine mode: ops enter only as
  ``fwd`` frames over the peer listener).

The process exits with :func:`os._exit` — a forked child must not run
the parent's inherited atexit machinery.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
from dataclasses import dataclass, field

from repro.core.errors import DVConnectionLost
from repro.dv.multicore.control import (
    CTL_DEACTIVATE,
    CTL_DRAIN,
    CTL_HELLO,
    CTL_OBS,
    CTL_OBS_ALL,
    CTL_PING,
    CTL_RING,
    CTL_STATS,
    CTL_STATS_ALL,
    CTL_STOP,
    ControlChannel,
)
from repro.dv.multicore.gateway import ExecutorCatalogEntry, ExecutorGateway
from repro.dv.server import DVServer

__all__ = ["ExecutorSpec", "run_executor"]


@dataclass
class ExecutorSpec:
    """Everything a child needs to become an executor (picklable, so the
    pool works under both ``fork`` and ``spawn`` start methods)."""

    executor_id: str
    host: str
    port: int
    accept: str  # "reuseport" | "none"
    unix_path: str
    workers: int  # pool size, for the hello extra
    vnodes: int = 32
    rpc_timeout: float = 10.0
    io_workers: int | None = None
    catalog: list[ExecutorCatalogEntry] = field(default_factory=list)
    #: (host, port) of the pool's bulk data plane, advertised by this
    #: executor's ``fetch_info`` replies (None = no data plane).
    data_endpoint: tuple[str, int] | None = None


def run_executor(spec: ExecutorSpec, ctl_sock: socket.socket) -> None:
    """Child-process main: serve until the supervisor's ``ctl.stop``."""
    # A terminal Ctrl-C signals the whole foreground process group; the
    # supervisor coordinates our shutdown over the control channel, so a
    # direct SIGINT here would only race the orderly drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = DVServer(
        spec.host,
        spec.port,
        workers=spec.io_workers,
        reuse_port=True,
        listen=(spec.accept == "reuseport"),
    )
    server.obs.node = spec.executor_id
    try:
        os.unlink(spec.unix_path)
    except OSError:
        pass
    peer_listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    peer_listener.bind(spec.unix_path)
    peer_listener.listen(128)
    server.add_listener(peer_listener, role="peer")
    if spec.data_endpoint is not None:
        server.set_data_endpoint(*spec.data_endpoint)

    catalog = {entry.context.name: entry for entry in spec.catalog}
    gateway = ExecutorGateway(
        spec.executor_id,
        server,
        catalog,
        vnodes=spec.vnodes,
        rpc_timeout=spec.rpc_timeout,
        workers=spec.workers,
    )

    stop_event = threading.Event()
    channel = ControlChannel(
        ctl_sock,
        handler=None,  # bound below (needs the channel itself for stats)
        name=f"ctl-{spec.executor_id}",
        on_down=lambda: stop_event.set(),
    )

    def handle_ctl(message: dict) -> dict | None:
        op = message.get("op")
        if op == CTL_PING:
            return {"ok": True}
        if op == CTL_RING:
            executors = message.get("executors") or {}
            active = message.get("active") or []
            reattaches, replays = gateway.apply_ring(executors, active)
            if reattaches or replays:
                # After the reply: replays forward to siblings that may
                # receive this same ring update a moment later.
                threading.Thread(
                    target=gateway.router.replay,
                    args=(reattaches, replays),
                    name=f"simfs-{spec.executor_id}-replay",
                    daemon=True,
                ).start()
            return {"ok": True, "epoch": gateway.ring.epoch}
        if op == CTL_STATS:
            return {"stats": server._op_stats(None, {})["stats"]}
        if op == CTL_OBS:
            if message.get("kind") == "slow":
                return {"spans": server.slow_spans(
                    int(message.get("limit", 20))
                )}
            return {"spans": server.trace_spans(
                str(message.get("trace_id") or "")
            )}
        if op == CTL_DRAIN:
            timeout = float(message.get("timeout", 5.0))
            server.stop_accepting("client")
            return {"drained": server.drain(timeout)}
        if op == CTL_DEACTIVATE:
            reattaches, replays = gateway.release_for_handoff(
                message.get("context")
            )
            return {
                "reattaches": [list(r) for r in reattaches],
                "replays": [list(r) for r in replays],
            }
        if op == CTL_STOP:
            # Reply first (the handler's return), then fall: the timer
            # lets the ctl.reply frame leave before the process exits.
            threading.Timer(0.05, stop_event.set).start()
            return {"ok": True}
        return {"error": 1, "detail": f"unknown control op {op!r}"}

    channel._handler = handle_ctl

    def merged_stats(conn, message: dict) -> dict:
        """Top-level ``stats`` override: ask the supervisor for the
        merged all-executor view; fall back to the local snapshot when
        the supervisor is unreachable (mid-teardown)."""
        try:
            reply = channel.call({"op": CTL_STATS_ALL}, timeout=5.0)
        except (DVConnectionLost, TimeoutError):
            reply = {}
        stats = reply.get("stats")
        if isinstance(stats, dict):
            return {"stats": stats}
        return server._op_stats(conn, message)

    server.register_op("stats", merged_stats, needs_worker=True, replace=True)

    def _pool_spans(query: dict) -> list | None:
        """Pool-merged spans via the supervisor; None when unreachable."""
        try:
            reply = channel.call(dict(query, op=CTL_OBS_ALL), timeout=5.0)
        except (DVConnectionLost, TimeoutError):
            return None
        spans = reply.get("spans")
        return spans if isinstance(spans, list) else None

    def merged_trace(conn, message: dict) -> dict:
        """Top-level ``trace`` override: merge every sibling executor's
        spans through the supervisor, falling back to the local recorder
        when the control plane is unreachable."""
        reply = server._op_trace(conn, message)
        pool = _pool_spans(
            {"kind": "trace", "trace_id": message.get("trace_id")}
        )
        if pool is None:
            return reply
        payload = reply["trace"]
        seen = {span.get("span_id") for span in payload["spans"]}
        for span in pool:
            if span.get("span_id") in seen:
                continue
            seen.add(span.get("span_id"))
            payload["spans"].append(span)
        payload["spans"].sort(
            key=lambda s: (s.get("start", 0.0), s.get("end", 0.0))
        )
        payload["nodes"] = sorted(
            set(payload["nodes"])
            | {s.get("node") for s in payload["spans"] if s.get("node")}
        )
        return reply

    def merged_trace_slow(conn, message: dict) -> dict:
        """Top-level ``trace_slow`` override, same shape as above."""
        reply = server._op_trace_slow(conn, message)
        limit = max(1, int(message.get("limit", 20)))
        pool = _pool_spans({"kind": "slow", "limit": limit})
        if pool is None:
            return reply
        payload = reply["slow"]
        seen = {span.get("span_id") for span in payload["spans"]}
        for span in pool:
            if span.get("span_id") in seen:
                continue
            seen.add(span.get("span_id"))
            payload["spans"].append(span)
        payload["spans"].sort(
            key=lambda s: s.get("duration", 0.0), reverse=True
        )
        payload["spans"] = payload["spans"][:limit]
        payload["nodes"] = sorted(
            set(payload["nodes"])
            | {s.get("node") for s in payload["spans"] if s.get("node")}
        )
        return reply

    server.register_op("trace", merged_trace, needs_worker=True, replace=True)
    server.register_op(
        "trace_slow", merged_trace_slow, needs_worker=True, replace=True
    )

    server.start()
    channel.start()
    channel.send({
        "op": CTL_HELLO,
        "executor": spec.executor_id,
        "pid": os.getpid(),
        "path": spec.unix_path,
    })

    stop_event.wait()
    try:
        gateway.close()
        server.stop(drain_timeout=0)
        channel.close()
    finally:
        os._exit(0)
