"""The multi-core supervisor: lifecycle and membership oracle.

:class:`MultiCoreServer` is the drop-in multi-process counterpart of a
single :class:`~repro.dv.server.DVServer`: same ``add_context`` /
``start`` / ``stop(drain_timeout)`` surface, but behind it N
shard-executor processes (default ``os.cpu_count()``) each run their own
selector event loop and own the context shards an internal
:class:`~repro.cluster.ring.HashRing` assigns to them.

The supervisor is the *only* membership authority: executors never gossip.
It spawns the fleet, reserves the client port (every executor listens on
its own SO_REUSEPORT share of it; the kernel balances connections),
broadcasts ``ctl.ring`` views, pings for liveness (a ``kill -9`` shows
up even sooner, as EOF on the control socketpair), restarts crashed
executors, and re-broadcasts so the survivors replay stranded waiters —
the cluster tier's reassignment dance, one machine tall.

``accept="none"`` turns the pool into a cluster node's local engine: no
client plane at all; the owning :class:`~repro.cluster.node.ClusterNode`
forwards ops in over supervisor-held peer links (:meth:`forward`, the
shared :class:`~repro.cluster.router.Router` with the executors as its
peers) and gets ``ready`` notifications back through ``ready_router``.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.cluster.ring import HashRing
from repro.cluster.router import Router
from repro.core.context import SimulationContext
from repro.core.errors import DVConnectionLost, InvalidArgumentError
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
from repro.dv.multicore.executor import ExecutorSpec, run_executor
from repro.dv.multicore.gateway import ExecutorCatalogEntry, unix_link
from repro.dv.server import DVServer
from repro.metrics import MetricsRegistry, merge_snapshots

__all__ = ["MultiCoreServer"]


@dataclass
class _ExecutorHandle:
    """Supervisor-side record of one executor process."""

    executor_id: str
    incarnation: int
    process: object
    channel: ControlChannel
    path: str
    alive: bool = True
    pid: int | None = None
    ready: threading.Event = field(default_factory=threading.Event)


class MultiCoreServer:
    """Supervisor over N shared-nothing shard-executor processes."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        accept: str = "reuseport",
        vnodes: int = 32,
        start_method: str | None = None,
        restart_crashed: bool = True,
        heartbeat_interval: float = 0.5,
        heartbeat_misses: int = 4,
        rpc_timeout: float = 10.0,
        io_workers: int | None = None,
        spawn_timeout: float = 30.0,
        ready_router=None,
        data_endpoint: tuple[str, int] | None = None,
    ) -> None:
        if accept not in ("reuseport", "none"):
            raise InvalidArgumentError(f"unknown accept mode {accept!r}")
        self._host = host
        self._port = port
        self.workers = workers or os.cpu_count() or 1
        self.accept = accept
        self.vnodes = vnodes
        self.restart_crashed = restart_crashed
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.rpc_timeout = rpc_timeout
        self._io_workers = io_workers
        self._spawn_timeout = spawn_timeout
        self._start_method = start_method
        #: Bulk data plane advertised by every executor's ``fetch_info``
        #: (the pool shares the embedding node's data port; specs ship it
        #: at spawn time).  Settable until the first spawn.
        self._data_endpoint = data_endpoint
        self.metrics = MetricsRegistry()
        self._m_restarts = self.metrics.counter("sup.executor_restarts")
        self._m_alive = self.metrics.gauge("sup.executors_alive")
        self._m_epoch = self.metrics.gauge("sup.ring_epoch")
        #: Serializes membership/handles/active-set state.  Broadcasts run
        #: under it (executors never call back into the supervisor's lock).
        self._lock = threading.RLock()
        self._catalog: dict[str, ExecutorCatalogEntry] = {}
        self._active: set[str] = set()
        self._handles: dict[str, _ExecutorHandle] = {}
        self.ring = HashRing(vnodes)
        self._running = False
        self._tmpdir: str | None = None
        self._reserve: socket.socket | None = None
        #: Engine-mode client plane (accept="none"): supervisor-held peer
        #: links into the pool plus the ingress bookkeeping to replay
        #: forwarded waits when an executor dies (the control channel's
        #: verdict, not a forward's).  "sup" is never on the ring.
        self.router = Router(
            "sup",
            resolve=self._resolve,
            dial=self._dial,
            ready_sink=ready_router or (lambda notification: None),
            is_stale=lambda owner, name: self.ring.owner(name) != owner,
            metrics=self.metrics,
            prefix="mc.",
            rpc_timeout=rpc_timeout,
        )

    # ------------------------------------------------------------------ #
    # Configuration (before start)
    # ------------------------------------------------------------------ #
    def add_context(
        self,
        context: SimulationContext,
        output_dir: str,
        restart_dir: str,
        alpha_delay: float = 0.0,
        tau_delay: float = 0.0,
        active: bool = True,
    ) -> None:
        """Declare a context pool-wide.  ``active=False`` registers the
        catalog entry without serving it (cluster engine mode activates
        on ring ownership)."""
        if self._running:
            raise InvalidArgumentError(
                "add_context must precede start() (the catalog ships to "
                "executors at spawn time)"
            )
        os.makedirs(output_dir, exist_ok=True)
        os.makedirs(restart_dir, exist_ok=True)
        self._catalog[context.name] = ExecutorCatalogEntry(
            context, output_dir, restart_dir, alpha_delay, tau_delay
        )
        if active:
            self._active.add(context.name)

    def set_data_endpoint(self, host: str, port: int) -> None:
        """Advertise a data plane through every executor's ``fetch_info``.
        Must precede :meth:`start` (specs ship at spawn time)."""
        if self._running:
            raise InvalidArgumentError(
                "set_data_endpoint must precede start()"
            )
        self._data_endpoint = (host, int(port))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) clients connect to; valid after :meth:`start`."""
        assert self._reserve is not None, "server not started (or accept='none')"
        return self._reserve.getsockname()[:2]

    def start(self) -> None:
        if self._running:
            return
        self._tmpdir = tempfile.mkdtemp(prefix="simfs-mc-")
        if self.accept == "reuseport":
            # Bound but *not* listening: reserves the port number without
            # stealing SYNs from the executors' real listeners.
            self._reserve = DVServer.make_reuseport_listener(
                self._host, self._port, listen=False
            )
            self._port = self._reserve.getsockname()[1]
        self._running = True
        method = self._start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        self._mp_ctx = multiprocessing.get_context(method)
        with self._lock:
            for idx in range(self.workers):
                exec_id = f"exec.{idx}"
                self._handles[exec_id] = self._spawn(exec_id, incarnation=1)
        deadline = time.monotonic() + self._spawn_timeout
        for handle in list(self._handles.values()):
            remaining = max(0.1, deadline - time.monotonic())
            if not handle.ready.wait(remaining):
                self.stop(drain_timeout=0)
                raise DVConnectionLost(
                    f"executor {handle.executor_id!r} did not come up "
                    f"within {self._spawn_timeout}s"
                )
        with self._lock:
            for exec_id in sorted(self._handles):
                self.ring.add_node(exec_id)
            self._m_epoch.set(self.ring.epoch)
            self._m_alive.set(len(self._handles))
        self._broadcast_ring()
        for handle in list(self._handles.values()):
            self._start_heartbeat(handle)

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Two-phase graceful stop.

        Phase one (``drain_timeout > 0``): every executor closes its
        client listeners and drains in-flight simulations, inboxes and
        output buffers — replies and ready notifications already owed are
        delivered, while new connects are refused.  Phase two: executors
        tear down and exit; stragglers are terminated, then killed.
        """
        self._running = False  # stops restarts and heartbeats
        if self._reserve is not None:
            try:
                self._reserve.close()
            except OSError:
                pass
            self._reserve = None
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive]
        if drain_timeout > 0 and handles:
            self._fanout(
                handles,
                {"op": CTL_DRAIN, "timeout": drain_timeout},
                timeout=drain_timeout + 2.0,
            )
        self._fanout(handles, {"op": CTL_STOP}, timeout=3.0)
        with self._lock:
            all_handles = list(self._handles.values())
            self._handles.clear()
        self.router.close()
        for handle in all_handles:
            proc = handle.process
            proc.join(timeout=3.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
            handle.channel.close()
        if self._tmpdir is not None:
            try:
                for name in os.listdir(self._tmpdir):
                    try:
                        os.unlink(os.path.join(self._tmpdir, name))
                    except OSError:
                        pass
                os.rmdir(self._tmpdir)
            except OSError:
                pass
            self._tmpdir = None

    def __enter__(self) -> "MultiCoreServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Spawning and membership
    # ------------------------------------------------------------------ #
    def _spawn(self, exec_id: str, incarnation: int) -> _ExecutorHandle:
        parent_sock, child_sock = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        assert self._tmpdir is not None
        path = os.path.join(self._tmpdir, f"{exec_id}.sock")
        spec = ExecutorSpec(
            executor_id=exec_id,
            host=self._host,
            port=self._port if self.accept == "reuseport" else 0,
            accept=self.accept,
            unix_path=path,
            workers=self.workers,
            vnodes=self.vnodes,
            rpc_timeout=self.rpc_timeout,
            io_workers=self._io_workers,
            catalog=list(self._catalog.values()),
            data_endpoint=self._data_endpoint,
        )
        process = self._mp_ctx.Process(
            target=run_executor,
            args=(spec, child_sock),
            name=f"simfs-{exec_id}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        handle = _ExecutorHandle(
            executor_id=exec_id,
            incarnation=incarnation,
            process=process,
            channel=None,  # type: ignore[arg-type]  # bound just below
            path=path,
        )
        channel = ControlChannel(
            parent_sock,
            handler=lambda msg: self._ctl_request(handle, msg),
            name=f"sup-{exec_id}",
            on_down=lambda: self._executor_died(handle),
        )
        handle.channel = channel
        channel.start()
        return handle

    def _ctl_request(
        self, handle: _ExecutorHandle, message: dict
    ) -> dict | None:
        op = message.get("op")
        if op == CTL_HELLO:
            handle.pid = message.get("pid")
            handle.ready.set()
            return None
        if op == CTL_STATS_ALL:
            return {"stats": self.stats()}
        if op == CTL_OBS_ALL:
            if message.get("kind") == "slow":
                return {"spans": self.slow_spans(
                    int(message.get("limit", 20))
                )}
            return {"spans": self.trace_spans(
                str(message.get("trace_id") or "")
            )}
        return {"error": 1, "detail": f"unexpected control op {op!r}"}

    def _executor_died(self, handle: _ExecutorHandle) -> None:
        """Control channel EOF: the executor is gone (crash or kill -9).
        Remove it from the ring, tell the survivors (they replay stranded
        forwarded waits), replay our own engine-mode waits, and respawn."""
        with self._lock:
            current = self._handles.get(handle.executor_id)
            if not self._running or current is not handle or not handle.alive:
                return
            handle.alive = False
            self.ring.remove_node(handle.executor_id)
            self._m_epoch.set(self.ring.epoch)
            self._m_alive.set(
                sum(1 for h in self._handles.values() if h.alive)
            )
        handle.channel.close()
        self.router.link_down(handle.executor_id)
        try:
            handle.process.join(timeout=0.1)
        except (OSError, ValueError, AssertionError):
            pass
        self._broadcast_ring()
        self._replay_engine_waits()
        if self.restart_crashed and self._running:
            self._respawn(handle)

    def _respawn(self, dead: _ExecutorHandle) -> None:
        self._m_restarts.inc()
        try:
            os.unlink(dead.path)
        except OSError:
            pass
        with self._lock:
            if not self._running:
                return
            fresh = self._spawn(dead.executor_id, dead.incarnation + 1)
            self._handles[dead.executor_id] = fresh
        if not fresh.ready.wait(self._spawn_timeout):
            with self._lock:
                fresh.alive = False
            fresh.channel.close()
            try:
                fresh.process.kill()
            except (OSError, ValueError, AssertionError):
                pass
            return
        with self._lock:
            self.ring.add_node(fresh.executor_id)
            self._m_epoch.set(self.ring.epoch)
            self._m_alive.set(
                sum(1 for h in self._handles.values() if h.alive)
            )
        self._broadcast_ring()
        self._replay_engine_waits()
        self._start_heartbeat(fresh)

    def _broadcast_ring(self) -> None:
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive]
            view = {
                "op": CTL_RING,
                "epoch": self.ring.epoch,
                "executors": {h.executor_id: h.path for h in handles},
                "active": sorted(self._active),
            }
        self._fanout(handles, view, timeout=self.rpc_timeout)

    def _fanout(
        self, handles: list[_ExecutorHandle], message: dict, timeout: float
    ) -> dict[str, dict | None]:
        """Issue one control request to many executors concurrently.

        Concurrency is load-bearing, not an optimization: executor A's
        post-update replay may block on executor B activating a context,
        which only happens once B receives this same update — a serial
        broadcast would turn that into a stall.
        """
        results: dict[str, dict | None] = {}

        def one(handle: _ExecutorHandle) -> None:
            try:
                results[handle.executor_id] = handle.channel.call(
                    dict(message), timeout=timeout
                )
            except (DVConnectionLost, TimeoutError):
                results[handle.executor_id] = None

        threads = [
            threading.Thread(target=one, args=(h,), daemon=True)
            for h in handles
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout + 1.0)
        return results

    # ------------------------------------------------------------------ #
    # Health checking
    # ------------------------------------------------------------------ #
    def _start_heartbeat(self, handle: _ExecutorHandle) -> None:
        threading.Thread(
            target=self._heartbeat_loop,
            args=(handle,),
            name=f"simfs-hb-{handle.executor_id}",
            daemon=True,
        ).start()

    def _heartbeat_loop(self, handle: _ExecutorHandle) -> None:
        """Ping one executor; EOF on the channel (crash) is caught by the
        channel's own listener, so this loop only has to catch *hangs* —
        a live process whose loop stopped answering."""
        misses = 0
        while self._running and handle.alive:
            time.sleep(self.heartbeat_interval)
            if not self._running or not handle.alive:
                return
            if self._handles.get(handle.executor_id) is not handle:
                return
            try:
                handle.channel.call(
                    {"op": CTL_PING},
                    timeout=max(self.heartbeat_interval, 1.0),
                )
                misses = 0
            except DVConnectionLost:
                return  # channel death path owns the failover
            except TimeoutError:
                misses += 1
                if misses >= self.heartbeat_misses:
                    # Hung, not dead: kill it so the EOF path takes over.
                    try:
                        handle.process.kill()
                    except (OSError, ValueError, AssertionError):
                        pass
                    return

    # ------------------------------------------------------------------ #
    # Merged observability plane
    # ------------------------------------------------------------------ #
    def _obs_query(self, message: dict) -> list[dict]:
        """Fan one span query to every live executor; an unreachable
        executor simply contributes nothing (its recorder died with it)."""
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive]
        spans: list[dict] = []
        for reply in self._fanout(handles, message, timeout=3.0).values():
            if isinstance(reply, dict):
                spans.extend(reply.get("spans") or ())
        return spans

    def trace_spans(self, trace_id: str | int) -> list[dict]:
        """One trace's spans merged across the executor pool."""
        spans = self._obs_query(
            {"op": CTL_OBS, "kind": "trace", "trace_id": str(trace_id)}
        )
        seen: set = set()
        merged = []
        for span in spans:
            if span.get("span_id") in seen:
                continue
            seen.add(span.get("span_id"))
            merged.append(span)
        merged.sort(key=lambda s: (s.get("start", 0.0), s.get("end", 0.0)))
        return merged

    def slow_spans(self, limit: int = 20) -> list[dict]:
        """The pool's slowest retained spans (tail-sampled view)."""
        spans = self._obs_query(
            {"op": CTL_OBS, "kind": "slow", "limit": int(limit)}
        )
        spans.sort(key=lambda s: s.get("duration", 0.0), reverse=True)
        return spans[: int(limit)]

    # ------------------------------------------------------------------ #
    # Merged stats plane
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """The pool-wide ``stats`` payload: per-shard summaries from every
        executor, totals summed, metric series merged — with each
        executor's unmerged series additionally present under an
        ``exec.<i>.`` prefix, so dashboards can tell merged from
        per-executor counters."""
        with self._lock:
            handles = {
                h.executor_id: h for h in self._handles.values() if h.alive
            }
            executors_info = {
                h.executor_id: {
                    "pid": h.pid,
                    "alive": h.alive,
                    "incarnation": h.incarnation,
                }
                for h in self._handles.values()
            }
        per_exec: dict[str, dict] = {}
        for exec_id, handle in sorted(handles.items()):
            try:
                reply = handle.channel.call({"op": CTL_STATS}, timeout=3.0)
            except (DVConnectionLost, TimeoutError):
                continue
            stats = reply.get("stats")
            if isinstance(stats, dict):
                per_exec[exec_id] = stats
        contexts = []
        connected = 0
        for exec_id, snap in per_exec.items():
            for summary in snap.get("contexts", []):
                contexts.append({**summary, "executor": exec_id})
            connected += snap.get("server", {}).get("connected_clients", 0)
            executors_info.setdefault(exec_id, {})["connected_clients"] = (
                snap.get("server", {}).get("connected_clients", 0)
            )
        metrics = merge_snapshots(
            [snap.get("metrics", {}) for snap in per_exec.values()]
            + [self.metrics.snapshot()]
        )
        # Per-executor series, labeled: "exec.<i>.<series>" next to the
        # merged, unprefixed series.
        for exec_id, snap in per_exec.items():
            for name, metric in snap.get("metrics", {}).items():
                metrics[f"{exec_id}.{name}"] = metric
        contexts.sort(key=lambda s: s.get("context", ""))
        return {
            "contexts": contexts,
            "totals": {
                "restarts": sum(c["total_restarts"] for c in contexts),
                "simulated_outputs": sum(
                    c["total_simulated_outputs"] for c in contexts
                ),
                "killed_sims": sum(c["total_killed_sims"] for c in contexts),
            },
            "metrics": metrics,
            "server": {
                "mode": "multiproc",
                "accept": self.accept,
                "workers": self.workers,
                "connected_clients": connected,
                "executors": executors_info,
            },
        }

    # ------------------------------------------------------------------ #
    # Cluster engine mode (accept="none"): the pool as a node's engine
    # ------------------------------------------------------------------ #
    def activate(self, name: str) -> None:
        """Serve ``name`` (its ring-assigned executor activates it)."""
        with self._lock:
            if name not in self._catalog:
                raise InvalidArgumentError(f"unknown context {name!r}")
            if name in self._active:
                return
            self._active.add(name)
        self._broadcast_ring()

    def deactivate(
        self, name: str
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
        """Stop serving ``name``; returns the owning executor's captured
        attachments and waiters for replay by the caller (the cluster
        tier replays them at the context's new owning node)."""
        with self._lock:
            self._active.discard(name)
            owner = self.ring.owner(name)
            handle = self._handles.get(owner) if owner else None
        self.router.forget_context(name)
        reattaches: list[tuple[str, str]] = []
        replays: list[tuple[str, str, str]] = []
        if handle is not None and handle.alive:
            try:
                reply = handle.channel.call(
                    {"op": CTL_DEACTIVATE, "context": name},
                    timeout=self.rpc_timeout,
                )
                reattaches = [tuple(r) for r in reply.get("reattaches", [])]
                replays = [tuple(r) for r in reply.get("replays", [])]
            except (DVConnectionLost, TimeoutError):
                pass
        self._broadcast_ring()
        return reattaches, replays

    def active_contexts(self) -> list[str]:
        with self._lock:
            return sorted(self._active)

    def forward(self, client_id: str, inner: dict) -> dict:
        """Engine-mode ingress: run one client op on the owning executor,
        riding out executor death and activation lag like its gateways."""
        return self.router.forward(client_id, inner)

    def _resolve(self, context) -> tuple[str | None, bool]:
        with self._lock:
            serves = isinstance(context, str) and context in self._active
            return (self.ring.owner(context) if serves else None), serves

    def _dial(self, exec_id: str, **callbacks):
        with self._lock:
            handle = self._handles.get(exec_id)
            path = handle.path if handle is not None and handle.alive else None
        return unix_link("sup", exec_id, path, **callbacks)

    def _replay_engine_waits(self) -> None:
        """After a membership change: re-attach and re-open what engine
        mode recorded against an executor that lost its context."""
        with self._lock:
            reattaches, replays = self.router.stale()
        self.router.replay(reattaches, replays)
