"""Cluster-aware DVLib connection: one hop to the owner, steady state.

A :class:`ClusterConnection` looks like any other
:class:`~repro.client.dvlib.DVConnection`, but under the hood it keeps
one :class:`~repro.client.dvlib.TcpConnection` per cluster node and
routes every op straight to the context's owner — the gateway forwarding
path stays available for clients that do not (or cannot) know the ring,
while cluster-aware clients skip the extra hop entirely.

The ring is learned from the ``hello`` reply of the first node reached
(every :class:`~repro.cluster.node.ClusterNode` appends its membership
view to hello replies) and rebuilt locally with the same
:class:`~repro.cluster.ring.HashRing` parameters, so client and daemons
agree on ownership without a directory service.  When an owner dies
mid-session the next op raises :class:`DVConnectionLost` internally, the
connection refreshes the ring from any surviving node, and retries
against the new owner until ``failover_timeout`` runs out — sessions
survive node failures without reconnecting by hand.
"""

from __future__ import annotations

import threading
import time

from repro.client.dvlib import DVConnection, FileInfo, TcpConnection
from repro.cluster.link import DialBackoff
from repro.cluster.ring import HashRing
from repro.core.errors import (
    ConnectionLostError,
    DETAIL_ALREADY_ATTACHED,
    DETAIL_ALREADY_CONNECTED,
    DVConnectionLost,
    InvalidArgumentError,
)

__all__ = ["ClusterConnection"]


class ClusterConnection(DVConnection):
    """DVLib over a DV cluster: per-owner connections plus ring refresh."""

    def __init__(
        self,
        seeds: list[tuple[str, int]],
        storage_dirs: dict[str, str] | None = None,
        restart_dirs: dict[str, str] | None = None,
        client_id: str | None = None,
        connect_timeout: float = 10.0,
        failover_timeout: float = 10.0,
    ) -> None:
        if not seeds:
            raise InvalidArgumentError("ClusterConnection needs >= 1 seed address")
        super().__init__(client_id)
        self._seeds = [(str(host), int(port)) for host, port in seeds]
        self._storage_dirs = dict(storage_dirs or {})
        self._restart_dirs = dict(restart_dirs or {})
        self._connect_timeout = connect_timeout
        self._failover_timeout = failover_timeout
        self._conns: dict[str, TcpConnection] = {}
        self._addrs: dict[str, tuple[str, int]] = {}
        self._ring = HashRing()
        self._closed = False
        # Serializes connection-table and ring mutation: user ops and the
        # wait watchdog both end up in _conn_for_addr/_refresh_ring.
        self._lock = threading.RLock()
        # context -> the per-node connection we attached through; after a
        # failover the owner changes and the session must re-attach there.
        self._attached: dict[str, TcpConnection] = {}
        # (context, file) -> owner we are blocked on (no ready yet).  The
        # watchdog replays these when the owner dies — a blocked waiter
        # issues no ops of its own, so op-triggered failover can't save it.
        self._waits: dict[tuple[str, str], str] = {}
        # Spaces out failover retries per context / replay attempts per
        # owner: a dead endpoint must not be hammered at a fixed cadence.
        self._retry_backoff = DialBackoff(base=0.1, cap=2.0)
        self.ready_table.add_watcher(self._on_ready)
        self._refresh_ring()
        self._watchdog = threading.Thread(
            target=self._watch_waits,
            name=f"cluster-conn-watch-{self.client_id}", daemon=True,
        )
        self._watchdog.start()

    # ------------------------------------------------------------------ #
    # Ring discovery
    # ------------------------------------------------------------------ #
    def _on_ready(self, context: str, filename: str, ok: bool) -> None:
        self._waits.pop((context, filename), None)

    def _watch_waits(self) -> None:
        """Replay blocked opens whose owner died: the owner's ready will
        never come, and the blocked client issues no op that would
        trigger the normal failover path."""
        while not self._closed:
            time.sleep(0.1)
            if not self._waits or self._closed:
                continue
            for (context, filename), owner in list(self._waits.items()):
                conn = self._conns.get(owner)
                if conn is not None and not conn.is_lost:
                    self._retry_backoff.succeeded(f"wait:{owner}")
                    continue  # owner healthy: its ready is still coming
                # A dead owner is probed on the capped-jitter backoff
                # schedule, not once per poll tick.
                if not self._retry_backoff.ready(f"wait:{owner}"):
                    continue
                try:
                    info = self._routed(
                        context, lambda c: c.open(context, filename)
                    )
                except (ConnectionLostError, InvalidArgumentError, OSError):
                    self._retry_backoff.failed(f"wait:{owner}")
                    continue  # retried once the backoff window passes
                self._retry_backoff.succeeded(f"wait:{owner}")
                if info.available:
                    # Landed on the shared PFS meanwhile (or the new
                    # owner sees it): resolve the blocked wait.
                    self.ready_table.record(context, filename, True)
                else:
                    new_owner = self._ring.owner(context)
                    if new_owner:
                        self._waits[(context, filename)] = new_owner

    def _refresh_ring(self) -> None:
        """Learn the membership from any reachable node (live connections
        first, configured seeds as fallback)."""
        last_error: Exception | None = None
        candidates: list[tuple[str, int]] = list(self._addrs.values())
        candidates += [a for a in self._seeds if a not in candidates]
        for host, port in candidates:
            try:
                conn = self._conn_for_addr(host, port)
                # The hello reply seeded ``server_info``, but a refresh
                # must see the *current* membership: ask the live op.
                info = conn.call({"op": "cluster"}).get("cluster")
            except (ConnectionLostError, OSError) as exc:
                last_error = exc
                continue
            except InvalidArgumentError as exc:
                # Our previous connection to this node is still being
                # torn down ("client_id already connected"): try the
                # next candidate, a later refresh will reach this one.
                if DETAIL_ALREADY_CONNECTED not in str(exc):
                    raise
                last_error = exc
                continue
            if isinstance(info, dict):
                self._apply_view(info)
                return
        raise DVConnectionLost(
            f"no cluster node reachable via {self._seeds!r}"
        ) from last_error

    def _apply_view(self, info: dict) -> None:
        vnodes = int(info.get("vnodes", self._ring.vnodes))
        ring = HashRing(vnodes)
        addrs: dict[str, tuple[str, int]] = {}
        for node in info.get("nodes", ()):
            if not node.get("alive", True):
                continue
            node_id = node.get("id")
            if isinstance(node_id, str):
                ring.add_node(node_id)
                addrs[node_id] = (str(node.get("host")), int(node.get("port")))
        # Migration placement pins ride along with the membership view so
        # the client routes straight to a migrated context's new owner.
        for name, target in (info.get("pins") or {}).items():
            if isinstance(target, str) and target in ring:
                ring.pin(str(name), target)
        if len(ring):
            with self._lock:
                self._ring = ring
                self._addrs = addrs

    def _conn_for_addr(self, host: str, port: int) -> TcpConnection:
        with self._lock:
            for conn in self._conns.values():
                if conn.address == (host, port) and not conn.is_lost:
                    return conn
            probe = TcpConnection(
                host, port, self._storage_dirs, self._restart_dirs,
                client_id=self.client_id, connect_timeout=self._connect_timeout,
            )
            self._adopt(probe)
            return probe

    def _adopt(self, conn: TcpConnection) -> None:
        """Funnel a per-node connection's notifications into the shared
        ready table and index it by the node id it reported."""
        conn.ready_table.add_watcher(self.ready_table.record)
        info = conn.server_info.get("cluster")
        node_id = info.get("self") if isinstance(info, dict) else None
        key = node_id if isinstance(node_id, str) else f"{conn.address}"
        old = self._conns.get(key)
        if old is not None and old is not conn:
            old.close()
        self._conns[key] = conn

    def _conn_for_context(self, context: str) -> TcpConnection:
        """A live connection serving ``context``: the ring owner when
        reachable, else the next nodes in the context's preference list.
        Under replication the first successor is the promoted owner; in
        any case a non-owner gateway-forwards, so falling down the chain
        is always correct — just possibly one hop slower."""
        chain = (
            self._ring.successors(context, len(self._ring))
            if len(self._ring) else []
        )
        if not chain:
            raise DVConnectionLost("cluster ring is empty")
        last_error: Exception | None = None
        for node_id in chain:
            conn = self._conns.get(node_id)
            if conn is not None and not conn.is_lost:
                return conn
            addr = self._addrs.get(node_id)
            if addr is None:
                continue
            try:
                return self._conn_for_addr(*addr)
            except (ConnectionLostError, OSError) as exc:
                last_error = exc
        raise DVConnectionLost(
            f"no live node in the preference list of context {context!r}"
        ) from last_error

    def _ensure_attached(self, context: str, conn: TcpConnection) -> None:
        """Attached sessions follow the context: when the owner we
        attached through is gone, re-register with the current owner."""
        if self._attached.get(context) is conn:
            return
        try:
            conn.attach(context)
        except InvalidArgumentError as exc:
            if DETAIL_ALREADY_ATTACHED not in str(exc):
                raise
        self._attached[context] = conn

    def _routed(self, context: str, op):
        """Run ``op`` against the context owner, failing over (refresh
        ring, re-attach, retry new owner) while the timeout budget lasts."""
        if self._closed:
            raise DVConnectionLost("connection is closed")
        deadline = time.monotonic() + self._failover_timeout
        while True:
            try:
                conn = self._conn_for_context(context)
                if context in self._attached:
                    self._ensure_attached(context, conn)
                result = op(conn)
                self._retry_backoff.succeeded(f"route:{context}")
                return result
            except (ConnectionLostError, OSError) as exc:
                if time.monotonic() >= deadline:
                    raise DVConnectionLost(
                        f"no live owner for context {context!r}: {exc}"
                    ) from exc
            except InvalidArgumentError as exc:
                # Retryable only while the daemon finishes releasing our
                # previous connection's client_id.
                if (
                    DETAIL_ALREADY_CONNECTED not in str(exc)
                    or time.monotonic() >= deadline
                ):
                    raise
            # Capped-jitter backoff instead of a fixed cadence: repeated
            # failures against the same dead owner space themselves out
            # (never past the remaining failover budget).
            delay = self._retry_backoff.failed(f"route:{context}")
            time.sleep(max(0.0, min(delay, deadline - time.monotonic())))
            try:
                self._refresh_ring()
            except DVConnectionLost:
                pass  # keep retrying until the deadline

    # ------------------------------------------------------------------ #
    # DVConnection interface
    # ------------------------------------------------------------------ #
    def attach(self, context: str) -> None:
        def do_attach(conn: TcpConnection) -> None:
            if self._attached.get(context) is not conn:
                conn.attach(context)
                self._attached[context] = conn

        self._routed(context, do_attach)

    def finalize(self, context: str) -> None:
        self._routed(context, lambda conn: conn.finalize(context))
        self._attached.pop(context, None)

    def close(self) -> None:
        self._closed = True
        for conn in self._conns.values():
            try:
                conn.close()
            except (ConnectionLostError, OSError):
                pass
        self._conns.clear()

    def open(self, context: str, filename: str) -> FileInfo:
        info = self._routed(context, lambda conn: conn.open(context, filename))
        if not info.available:
            owner = self._ring.owner(context)
            if owner:
                self._waits[(context, filename)] = owner
        return info

    def acquire(self, context: str, filenames: list[str]) -> list[FileInfo]:
        infos = self._routed(
            context, lambda conn: conn.acquire(context, filenames)
        )
        owner = self._ring.owner(context)
        if owner:
            for info in infos:
                if not info.available:
                    self._waits[(context, info.filename)] = owner
        return infos

    def release(self, context: str, filename: str) -> None:
        self._routed(context, lambda conn: conn.release(context, filename))
        self._waits.pop((context, filename), None)
        self.ready_table.forget(context, filename)

    def notify_write_close(self, context: str, filename: str) -> None:
        self._routed(
            context, lambda conn: conn.notify_write_close(context, filename)
        )

    def bitrep(self, context: str, filename: str, path: str | None = None) -> bool:
        return self._routed(
            context, lambda conn: conn.bitrep(context, filename, path)
        )

    def batch(self, ops: list[dict]) -> list[dict]:
        """Pipelined sub-ops.  All sub-ops must name contexts owned by
        one node (the normal case: a per-context release window) — the
        batch travels to the owner of the first sub-op's context."""
        contexts = {
            sub.get("context") for sub in ops if isinstance(sub, dict)
        } - {None}
        if not contexts:
            raise InvalidArgumentError("cluster batch needs context-bearing ops")
        owners = {self._ring.owner(ctx) for ctx in contexts}
        if len(owners) > 1:
            raise InvalidArgumentError(
                "cluster batch cannot span owners "
                f"({sorted(contexts)} map to {sorted(owners)})"
            )
        context = next(iter(contexts))
        return self._routed(context, lambda conn: conn.batch(ops))

    def stats(self) -> dict:
        for conn in self._conns.values():
            if not conn.is_lost:
                return conn.stats()
        self._refresh_ring()
        for conn in self._conns.values():
            if not conn.is_lost:
                return conn.stats()
        raise DVConnectionLost("no cluster node reachable for stats")

    def cluster_status(self) -> dict:
        """Ring/membership view plus cluster metrics of a live node."""
        return self._any_node_call({"op": "cluster"})

    def ha_status(self) -> dict:
        """Replication view (factor, per-context replica sets, lag, last
        promotion) plus ``repl.*`` metrics of a live node."""
        return self._any_node_call({"op": "ha"})

    def _any_node_call(self, message: dict) -> dict:
        for conn in list(self._conns.values()):
            if not conn.is_lost:
                return conn.call(dict(message))
        self._refresh_ring()
        for conn in list(self._conns.values()):
            if not conn.is_lost:
                return conn.call(dict(message))
        raise DVConnectionLost("no cluster node reachable")

    def storage_path(self, context: str, filename: str) -> str:
        import os

        return os.path.join(self._storage_dirs[context], filename)

    def restart_dir(self, context: str) -> str:
        return self._restart_dirs[context]
