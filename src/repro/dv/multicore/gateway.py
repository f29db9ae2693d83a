"""Executor-side forwarding gateway: the cluster ring, inside one node.

Each shard-executor process embeds an :class:`ExecutorGateway` in its
:class:`~repro.dv.server.DVServer`, wired through the same hooks the
cluster tier uses (``route_ops`` / ``ready_router`` / ``hello_extra`` /
``drop_hook`` plus a registered ``fwd`` op).  The gateway holds the
executor's view of the internal :class:`~repro.cluster.ring.HashRing`
(``context name -> executor id``) and forwards ops for contexts owned by
a sibling executor over per-pair Unix-socket
:class:`~repro.cluster.link.PeerLink` channels carrying the binary wire
codec — the identical ``fwd``/``fwd_reply`` frames that cross TCP in the
cluster tier cross a socketpair-cheap AF_UNIX stream here.

The forwarding itself is the shared :class:`~repro.cluster.router.Router`.
Unlike a cluster node, an executor never *decides* membership: the
supervisor is the single oracle, pushing ``ctl.ring`` updates with the
authoritative executor set, socket paths and active-context list.  On a
dead sibling the router just retries (bounded by the RPC deadline)
until the supervisor's next update reassigns the context; forwarded
state stranded on the old owner is then replayed against the new one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.cluster.link import PeerLink
from repro.cluster.ring import HashRing
from repro.cluster.router import Router
from repro.core.context import SimulationContext
from repro.core.errors import DVConnectionLost
from repro.dv.protocol import OP_FWD
from repro.dv.server import DVServer

__all__ = ["ExecutorCatalogEntry", "ExecutorGateway", "unix_link"]


def unix_link(
    self_id: str, exec_id: str, path: str | None, **callbacks
) -> PeerLink:
    """Dial an executor's peer listener (the pool's ``Router.dial``)."""
    if path is None:
        raise DVConnectionLost(f"executor {exec_id!r} is not a live member")
    return PeerLink(
        self_id, exec_id, "", 0, path=path, connect_timeout=2.0, **callbacks
    )


@dataclass
class ExecutorCatalogEntry:
    """How to activate one context on this executor (mirrors the cluster
    tier's ContextSpec; every executor ships the full catalog and
    activates only its ring-assigned slice)."""

    context: SimulationContext
    output_dir: str
    restart_dir: str
    alpha_delay: float = 0.0
    tau_delay: float = 0.0


class ExecutorGateway:
    """Ring routing + peer forwarding for one shard-executor process."""

    def __init__(
        self,
        executor_id: str,
        server: DVServer,
        catalog: dict[str, ExecutorCatalogEntry],
        vnodes: int = 32,
        rpc_timeout: float = 10.0,
        workers: int = 1,
    ) -> None:
        self.executor_id = executor_id
        self.server = server
        self.catalog = catalog
        self.workers = workers
        self.ring = HashRing(vnodes)
        #: Serializes ring/paths/active/activation state; never held
        #: across a peer round trip.
        self._lock = threading.RLock()
        self._paths: dict[str, str] = {}
        self._active_view: set[str] = set()
        self._active_here: set[str] = set()
        self._m_epoch = server.metrics.gauge("mc.ring_epoch")
        #: Forwarding core.  Membership is the supervisor's call: a dead
        #: or slow sibling means nothing here, the router waits for
        #: ``ctl.ring``, and state is stale once the ring owner changed.
        self.router = Router(
            executor_id,
            resolve=self._resolve,
            dial=self._dial,
            execute_local=self._execute_local,
            ready_sink=server._push_ready,
            send=server._send,
            is_stale=lambda owner, name: self.ring.owner(name) != owner,
            metrics=server.metrics,
            prefix="mc.",
            rpc_timeout=rpc_timeout,
            obs=server.obs,
        )
        server.register_op(
            OP_FWD, self.router.on_fwd, reply_op="fwd_reply", needs_worker=True
        )
        server.set_cluster_hooks(
            route_ops=self.router.route,
            ready_router=self.router.route_ready,
            hello_extra=self._hello_extra,
            drop_hook=self.router.drop_client,
        )

    # ------------------------------------------------------------------ #
    # Membership (supervisor-driven)
    # ------------------------------------------------------------------ #
    def apply_ring(
        self, executors: dict[str, str], active: list[str]
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
        """Reconcile with the supervisor's view: ``executors`` maps every
        live executor id to its Unix socket path; ``active`` is the
        node-wide set of contexts that should be served at all (the full
        catalog standalone, the cluster-owned subset in engine mode).

        Returns the re-attaches and waiter replays the caller must run
        *after* replying to the supervisor — replays forward to siblings
        that may only learn the same update moments later, so running
        them before the reply could stall a serial broadcast.
        """
        reattaches: list[tuple[str, str]] = []
        replays: list[tuple[str, str, str]] = []
        with self._lock:
            member_ids = set(executors)
            for exec_id in self.ring.nodes():
                if exec_id not in member_ids:
                    self.ring.remove_node(exec_id)
            for exec_id in sorted(member_ids):
                if exec_id not in self.ring:
                    self.ring.add_node(exec_id)
            self._paths = dict(executors)
            self._active_view = set(active)
            self._m_epoch.set(self.ring.epoch)
            for name in sorted(self.catalog):
                owned = (
                    name in self._active_view
                    and self.ring.owner(name) == self.executor_id
                )
                if owned and name not in self._active_here:
                    self._activate(name)
                elif not owned and name in self._active_here:
                    attached, waits = self._deactivate(name)
                    reattaches.extend(attached)
                    replays.extend(waits)
            # Forwarded state recorded against an executor that no longer
            # owns the context: re-register and replay with the new owner.
            stale_attached, stale_waits = self.router.stale()
        return reattaches + stale_attached, replays + stale_waits

    def _activate(self, name: str) -> None:
        entry = self.catalog[name]
        self.server.add_context(
            entry.context, entry.output_dir, entry.restart_dir,
            alpha_delay=entry.alpha_delay, tau_delay=entry.tau_delay,
        )
        self._active_here.add(name)

    def _deactivate(
        self, name: str
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
        self._active_here.discard(name)
        return self.server.coordinator.release_context(name)

    def release_for_handoff(
        self, name: str
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
        """Cluster engine mode: the context is leaving this *node* — give
        the captured waiters to the supervisor (which relays them to the
        cluster tier for replay at the new owning node) instead of
        replaying them internally."""
        with self._lock:
            self._active_view.discard(name)
            if name not in self._active_here:
                return [], []
            return self._deactivate(name)

    def active_contexts(self) -> list[str]:
        with self._lock:
            return sorted(self._active_here)

    # ------------------------------------------------------------------ #
    # Router hooks
    # ------------------------------------------------------------------ #
    def _resolve(self, context) -> tuple[str | None, bool]:
        """``(owner, serves)``: the owning executor of a context the pool
        serves, activating it here first if it is ours and not up yet."""
        with self._lock:
            serves = (
                isinstance(context, str)
                and context in self.catalog
                and context in self._active_view
            )
            owner = self.ring.owner(context) if serves else None
            if owner == self.executor_id and context not in self._active_here:
                self._activate(context)
        return owner, serves

    def _execute_local(self, proxy, messages: list[dict]) -> list[bytes]:
        return self.server.serve_ops(proxy, messages)

    def _dial(self, exec_id: str, **callbacks) -> PeerLink:
        with self._lock:
            path = self._paths.get(exec_id)
        return unix_link(self.executor_id, exec_id, path, **callbacks)

    def _hello_extra(self) -> dict:
        with self._lock:
            return {
                "multicore": {
                    "executor": self.executor_id,
                    "workers": self.workers,
                    "epoch": self.ring.epoch,
                    "executors": self.ring.nodes(),
                    # Context -> owning executor: lets a locality-aware
                    # client reconnect until the kernel's REUSEPORT hash
                    # lands it on the executor that owns its context.
                    "owners": {
                        name: self.ring.owner(name)
                        for name in sorted(self._active_view)
                    },
                }
            }

    def close(self) -> None:
        self.router.close()
