"""The Data Virtualizer registry/router (paper Sec. III).

:class:`DVCoordinator` is a thin routing layer over **context shards**
(:mod:`repro.dv.shard`): every registered simulation context gets a
self-contained :class:`~repro.dv.shard.ContextShard` owning its own lock,
storage area, waiter table, job queue and prefetch agents.  The
coordinator maps ``context_name`` to the shard and delegates; it holds no
data-path state and takes no global lock, so traffic on independent
contexts never contends.

Both front ends drive the same shards: the TCP daemon
(:mod:`repro.dv.server`) calls in from socket handlers with wall-clock
timestamps, and the discrete-event simulator (:mod:`repro.des`) calls in
with virtual timestamps.  That is how the reproduction keeps the paper's
"one logic, two deployments" property testable.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable

from repro.core.context import SimulationContext
from repro.core.errors import ContextError
from repro.dv.shard import (
    ContextShard,
    Notification,
    OpenResult,
    RunningSim,
    SimulationExecutor,
)
from repro.metrics import MetricsRegistry

__all__ = [
    "SimulationExecutor",
    "RunningSim",
    "OpenResult",
    "Notification",
    "DVCoordinator",
]


class DVCoordinator:
    """Registry of context shards plus name-based routing."""

    def __init__(
        self,
        executor: SimulationExecutor,
        notify: Callable[[Notification], None] | None = None,
        metrics: MetricsRegistry | None = None,
        obs=None,
    ) -> None:
        self._executor = executor
        self._notify = notify or (lambda _n: None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Span recorder shared with every shard (None = tracing off).
        self.obs = obs
        self._shards: dict[str, ContextShard] = {}
        self._registry_lock = threading.Lock()
        # Shared across shards so sim ids stay globally unique (the
        # launcher and the DES key their book-keeping by sim_id alone).
        self._sim_ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Context and client management
    # ------------------------------------------------------------------ #
    def register_context(
        self,
        context: SimulationContext,
        on_evict_file: Callable[[str], None] | None = None,
        present: Callable[[str], bool] | None = None,
    ) -> ContextShard:
        """Register a simulation context as a new shard.  ``on_evict_file``
        unlinks an evicted output; ``present`` says whether an output is
        on disk, so a close that comes after its file's eviction is
        dropped (see :meth:`ContextShard.sim_file_closed`)."""
        with self._registry_lock:
            if context.name in self._shards:
                raise ContextError(f"context {context.name!r} already registered")
            shard = ContextShard(
                context,
                executor=self._executor,
                sim_ids=self._sim_ids,
                notify=self._dispatch_notification,
                metrics=self.metrics,
                on_evict_file=on_evict_file,
                obs=self.obs,
                present=present,
            )
            self._shards[context.name] = shard
            return shard

    def unregister_context(
        self, context_name: str, now: float = 0.0,
        prune_metrics: bool = True,
    ) -> None:
        """Remove a context shard from the registry.

        Outstanding waiters are failed (``ok=False`` notifications) so no
        client hangs on a context that no longer exists here, and every
        running or queued re-simulation is killed through the executor.
        The shard's per-context metric series (``dv.<name>.*`` and
        ``cache.<name>.*``) are pruned from the registry so churny
        register/unregister cycles (migrations, failovers) don't
        accumulate dead series without bound; pass
        ``prune_metrics=False`` to keep the historical behavior where a
        re-registration under the same name resumes the same counters.
        """
        with self._registry_lock:
            try:
                shard = self._shards.pop(context_name)
            except KeyError:
                raise ContextError(
                    f"unknown context {context_name!r}"
                ) from None
        with shard.lock:
            notifications = [
                Notification(client_id, context_name,
                             shard.context.filename_of(key), ok=False)
                for key, waiting in shard.waiters.items()
                for client_id in waiting
            ]
            shard.waiters.clear()
            shard._waiter_obs.clear()
            for sim in list(shard.sims.values()):
                self._executor.kill(sim.sim_id)
            shard.sims.clear()
            shard.in_flight.clear()
            shard.pending_jobs = type(shard.pending_jobs)()
        for notification in notifications:
            self._dispatch_notification(notification)
        if prune_metrics:
            # Trailing dot: "dv.cosmo." must not take "dv.cosmology.*" down.
            self.metrics.prune(f"dv.{context_name}.")
            self.metrics.prune(f"cache.{context_name}.")

    def release_context(
        self, context_name: str
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
        """Handoff variant of :meth:`unregister_context`.

        Instead of failing outstanding waiters, their identities are
        captured (and the waiter table cleared, so the unregister does not
        fail them) and returned to the caller for replay against the new
        owner: ``(reattaches, replays)`` as ``[(client_id, context)]`` and
        ``[(client_id, context, filename)]``.  A missing context returns
        two empty lists — releases race with crashes and double-fire.
        """
        try:
            shard = self.shard(context_name)
        except ContextError:
            return [], []
        attached, captured = shard.capture_handoff()
        try:
            self.unregister_context(context_name)
        except ContextError:
            pass
        return (
            [(client_id, context_name) for client_id in attached],
            [
                (client_id, context_name, filename)
                for client_id, filename in captured
            ],
        )

    def has_context(self, context_name: str) -> bool:
        """Cheap ownership probe (the cluster gateway's routing test)."""
        return context_name in self._shards

    def context_names(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._shards)

    def shard(self, context_name: str) -> ContextShard:
        """The shard owning ``context_name``."""
        try:
            return self._shards[context_name]
        except KeyError:
            raise ContextError(f"unknown context {context_name!r}") from None

    def shards(self) -> list[ContextShard]:
        with self._registry_lock:
            return [self._shards[name] for name in sorted(self._shards)]

    # Historical name: the shard *is* the per-context state bag the tests
    # and the DES introspect.
    get_state = shard

    def client_connect(self, client_id: str, context_name: str) -> None:
        """``SIMFS_Init``: attach a client (and its prefetch agent)."""
        self.shard(context_name).client_connect(client_id)

    def client_disconnect(self, client_id: str, context_name: str, now: float) -> None:
        """``SIMFS_Finalize``: detach a client from one context."""
        self.shard(context_name).client_disconnect(client_id, now)

    # ------------------------------------------------------------------ #
    # Client data path
    # ------------------------------------------------------------------ #
    def handle_open(
        self, client_id: str, context_name: str, filename: str, now: float,
        tc: str | None = None,
    ) -> OpenResult:
        return self.shard(context_name).handle_open(
            client_id, filename, now, tc=tc
        )

    def handle_acquire(
        self, client_id: str, context_name: str, filenames: list[str], now: float,
        tc: str | None = None,
    ) -> list[OpenResult]:
        return self.shard(context_name).handle_acquire(
            client_id, filenames, now, tc=tc
        )

    def handle_release(
        self, client_id: str, context_name: str, filename: str, now: float
    ) -> None:
        self.shard(context_name).handle_release(client_id, filename, now)

    def handle_bitrep(self, context_name: str, filename: str, path: str) -> bool:
        return self.shard(context_name).handle_bitrep(filename, path)

    # ------------------------------------------------------------------ #
    # Simulator data path (DVLib intercepts the simulator's closes)
    # ------------------------------------------------------------------ #
    def sim_file_closed(
        self, context_name: str, filename: str, now: float
    ) -> list[Notification]:
        return self.shard(context_name).sim_file_closed(filename, now)

    def sim_completed(self, context_name: str, sim_id: int, now: float) -> None:
        self.shard(context_name).sim_completed(sim_id, now)

    def sim_failed(
        self, context_name: str, sim_id: int, now: float
    ) -> list[Notification]:
        return self.shard(context_name).sim_failed(sim_id, now)

    # ------------------------------------------------------------------ #
    # Aggregates (Fig. 5 counters and the stats plane)
    # ------------------------------------------------------------------ #
    @property
    def total_restarts(self) -> int:
        return sum(s.total_restarts for s in self.shards())

    @property
    def total_simulated_outputs(self) -> int:
        return sum(s.total_simulated_outputs for s in self.shards())

    @property
    def total_killed_sims(self) -> int:
        return sum(s.total_killed_sims for s in self.shards())

    def stats_snapshot(self) -> dict:
        """JSON-serializable service state: per-shard summaries plus the
        metrics registry (the payload of the ``stats`` protocol op)."""
        summaries = [shard.summary() for shard in self.shards()]
        # Totals from the same locked pass, so they always agree with the
        # per-shard summaries of this snapshot.
        return {
            "contexts": summaries,
            "totals": {
                "restarts": sum(s["total_restarts"] for s in summaries),
                "simulated_outputs": sum(
                    s["total_simulated_outputs"] for s in summaries
                ),
                "killed_sims": sum(s["total_killed_sims"] for s in summaries),
            },
            "metrics": self.metrics.snapshot(),
        }

    # ------------------------------------------------------------------ #
    def _dispatch_notification(self, notification: Notification) -> None:
        # Read ``self._notify`` at delivery time: in-process front ends
        # (LocalConnection, the DES router) splice their own fan-out in by
        # rebinding the attribute after construction.
        self._notify(notification)
