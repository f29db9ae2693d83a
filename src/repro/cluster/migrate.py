"""Live context migration: cutover and abort.

Moves one context from its (healthy) owner to a chosen live node while
both keep serving — the operator's relief valve for a hot node
(``simfs-ctl migrate``, accepted by any node and forwarded to the
owner).  The state rides the node's state-transfer stream
(:mod:`repro.cluster.replication`): pre-copy syncs the ``(context,
dest)`` stream until its delta is empty, and the final frame is that
stream's next frame, carrying the placement pin and the data port.  The
destination promotes from it like any replica, then pulls the resident
files the shared PFS lacks from the source's data plane.

**Cutover** — under the node lock (the job-intake freeze: racing ops
block briefly, then route to the destination via the pinned ring) the
source captures the final state (waiters of its own clients get the
source as their ingress origin), pins the context to the destination
and deactivates the shard (waiter table cleared so nothing is failed;
in-flight re-simulations are killed and their progress markers travel).
Once the final frame lands, the source records the moved waiters as
pending at the destination, so a later destination death replays them,
and gossips at once so clients redirect on their next ring refresh.

**Abort** — if the final frame does not land, the source re-pins the
context to itself at a higher pin version (outranking any pin the lost
frame may still have delivered), re-activates it and restores its
captured state: waiters survive, clients never saw the move.  A source
that dies mid-migration leaves the destination a pre-copy record, which
the ring reassignment promotes like any replica's.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.errors import (
    DVConnectionLost,
    InvalidArgumentError,
    SimFSError,
)

__all__ = ["MigrationManager"]

#: Pre-copy stops once the delta is empty, or after this many frames.
PRECOPY_ROUNDS = 4


class MigrationManager:
    """Source-side cutover and abort for one cluster node, plus the
    destination's follow-up to an adopted final frame."""

    def __init__(self, node) -> None:
        self.node = node
        self._lock = threading.Lock()
        #: Contexts with a migration in flight (one at a time per context;
        #: concurrent requests are rejected, not queued).
        self._migrating: set[str] = set()
        self.last_outgoing: dict | None = None
        metrics = node.metrics
        self._m_started = metrics.counter("migrate.started")
        self._m_completed = metrics.counter("migrate.completed")
        self._m_aborted = metrics.counter("migrate.aborted")
        self._m_adopted = metrics.counter("migrate.adopted")
        self._m_waiters = metrics.counter("migrate.waiters_moved")
        self._m_fetched = metrics.counter("migrate.files_fetched")
        self._m_freeze = metrics.histogram("migrate.freeze_seconds")

    # ------------------------------------------------------------------ #
    # Source side
    # ------------------------------------------------------------------ #
    def migrate(self, context: str, dest: str) -> dict:
        """Move ``context`` to ``dest``; returns a result summary.

        Raises :class:`InvalidArgumentError` on a bad request (not the
        owner, unknown destination, migration already running) and
        :class:`DVConnectionLost` when the destination became unreachable
        and the migration rolled back (the context is still served here).
        """
        node = self.node
        if dest == node.node_id:
            raise InvalidArgumentError(
                f"context {context!r} is already on {dest!r}"
            )
        with node._lock:
            if context not in node._specs:
                raise InvalidArgumentError(f"unknown context {context!r}")
            owner = node.ring.owner(context)
            peer = node.table.get(dest)
        if owner != node.node_id:
            raise InvalidArgumentError(
                f"context {context!r} is owned by {owner!r}, not this node"
            )
        if peer is None or not peer.alive:
            raise InvalidArgumentError(f"destination {dest!r} is not alive")
        with self._lock:
            if context in self._migrating:
                raise InvalidArgumentError(
                    f"context {context!r} is already migrating"
                )
            self._migrating.add(context)
        try:
            return self._run(context, dest)
        finally:
            with self._lock:
                self._migrating.discard(context)

    def _run(self, context: str, dest: str) -> dict:
        node, repl = self.node, self.node.repl
        obs = node.server.obs
        # Migrations are rare and operator-relevant: always sampled, so
        # `simfs-ctl trace <id>` reconstructs the move end to end.
        tc = obs.start_trace(sampled=True)
        tc_wire = tc.to_wire()
        obs.journal(
            "migrate.start", context=context, dest=dest,
            trace_id=f"{tc.trace_id:016x}",
        )
        self._m_started.inc()
        began = time.monotonic()
        obs_began = obs.now()
        with repl.pump_lock:
            stream = repl.stream(context, dest)
            first_seq = stream.seq
            # Pre-copy while the shard keeps serving, until the delta is
            # empty: the final frame then carries only what changed since.
            for _ in range(PRECOPY_ROUNDS):
                state = node._capture_repl(context)
                if state is None:
                    break  # shard gone (racing a reassignment); cutover decides
                reply = repl.ship(stream, state, node.ring.epoch, tc=tc_wire)
                if reply is None:
                    raise DVConnectionLost(
                        f"destination {dest!r} unreachable during pre-copy; "
                        f"context {context!r} untouched"
                    )
                if not reply.get("ok"):
                    break  # converged ({}), or refused: the final frame decides
            precopy_frames = stream.seq - first_seq
            obs.record(
                "migrate.precopy", tc, obs_began, obs.now(),
                context=context, dest=dest, frames=precopy_frames,
            )

            # Cutover under the node lock — the job-intake freeze.  Racing
            # client ops block on this lock, then reroute to the pinned
            # destination; the router's forward absorbs the destination's
            # activation lag with its ERR_CONTEXT retry loop.
            freeze_began = time.monotonic()
            obs_freeze_began = obs.now()
            with node._lock:
                if node.ring.owner(context) != node.node_id:
                    raise InvalidArgumentError(
                        f"lost ownership of {context!r} mid-migration"
                    )
                final = node._capture_repl(context)
                if final is None:
                    raise InvalidArgumentError(
                        f"context {context!r} has no local shard to migrate"
                    )
                # Waiters of this node's own clients carry no ingress
                # origin; the destination must route their readies back
                # through us.
                final["waiters"] = [
                    [cid, fn, origin or node.node_id]
                    for cid, fn, origin in final["waiters"]
                ]
                version = node._bump_pin(context, dest)
                node._deactivate(context)
            reply = repl.ship(
                stream, final, node.ring.epoch, tc=tc_wire,
                extra={"pin": [context, dest, version],
                       "data_port": node.data.port},
            )
        if reply is None or not reply.get("ok"):
            self._abort(context, final, version)
            self._m_aborted.inc()
            detail = (
                "unreachable at cutover" if reply is None
                else f"destination replied {reply}"
            )
            obs.journal(
                "migrate.abort", context=context, dest=dest, detail=detail,
            )
            raise DVConnectionLost(
                f"migration of {context!r} to {dest!r} aborted ({detail}); "
                "the context is still served here"
            )
        freeze_s = time.monotonic() - freeze_began
        self._m_freeze.observe(freeze_s)
        obs.record(
            "migrate.freeze", tc, obs_freeze_began,
            obs_freeze_began + freeze_s, context=context, dest=dest,
        )
        waiters = final.get("waiters", ())
        # Dest death must replay these from here: the migrated waiters'
        # readies now come from dest, and the router's stale scan is the
        # mechanism that notices a dead owner.
        node.router.adopt_handoff(
            context, dest, waiters, final.get("clients", ())
        )
        self._m_completed.inc()
        self._m_waiters.inc(len(waiters))
        node._gossip_soon()
        result = {
            "context": context, "from": node.node_id, "to": dest,
            "pin_version": version, "precopy_frames": precopy_frames,
            "moved_waiters": len(waiters),
            "moved_clients": len(final.get("clients", ())),
            "resumed_sims": len(final.get("sims", ())),
            "freeze_seconds": round(freeze_s, 6),
            "total_seconds": round(time.monotonic() - began, 6),
        }
        obs.record(
            "migrate.total", tc, obs_began, obs.now(),
            context=context, dest=dest, waiters=len(waiters),
        )
        obs.journal(
            "migrate.cutover", context=context, dest=dest,
            freeze_seconds=result["freeze_seconds"],
            moved_waiters=len(waiters),
            trace_id=f"{tc.trace_id:016x}",
        )
        self.last_outgoing = dict(result, at=time.time())
        return result

    def _abort(self, context: str, state: dict, version: int) -> None:
        """Cutover failed: pin the context back to this node at a higher
        version (outranks a pin the lost final frame may have installed)
        and restore the captured state locally — nothing is lost."""
        node = self.node
        with node._lock:
            node._adopt_pin(context, node.node_id, version + 1, force=True)
            if context in node._specs and context not in node._active:
                node._activate(context)  # the captured state is the freshest
        node.repl.restore(context, state)
        node._gossip_soon()

    # ------------------------------------------------------------------ #
    # Destination side
    # ------------------------------------------------------------------ #
    def adopted(self, context: str, src: str, frame: dict, state: dict) -> None:
        """The stream promoted ``context`` from a final frame: count the
        handoff, pull what the PFS lacks, and advertise the pin."""
        self._m_adopted.inc()
        self.node.server.obs.journal(
            "migrate.adopt", context=context, src=src,
            restored_waiters=len(state.get("waiters", ())),
        )
        self._fetch_missing(
            context, src, frame.get("data_port"), state, tc=frame.get("tc"),
        )
        self.node._gossip_soon()

    def _fetch_missing(
        self, context: str, src: str, data_port, state: dict,
        tc: str | None = None,
    ) -> None:
        """Best-effort background pull of cache-resident files the shared
        PFS does not already provide, over the source's data plane: a
        chain of pool jobs, one file each, so no worker is held across
        files.  On a shared-PFS deployment this is a no-op (the activation
        scan found everything); without one it warms the destination's
        cache so the migrated files are not re-simulated."""
        node = self.node
        with node._lock:
            spec = node._specs.get(context)
            peer = node.table.get(src)
        if spec is None or peer is None:
            return
        port = int(data_port or 0) or peer.data_port
        if not port:
            return
        missing = []
        for key in state.get("resident", ()):
            try:
                filename = spec.context.filename_of(int(key))
            except (TypeError, ValueError, SimFSError):
                continue
            if not os.path.isfile(os.path.join(spec.output_dir, filename)):
                missing.append(filename)
        if missing:
            node.server.loop.submit(self._pull, context, spec, peer.host, port, missing, tc)

    def _pull(self, context, spec, host, port, missing, tc) -> None:
        """One pool job: pull ``missing[0]``, then submit the rest."""
        from repro.data.client import DataClient

        path = os.path.join(spec.output_dir, missing[0])
        try:
            with DataClient(host, port, timeout=self.node.rpc_timeout) as client:
                client.fetch(context, missing[0], path, tc=tc)
        except (SimFSError, OSError):
            return  # the shard re-simulates whatever never arrived
        self._m_fetched.inc()
        if len(missing) > 1:
            self.node.server.loop.submit(
                self._pull, context, spec, host, port, missing[1:], tc
            )

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """The ``rebalance`` op's migration view: in-flight incoming state
        is whatever the stream's store holds."""
        repl = self.node.repl
        with self._lock:
            migrating = sorted(self._migrating)
        return {
            "migrating": migrating,
            "incoming": repl.store.describe(),
            "last_outgoing": self.last_outgoing,
            "last_incoming": repl.last_promotion,
        }
