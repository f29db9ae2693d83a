"""Live context migration: move a context between live cluster nodes.

Ring membership used to be the only thing that moved contexts — a node
died and the hash reassigned its contexts cold.  Migration moves one
context from its current (healthy) owner to a chosen destination while
both keep serving, the relief valve the autoscaler pulls when a node
saturates (NEXUSAI-style demand scaling: the decision is made where the
load is, no coordinator).

The protocol is source-driven over the ordinary
:class:`~repro.cluster.link.PeerLink`, reusing the HA tier's
snapshot+delta codec (:func:`~repro.cluster.replication.diff_state` /
:func:`~repro.cluster.replication.apply_delta`):

1. **Pre-copy** — the source streams ``kind="snap"`` then ``kind="delta"``
   frames of the shard's control-plane state (clients, waiter table,
   cache-resident keys, re-simulation progress markers, latency EMA)
   while the shard keeps serving; each round shrinks the final handoff.
2. **Cutover** — under the node lock the source captures the final state
   (every waiter annotated with its ingress origin; local clients get the
   source itself as origin), **pins** the context to the destination on
   the ring (a versioned placement override that gossip spreads and the
   epoch bump advertises), and deactivates the shard (waiter table
   cleared so nothing is failed; in-flight re-simulations are killed and
   their progress markers travel in the state).  The job-intake freeze is
   exactly this window: ops racing the cutover block briefly on the node
   lock, then route to the destination via the pinned ring.
3. **Finalize** — the ``kind="final"`` frame carries the last state and
   the pin; the destination adopts the pin, activates the context (the
   PFS scan finds files already on shared storage), restores the state
   exactly as HA promotion does — waiters re-registered and replayed,
   interrupted re-simulations relaunched from their progress markers,
   readies pushed for files already on disk — and best-effort pulls
   cache files the PFS does not share from the source's data-plane port.
   The source records every migrated waiter as pending-at-destination,
   so a later destination death replays them, and gossips immediately so
   clients redirect on their next ring refresh.

**Abort** is the bugfix-shaped edge: if the destination is unreachable
at cutover the source re-pins the context to *itself* at a higher pin
version (outranking any pin the lost final frame may still have
delivered), re-activates, and restores its own captured state — waiters
survive, clients never saw the move.  If instead the **source dies
mid-migration**, the destination holds the pre-copied state in its
incoming store and the ring reassignment promotes from that partial
handoff exactly like an HA replica (``ClusterNode._promote_warm``); at
worst the handoff degrades to the cold replay path that failover has
always used.
"""

from __future__ import annotations

import json
import threading
import time

from repro.cluster.replication import apply_delta, diff_state
from repro.core.errors import (
    DVConnectionLost,
    InvalidArgumentError,
    SimFSError,
)

__all__ = ["MigrationManager"]


class MigrationManager:
    """Both halves of the migration protocol for one cluster node."""

    def __init__(self, node, precopy_rounds: int = 2) -> None:
        self.node = node
        self.precopy_rounds = precopy_rounds
        self._lock = threading.Lock()
        #: Source side: contexts with a migration in flight (one at a time
        #: per context; concurrent requests are rejected, not queued).
        self._migrating: set[str] = set()
        #: Destination side: pre-copied state per context, promotable if
        #: the source dies before the final frame lands.
        self._incoming: dict[str, dict] = {}
        self.last_outgoing: dict | None = None
        self.last_incoming: dict | None = None
        metrics = node.metrics
        self._m_started = metrics.counter("migrate.started")
        self._m_completed = metrics.counter("migrate.completed")
        self._m_aborted = metrics.counter("migrate.aborted")
        self._m_adopted = metrics.counter("migrate.adopted")
        self._m_promoted = metrics.counter("migrate.promoted_partial")
        self._m_waiters = metrics.counter("migrate.waiters_moved")
        self._m_bytes = metrics.counter("migrate.bytes_sent")
        self._m_frames_recv = metrics.counter("migrate.frames_received")
        self._m_fetched = metrics.counter("migrate.files_fetched")
        self._m_freeze = metrics.histogram("migrate.freeze_seconds")

    # ------------------------------------------------------------------ #
    # Source side
    # ------------------------------------------------------------------ #
    def migrate(
        self, context: str, dest: str, precopy_rounds: int | None = None
    ) -> dict:
        """Move ``context`` to ``dest``; returns a result summary.

        Raises :class:`InvalidArgumentError` on a bad request (not the
        owner, unknown destination, migration already running) and
        :class:`DVConnectionLost` when the destination became unreachable
        and the migration rolled back (the context is still served here).
        """
        node = self.node
        if node.engine is not None:
            raise InvalidArgumentError(
                "live migration is not supported on engine-mode nodes "
                "(the shards live in executor processes)"
            )
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
            return self._run(
                context, dest,
                self.precopy_rounds if precopy_rounds is None
                else precopy_rounds,
            )
        finally:
            with self._lock:
                self._migrating.discard(context)

    def _run(self, context: str, dest: str, rounds: int) -> dict:
        node = self.node
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
        seq = 0
        acked: dict | None = None
        # Phase 1: pre-copy while the shard keeps serving.  Every round
        # ships what changed since the last acknowledged state; the final
        # handoff then carries only the remaining delta-sized snapshot.
        for _ in range(max(0, rounds)):
            state = node._capture_repl(context)
            if state is None:
                break  # shard gone (racing a reassignment); cutover decides
            if acked is None:
                frame = {"kind": "snap", "state": state}
            else:
                delta = diff_state(acked, state)
                if delta is None:
                    break  # converged; nothing left to pre-copy
                frame = {"kind": "delta", "delta": delta}
            seq += 1
            frame.update({
                "op": "migrate", "from": node.node_id,
                "context": context, "seq": seq, "tc": tc_wire,
            })
            reply = self._send(dest, frame)
            if reply is None:
                raise DVConnectionLost(
                    f"destination {dest!r} unreachable during pre-copy; "
                    f"context {context!r} untouched"
                )
            acked = state if reply.get("ok") else None

        obs.record(
            "migrate.precopy", tc, obs_began, obs.now(),
            context=context, dest=dest, frames=seq,
        )

        # Phase 2: cutover under the node lock — the job-intake freeze.
        # Racing client ops block on this lock, then reroute to the
        # pinned destination; the router's forward absorbs the destination's
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
            # Waiters of this node's own clients carry no ingress origin;
            # the destination must route their readies back through us.
            final["waiters"] = [
                [cid, fn, origin or node.node_id]
                for cid, fn, origin in final["waiters"]
            ]
            version = node._bump_pin(context, dest)
            node._deactivate(context)
        seq += 1
        frame = {
            "op": "migrate", "from": node.node_id, "context": context,
            "seq": seq, "kind": "final", "state": final,
            "pin": [context, dest, version],
            "data_port": node.data.port, "tc": tc_wire,
        }
        reply = self._send(dest, frame)
        if reply is None or not reply.get("ok"):
            self._abort(context, final, version)
            self._m_aborted.inc()
            detail = (reply or {}).get("detail", "unreachable at cutover")
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
            "pin_version": version, "precopy_frames": seq - 1,
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
                node._activate(context)
        waiters = [e for e in state.get("waiters", ()) if len(e) >= 2]
        node.router.restore_proxies(context, state.get("clients", ()), waiters)
        try:
            shard = node.server.coordinator.shard(context)
        except SimFSError:
            return
        ready = shard.restore_repl_state(state, node.server._clock.now())
        for notification in ready:
            node.server._push_ready(notification)
        node._gossip_soon()

    def _send(self, dest: str, frame: dict) -> dict | None:
        try:
            link = self.node.router.link(dest)
            reply = link.call(frame, timeout=self.node.rpc_timeout)
        except (DVConnectionLost, SimFSError, OSError):
            return None
        self._m_bytes.inc(len(json.dumps(frame, separators=(",", ":"))))
        return reply

    # ------------------------------------------------------------------ #
    # Destination side
    # ------------------------------------------------------------------ #
    def receive(self, frame: dict) -> dict:
        """Apply one migration frame from a peer (the ``migrate`` op)."""
        context = frame.get("context")
        src = frame.get("from")
        kind = frame.get("kind")
        seq = int(frame.get("seq", 0))
        if not isinstance(context, str) or not isinstance(src, str):
            return {"ok": False, "detail": "malformed migrate frame"}
        self._m_frames_recv.inc()
        if kind == "snap":
            with self._lock:
                self._incoming[context] = {
                    "src": src, "seq": seq,
                    "state": frame.get("state") or {},
                    "received_at": time.time(),
                }
            return {"ok": True, "seq": seq}
        if kind == "delta":
            with self._lock:
                record = self._incoming.get(context)
                if (
                    record is None
                    or record["src"] != src
                    or seq != record["seq"] + 1
                ):
                    return {"ok": False, "resync": True}
                delta = frame.get("delta")
                if not isinstance(delta, dict):
                    return {"ok": False, "resync": True}
                record["state"] = apply_delta(record["state"], delta)
                record["seq"] = seq
                record["received_at"] = time.time()
            return {"ok": True, "seq": seq}
        if kind == "final":
            return self._receive_final(frame)
        return {"ok": False, "detail": f"unknown migrate kind {kind!r}"}

    def _receive_final(self, frame: dict) -> dict:
        node = self.node
        context = frame["context"]
        src = frame["from"]
        state = frame.get("state")
        if not isinstance(state, dict):
            return {"ok": False, "detail": "final frame without state"}
        if node.engine is not None:
            return {
                "ok": False,
                "detail": "engine-mode node cannot accept a migration",
            }
        pin = frame.get("pin") or [context, node.node_id, 1]
        target, version = str(pin[1]), int(pin[2])
        with node._lock:
            if context not in node._specs:
                return {"ok": False, "detail": f"unknown context {context!r}"}
            node._adopt_pin(context, target, version, force=True)
            if context not in node._active:
                node._activate(context)
        with self._lock:
            self._incoming.pop(context, None)
        waiters = [e for e in state.get("waiters", ()) if len(e) >= 2]
        node.router.restore_proxies(context, state.get("clients", ()), waiters)
        try:
            shard = node.server.coordinator.shard(context)
        except SimFSError:
            return {"ok": False, "detail": "activation failed"}
        ready = shard.restore_repl_state(state, node.server._clock.now())
        for notification in ready:
            node.server._push_ready(notification)
        self._m_adopted.inc()
        node.server.obs.journal(
            "migrate.adopt", context=context, src=src,
            restored_waiters=len(waiters),
        )
        self.last_incoming = {
            "context": context, "from": src, "at": time.time(),
            "restored_waiters": len(waiters),
            "resumed_sims": len(state.get("sims", ())),
        }
        self._fetch_missing(
            context, src, frame.get("data_port"), state,
            tc=frame.get("tc"),
        )
        node._gossip_soon()
        return {"ok": True, "restored_waiters": len(waiters)}

    def _fetch_missing(
        self, context: str, src: str, data_port, state: dict,
        tc: str | None = None,
    ) -> None:
        """Best-effort background pull of cache-resident files the shared
        PFS does not already provide, over the source's data plane.  On a
        shared-PFS deployment this is a no-op (the activation scan found
        everything); without one it warms the destination's cache so the
        migrated files are not re-simulated."""
        node = self.node
        with node._lock:
            spec = node._specs.get(context)
            peer = node.table.get(src)
        if spec is None or peer is None:
            return
        port = int(data_port or 0) or peer.data_port
        if not port:
            return
        import os

        missing = []
        for key in state.get("resident", ()):
            try:
                filename = spec.context.filename_of(int(key))
            except (TypeError, ValueError, SimFSError):
                continue
            if not os.path.isfile(os.path.join(spec.output_dir, filename)):
                missing.append(filename)
        if not missing:
            return

        def pull() -> None:
            from repro.data.client import DataClient

            try:
                with DataClient(
                    peer.host, port, timeout=node.rpc_timeout
                ) as client:
                    for filename in missing:
                        client.fetch(
                            context, filename,
                            os.path.join(spec.output_dir, filename),
                            tc=tc,
                        )
                        self._m_fetched.inc()
            except (SimFSError, OSError):
                pass  # the shard re-simulates whatever never arrived

        threading.Thread(
            target=pull,
            name=f"migrate-fetch-{node.node_id}-{context}",
            daemon=True,
        ).start()

    # ------------------------------------------------------------------ #
    # Promotion from a partial handoff (source died mid-migration)
    # ------------------------------------------------------------------ #
    def has_incoming(self, context: str) -> bool:
        with self._lock:
            return context in self._incoming

    def promote_incoming(self, context: str) -> int:
        """This node became owner of a context whose migration source died
        before the final frame: restore from the freshest pre-copied
        state, exactly like an HA promotion.  Returns waiters restored."""
        with self._lock:
            record = self._incoming.pop(context, None)
        if record is None:
            return 0
        node = self.node
        state = record["state"]
        waiters = [e for e in state.get("waiters", ()) if len(e) >= 2]
        node.router.restore_proxies(context, state.get("clients", ()), waiters)
        try:
            shard = node.server.coordinator.shard(context)
        except SimFSError:
            return 0
        ready = shard.restore_repl_state(state, node.server._clock.now())
        for notification in ready:
            node.server._push_ready(notification)
        self._m_promoted.inc()
        node.server.obs.journal(
            "migrate.promote_partial", context=context, src=record["src"],
            restored_waiters=len(waiters),
        )
        self.last_incoming = {
            "context": context, "from": record["src"], "at": time.time(),
            "restored_waiters": len(waiters), "partial": True,
        }
        return len(waiters)

    def prune(self, alive: set[str], owner_lookup) -> None:
        """Drop incoming state whose source died while the ring assigned
        the context elsewhere — another node owns the cold restart, and a
        stale partial handoff must not shadow a future migration.  Called
        from ``_sync_ring`` with the node lock held."""
        with self._lock:
            for context in list(self._incoming):
                record = self._incoming[context]
                if record["src"] in alive:
                    continue
                if owner_lookup(context) != self.node.node_id:
                    del self._incoming[context]

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        with self._lock:
            return {
                "migrating": sorted(self._migrating),
                "incoming": {
                    name: {
                        "src": record["src"], "seq": record["seq"],
                        "waiters": len(record["state"].get("waiters", ())),
                    }
                    for name, record in sorted(self._incoming.items())
                },
                "last_outgoing": self.last_outgoing,
                "last_incoming": self.last_incoming,
            }
