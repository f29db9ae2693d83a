"""Replicated contexts: hot failover and background healing (HA tier).

Without replication every context has exactly one ring owner; when that
node dies all warm state — the waiter table, cache/storage metadata,
ready events, in-flight re-simulation progress — dies with it, and
blocked clients stall through failure detection plus a cold replay.
This module places each context's control-plane state on its owner
**plus the next ``factor - 1`` ring successors** (the ring's preference
list, :meth:`~repro.cluster.ring.HashRing.successors`), so the node the
ring promotes after a death is always already holding a warm copy.

Three cooperating pieces:

:class:`ReplicaStore` — the replica side.  Holds the last applied state
per context plus the ``(source, epoch, seq)`` stream position, and
enforces the acceptance rules: contiguous sequence numbers per source
(anything else answers ``resync`` and the owner falls back to a full
snapshot), duplicate frames are ignored, and **fencing** — a frame from
a node the receiver's own ring does not consider the context's owner,
or any frame arriving once this node has itself become the active
owner, is rejected with ``fenced`` so a partitioned stale owner can
never overwrite a promoted replica.  Fences are judged afresh on every
frame against the receiver's current ring (ring epochs are per-node
counters, never compared across nodes), and the fenced sender stands
down only transiently — it retries after ``fence_retry`` seconds or on
any local membership change, so a fence issued from a
not-yet-converged ring heals itself as gossip catches up.

:class:`ReplicationManager` — the owner side.  A pump thread snapshots
each owned context's shard state (via the node's capture hook, which
annotates waiters with their ingress origin), diffs it against what each
replica last acknowledged, and ships per-context **delta frames** with
monotonically increasing sequence numbers over the node's
:class:`~repro.cluster.link.PeerLink`\\ s; a periodic full snapshot per
stream bounds divergence (anti-entropy), and any gap the replica reports
is repaired the same way.  The pump also *is* the background healing
pass: after a membership change the successor list is recomputed, new
``(context, replica)`` streams start unsynced, and the queue of unsynced
streams (``repl.healing_queue``) drains by shipping snapshots until the
context is back at full replication factor.

Promotion — the node calls :meth:`ReplicationManager.promote` when ring
reassignment activates a context for which the store holds replicated
state: the shard is rebuilt through
:meth:`~repro.dv.shard.ContextShard.restore_repl_state` (waiters
re-registered and their re-simulations relaunched, in-flight progress
resumed, latency EMA seeded), proxies are registered so ready
notifications route back out through each waiter's ingress node, and
files that already landed on the shared PFS are acknowledged
immediately.  The blocked client sees its ready arrive — no error, no
retry, no reconnect.

``frame_hook`` exists for the fault-injection harness: it sees every
outgoing frame and may ``drop`` it (models loss — the sequence gap
forces a resync), ``dup`` it (the replica must ignore the duplicate), or
delay inside the hook (replication lag grows and the ``repl.lag_seconds``
gauge shows it).
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.errors import DVConnectionLost, SimFSError

__all__ = [
    "diff_state",
    "apply_delta",
    "ReplicaStore",
    "ReplicationManager",
]

#: Keys of a replication state dict that hold *sets* represented as
#: sorted lists (diffed as add/remove), vs. scalars replaced wholesale.
_SET_KEYS = ("clients", "waiters", "resident")
_SCALAR_KEYS = ("alpha", "alpha_count", "sims")


def _as_tuple(value) -> tuple:
    """Hashable form of a state-list entry (waiters arrive as lists)."""
    return tuple(value) if isinstance(value, list) else (value,)


def diff_state(old: dict, new: dict) -> dict | None:
    """Delta turning ``old`` into ``new`` (None when identical).

    Set-like keys diff to ``<key>_add`` / ``<key>_del`` lists; scalar
    keys are replaced when changed.  ``apply_delta(old, diff) == new``.
    """
    delta: dict = {}
    for key in _SET_KEYS:
        old_items = {_as_tuple(v): v for v in old.get(key, ())}
        new_items = {_as_tuple(v): v for v in new.get(key, ())}
        added = [new_items[k] for k in new_items if k not in old_items]
        removed = [old_items[k] for k in old_items if k not in new_items]
        if added:
            delta[f"{key}_add"] = sorted(added)
        if removed:
            delta[f"{key}_del"] = sorted(removed)
    for key in _SCALAR_KEYS:
        if old.get(key) != new.get(key):
            delta[key] = new.get(key)
    return delta or None


def apply_delta(state: dict, delta: dict) -> dict:
    """Return a new state dict with ``delta`` folded into ``state``."""
    result = {key: value for key, value in state.items()}
    for key in _SET_KEYS:
        add = delta.get(f"{key}_add")
        remove = delta.get(f"{key}_del")
        if add is None and remove is None:
            continue
        items = {_as_tuple(v): v for v in result.get(key, ())}
        for value in remove or ():
            items.pop(_as_tuple(value), None)
        for value in add or ():
            items[_as_tuple(value)] = value
        result[key] = sorted(items.values())
    for key in _SCALAR_KEYS:
        if key in delta:
            result[key] = delta[key]
    return result


@dataclass
class _ReplicaRecord:
    """Replica-side stream position + state for one context."""

    src: str
    epoch: int
    seq: int
    state: dict
    received_at: float


class ReplicaStore:
    """Replica half: replicated context state plus acceptance rules."""

    def __init__(self) -> None:
        self._records: dict[str, _ReplicaRecord] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def receive(
        self,
        frame: dict,
        local_epoch: int,
        local_owner: str | None,
        self_is_owner: bool,
        now: float | None = None,
    ) -> dict:
        """Apply one replication frame; returns the reply payload.

        ``local_epoch``/``local_owner`` describe the receiver's current
        ring view of the frame's context; ``self_is_owner`` is True when
        the receiver itself actively owns it (promoted).  Replies:
        ``{"ok": True}`` applied (or duplicate ignored), ``{"resync":
        True}`` sequence gap — send a snapshot, ``{"fenced": True,
        "epoch": e}`` the sender is not the owner in the receiver's ring
        and must stand down.

        The fence is evaluated afresh on every frame against the
        receiver's *own* ring — ring epochs are per-node counters and are
        never compared across nodes (two nodes with identical membership
        can sit at different epochs after a staggered bring-up).  A fence
        is therefore allowed to be wrong transiently: if the receiver's
        ring is the stale side, the sender's retry succeeds as soon as
        membership converges here.
        """
        context = frame.get("context")
        sender = frame.get("from")
        epoch = int(frame.get("epoch", 0))
        seq = int(frame.get("seq", 0))
        kind = frame.get("kind")
        if not isinstance(context, str) or not isinstance(sender, str):
            return {"resync": True}
        if self_is_owner or local_owner != sender:
            # The sender is not this context's owner as far as this node
            # can tell — a deposed owner that has not heard it lost the
            # ring, or a legit owner this node has not yet heard of.
            return {"fenced": True, "epoch": local_epoch}
        now = time.time() if now is None else now
        with self._lock:
            record = self._records.get(context)
            if kind == "snap":
                state = frame.get("state")
                if not isinstance(state, dict):
                    return {"resync": True}
                self._records[context] = _ReplicaRecord(
                    sender, epoch, seq, state, now
                )
                return {"ok": True, "seq": seq}
            if record is None or record.src != sender:
                return {"resync": True}
            if seq <= record.seq:
                return {"ok": True, "seq": record.seq, "duplicate": True}
            if seq != record.seq + 1:
                return {"resync": True}
            delta = frame.get("delta")
            if not isinstance(delta, dict):
                return {"resync": True}
            record.state = apply_delta(record.state, delta)
            record.seq = seq
            record.epoch = epoch
            record.received_at = now
            return {"ok": True, "seq": seq}

    # ------------------------------------------------------------------ #
    def has(self, context: str) -> bool:
        with self._lock:
            return context in self._records

    def take(self, context: str) -> dict | None:
        """Pop the replicated state for promotion (one shot)."""
        with self._lock:
            record = self._records.pop(context, None)
        return record.state if record is not None else None

    def drop(self, context: str) -> None:
        with self._lock:
            self._records.pop(context, None)

    def contexts(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    def describe(self, now: float | None = None) -> dict:
        """Per-context stream positions (the ``ha`` op's replica view)."""
        now = time.time() if now is None else now
        with self._lock:
            return {
                name: {
                    "src": record.src,
                    "epoch": record.epoch,
                    "seq": record.seq,
                    "age_seconds": round(max(0.0, now - record.received_at), 3),
                    "waiters": len(record.state.get("waiters", ())),
                    "clients": len(record.state.get("clients", ())),
                }
                for name, record in sorted(self._records.items())
            }


@dataclass
class _Stream:
    """Owner-side stream state for one (context, replica) pair."""

    peer_id: str
    context: str
    seq: int = 0
    #: Last state the replica acknowledged (None = snapshot needed).
    acked: dict | None = None
    needs_snapshot: bool = True
    #: True when this stream exists because of a membership change while
    #: the context was already replicated (its first sync is a *heal*).
    healing: bool = False
    last_sync: float = field(default_factory=time.time)
    last_snapshot: float = 0.0


class ReplicationManager:
    """Owner half: the delta pump, healing pass, and promotion."""

    def __init__(
        self,
        node,
        factor: int,
        interval: float = 0.1,
        anti_entropy_interval: float = 5.0,
        frame_hook: Callable[[str, dict], str | None] | None = None,
    ) -> None:
        self.node = node
        self.factor = factor
        self.interval = interval
        self.anti_entropy_interval = anti_entropy_interval
        self.frame_hook = frame_hook
        self.store = ReplicaStore()
        self.last_promotion: dict | None = None
        self._streams: dict[tuple[str, str], _Stream] = {}
        #: Contexts a replica fenced us on → (our ring epoch at the
        #: time, retry deadline).  A fence is a transient stand-down,
        #: not a death sentence: it clears on any local membership
        #: change or after ``fence_retry`` seconds, whichever comes
        #: first.  Safety lives on the receiver, which re-evaluates the
        #: fence against its own ring on every frame — the sender only
        #: backs off to avoid hammering a peer that said no.
        self._fenced: dict[str, tuple[int, float]] = {}
        self.fence_retry = max(10.0 * interval, 0.5)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        metrics = node.metrics
        self._m_frames = metrics.counter("repl.frames_sent")
        self._m_bytes = metrics.counter("repl.bytes_sent")
        self._m_snapshots = metrics.counter("repl.snapshots_sent")
        self._m_resyncs = metrics.counter("repl.resyncs")
        self._m_fence = metrics.counter("repl.fenced")
        self._m_promotions = metrics.counter("repl.promotions")
        self._m_restored = metrics.counter("repl.waiters_restored")
        self._m_healed = metrics.counter("repl.healed")
        self._m_queue = metrics.gauge("repl.healing_queue")
        self._m_lag_s = metrics.gauge("repl.lag_seconds")
        self._m_lag_b = metrics.gauge("repl.lag_bytes")
        self._m_frames_recv = metrics.counter("repl.frames_received")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._pump_loop,
            name=f"repl-pump-{self.node.node_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _pump_loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.pump()
            except Exception:
                # The replication plane must survive any single bad pass.
                pass

    # ------------------------------------------------------------------ #
    # Replica-side entry (the node's ``repl`` op hands frames here)
    # ------------------------------------------------------------------ #
    def receive(self, frame: dict) -> dict:
        context = frame.get("context")
        node = self.node
        with node._lock:
            local_epoch = node.ring.epoch
            local_owner = (
                node.ring.owner(context) if isinstance(context, str) else None
            )
            self_is_owner = (
                local_owner == node.node_id and context in node._active
            )
        self._m_frames_recv.inc()
        return self.store.receive(
            frame, local_epoch=local_epoch, local_owner=local_owner,
            self_is_owner=self_is_owner,
        )

    # ------------------------------------------------------------------ #
    # Healing trigger (the node calls this on every membership change)
    # ------------------------------------------------------------------ #
    def schedule_heal(self) -> None:
        """A membership change happened: new streams created from here on
        are re-replication (healing), not initial bring-up."""
        with self._lock:
            for stream in self._streams.values():
                if stream.needs_snapshot:
                    stream.healing = True
        self._heal_mark = True

    _heal_mark = False

    # ------------------------------------------------------------------ #
    # The pump: capture, diff, ship, heal
    # ------------------------------------------------------------------ #
    def pump(self, now: float | None = None) -> None:
        """One replication pass.  Called periodically by the pump thread;
        tests call it directly for deterministic stepping (``now``
        overrides the wall clock for the fence-retry bookkeeping)."""
        now = time.time() if now is None else now
        node = self.node
        with node._lock:
            epoch = node.ring.epoch
            alive = set(node.table.alive_ids())
            plan: dict[str, list[str]] = {}
            for name in sorted(node._active):
                chain = node.ring.successors(name, self.factor)
                if not chain or chain[0] != node.node_id:
                    continue  # not the owner (racing a reassignment)
                plan[name] = [
                    peer for peer in chain[1:] if peer in alive
                ]
        heal_mark = self._heal_mark
        self._heal_mark = False
        with self._lock:
            # Prune streams for contexts we no longer own or peers that
            # left the replica set; create streams for new pairs.
            wanted = {
                (name, peer) for name, peers in plan.items() for peer in peers
            }
            for key in [k for k in self._streams if k not in wanted]:
                del self._streams[key]
            for name, peers in plan.items():
                for peer in peers:
                    if (name, peer) not in self._streams:
                        self._streams[(name, peer)] = _Stream(
                            peer_id=peer, context=name, healing=heal_mark,
                        )
            # A fenced context stays silent until our ring changes or the
            # retry window lapses; the replica re-judges every attempt
            # against its own ring, so retrying is always safe.
            for name, (fenced_epoch, retry_at) in list(self._fenced.items()):
                if epoch != fenced_epoch or now >= retry_at:
                    del self._fenced[name]
            streams = [
                s for s in self._streams.values()
                if s.context not in self._fenced
            ]
        states: dict[str, dict | None] = {}
        for name in plan:
            if name not in self._fenced:
                states[name] = node._capture_repl(name)
        lag_bytes = 0.0
        for stream in streams:
            state = states.get(stream.context)
            if state is None:
                continue
            lag_bytes += self._ship_stream(stream, state, epoch, now)
        with self._lock:
            pending = [
                s for s in self._streams.values()
                if s.needs_snapshot or s.acked is None
            ]
            self._m_queue.set(len(pending))
            lag = max(
                (now - s.last_sync for s in self._streams.values()),
                default=0.0,
            )
        self._m_lag_s.set(round(lag, 6))
        self._m_lag_b.set(lag_bytes)

    def _ship_stream(
        self, stream: _Stream, state: dict, epoch: int, now: float
    ) -> float:
        """Bring one replica up to date; returns unshipped backlog bytes."""
        snapshot_due = (
            stream.needs_snapshot
            or stream.acked is None
            or now - stream.last_snapshot >= self.anti_entropy_interval
        )
        if snapshot_due:
            frame = {
                "op": "repl", "from": self.node.node_id,
                "context": stream.context, "epoch": epoch,
                "seq": stream.seq + 1, "kind": "snap", "state": state,
            }
        else:
            delta = diff_state(stream.acked, state)
            if delta is None:
                stream.last_sync = now
                return 0.0
            frame = {
                "op": "repl", "from": self.node.node_id,
                "context": stream.context, "epoch": epoch,
                "seq": stream.seq + 1, "kind": "delta", "delta": delta,
            }
        stream.seq += 1
        size = float(len(json.dumps(frame, separators=(",", ":"))))
        reply = self._send_frame(stream.peer_id, frame)
        if reply is None:
            # Unreachable (or dropped by the fault hook): the sequence
            # gap forces a snapshot resync once the peer answers again.
            stream.needs_snapshot = True
            return size
        if reply.get("fenced"):
            # Stand down, but only briefly: the replica judged us against
            # *its* ring, which may simply not have converged yet (a
            # staggered bring-up routinely fences the rightful owner's
            # first frame).  The replica never applied this frame, so the
            # resumed stream must restart from a snapshot.
            self._m_fence.inc()
            stream.needs_snapshot = True
            with self._lock:
                self._fenced[stream.context] = (
                    epoch, now + self.fence_retry
                )
            return 0.0
        if reply.get("resync"):
            self._m_resyncs.inc()
            stream.needs_snapshot = True
            # Retry immediately as a snapshot (one extra round trip, not
            # one extra pump interval).
            snap = {
                "op": "repl", "from": self.node.node_id,
                "context": stream.context, "epoch": epoch,
                "seq": stream.seq + 1, "kind": "snap", "state": state,
            }
            stream.seq += 1
            reply = self._send_frame(stream.peer_id, snap)
            if reply is None or not reply.get("ok"):
                return size
            self._m_snapshots.inc()
            self._mark_synced(stream, state, now, snapshotted=True)
            return 0.0
        if reply.get("ok"):
            if frame["kind"] == "snap":
                self._m_snapshots.inc()
            self._mark_synced(
                stream, state, now, snapshotted=frame["kind"] == "snap"
            )
            return 0.0
        return size

    def _mark_synced(
        self, stream: _Stream, state: dict, now: float, snapshotted: bool
    ) -> None:
        first_sync = stream.needs_snapshot or stream.acked is None
        stream.acked = state
        stream.last_sync = now
        if snapshotted:
            stream.last_snapshot = now
            stream.needs_snapshot = False
        if first_sync and stream.healing:
            stream.healing = False
            self._m_healed.inc()

    def _send_frame(self, peer_id: str, frame: dict) -> dict | None:
        # Head-sampled trace context per frame: sampled frames show up as
        # ``op.repl`` spans on the replica, tying replication lag into
        # the same trace plane as client traffic.
        obs = getattr(getattr(self.node, "server", None), "obs", None)
        if obs is not None:
            tc = obs.start_trace()
            if tc.sampled:
                frame = dict(frame, tc=tc.to_wire())
        action = self.frame_hook(peer_id, frame) if self.frame_hook else None
        if action == "drop":
            return None
        try:
            link = self.node.router.link(peer_id)
            if action == "dup":
                link.call(dict(frame), timeout=self.node.rpc_timeout)
            reply = link.call(frame, timeout=self.node.rpc_timeout)
        except (DVConnectionLost, SimFSError, OSError):
            return None
        self._m_frames.inc()
        self._m_bytes.inc(len(json.dumps(frame, separators=(",", ":"))))
        return reply

    # ------------------------------------------------------------------ #
    # Promotion
    # ------------------------------------------------------------------ #
    def promote(self, context_name: str) -> int:
        """This node just became owner of a context it held replica state
        for: rebuild the shard from that state (hot failover).  Returns
        the number of waiters restored (0 on a cold activation)."""
        state = self.store.take(context_name)
        if state is None:
            return 0
        node = self.node
        waiters = [
            entry for entry in state.get("waiters", ()) if len(entry) >= 2
        ]
        node.router.restore_proxies(
            context_name, state.get("clients", ()), waiters
        )
        try:
            shard = node.server.coordinator.shard(context_name)
        except SimFSError:
            return 0
        # The shard's clock is the server's (monotonic) clock, not wall
        # time — mixing them trips the shard's time-went-backwards guard.
        ready = shard.restore_repl_state(state, node.server._clock.now())
        for notification in ready:
            node.server._push_ready(notification)
        self._m_promotions.inc()
        if waiters:
            self._m_restored.inc(len(waiters))
        node.server.obs.journal(
            "ha.promote", context=context_name,
            restored_waiters=len(waiters),
            resumed_sims=len(state.get("sims", ())),
        )
        self.last_promotion = {
            "context": context_name,
            "at": time.time(),
            "restored_waiters": len(waiters),
            "resumed_sims": len(state.get("sims", ())),
        }
        return len(waiters)

    # ------------------------------------------------------------------ #
    # Introspection (the ``ha`` op / simfs-ctl ha-status)
    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        node = self.node
        now = time.time()
        with node._lock:
            contexts = sorted(node._specs)
            chains = {
                name: node.ring.successors(name, self.factor)
                for name in contexts
            }
        with self._lock:
            streams = {
                (s.context, s.peer_id): s for s in self._streams.values()
            }
            fenced = sorted(self._fenced)
            queue = sum(
                1 for s in streams.values()
                if s.needs_snapshot or s.acked is None
            )
        view: dict[str, dict] = {}
        for name in contexts:
            chain = chains.get(name, [])
            replicas = []
            for peer in chain[1:]:
                stream = streams.get((name, peer))
                replicas.append({
                    "node": peer,
                    "synced": bool(
                        stream is not None
                        and stream.acked is not None
                        and not stream.needs_snapshot
                    ),
                    "seq": stream.seq if stream is not None else 0,
                    "lag_seconds": (
                        round(max(0.0, now - stream.last_sync), 3)
                        if stream is not None else None
                    ),
                })
            view[name] = {
                "owner": chain[0] if chain else None,
                "replicas": replicas,
                "role": (
                    "owner" if chain and chain[0] == node.node_id
                    else "replica" if node.node_id in chain else None
                ),
            }
        return {
            "factor": self.factor,
            "contexts": view,
            "replica_of": self.store.describe(now),
            "fenced": fenced,
            "healing_queue": queue,
            "last_promotion": self.last_promotion,
        }
