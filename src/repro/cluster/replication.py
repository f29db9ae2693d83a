"""State transfer: the one owner→peer stream behind HA and migration.

A context's control-plane state — attached clients, the files each holds
open, the waiter table (each waiter annotated with its ingress origin),
cache-resident keys, re-simulation progress markers and the restart
latency estimate — moves between nodes over one kind of stream, one per
``(context, peer)``:

* **HA replication** — with ``factor > 1`` the owner's pump keeps a
  stream to each of the next ``factor - 1`` ring successors (the
  preference list, :meth:`~repro.cluster.ring.HashRing.successors`), so
  the node the ring promotes after a death already holds a warm copy.
  A timer on the node's event loop submits a pass to its worker pool
  ``interval`` after the last one ended.  At factor 1 there are no
  replica streams and no pump.
* **Migration** — :class:`~repro.cluster.migrate.MigrationManager`
  pre-copies over the ``(context, dest)`` stream (deltas, when ``dest``
  already is a synced replica) and ends it with a *final frame* that
  also carries the placement pin and the source's data port.

Frames travel as the ``repl`` op.  A stream's first frame — and the
first after a lost reply, a ``resync``, a fence or an anti-entropy tick
of the pump — is a full ``snap``; the rest are ``delta`` frames
(:func:`diff_state`/:func:`apply_delta`) with contiguous sequence
numbers.

:class:`ReplicaStore` — the receiving side: the last applied state per
context plus its ``(source, epoch, seq)`` position.  A gap, an unknown
stream or a source change answers ``resync``, a duplicate is ignored,
and **fencing** rejects a frame whose sender the receiver's own ring
does not consider the owner, or that arrives once the receiver actively
owns the context, so a partitioned stale owner can never overwrite a
promoted one.  The one exception is a final frame whose pin names the
receiver at a version at least the one it holds: it is accepted even
when gossip already made the receiver the owner.  The fence is judged
afresh per frame (ring epochs are per-node counters, never compared
across nodes); a fenced sender stands down for ``fence_retry`` seconds
or until its own ring changes, so a fence from a not-yet-converged ring
heals itself.

:class:`ReplicationManager` — both sides for one node: the pump (also
the background healing pass: after a membership change new streams
start unsynced and ``repl.healing_queue`` drains as their snapshots
land), the receive path, and the one **promotion**: activating a
context as owner consumes this node's record of it, and
:meth:`~ReplicationManager.restore` rebuilds the shard from it —
waiters re-registered with their ingress proxies, held files re-pinned,
re-simulations resumed, readies pushed for files already on disk.  The
blocked client sees its ready arrive: no error, no retry, no reconnect.

``frame_hook`` is the fault-injection seam: it sees every outgoing
frame and may ``drop`` it (the gap forces a resync), ``dup`` it (the
receiver ignores the copy) or sleep (``repl.lag_seconds`` grows).
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
_SET_KEYS = ("clients", "held", "waiters", "resident")
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


def _pin_version(pin, context, node_id: str) -> int | None:
    """The version of a final frame's pin ``[context, target, version]``
    when it hands ``context`` to ``node_id``, else None."""
    try:
        if pin[0] == context and pin[1] == node_id:
            return int(pin[2])
    except (TypeError, ValueError, IndexError, KeyError):
        pass
    return None


@dataclass
class _ReplicaRecord:
    """Receiving-side stream position + state for one context."""

    src: str
    epoch: int
    seq: int
    state: dict
    received_at: float


class ReplicaStore:
    """Receiving side: streamed context state plus acceptance rules."""

    def __init__(self) -> None:
        self._records: dict[str, _ReplicaRecord] = {}
        self._lock = threading.Lock()

    def receive(
        self,
        frame: dict,
        local_epoch: int,
        local_owner: str | None,
        self_is_owner: bool,
        now: float | None = None,
        handoff: bool = False,
    ) -> dict:
        """Apply one frame; returns the reply payload.

        ``local_epoch``/``local_owner`` describe the receiver's current
        ring view of the frame's context; ``self_is_owner`` is True when
        the receiver itself actively owns it; ``handoff`` when the frame
        is a final frame handing the context to the receiver (it skips
        the fence).  Replies: ``{"ok": True}`` applied (or a duplicate
        ignored), ``{"resync": True}`` sequence gap — send a snapshot,
        ``{"fenced": True, "epoch": e}`` the sender is not the owner in
        the receiver's ring and must stand down.
        """
        context = frame.get("context")
        sender = frame.get("from")
        if not isinstance(context, str) or not isinstance(sender, str):
            return {"resync": True}
        if not handoff and (self_is_owner or local_owner != sender):
            # The sender is not this context's owner as far as this node
            # can tell — a deposed owner that has not heard it lost the
            # ring, or a legit owner this node has not yet heard of.
            return {"fenced": True, "epoch": local_epoch}
        epoch = int(frame.get("epoch", 0))
        seq = int(frame.get("seq", 0))
        now = time.time() if now is None else now
        with self._lock:
            record = self._records.get(context)
            if frame.get("kind") == "snap":
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
            delta = frame.get("delta")
            if seq != record.seq + 1 or not isinstance(delta, dict):
                return {"resync": True}
            record.state = apply_delta(record.state, delta)
            record.seq = seq
            record.epoch = epoch
            record.received_at = now
            return {"ok": True, "seq": seq}

    def has(self, context: str) -> bool:
        with self._lock:
            return context in self._records

    def take(self, context: str) -> _ReplicaRecord | None:
        """Pop a context's record to promote from (one shot)."""
        with self._lock:
            return self._records.pop(context, None)

    def prune(self, stale: Callable[[str, str], bool]) -> None:
        """Drop every record for which ``stale(context, source)`` holds."""
        with self._lock:
            for name in [
                name for name, record in self._records.items()
                if stale(name, record.src)
            ]:
                del self._records[name]

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
    """Sending side of one (context, peer) stream."""

    peer_id: str
    context: str
    seq: int = 0
    #: Last state the peer acknowledged (None: the next frame is a snap).
    acked: dict | None = None
    #: True when this stream exists because of a membership change while
    #: the context was already replicated (its first sync is a *heal*).
    healing: bool = False
    last_sync: float = field(default_factory=time.time)
    last_snapshot: float = 0.0
    #: Size of the last frame the peer has not acknowledged.
    backlog: int = 0


class ReplicationManager:
    """Both sides of the state-transfer stream for one cluster node."""

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
        #: Contexts a peer fenced us on → (our ring epoch at the time,
        #: retry deadline).  A fence is a transient stand-down: it clears
        #: on any local membership change or after ``fence_retry``
        #: seconds.  Safety lives on the receiver, which re-judges every
        #: frame against its own ring — the sender only backs off to
        #: avoid hammering a peer that said no.
        self._fenced: dict[str, tuple[int, float]] = {}
        self.fence_retry = max(10.0 * interval, 0.5)
        self._heal_mark = False
        self._lock = threading.Lock()
        #: One sender per stream: held for a whole pump pass, and by a
        #: migration from its pre-copy to its final frame.
        self.pump_lock = threading.Lock()
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
        """Arm the pump's timer; at factor 1 there is nothing to pump."""
        if self.factor > 1:
            self._arm()

    def _arm(self) -> None:
        """A pass ``interval`` from now, submitted by a loop timer."""
        loop = self.node.server.loop
        due = time.monotonic() + self.interval
        loop.call_soon(loop.call_at, due, loop.submit, self._pump_job)

    def _pump_job(self) -> None:
        if self.node._stopped:
            return
        try:
            self.pump()
        except Exception:
            pass  # The replication plane must survive any single bad pass.
        self._arm()

    # ------------------------------------------------------------------ #
    # Receiving side (the node's ``repl`` op)
    # ------------------------------------------------------------------ #
    def receive(self, frame: dict) -> dict:
        """Apply one frame to the store.  A final frame — its pin hands
        the context to this node at a version at least the one held here
        — skips the fence and completes the handoff: the pin is adopted,
        the shard activated and the record promoted."""
        node = self.node
        context = frame.get("context")
        record = None
        with node._lock:
            known = isinstance(context, str) and context in node._specs
            owner = node.ring.owner(context) if known else None
            version = _pin_version(frame.get("pin"), context, node.node_id)
            handoff = known and version is not None and (
                version >= node._pin_versions.get(context, (None, 0))[1]
            )
            reply = self.store.receive(
                frame, local_epoch=node.ring.epoch, local_owner=owner,
                self_is_owner=owner == node.node_id and context in node._active,
                handoff=handoff,
            )
            if handoff and reply.get("ok"):
                node._adopt_pin(context, node.node_id, version, force=True)
                record = (
                    self.store.take(context) if context in node._active
                    else node._activate(context)
                )
        self._m_frames_recv.inc()
        if record is not None:
            reply["restored_waiters"] = self.promote(context, record, frame)
        return reply

    # ------------------------------------------------------------------ #
    # Sending side: the pump, healing, and one frame at a time
    # ------------------------------------------------------------------ #
    def schedule_heal(self) -> None:
        """A membership change happened: streams unsynced from here on
        are re-replication (healing), not initial bring-up."""
        self._heal_mark = True

    def stream(self, context: str, peer_id: str) -> _Stream:
        """The ``(context, peer)`` stream: the pump's when the peer is a
        replica, else a fresh one for the caller (a migration) to drive."""
        with self._lock:
            return (
                self._streams.get((context, peer_id))
                or _Stream(peer_id=peer_id, context=context)
            )

    def pump(self, now: float | None = None) -> None:
        """One replication pass.  A worker runs one ``interval`` after
        the last ended (:meth:`start`); tests call it directly for
        deterministic stepping (``now`` overrides the wall clock for the
        fence-retry bookkeeping)."""
        now = time.time() if now is None else now
        node = self.node
        with self.pump_lock:
            with node._lock:
                epoch = node.ring.epoch
                alive = set(node.table.alive_ids())
                wanted: set[tuple[str, str]] = set()
                for name in node._active:
                    chain = node.ring.successors(name, self.factor)
                    if chain and chain[0] == node.node_id:
                        wanted.update(
                            (name, peer) for peer in chain[1:] if peer in alive
                        )
            heal, self._heal_mark = self._heal_mark, False
            with self._lock:
                for key in [k for k in self._streams if k not in wanted]:
                    del self._streams[key]
                for name, peer in sorted(wanted - self._streams.keys()):
                    self._streams[(name, peer)] = _Stream(
                        peer_id=peer, context=name, healing=heal,
                    )
                if heal:
                    for stream in self._streams.values():
                        stream.healing |= stream.acked is None
                # A fenced context stays silent until our ring changes or
                # the retry window lapses; the peer re-judges every frame
                # against its own ring, so retrying is always safe.
                for name, (fenced_epoch, retry_at) in list(self._fenced.items()):
                    if epoch != fenced_epoch or now >= retry_at:
                        del self._fenced[name]
                streams = [
                    s for s in self._streams.values()
                    if s.context not in self._fenced
                ]
            states: dict[str, dict | None] = {}
            for stream in streams:
                if stream.context not in states:
                    states[stream.context] = node._capture_repl(stream.context)
                state = states[stream.context]
                if state is None:
                    continue
                if now - stream.last_snapshot >= self.anti_entropy_interval:
                    stream.acked = None  # anti-entropy: bound divergence
                self.ship(stream, state, epoch, now)
        with self._lock:
            streams = list(self._streams.values())
        self._m_queue.set(sum(1 for s in streams if s.acked is None))
        self._m_lag_s.set(
            round(max((now - s.last_sync for s in streams), default=0.0), 6)
        )
        self._m_lag_b.set(sum(s.backlog for s in streams))

    def ship(
        self, stream: _Stream, state: dict, epoch: int,
        now: float | None = None, tc: str | None = None,
        extra: dict | None = None,
    ) -> dict | None:
        """Bring ``stream``'s peer up to ``state`` (caller holds
        ``pump_lock``): a delta against what it acknowledged, else a
        snapshot — also the immediate retry when it answers ``resync``.
        ``tc`` is the frames' trace context (default: head-sampled);
        ``extra`` rides on the frame and sends one even when the peer
        already holds ``state`` (a migration's final frame).  Returns
        the peer's reply: ``{}`` when nothing was sent, None when it was
        unreachable."""
        now = time.time() if now is None else now
        snap = stream.acked is None
        delta = None if snap else diff_state(stream.acked, state)
        if not snap and delta is None and extra is None:
            stream.last_sync = now
            return {}
        body = (
            {"kind": "snap", "state": state} if snap
            else {"kind": "delta", "delta": delta or {}}
        )
        reply = self._send(stream, epoch, {**body, **(extra or {})}, tc)
        if reply is not None and reply.get("resync"):
            # Retry at once as a snapshot: one extra round trip, not one
            # extra pump interval.
            self._m_resyncs.inc()
            snap = True
            reply = self._send(
                stream, epoch,
                {"kind": "snap", "state": state, **(extra or {})}, tc,
            )
        if reply is None or not reply.get("ok"):
            # Never applied (lost, fenced, refused): the stream restarts
            # from a snapshot.
            stream.acked = None
            if reply is not None and reply.get("fenced"):
                # Stand down, but only briefly: the peer judged us against
                # *its* ring, which may simply not have converged yet.
                self._m_fence.inc()
                with self._lock:
                    self._fenced[stream.context] = (
                        epoch, now + self.fence_retry
                    )
            return reply
        if snap:
            self._m_snapshots.inc()
            stream.last_snapshot = now
        if stream.acked is None and stream.healing:
            stream.healing = False
            self._m_healed.inc()
        stream.acked = state
        stream.last_sync = now
        stream.backlog = 0
        return reply

    def _send(
        self, stream: _Stream, epoch: int, body: dict, tc: str | None
    ) -> dict | None:
        """One frame of ``stream``, with the next sequence number."""
        stream.seq += 1
        frame = {
            "op": "repl", "from": self.node.node_id,
            "context": stream.context, "epoch": epoch, "seq": stream.seq,
            **body,
        }
        stream.backlog = len(json.dumps(frame, separators=(",", ":")))
        if tc is None:
            # Head-sampled: a sampled frame shows up as an ``op.repl`` span
            # on the peer, tying replication lag into the trace plane.
            obs = getattr(getattr(self.node, "server", None), "obs", None)
            sampled = obs.start_trace() if obs is not None else None
            tc = sampled.to_wire() if sampled and sampled.sampled else None
        if tc is not None:
            frame["tc"] = tc
        action = self.frame_hook(stream.peer_id, frame) if self.frame_hook else None
        if action == "drop":
            return None
        try:
            link = self.node.router.link(stream.peer_id)
            if action == "dup":
                link.call(dict(frame), timeout=self.node.rpc_timeout)
            reply = link.call(frame, timeout=self.node.rpc_timeout)
        except (DVConnectionLost, SimFSError, OSError):
            return None
        self._m_frames.inc()
        self._m_bytes.inc(stream.backlog)
        return reply

    # ------------------------------------------------------------------ #
    # Promotion, restore and pruning
    # ------------------------------------------------------------------ #
    def promote(
        self, context: str, record: _ReplicaRecord, final: dict | None = None
    ) -> int:
        """Rebuild ``context`` from the record its activation here took:
        hot failover from a replica, a pre-copy whose migration source
        died, or (``final``, the frame carrying the pin) a completed
        migration.  Returns the number of waiters restored."""
        state = record.state
        restored = self.restore(context, state)
        self._m_promotions.inc()
        self._m_restored.inc(restored)
        resumed = len(state.get("sims", ()))
        self.last_promotion = {
            "context": context, "from": record.src, "at": time.time(),
            "restored_waiters": restored, "resumed_sims": resumed,
            "partial": final is None,
        }
        if final is None:
            self.node.server.obs.journal(
                "ha.promote", context=context, src=record.src,
                restored_waiters=restored, resumed_sims=resumed,
            )
        else:
            self.node.migration.adopted(context, record.src, final, state)
        return restored

    def restore(self, context: str, state: dict) -> int:
        """The one restore path (promotion, a migration's final frame, its
        abort): proxies first, so readies route back out through each
        waiter's ingress, then the shard rebuilt; readies for files
        already on disk go out at once.  Returns the waiters restored."""
        node = self.node
        waiters = [e for e in state.get("waiters", ()) if len(e) >= 2]
        node.router.restore_proxies(context, state.get("clients", ()), waiters)
        shard = node.server.coordinator.shard(context)
        # The shard's clock is the server's (monotonic) clock, not wall
        # time — mixing them trips the shard's time-went-backwards guard.
        for notification in shard.restore_repl_state(
            state, node.server._clock.now()
        ):
            node.server._push_ready(notification)
        return len(waiters)

    def prune(self, alive: set[str]) -> None:
        """One rule for every record (node lock held): drop it when its
        source is dead and the ring places the context away from this
        node — another node restarts it, and a stale record here must not
        shadow a later promotion.  A node still in the context's
        preference list keeps its record: a second death may yet
        promote it."""
        node = self.node
        self.store.prune(
            lambda name, src: src not in alive
            and node.node_id not in node.ring.successors(name, self.factor)
        )

    # ------------------------------------------------------------------ #
    # Introspection (the ``ha`` op / simfs-ctl ha-status)
    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        node = self.node
        now = time.time()
        with node._lock:
            chains = {
                name: node.ring.successors(name, self.factor)
                for name in sorted(node._specs)
            }
        with self._lock:
            streams = {
                (s.context, s.peer_id): s for s in self._streams.values()
            }
            fenced = sorted(self._fenced)
        view: dict[str, dict] = {}
        for name, chain in chains.items():
            replicas = []
            for peer in chain[1:]:
                stream = streams.get((name, peer))
                replicas.append({
                    "node": peer,
                    "synced": stream is not None and stream.acked is not None,
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
            "healing_queue": sum(
                1 for s in streams.values() if s.acked is None
            ),
            "last_promotion": self.last_promotion,
        }
