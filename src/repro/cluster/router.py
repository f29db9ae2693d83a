"""Router: the one ring-routed op-forwarding core.

A cluster node, a multi-core executor gateway and the engine-mode
supervisor all take client ops for contexts served elsewhere and run the
same protocol, so it lives here once (ARCHITECTURE.md, "Routing", has the
picture and the table of hooks each deployment supplies).  The unit of
forwarding is a *run*: one client's consecutive ops for one context —
usually a single op, as many as ``FWD_RUN_MAX`` from a pipelined client —
which the ingress ships to the context's owner in one ``fwd`` frame and
gets answered in one ``fwd_reply``: a run of two or more crosses as the
client frames it arrived as and comes back as the reply frames the
client reads.  The ingress remembers which owner
holds each client's attachment and which opens still wait for a
``ready``, and after a membership change re-registers what was recorded
against a lost owner, so a blocked client gets its one ``ready`` instead
of hanging.  The owner runs the ops in order on behalf of a
:class:`_ProxyClient` and pushes the ``ready`` back down the connection
the client entered through.  The router touches no socket and no clock
it was not given, so tests drive it with fakes.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.cluster.link import DialBackingOff, PeerTimeout
from repro.core.errors import (
    DETAIL_ALREADY_ATTACHED,
    DETAIL_NOT_ATTACHED,
    DVConnectionLost,
    ErrorCode,
    ProtocolError,
    SimFSError,
)
from repro.dv.coordinator import Notification
from repro.dv.protocol import (
    MARK_MISS,
    make_fwd,
    pack_run,
    unpack_run,
    unpack_run_reply,
    unwrap_fwd,
)
from repro.dv.server import _ROUTABLE_OPS, reply_frame, reply_payloads

__all__ = ["Router"]


def _attached(payload: dict) -> bool:
    """Did an ``attach`` leave the client attached?  "Already attached"
    counts: replays race with each other and with the client's traffic."""
    error = payload.get("error")
    return not error or (
        error == int(ErrorCode.ERR_INVALID)
        and DETAIL_ALREADY_ATTACHED in payload.get("detail", "")
    )


#: What the marks of a run's reply say of a slot, as the payload
#: :meth:`Router.track` and the retry rules read (shared: never handed out).
_PLAIN = {"error": 0, "available": True}
_MISS = {"error": 0, "available": False}


def _notes(frames: list[bytes], marks: dict[int, int]) -> dict[int, dict]:
    """Per marked slot what its reply says: a miss, or its decoded body."""
    return {
        slot: _MISS if mark == MARK_MISS else reply_payloads(frames[slot])[0]
        for slot, mark in marks.items()
    }


def _unreachable(owner: str, context, what: str) -> dict:
    return {
        "error": int(ErrorCode.ERR_CONNECTION),
        "detail": f"owner {owner!r} of {context!r} {what}",
    }


@dataclass
class _ProxyClient:
    """Owner-side stand-in for a client connected at a peer.

    Quacks like the server's ``_ClientConn`` where op handlers care
    (``client_id``/``contexts``).  ``conn`` is the peer's server-side
    connection, the channel readies route back through; ``origin`` its
    name, for when only that survived a promotion.  ``contexts`` mirrors
    the client's attachments here: a proxy without any is owed nothing.
    """

    client_id: str
    origin: str | None = None
    conn: object | None = None
    contexts: set[str] = field(default_factory=set)
    inflight: int = 0


class Router:
    """Ring-routed forwarding for one node, executor or supervisor.

    ``resolve(context) -> (owner, serves)`` names the current owner (None
    when nobody serves it) and whether the catalog says it should be
    served, in which case an owner answering "unknown context" only lags.
    ``dial(peer_id, on_fwd=, on_down=)`` opens a ``PeerLink``;
    ``execute_local(proxy, messages)`` runs a client's ops here, in order,
    and returns their reply frames (``DVServer.serve_ops``);
    ``send(conn,
    frame)`` writes to a peer's connection (None where nothing is ever
    forwarded *in*).  ``on_unreachable`` / ``on_timeout`` tell membership
    about a dead / slow peer (None where someone else decides),
    ``is_stale(owner, context)`` says when state recorded against an owner
    must be replayed, ``ready_sink`` delivers to a local client.
    """

    def __init__(
        self,
        self_id: str,
        *,
        resolve: Callable[[object], tuple[str | None, bool]],
        dial: Callable[..., object],
        ready_sink: Callable[[Notification], None],
        is_stale: Callable[[str, str], bool],
        metrics,
        prefix: str,
        rpc_timeout: float = 10.0,
        execute_local: Callable[[_ProxyClient, list], list] | None = None,
        send: Callable[[object, dict], None] | None = None,
        on_unreachable: Callable[[str], None] | None = None,
        on_timeout: Callable[[str], None] | None = None,
        obs=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.self_id = self_id
        self.rpc_timeout = rpc_timeout
        self._resolve = resolve
        self._dial = dial
        self._ready_sink = ready_sink
        self._is_stale = is_stale
        self._execute_local = execute_local
        self._send = send
        self._on_unreachable = on_unreachable
        self._on_timeout = on_timeout
        self._obs = obs
        self._clock = clock
        self._sleep = sleep
        #: Guards the three tables below; the only callback made under it
        #: is ``is_stale`` (a lookup), never one that crosses the wire.
        self._lock = threading.Lock()
        # Owner side: clients that entered through a peer.  Ingress side:
        # which owner holds each client's forwarded attachments, and which
        # forwarded opens still wait on a ready from which owner.
        self._proxies: dict[str, _ProxyClient] = {}
        self._ingress_ctx: dict[str, dict[str, str]] = {}
        self._pending: dict[tuple[str, str, str], str] = {}
        self._links: dict[str, object] = {}
        self._links_lock = threading.Lock()
        #: One dial per peer at a time.  A peer admits one connection per
        #: ``node:<id>`` and rejects a second hello while the first is up,
        #: so two threads dialing together (a gossip round and a forwarded
        #: op, say) would make a healthy peer look like a failed dial.
        self._dialing: dict[str, threading.Lock] = {}
        self._m_fwd_sent = metrics.counter(prefix + "fwd_sent")
        self._m_fwd_frames = metrics.counter(prefix + "fwd_frames")
        self._m_fwd_recv = metrics.counter(prefix + "fwd_received")
        self._m_ready_routed = metrics.counter(prefix + "ready_routed")
        self._m_replayed = metrics.counter(prefix + "replayed_waits")

    def link(self, peer_id: str):
        """The cached link to ``peer_id``, dialing one if needed."""
        with self._links_lock:
            link = self._links.get(peer_id)
            if link is not None and not link.closed:
                return link
            dialing = self._dialing.setdefault(peer_id, threading.Lock())
        with dialing:
            with self._links_lock:
                link = self._links.get(peer_id)
            if link is None or link.closed:  # else dialed while we queued
                link = self._dial(
                    peer_id, on_fwd=self.on_link_fwd, on_down=self.link_down
                )
                with self._links_lock:
                    self._links[peer_id] = link
        return link

    def link_down(self, peer_id: str) -> None:
        """A link died (its ``on_down``) or a forward hit a torn one:
        forget it and tell whoever decides membership."""
        with self._links_lock:
            link = self._links.pop(peer_id, None)
        if link is not None:
            link.close()
        if self._on_unreachable is not None:
            self._on_unreachable(peer_id)

    def close(self) -> None:
        with self._links_lock:
            links, self._links = list(self._links.values()), {}
        for link in links:
            link.close()

    # ------------------------------------------------------------------ #
    # Ingress side (this process holds the client's connection)
    # ------------------------------------------------------------------ #
    def route(self, conn, messages: list[dict]) -> bytes:
        """DVServer ``route_ops`` hook: one client's consecutive ops for a
        context not registered locally (a run — usually of one).  Returns
        their reply frames, joined.  Runs on a worker thread."""
        settled = self._forward_routed(conn.client_id, messages)
        self.track(conn.client_id, messages, settled)
        trace = getattr(conn, "trace", False)
        return b"".join([
            frame if frame is not None
            else reply_frame(message, note, message.get("tc") if trace else None)
            for message, (frame, note, _owner) in zip(messages, settled)
        ])

    def forward(self, client_id: str, inner: dict) -> dict:
        """Run one client op at the context's owner: a run of one."""
        payload, owner = self._forward_one(client_id, inner)
        self.track(client_id, [inner], [(None, payload, owner)])
        return payload

    def _forward_one(self, client_id: str, inner: dict) -> tuple[dict, str | None]:
        _frame, payload, owner = self._forward_routed(client_id, [inner])[0]
        return payload, owner  # a run of one settles on a payload

    def _forward_routed(
        self, client_id: str, messages: list[dict]
    ) -> list[tuple[bytes | None, dict | None, str | None]]:
        """Route a run to the context's current owner, riding out owner
        death, a dial back-off window, activation lag on a new owner and
        a lost attachment inside one ``rpc_timeout`` deadline.  The
        unsettled slots cross the hop together, in order, as one frame;
        each settles on its own answer and only the rest are re-sent.
        Returns one ``(frame, note, owner)`` per slot: the reply frame a
        remote owner made for an op of a run (else None: a run of one, a
        run served or failed here — then ``note`` is the payload), what
        the reply says when it is not a plain success (else None), and
        the peer that actually served it — what :meth:`track` must record,
        not a re-derived lookup: the ring may already have moved on, and
        a wait recorded against the wrong, still-live owner would never
        be replayed."""
        context = messages[0].get("context")
        deadline = self._clock() + self.rpc_timeout
        settled: list = [None] * len(messages)
        todo = list(range(len(messages)))  # unsettled slots, in order
        width = len(messages)  # slots per frame: all, or one past the limit

        def settle(slots, payload, owner):
            for slot in slots:
                settled[slot] = (None, dict(payload), owner)

        while todo:
            owner, serves = self._resolve(context)
            if owner is None:
                settle(todo, {
                    "error": int(ErrorCode.ERR_CONTEXT),
                    "detail": f"no live owner serves context {context!r}",
                }, None)
                break
            if owner == self.self_id:
                frames = self.run_local(
                    client_id, [messages[slot] for slot in todo]
                )
                for slot, payload in zip(todo, reply_payloads(b"".join(frames))):
                    settled[slot] = (None, payload, owner)
                break
            sent = todo[:width]
            try:
                frames, notes = self._call(
                    owner, client_id, [messages[slot] for slot in sent]
                )
            except PeerTimeout:
                # Slow, not dead: exiling a stalled owner (workers parked
                # on PFS I/O) would activate its contexts elsewhere while
                # it still serves them.  Report, fail the ops, keep the
                # link — and never re-send what may yet execute.
                if self._on_timeout is not None:
                    self._on_timeout(owner)
                settle(todo, _unreachable(owner, context, "timed out"), owner)
                break
            except (DVConnectionLost, OSError) as exc:
                if isinstance(exc, DialBackingOff):
                    # No dial was made, so this says nothing about the
                    # peer: wait the window out, membership stays out of it.
                    pause = exc.retry_in
                else:
                    # Whoever decides membership (on_unreachable, or the
                    # supervisor's next ring update) moves the context.
                    self.link_down(owner)
                    pause = 0.02
                remaining = deadline - self._clock()
                if remaining <= 0:
                    settle(todo, _unreachable(owner, context, "is unreachable"), owner)
                    break
                self._sleep(min(pause, remaining))
                continue
            except ProtocolError as exc:
                # Nothing was sent: the frame would pass the wire's size
                # limit.  A run goes as frames of one; a single op that
                # large fails on its own.
                if len(sent) > 1:
                    width = 1
                    continue
                frames, notes = [None], {0: {"error": int(exc.code), "detail": str(exc)}}
            # Every slot takes its answer; the ones an error says to
            # retry stay in the run and are overwritten by the next one.
            for slot, frame in zip(sent, frames):
                settled[slot] = (frame, None, owner)
            lagging: list[int] = []
            detached: list[int] = []
            for idx, note in notes.items():
                slot = sent[idx]
                settled[slot] = (frames[idx], note, owner)
                error = note.get("error")
                if not error or self._clock() >= deadline:
                    continue
                if error == int(ErrorCode.ERR_CONTEXT) and serves:
                    lagging.append(slot)
                elif (
                    error == int(ErrorCode.ERR_INVALID)
                    and DETAIL_NOT_ATTACHED in note.get("detail", "")
                    and messages[slot].get("op") not in ("attach", "finalize")
                    and context in self._ingress_ctx.get(client_id, ())
                ):
                    detached.append(slot)
            if lagging:
                # The owner has not activated the context yet (its view
                # of the change lags ours) — give it a beat.
                self._sleep(0.05)
            if detached and not self.ensure_attached(client_id, context):
                detached = []
            # Else the context moved before a replay re-registered this
            # client with the new owner; it is attached now.
            todo = sorted(lagging + detached) + todo[len(sent):]
        return settled

    def _call(
        self, owner: str, client_id: str, messages: list[dict]
    ) -> tuple[list, dict[int, dict]]:
        """One ``fwd`` round trip carrying ``messages``: their reply
        frames (None for a run of one: the JSON ``inner``, answered with
        a payload) and, by position, what the not-plain replies say."""
        link = self.link(owner)
        self._m_fwd_sent.inc(len(messages))
        self._m_fwd_frames.inc()
        if len(messages) > 1:
            reply = link.call(
                pack_run(self.self_id, client_id, messages),
                timeout=self.rpc_timeout,
            )
            try:
                frames, marks = unpack_run_reply(reply, len(messages))
                return frames, _notes(frames, marks)
            except ProtocolError:
                # The owner refused the run as a whole (or sent
                # nonsense): every slot fails the same way.
                return [None] * len(messages), {slot: {
                    "error": reply.get("error") or int(ErrorCode.ERR_PROTOCOL),
                    "detail": reply.get("detail", "malformed fwd_reply"),
                } for slot in range(len(messages))}
        inner = {k: v for k, v in messages[0].items() if k != "req"}
        frame = make_fwd(self.self_id, client_id, inner)
        tc = inner.get("tc")
        if tc is not None:
            # Hoisted onto the fwd frame itself, so the owner's dispatch
            # records an ``op.fwd`` span without unwrapping the payload.
            frame["tc"] = tc
        traced = tc is not None and self._obs is not None
        began = self._obs.now() if traced else 0.0
        reply = link.call(frame, timeout=self.rpc_timeout)
        if traced:
            self._obs.record(
                "fwd", tc, began, self._obs.now(), op=inner.get("op"),
                context=inner.get("context"), peer=owner,
            )
        payload = reply.get("payload")
        if not isinstance(payload, dict):
            payload = {
                "error": reply.get("error", int(ErrorCode.ERR_PROTOCOL)),
                "detail": reply.get("detail", "malformed fwd_reply"),
            }
        return [None], {0: payload}

    def track(self, client_id: str, messages: list[dict], settled: list) -> None:
        """Record ingress bookkeeping, per slot of :meth:`_forward_routed`'s
        answer, against the owner that served it."""
        with self._lock:
            for inner, (_frame, payload, owner) in zip(messages, settled):
                op = inner.get("op")
                if payload is None:
                    if op in ("open", "wclose") or not self._pending and op == "release":
                        continue  # a plain success that leaves nothing behind
                    payload = _PLAIN
                context = inner.get("context")
                if payload.get("error") or not isinstance(context, str) or owner is None:
                    continue
                if op == "attach":
                    self._ingress_ctx.setdefault(client_id, {})[context] = owner
                elif op == "finalize":
                    self._ingress_ctx.get(client_id, {}).pop(context, None)
                    self._forget_waits(lambda k: k[:2] == (client_id, context))
                elif op == "open" and not payload.get("available"):
                    self._pending[(client_id, context, inner.get("file"))] = owner
                elif op == "release":
                    self._pending.pop((client_id, context, inner.get("file")), None)
                elif op == "acquire":
                    for result in payload.get("results", ()):
                        if not result.get("available"):
                            key = (client_id, context, result.get("file"))
                            self._pending[key] = owner

    def _forget_waits(self, match: Callable[[tuple], bool]) -> None:
        for key in [k for k in self._pending if match(k)]:
            del self._pending[key]

    def ensure_attached(self, client_id: str, context: str) -> bool:
        """Register a client with the context's current owner."""
        payload, owner = self._forward_one(
            client_id, {"op": "attach", "context": context}
        )
        ok = _attached(payload)
        if ok and owner is not None:
            with self._lock:
                attachments = self._ingress_ctx.get(client_id)
                if attachments is not None and context in attachments:
                    attachments[context] = owner
        return ok

    def stale(self) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
        """The scan after a membership change: ``(reattaches, replays)``
        for :meth:`replay` — attachments and waits recorded against an
        owner ``is_stale`` disowns.  The waits leave the table; replay
        re-records them against the new owner."""
        reattaches: list[tuple[str, str]] = []
        replays: list[tuple[str, str, str]] = []
        with self._lock:
            for client_id, attachments in self._ingress_ctx.items():
                for context, owner in attachments.items():
                    if self._is_stale(owner, context):
                        reattaches.append((client_id, context))
            for key, owner in list(self._pending.items()):
                if self._is_stale(owner, key[1]):
                    replays.append(key)
                    del self._pending[key]
        return reattaches, replays

    def replay(
        self,
        reattaches: Iterable[tuple[str, str]],
        replays: Iterable[tuple[str, str, str]],
    ) -> None:
        """Re-register displaced clients with the new owner and re-issue
        the opens the ownership change stranded.  Crosses the wire: never
        call it under a lock."""
        seen: set[tuple[str, str]] = set()
        for client_id, context in reattaches:
            if (client_id, context) not in seen:
                seen.add((client_id, context))
                self.ensure_attached(client_id, context)
        for client_id, context, filename in replays:
            if (client_id, context) not in seen:
                seen.add((client_id, context))
                if not self.ensure_attached(client_id, context):
                    self._ready_sink(Notification(client_id, context, filename, ok=False))
                    continue
            payload, owner = self._forward_one(
                client_id, {"op": "open", "context": context, "file": filename}
            )
            self._m_replayed.inc()
            if payload.get("error") or payload.get("available"):
                # Failed, or already on the shared PFS: the wait resolves
                # right away, one way or the other.
                self._ready_sink(Notification(
                    client_id, context, filename, ok=not payload.get("error")
                ))
            else:
                with self._lock:
                    self._pending[(client_id, context, filename)] = owner

    def adopt_handoff(
        self, context: str, owner: str,
        waiters: Iterable, clients: Iterable[str],
    ) -> None:
        """This process just handed ``context`` and its waiter table to
        ``owner`` (a live migration): it is now the ingress of those waits
        — if ``owner`` dies they replay from here — and of its own
        clients' attachments (a peer's client has its own ingress)."""
        with self._lock:
            for entry in waiters:
                self._pending[(entry[0], context, entry[1])] = owner
            for client_id in clients:
                if client_id not in self._proxies:
                    self._ingress_ctx.setdefault(client_id, {})[context] = owner

    def forget_context(self, context: str) -> None:
        """The context is no longer served behind this router at all."""
        with self._lock:
            self._forget_waits(lambda k: k[1] == context)
            for attachments in self._ingress_ctx.values():
                attachments.pop(context, None)

    # ------------------------------------------------------------------ #
    # Owner side (a peer forwarded a client op here)
    # ------------------------------------------------------------------ #
    def on_fwd(self, conn, message: dict) -> dict | None:
        """Server op ``fwd``: execute a peer-forwarded client op (or a run
        of them, in order) here, or take delivery of a ``ready`` a peer
        dialed us to route."""
        if "run" in message:
            origin, client_id, messages = unpack_run(message)
            self._m_fwd_recv.inc(len(messages))
            return {"run": b"".join(
                self.run_local(client_id, messages, conn, origin)
            )}
        origin, client_id, inner = unwrap_fwd(message)
        self._m_fwd_recv.inc()
        if inner.get("op") == "ready":
            self.deliver_routed_ready(client_id, inner)
            return None
        (frame,) = self.run_local(client_id, [inner], conn, origin)
        return {"payload": reply_payloads(frame)[0]}

    def on_link_fwd(self, message: dict) -> None:
        """PeerLink callback: an unsolicited ``fwd`` over one of our
        outbound links — the owner routing a ready back to us."""
        _origin, client_id, inner = unwrap_fwd(message)
        if inner.get("op") == "ready":
            self.deliver_routed_ready(client_id, inner)

    def run_local(
        self, client_id: str, messages: list[dict], conn=None,
        origin: str | None = None,
    ) -> list[bytes]:
        """Run ops here, in order, on behalf of a client that has no local
        connection object (forwarded in, replayed, or self-owned): the
        proxy is registered once and the ops go to ``execute_local`` in
        one call.  Returns their reply frames.  An op that cannot be
        routed fails its own slot."""
        run = [m for m in messages if m.get("op") in _ROUTABLE_OPS]
        with self._lock:
            proxy = self._proxies.get(client_id)
            if proxy is None:
                proxy = self._proxies[client_id] = _ProxyClient(client_id)
            if conn is not None:
                proxy.origin, proxy.conn = origin, conn
            proxy.inflight += 1
        frames: list[bytes] = []
        try:
            if run:
                frames = self._execute_local(proxy, run)
        finally:
            with self._lock:
                proxy.inflight -= 1
                for inner, frame in zip(run, frames):
                    if inner["op"] in ("attach", "finalize"):
                        payload = reply_payloads(frame)[0]
                        if inner["op"] == "attach" and _attached(payload):
                            proxy.contexts.add(inner.get("context"))
                        elif inner["op"] == "finalize" and not payload["error"]:
                            proxy.contexts.discard(inner.get("context"))
                # Whatever the ops were (a rejected attach, an unknown
                # context), a proxy left without attachments is garbage
                # nothing else would reap: client ids are per connection.
                # Unless the same client is mid-attach on another thread.
                if (
                    not proxy.contexts and not proxy.inflight
                    and self._proxies.get(client_id) is proxy
                ):
                    del self._proxies[client_id]
        served = iter(frames)
        return frames if len(run) == len(messages) else [
            next(served) if message.get("op") in _ROUTABLE_OPS
            else reply_frame(message, {
                "error": int(ErrorCode.ERR_PROTOCOL),
                "detail": f"op {message.get('op')!r} cannot be executed "
                          "for a routed client",
            })
            for message in messages
        ]

    def restore_proxies(
        self, context: str, clients: Iterable[str], waiters: Iterable
    ) -> None:
        """Shard state is about to be restored here (promotion, migration):
        its clients become attached with no ``attach`` passing through, so
        they get proxies now — with each waiter's ingress origin
        (``[client, file, origin]``), the only route its ready has until
        the client's next op rebinds the connection."""
        origins = dict.fromkeys(c for c in clients if isinstance(c, str))
        for entry in waiters:
            if isinstance(entry[0], str):
                origin = entry[2] if len(entry) > 2 else None
                origins[entry[0]] = origin or origins.get(entry[0])
        with self._lock:
            for client_id, origin in origins.items():
                proxy = self._proxies.get(client_id)
                if proxy is None:
                    proxy = self._proxies[client_id] = _ProxyClient(client_id)
                proxy.contexts.add(context)
                if origin and origin != self.self_id and proxy.origin is None:
                    proxy.origin = origin

    def origin_of(self, client_id: str) -> str | None:
        """The peer a proxied client entered through (None: one of ours)."""
        return getattr(self._proxies.get(client_id), "origin", None)

    def route_ready(self, notification: Notification) -> None:
        """DVServer ``ready_router`` hook (the client is not a local
        connection): push the ready down its ingress connection."""
        proxy = self._proxies.get(notification.client_id)
        if proxy is None:
            return
        frame = make_fwd(self.self_id, notification.client_id, {
            "op": "ready",
            "context": notification.context_name,
            "file": notification.filename,
            "ok": notification.ok,
        })
        if proxy.conn is not None:
            try:
                self._send(proxy.conn, frame)
                self._m_ready_routed.inc()
                return
            except (OSError, SimFSError):
                pass
        if proxy.origin and proxy.origin != self.self_id:
            # No live channel (a promoted replica only holds the origin's
            # name; the dead owner held the connection): dial the origin,
            # whose ``fwd`` handler delivers to the real client.
            try:
                self.link(proxy.origin).send(frame)
                self._m_ready_routed.inc()
            except (DVConnectionLost, SimFSError, OSError):
                pass

    def deliver_routed_ready(self, client_id: str, inner: dict) -> None:
        self.deliver_ready(Notification(
            client_id, inner.get("context"), inner.get("file"),
            ok=bool(inner.get("ok", True)),
        ))

    def deliver_ready(self, note: Notification) -> None:
        """A ready reached its client's ingress: the wait is over."""
        with self._lock:
            self._pending.pop((note.client_id, note.context_name, note.filename), None)
        self._ready_sink(note)

    def drop_client(self, client_id: str) -> None:
        """DVServer ``drop_hook``: a connection died.  A peer link takes
        every client it proxied with it (the peer replays them elsewhere);
        a regular client's forwarded attachments are finalized."""
        if client_id.startswith("node:"):
            with self._lock:
                orphans = [
                    p for p in self._proxies.values()
                    if getattr(p.conn, "client_id", None) == client_id
                ]
            for proxy in orphans:
                for context in list(proxy.contexts):
                    self.run_local(
                        proxy.client_id, [{"op": "finalize", "context": context}]
                    )
                with self._lock:  # a finalize that failed leaves it behind
                    if self._proxies.get(proxy.client_id) is proxy:
                        del self._proxies[proxy.client_id]
            return
        with self._lock:
            self._forget_waits(lambda k: k[0] == client_id)
            forwarded = self._ingress_ctx.pop(client_id, {})
        for context in forwarded:
            try:
                self._forward_one(client_id, {"op": "finalize", "context": context})
            except Exception:
                pass  # best effort; the owner's own drop hook backs it up
        with self._lock:
            # The connection was here, so a proxy here is a leftover of
            # self-owned execution or a restore, not a route to anywhere.
            self._proxies.pop(client_id, None)
