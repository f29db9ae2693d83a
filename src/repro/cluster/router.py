"""Router: the one ring-routed op-forwarding core.

A cluster node takes client ops for contexts served elsewhere and ships
them to the owner (ARCHITECTURE.md, "Routing", has the picture and the
table of hooks the node supplies).  The unit of
forwarding is a *run*: one client's consecutive ops for one context —
usually a single op, as many as ``FWD_RUN_MAX`` from a pipelined client —
which the ingress ships to the context's owner in one ``fwd`` frame and
gets answered in one ``fwd_reply``: a run, a run of one included, crosses
as the client frames it arrived as and comes back as the reply frames
the client reads.  Every forwarded run is one continuation on the
node's event loop, from its first send to its last retry
(:meth:`Router.forward`): it is sent from the I/O thread, its reply is
settled there, and its retries wait as the loop's timers.  Only a step
that blocks goes to a worker, one job each, and comes back with
``call_soon``.  The ingress remembers which owner
holds each client's attachment and which opens still wait for a
``ready``, and after a membership change re-registers what was recorded
against a lost owner, so a blocked client gets its one ``ready`` instead
of hanging.  The owner runs the ops in order on behalf of a
:class:`_ProxyClient` and pushes the ``ready`` back down the connection
the client entered through.  The router touches no socket and no loop
it was not given, so tests drive it with fakes on a virtual loop.
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
    OP_FWD_REPLY,
    make_fwd,
    pack_run,
    unpack_run,
    unpack_run_reply,
    unwrap_fwd,
)
from repro.dv.core import reply_frame, reply_payloads
from repro.obs.trace import parse_wire

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

#: Why :meth:`Router._retry` sends a slot again.
_LAGGING, _DETACHED = "lagging", "detached"

#: What a continuation waits on (:meth:`Router._drive`): a worker job, a
#: timer, a request on a link.
_WORK, _AT, _SEND = "work", "at", "send"


def _notes(frames: list[bytes], marks: dict[int, int]) -> dict[int, dict]:
    """Per marked slot what its reply says: a miss, or its decoded body."""
    return {
        slot: _MISS if mark == MARK_MISS else reply_payloads(frames[slot])[0]
        for slot, mark in marks.items()
    }


def _ignore(_result) -> None:
    """What waits on a best-effort continuation (a finalize, a replay)."""


def _answer(settled: list) -> tuple[dict, str | None]:
    """A forwarded op's reply payload and the owner that served it."""
    frame, note, owner = settled[0]
    return (note if note is not None else reply_payloads(frame)[0]), owner


def _unreachable(owner: str, context, what: str) -> dict:
    return {
        "error": int(ErrorCode.ERR_CONNECTION),
        "detail": f"owner {owner!r} of {context!r} {what}",
    }


@dataclass
class _ProxyClient:
    """Owner-side stand-in for a client connected at a peer.

    Quacks like the server's ``_ClientConn`` where op handlers care
    (``client_id``/``contexts``/``trace``).  ``conn`` is the peer's
    server-side connection, the channel readies route back through;
    ``origin`` its name, for when only that survived a promotion.
    ``contexts`` mirrors the client's attachments here: a proxy without
    any is owed nothing.  Its replies carry no ``tc``: the ingress adds
    one for a client that negotiated tracing.
    """

    client_id: str
    origin: str | None = None
    conn: object | None = None
    contexts: set[str] = field(default_factory=set)
    inflight: int = 0
    trace = False


class Router:
    """Ring-routed forwarding for one node.

    ``loop`` is the node's event loop (``time``, ``call_soon``,
    ``call_at``): every forwarded run is a continuation on it, and
    ``submit(fn, *args)`` runs its blocking steps on a worker.
    ``resolve(context) -> (owner, serves)`` names the current owner (None
    when nobody serves it) and whether the catalog says it should be
    served, in which case an owner answering "unknown context" only lags.
    ``peek(context)`` is the same answer without waiting, for the loop:
    None when it cannot be had at once, or when resolving may activate
    the context here (then ``resolve`` runs on a worker).
    ``dial(peer_id, on_fwd=, on_down=)`` opens a ``PeerLink``;
    ``execute_local(proxy, messages)`` runs a client's ops here, in order,
    and returns their reply frames (``DVServer.serve_ops``);
    ``send(conn, frame)`` writes to a peer's connection.
    ``on_unreachable`` / ``on_timeout`` tell membership about a dead /
    slow peer, ``is_stale(owner, context)`` says when state recorded
    against an owner must be replayed, ``ready_sink`` delivers to a local
    client.
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
        rpc_timeout: float = 10.0,
        execute_local: Callable[[_ProxyClient, list], list] | None = None,
        send: Callable[[object, dict], None] | None = None,
        on_unreachable: Callable[[str], None] | None = None,
        on_timeout: Callable[[str], None] | None = None,
        obs=None,
        peek: Callable[[object], tuple[str | None, bool] | None] | None = None,
        submit: Callable[..., None] | None = None,
        loop=None,
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
        self._peek = peek
        self._submit = submit
        self._loop = loop
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
        #: Set by :meth:`close`: a link dialed after it is closed at once.
        self._closed = False
        #: One dial per peer at a time.  A peer admits one connection per
        #: ``node:<id>`` and rejects a second hello while the first is up,
        #: so two threads dialing together (a gossip round and a forwarded
        #: run, say) would make a healthy peer look like a failed dial.
        self._dialing: dict[str, threading.Lock] = {}
        self._m_fwd_sent = metrics.counter("cluster.fwd_sent")
        self._m_fwd_frames = metrics.counter("cluster.fwd_frames")
        self._m_fwd_recv = metrics.counter("cluster.fwd_received")
        self._m_ready_routed = metrics.counter("cluster.ready_routed")
        self._m_replayed = metrics.counter("cluster.replayed_waits")

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
                    if self._closed:
                        link.close()
                        raise DVConnectionLost(f"router closed: no link to {peer_id!r}")
                    self._links[peer_id] = link
        return link

    def call(self, peer_id: str, message: dict) -> dict:
        """One request/reply with a peer (control and obs ops, not runs),
        on a worker.  A dial back-off window is waited out inside
        ``rpc_timeout`` and membership is not told: no dial was made, so
        it says nothing about the peer.  Anything else the link raises is
        the caller's."""
        deadline = time.monotonic() + self.rpc_timeout
        while True:
            try:
                link = self.link(peer_id)
            except DialBackingOff as exc:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                time.sleep(min(exc.retry_in, remaining))
                continue
            return link.call(message, timeout=self.rpc_timeout)

    def link_down(self, peer_id: str) -> None:
        """A link died (its ``on_down``) or a forward hit a torn one:
        forget it and tell whoever decides membership (on a worker)."""
        with self._links_lock:
            link = self._links.pop(peer_id, None)
        if link is not None:
            link.close()
        if self._on_unreachable is not None:
            self._on_unreachable(peer_id)

    def close(self) -> None:
        """Close every link, and each one dialed from now on."""
        with self._links_lock:
            self._closed = True
            links, self._links = list(self._links.values()), {}
        for link in links:
            link.close()

    # ------------------------------------------------------------------ #
    # Ingress side (this process holds the client's connection)
    # ------------------------------------------------------------------ #
    def start(self, conn, messages: list[dict], resume, submit=None) -> None:
        """DVServer ``route_start`` hook, on the I/O thread: forward one
        client's consecutive ops for a context not registered locally (a
        run — usually of one) and ``resume(data)`` on the I/O thread with
        their reply frames, joined (None: the connection must close).
        ``submit`` takes the run's blocking steps instead of the pool:
        a worker that waits for ``resume`` runs them itself, so waiting
        workers cannot starve the pool of the steps they wait on."""
        def done(settled) -> None:
            data = None
            if settled is not None:
                try:
                    attached = self.track(conn.client_id, messages, settled, conn)
                    for context in attached:
                        # The client left while its attach crossed: nobody
                        # else finalizes what it left behind at the owner.
                        self._finalize(conn.client_id, context)
                    data = self._replies(conn, messages, settled)
                except Exception:
                    pass  # a bug: the connection goes, not the loop or the link
            resume(data)

        self.forward(conn.client_id, messages, done, submit)

    def _finalize(self, client_id: str, context: str) -> None:
        """Best effort: the owner's own drop hook backs it up."""
        self.forward(client_id, [{"op": "finalize", "context": context}], _ignore)

    def _replies(self, conn, messages, settled) -> bytes:
        """The reply frames a run's settled slots make for the client."""
        trace = getattr(conn, "trace", False)
        frames = []
        for message, (frame, note, _owner) in zip(messages, settled):
            tc = message.get("tc") if trace else None
            if frame is None or tc is not None:
                # Failed here; or traced for a client that negotiated
                # tracing, whose reply carries the request's tc — the
                # owner cannot know that, so the frame is made here.
                frame = reply_frame(
                    message, note if frame is None else reply_payloads(frame)[0], tc
                )
            frames.append(frame)
        return b"".join(frames)

    def forward(self, client_id: str, messages: list[dict], done, submit=None) -> None:
        """On the I/O thread: route a run (:meth:`_forwarding`) and
        ``done(settled)`` once, on the I/O thread, with its answer — None
        when a bug ended it; a SimFS error fails every slot with it."""
        def finished(settled) -> None:
            if isinstance(settled, SimFSError):
                error = {"error": int(settled.code), "detail": str(settled)}
                settled = [(None, error, None)] * len(messages)
            done(None if isinstance(settled, Exception) else settled)

        self._drive(self._forwarding(client_id, messages), finished, submit or self._submit)

    def _drive(self, gen, done, submit, value=None, error=None) -> None:
        """Resume the continuation ``gen`` — a forward, a replay — on the
        I/O thread, sending it ``value`` (or throwing ``error`` in) until
        it waits on what it yields, which resumes it in turn:
        ``(_WORK, fn, *args)`` runs ``fn`` on a worker (``submit``), one
        job, and resumes it with the result (or throws in what ``fn``
        raised); ``(_AT, seconds)`` resumes it on a timer; ``(_SEND,
        link, frame)`` starts the request on ``link`` and resumes it with
        the reply, or the exception that ended the request.  ``done``
        gets what ``gen`` returns, or the exception that ended it."""
        try:
            want = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            done(stop.value)
            return
        except Exception as exc:
            done(exc)
            return
        if want[0] is _WORK:
            submit(self._work, gen, done, submit, *want[1:])
        elif want[0] is _AT:
            self._loop.call_at(self._loop.time() + want[1], self._drive, gen, done, submit)
        else:
            def on_reply(reply) -> None:
                if isinstance(reply, Exception):  # maybe off the loop
                    self._loop.call_soon(self._drive, gen, done, submit, reply)
                else:
                    self._drive(gen, done, submit, reply)

            try:
                want[1].start(want[2], self.rpc_timeout, on_reply)
            except (DVConnectionLost, ProtocolError) as exc:  # nothing was sent
                self._drive(gen, done, submit, exc)

    def _work(self, gen, done, submit, fn, *args) -> None:
        """On a worker: one blocking step of a continuation."""
        try:
            value, error = fn(*args), None
        except Exception as exc:
            value, error = None, exc
        self._loop.call_soon(self._drive, gen, done, submit, value, error)

    def _forwarding(self, client_id: str, messages: list[dict]):
        """Route a run to the context's current owner, riding out owner
        death, a dial back-off window, activation lag on a new owner and
        a lost attachment inside one ``rpc_timeout`` deadline: a
        continuation for :meth:`_drive`.  The unsettled slots cross the
        hop together, in order, as one frame; each settles on its own
        answer and only the rest are re-sent.
        Returns one ``(frame, note, owner)`` per slot: the reply frame the
        client reads (None when the slot failed here: then ``note`` is the
        payload), what the reply says when it is not a plain success (else
        None), and the peer that actually served it — what :meth:`track`
        must record, not a re-derived lookup: the ring may already have
        moved on, and a wait recorded against the wrong, still-live owner
        would never be replayed."""
        context = messages[0].get("context")
        deadline = self._loop.time() + self.rpc_timeout
        settled: list = [None] * len(messages)
        todo = list(range(len(messages)))  # unsettled slots, in order
        width = len(messages)  # slots per frame: all, or one past the limit

        def settle(slots, payload, owner):
            for slot in slots:
                settled[slot] = (None, dict(payload), owner)

        while todo:
            sent = todo[:width]
            found = None if self._peek is None else self._peek(context)
            owner, serves = found or (yield _WORK, self._resolve, context)
            if owner is None:
                settle(todo, {
                    "error": int(ErrorCode.ERR_CONTEXT),
                    "detail": f"no live owner serves context {context!r}",
                }, None)
                break
            if owner == self.self_id:
                frames = yield _WORK, self.run_local, client_id, [
                    messages[slot] for slot in todo
                ]
                for slot, frame in zip(todo, frames):
                    settled[slot] = (frame, reply_payloads(frame)[0], owner)
                break
            outcome = yield from self._round_trip(
                owner, client_id, [messages[slot] for slot in sent]
            )
            if isinstance(outcome, PeerTimeout):
                # Slow, not dead: exiling a stalled owner (workers parked
                # on PFS I/O) would activate its contexts elsewhere while
                # it still serves them.  Report, fail the ops, keep the
                # link — and never re-send what may yet execute.
                if self._on_timeout is not None:
                    yield _WORK, self._on_timeout, owner
                settle(todo, _unreachable(owner, context, "timed out"), owner)
                break
            if isinstance(outcome, (DVConnectionLost, OSError)):
                if isinstance(outcome, DialBackingOff):
                    # No dial was made, so this says nothing about the
                    # peer: wait the window out, membership stays out of it.
                    pause = outcome.retry_in
                else:
                    # Membership (on_unreachable) moves the context.
                    yield _WORK, self.link_down, owner
                    pause = 0.02
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    settle(todo, _unreachable(owner, context, "is unreachable"), owner)
                    break
                yield _AT, min(pause, remaining)
                continue
            if isinstance(outcome, ProtocolError):
                # Nothing was sent: the frame would pass the wire's size
                # limit.  A run goes as frames of one; a single op that
                # large fails on its own.
                if len(sent) > 1:
                    width = 1
                    continue
                outcome = [None], {0: {"error": int(outcome.code), "detail": str(outcome)}}
            frames, notes = outcome
            # Every slot takes its answer; the ones an error says to
            # retry stay in the run and are overwritten by the next one.
            for slot, frame in zip(sent, frames):
                settled[slot] = (frame, None, owner)
            lagging: list[int] = []
            detached: list[int] = []
            for idx, note in notes.items():
                slot = sent[idx]
                settled[slot] = (frames[idx], note, owner)
                if self._loop.time() >= deadline:
                    continue
                why = self._retry(client_id, messages[slot], note, serves)
                if why is _LAGGING:
                    lagging.append(slot)
                elif why is _DETACHED:
                    detached.append(slot)
            if lagging:
                # The owner has not activated the context yet (its view
                # of the change lags ours) — give it a beat.
                yield _AT, 0.05
            if detached and not (yield from self._attaching(client_id, context)):
                detached = []
            # Else the context moved before a replay re-registered this
            # client with the new owner; it is attached now.
            todo = sorted(lagging + detached) + todo[len(sent):]
        return settled

    def _round_trip(self, owner: str, client_id: str, messages: list[dict]):
        """One ``fwd`` carrying ``messages`` as a packed run, on the cached
        link or one dialed on a worker: the unpacked answer, or the
        exception it came to.  A traced run's ``fwd`` span is recorded as
        the reply lands."""
        with self._links_lock:
            link = self._links.get(owner)
        try:
            if link is None or link.closed:
                link = yield _WORK, self.link, owner
            frame = self._pack(client_id, messages)
        except (DVConnectionLost, OSError, ProtocolError) as exc:
            return exc
        traced = "tc" in frame and self._obs is not None
        began = self._obs.now() if traced else 0.0
        reply = yield _SEND, link, frame
        if isinstance(reply, Exception):
            return reply
        if traced:
            self._obs.record(
                "fwd", frame["tc"], began, self._obs.now(), op=messages[0]["op"],
                context=messages[0].get("context"), peer=owner,
            )
        return self._unpack(reply, len(messages))

    def _retry(self, client_id: str, message: dict, note: dict, serves: bool):
        """Why a slot answered with ``note`` is sent again before the
        deadline: the owner lags the ring (an unknown context the catalog
        says it serves) or lost the client's attachment — else None."""
        error = note.get("error")
        if not error:
            return None
        if error == int(ErrorCode.ERR_CONTEXT) and serves:
            return _LAGGING
        if (
            error == int(ErrorCode.ERR_INVALID)
            and DETAIL_NOT_ATTACHED in note.get("detail", "")
            and message.get("op") not in ("attach", "finalize")
            and message.get("context") in self._ingress_ctx.get(client_id, ())
        ):
            return _DETACHED
        return None

    def _pack(self, client_id: str, messages: list[dict]) -> dict:
        """The ``fwd`` frame carrying ``messages`` as a packed run."""
        self._m_fwd_sent.inc(len(messages))
        self._m_fwd_frames.inc()
        frame = pack_run(self.self_id, client_id, messages)
        tc = messages[0].get("tc")  # a traced op travels alone
        if parse_wire(tc) is not None:  # a malformed tc degrades to untraced
            # Hoisted onto the fwd frame itself, so the owner's dispatch
            # records an ``op.fwd`` span without unpacking the run.
            frame["tc"] = tc
        return frame

    @staticmethod
    def _unpack(reply: dict, count: int) -> tuple[list, dict[int, dict]]:
        """A ``fwd_reply`` to a run of ``count``: its reply frames (None
        where the owner refused the run whole) and, by position, what the
        not-plain replies say."""
        try:
            frames, marks = unpack_run_reply(reply, count)
            return frames, _notes(frames, marks)
        except ProtocolError:
            # The owner refused the run as a whole (or sent nonsense):
            # every slot fails the same way.
            return [None] * count, {slot: {
                "error": reply.get("error") or int(ErrorCode.ERR_PROTOCOL),
                "detail": reply.get("detail", "malformed fwd_reply"),
            } for slot in range(count)}

    def track(
        self, client_id: str, messages: list[dict], settled: list, conn=None
    ) -> list[str]:
        """Record ingress bookkeeping, per slot of :meth:`forward`'s
        answer, against the owner that served it.  When ``conn``, the
        client's connection, is closing — its drop hook may have run
        while the run crossed — no attachment or wait is recorded: the
        contexts it attached are returned, for the caller to finalize."""
        attached: list[str] = []
        with self._lock:
            gone = getattr(conn, "closing", False)
            for inner, (_frame, payload, owner) in zip(messages, settled):
                op = inner.get("op")
                if payload is None:
                    if op in ("open", "wclose") or not self._pending and op == "release":
                        continue  # a plain success that leaves nothing behind
                    payload = _PLAIN
                context = inner.get("context")
                # "Already attached" is attached: the owner still holds,
                # or restored, the client's attachment.
                failed = payload.get("error") and not (op == "attach" and _attached(payload))
                if failed or not isinstance(context, str) or owner is None:
                    continue
                if op == "attach":
                    if gone:
                        attached.append(context)
                    else:
                        self._ingress_ctx.setdefault(client_id, {})[context] = owner
                elif op == "finalize":
                    self._ingress_ctx.get(client_id, {}).pop(context, None)
                    self._forget_waits(lambda k: k[:2] == (client_id, context))
                elif op == "open" and not payload.get("available") and not gone:
                    self._pending[(client_id, context, inner.get("file"))] = owner
                elif op == "release":
                    self._pending.pop((client_id, context, inner.get("file")), None)
        return attached

    def _forget_waits(self, match: Callable[[tuple], bool]) -> None:
        for key in [k for k in self._pending if match(k)]:
            del self._pending[key]

    def _attaching(self, client_id: str, context: str):
        """Register a client with the context's current owner (a
        continuation): did it take?"""
        payload, owner = _answer((yield from self._forwarding(
            client_id, [{"op": "attach", "context": context}]
        )))
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
        """On the I/O thread: re-register displaced clients with the new
        owner and re-issue the opens the ownership change stranded — one
        continuation, its forwards one after another, in this order."""
        self._drive(
            self._replaying(list(reattaches), list(replays)), _ignore, self._submit
        )

    def _replaying(self, reattaches, replays):
        seen: set[tuple[str, str]] = set()
        for client_id, context in reattaches:
            if (client_id, context) not in seen:
                seen.add((client_id, context))
                yield from self._attaching(client_id, context)
        for client_id, context, filename in replays:
            if (client_id, context) not in seen:
                seen.add((client_id, context))
                if not (yield from self._attaching(client_id, context)):
                    self._ready_sink(Notification(client_id, context, filename, ok=False))
                    continue
            payload, owner = _answer((yield from self._forwarding(
                client_id, [{"op": "open", "context": context, "file": filename}]
            )))
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

    # ------------------------------------------------------------------ #
    # Owner side (a peer forwarded a client op here)
    # ------------------------------------------------------------------ #
    def on_fwd(self, conn, message: dict) -> dict | None:
        """Server op ``fwd``: execute a peer's forwarded run here, in
        order, or take delivery of a ``ready`` a peer routed to us.
        Never raises: what cannot be executed is answered, in the slot it
        came in or, refused whole, as one ``ERR_PROTOCOL`` ``fwd_reply``
        (a one-way frame, which nobody waits on, is dropped)."""
        try:
            if "run" not in message:
                _origin, client_id, inner = unwrap_fwd(message)
                if inner["op"] != "ready":
                    raise ProtocolError("a fwd carries a run or a routed ready")
                self._m_fwd_recv.inc()
                self.deliver_routed_ready(client_id, inner)
                return None
            origin, client_id, messages = unpack_run(message)
        except ProtocolError as exc:
            if message.get("req") is None:
                return None
            return {"op": OP_FWD_REPLY, "error": int(exc.code), "detail": str(exc)}
        self._m_fwd_recv.inc(len(messages))
        return {"op": OP_FWD_REPLY, "run": b"".join(
            self.run_local(client_id, messages, conn, origin)
        )}

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
        one call.  Returns their reply frames."""
        with self._lock:
            proxy = self._proxies.get(client_id)
            if proxy is None:
                proxy = self._proxies[client_id] = _ProxyClient(client_id)
            if conn is not None:
                proxy.origin, proxy.conn = origin, conn
            proxy.inflight += 1
        frames: list[bytes] = []
        try:
            frames = self._execute_local(proxy, messages)
        finally:
            with self._lock:
                proxy.inflight -= 1
                for inner, frame in zip(messages, frames):
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
        return frames

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
            # name; the dead owner held the connection): the origin's
            # ``fwd`` handler delivers to the real client.  A cached link
            # sends at once; a dial waits, so it goes to a worker (readies
            # fan out from the event loop).
            with self._links_lock:
                link = self._links.get(proxy.origin)
            if link is not None and not link.closed:
                self._ready_to_origin(proxy.origin, frame, link)
            else:
                self._submit(self._ready_to_origin, proxy.origin, frame)

    def _ready_to_origin(self, origin: str, frame: dict, link=None) -> None:
        """Send a routed ready to the client's ingress ``origin`` on
        ``link``, or on the link :meth:`link` dials."""
        try:
            (link or self.link(origin)).send(frame)
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
            self._loop.call_soon(self._finalize, client_id, context)
        with self._lock:
            # The connection was here, so a proxy here is a leftover of
            # self-owned execution or a restore, not a route to anywhere —
            # unless a peer forwards for the same client id (one that
            # dialled this owner directly, lost that channel and came back
            # through a gateway): that record is the peer's to finalize.
            proxy = self._proxies.get(client_id)
            if proxy is not None and proxy.conn is None:
                del self._proxies[client_id]
