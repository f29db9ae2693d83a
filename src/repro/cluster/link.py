"""Peer-to-peer link: one DV daemon talking to another's wire port.

A :class:`PeerLink` is the client half of a node-to-node connection.  It
speaks the same wire protocol as DVLib (a hello line, then binary
frames), identifies itself with a ``node:<id>`` client id, and carries
the three cluster ops:

* request/reply — ``fwd`` → ``fwd_reply`` (gateway forwarding) and
  ``gossip`` → ``reply`` (membership exchange), matched by ``req``;
* unsolicited — incoming ``fwd`` frames *from* the peer (the owner
  routing a ``ready`` notification back through this link's server side)
  are handed to the ``on_fwd`` callback.

A dead link fails every outstanding call with
:class:`~repro.core.errors.DVConnectionLost` and fires ``on_down`` once;
the owning :class:`~repro.cluster.node.ClusterNode` treats that as hard
evidence against the peer and re-dials lazily if it ever comes back.

Maintenance note: the dial/handshake/listener bootstrap here mirrors
``TcpConnection._connect``/``_listen`` in :mod:`repro.client.dvlib` —
a wire-protocol change (e.g. a new hello field) must land in both.
"""

from __future__ import annotations

import itertools
import queue
import random
import socket
import threading
import time
from collections.abc import Callable

from repro.core.errors import DVConnectionLost, SimFSError
from repro.dv.protocol import (
    CODEC_BINARY,
    PROTOCOL_VERSION,
    MessageReader,
    encode_binary,
    send_message,
)

__all__ = ["DialBackingOff", "DialBackoff", "PeerLink", "PeerTimeout"]


class DialBackoff:
    """Capped exponential backoff with jitter for peer re-dials.

    A dead peer used to be re-dialed in a tight loop: every gossip round
    and every ``_link_to`` miss paid a fresh connect attempt (instant
    ``ECONNREFUSED`` on a crashed-but-routable host, a full connect
    timeout on a black-holed one).  This gate spaces attempts out per
    peer — delays double from ``base`` up to ``cap``, with up to
    ``jitter`` fractional random extension so a cluster of survivors does
    not re-dial a rebooting peer in lockstep — and forgets a peer
    entirely on the first successful dial.

    Thread-safe; ``now`` parameters exist for deterministic tests.
    """

    def __init__(
        self,
        base: float = 0.5,
        cap: float = 30.0,
        jitter: float = 0.5,
        seed: int | None = None,
    ) -> None:
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        # peer_id -> (consecutive failures, earliest next attempt)
        self._state: dict[str, tuple[int, float]] = {}

    def ready(self, peer_id: str, now: float | None = None) -> bool:
        """May we dial this peer now?"""
        return self.remaining(peer_id, now) <= 0.0

    def remaining(self, peer_id: str, now: float | None = None) -> float:
        """Seconds until this peer may be dialed again (0 when ready)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            entry = self._state.get(peer_id)
            return 0.0 if entry is None else max(0.0, entry[1] - now)

    def failures(self, peer_id: str) -> int:
        with self._lock:
            entry = self._state.get(peer_id)
            return entry[0] if entry is not None else 0

    def failed(self, peer_id: str, now: float | None = None) -> float:
        """Record a failed dial; returns the delay until the next try."""
        now = time.monotonic() if now is None else now
        with self._lock:
            fails = self._state.get(peer_id, (0, 0.0))[0] + 1
            delay = min(self.cap, self.base * (1 << min(fails - 1, 30)))
            delay *= 1.0 + self.jitter * self._rng.random()
            self._state[peer_id] = (fails, now + delay)
            return delay

    def succeeded(self, peer_id: str) -> None:
        """A dial got through: drop all backoff state for the peer."""
        with self._lock:
            self._state.pop(peer_id, None)


class PeerTimeout(DVConnectionLost):
    """The peer did not answer within the RPC timeout.

    Distinct from a torn connection on purpose: a slow peer (workers
    parked on PFS I/O) is *not* hard death evidence — callers feed this
    into the graded ``heartbeat_missed`` path instead of an instant
    ``link_failed`` verdict, so a stall cannot split ring ownership."""


class DialBackingOff(DVConnectionLost):
    """No verdict on the peer, try again in ``retry_in`` seconds: its
    :class:`DialBackoff` window is still open and no dial was attempted,
    or a dial failed during the join phase, when the peer may simply not
    be listening yet.

    Says nothing new about the peer's health (the refused dial that
    opened a heartbeat-scale window was already reported by whoever made
    it), so callers wait the window out, or give up at their own
    deadline, and never feed it to the membership table."""

    def __init__(self, peer_id: str, retry_in: float) -> None:
        super().__init__(
            f"peer {peer_id!r} dial is backing off for {retry_in:.2f}s"
        )
        self.retry_in = retry_in


class PeerLink:
    """Outbound connection from one cluster node to a peer daemon."""

    def __init__(
        self,
        self_id: str,
        peer_id: str,
        host: str,
        port: int,
        on_fwd: Callable[[dict], None] | None = None,
        on_down: Callable[[str], None] | None = None,
        connect_timeout: float = 5.0,
        path: str | None = None,
    ) -> None:
        self.self_id = self_id
        self.peer_id = peer_id
        self._on_fwd = on_fwd
        self._on_down = on_down
        self._reqs = itertools.count(1)
        self._waiters: dict[int, queue.Queue] = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._closed = False
        try:
            if path is not None:
                # Same-host peering (multi-core executors): a Unix-domain
                # stream socket carries the identical wire protocol.
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(connect_timeout)
                self._sock.connect(path)
            else:
                self._sock = socket.create_connection(
                    (host, port), timeout=connect_timeout
                )
        except OSError as exc:
            where = path if path is not None else f"{host}:{port}"
            raise DVConnectionLost(
                f"cannot reach peer {peer_id!r} at {where}: {exc}"
            ) from exc
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        # Peers propagate trace contexts on forwarded frames; asking for
        # tracing here lets the peer send traced binary kinds back.
        hello = {"op": "hello", "req": 0, "client_id": f"node:{self_id}",
                 "vers": PROTOCOL_VERSION, "codec": CODEC_BINARY, "trace": 1}
        # ``connect_timeout`` stays on the socket until the reply line is
        # read: a wedged peer's backlog still completes the TCP connect.
        try:
            send_message(self._sock, hello)
            reader = MessageReader(self._sock)
            reply = reader.read_message()
        except (OSError, SimFSError) as exc:
            self._abandon()
            raise DVConnectionLost(
                f"peer {peer_id!r} handshake failed: {exc}"
            ) from exc
        if (
            reply is None or reply.get("error")
            or reply.get("codec") != CODEC_BINARY
        ):
            self._abandon()
            raise DVConnectionLost(
                f"peer {peer_id!r} rejected the hello: {reply!r}"
            )
        self._sock.settimeout(None)
        reader.set_codec(CODEC_BINARY)
        self._reader = reader
        self._listener = threading.Thread(
            target=self._listen,
            name=f"peerlink-{self_id}-{peer_id}",
            daemon=True,
        )
        self._listener.start()

    # ------------------------------------------------------------------ #
    def _listen(self) -> None:
        try:
            while not self._closed:
                message = self._reader.read_message()
                if message is None:
                    break
                op = message.get("op")
                if op == "fwd":
                    # Unsolicited: the peer routing a notification to a
                    # client that entered the cluster through this node.
                    if self._on_fwd is not None:
                        try:
                            self._on_fwd(message)
                        except Exception:
                            pass  # routing must not kill the link
                elif "req" in message:
                    with self._lock:
                        waiter = self._waiters.pop(message["req"], None)
                    if waiter is not None:
                        waiter.put(message)
        except Exception:
            pass  # a frame this code cannot digest loses the link too
        finally:
            # However the loop ended — EOF, a torn socket, a malformed
            # frame — nobody reads this link any more: close it before
            # failing the calls in flight, so one racing in fails on its
            # send instead of waiting out its timeout.
            lost = not self._closed
            self.close()
            self._fail_outstanding()
            if lost and self._on_down is not None:
                self._on_down(self.peer_id)

    def _fail_outstanding(self) -> None:
        with self._lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter.put(None)

    # ------------------------------------------------------------------ #
    def call(self, message: dict, timeout: float = 10.0) -> dict:
        """Request/reply round trip; raises :class:`DVConnectionLost` when
        the link dies or the peer stops answering."""
        if self._closed:
            raise DVConnectionLost(f"link to {self.peer_id!r} is closed")
        req = next(self._reqs)
        message = dict(message)
        message["req"] = req
        waiter: queue.Queue = queue.Queue(maxsize=1)
        with self._lock:
            self._waiters[req] = waiter
        try:
            self.send(message)
            reply = waiter.get(timeout=timeout)
        except queue.Empty:
            raise PeerTimeout(
                f"peer {self.peer_id!r} did not answer within {timeout}s"
            ) from None
        finally:
            with self._lock:
                self._waiters.pop(req, None)
        if reply is None:
            raise DVConnectionLost(f"link to {self.peer_id!r} died mid-call")
        return reply

    def send(self, message: dict) -> None:
        """One-way frame (no reply expected)."""
        data = encode_binary(message)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            raise DVConnectionLost(
                f"link to {self.peer_id!r} died on send: {exc}"
            ) from exc

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._abandon()

    def _abandon(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
