"""Peer-to-peer link: one DV daemon talking to another's wire port.

A :class:`PeerLink` is the client half of a node-to-node connection: an
:class:`~repro.dv.channel.RpcChannel` (the multiplexer DVLib's
connections use too) that identifies itself with a ``node:<id>`` client
id and carries the three cluster ops:

* request/reply — ``fwd`` → ``fwd_reply`` (gateway forwarding) and
  ``gossip`` → ``reply`` (membership exchange), matched by ``req``;
* unsolicited — incoming ``fwd`` frames *from* the peer (the owner
  routing a ``ready`` notification back through this link's server side)
  are handed to the ``on_fwd`` callback.

A cluster node's links are read and written by the node's event loop,
so no link holds a thread: a routed run's ``fwd`` is sent from the I/O
thread and its ``fwd_reply`` settled there (``start``), while gossip,
replication, migration, replays and the obs fan-out wait in ``call`` on
a worker.  A dead link fails every outstanding request with
:class:`~repro.core.errors.DVConnectionLost` and fires ``on_down`` once,
on a worker; the owning :class:`~repro.cluster.node.ClusterNode` treats
that as hard evidence against the peer and re-dials lazily if it ever
comes back.  :class:`DialBackoff` paces those re-dials, for peers and
for DVLib's owner connections alike.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable

from repro.core.errors import DVConnectionLost
from repro.dv.channel import ReplyTimeout, RpcChannel
from repro.dv.protocol import CODEC_BINARY, OP_FWD, PROTOCOL_VERSION

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


#: The peer did not answer within the RPC timeout.  A slow peer is *not*
#: hard death evidence: callers feed this into the graded
#: ``heartbeat_missed`` path instead of an instant ``link_failed``
#: verdict, so a stall cannot split ring ownership.
PeerTimeout = ReplyTimeout


class PeerLink(RpcChannel):
    """Outbound connection from one cluster node to a peer daemon: an
    :class:`~repro.dv.channel.RpcChannel` whose hello names the node and
    asks for tracing, and whose unsolicited frames are routed ``fwd``s.
    A node passes its event loop as ``loop``; without one the link reads
    on a thread of its own."""

    def __init__(
        self,
        self_id: str,
        peer_id: str,
        host: str,
        port: int,
        on_fwd: Callable[[dict], None] | None = None,
        on_down: Callable[[str], None] | None = None,
        connect_timeout: float = 5.0,
        loop=None,
    ) -> None:
        self.self_id = self_id
        self.peer_id = peer_id
        self._on_fwd = on_fwd
        # Peers propagate trace contexts on forwarded frames; asking for
        # tracing here lets the peer send traced binary kinds back.
        hello = {"op": "hello", "req": 0, "client_id": f"node:{self_id}",
                 "vers": PROTOCOL_VERSION, "codec": CODEC_BINARY, "trace": 1}
        super().__init__(
            host, port, hello,
            on_frame=self._unsolicited,
            on_down=None if on_down is None else lambda _link: on_down(peer_id),
            connect_timeout=connect_timeout,
            what=f"peer {peer_id!r}",
            loop=loop,
        )

    def _unsolicited(self, message: dict) -> None:
        # The peer routing a notification to a client that entered the
        # cluster through this node.
        if message.get("op") == OP_FWD and self._on_fwd is not None:
            try:
                self._on_fwd(message)
            except Exception:
                pass  # routing must not kill the link
