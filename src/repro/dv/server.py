"""The DV daemon's shell: the control port around the connection core
(Sec. III).

:class:`DVServer` puts the core (:mod:`repro.dv.core`) on the network,
on the node's one :class:`~repro.dv.loop.EventLoop` (``loop``, which a
node's data port shares); it owns no thread of its own.  The loop's
**I/O thread** hands what each ``recv`` returns to
:meth:`~repro.dv.core.DVCore.feed` and brings each connection's socket
in line with its state (:meth:`DVServer._reconcile`); its **worker
pool** runs the drains the core takes off the loop, and disconnect
cleanup.  Any thread — a worker, a notifier fanning out ``ready`` —
writes straight to a connection whose output buffer is clear; otherwise
it hands the connection to the loop, and the buffered frames leave
together in one ``send``.

The daemon is also usable in-process via :meth:`DVServer.start` /
:meth:`DVServer.stop` — integration tests and the examples run it that
way on an ephemeral localhost port.  ``python -m repro.dv.daemon`` runs
one from a config file.
"""

from __future__ import annotations

import os
import selectors
import socket
import time

from repro.dv.core import _OUTBUF_HIGH, DVCore, _ClientConn
from repro.dv.loop import EventLoop

__all__ = ["DVServer"]

_RECV_SIZE = 65536

#: Hard cap on a connection's queued output.  Read-side backpressure
#: (``paused``) only throttles a peer's *requests*; server-initiated
#: fan-out (``ready`` notifications) keeps landing in ``outbuf`` no matter
#: how slowly the peer reads.  A connection that lets its backlog grow
#: past this is stalled or dead and gets disconnected instead of growing
#: the buffer without bound.
_OUTBUF_HARD = 4 * _OUTBUF_HIGH


class DVServer(DVCore):
    """TCP Data Virtualizer daemon on the node's event loop."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
    ) -> None:
        super().__init__()
        self._bind = (host, port)
        #: The node's one event loop: this control port and its data port.
        self.loop = EventLoop(workers or max(2, min(8, os.cpu_count() or 2)))
        #: Re-simulations are timer chains on it once it runs.
        self.launcher.loop = self.loop
        self._handlers["stats"] = self._op_stats
        self._listener: socket.socket | None = None
        self._m_slow_close = self.metrics.counter("wire.slow_disconnects")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the daemon listens on; valid after :meth:`start`."""
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        """Bind, listen, and start the loop's threads."""
        self._listener = socket.create_server(self._bind)
        self.loop.listen(self._listener, self._accepted)
        self.loop.start()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight work, and close every client.

        Graceful teardown: new connections stop first, then running
        re-simulations report their last files, the worker
        pool finishes the queued messages, and every per-connection
        coalescing writer is flushed — a ``ready`` notification or reply
        already produced (or about to be, by an in-flight simulation) is
        delivered instead of dropped with the socket.  ``drain_timeout``
        bounds the whole wait; pass ``0`` for an abrupt teardown (what a
        crash looks like to clients and cluster peers).
        """
        if self._listener is not None:
            self.loop.unlisten(self._listener)
            if drain_timeout > 0:
                self._drain_for_stop(drain_timeout)
        self.loop.stop()
        self.launcher.close()
        with self._clients_lock:
            conns = list(self._clients.values())
            self._clients.clear()
        for conn in conns:
            self.loop.drop(conn.sock)

    def _drain_for_stop(self, timeout: float) -> None:
        """Best-effort quiesce before teardown: wait until running
        re-simulations have reported (their ready notifications are what
        clients block on), every drain has finished and every output
        buffer is empty (the I/O machinery keeps running throughout)."""
        deadline = time.monotonic() + timeout
        # The slow part first, event-driven: block on the launcher's idle
        # signal while in-flight re-simulations finish, instead of
        # spinning the poll loop below at 5ms for their whole runtime.
        self.launcher.wait_idle(timeout)
        while time.monotonic() < deadline:
            with self._clients_lock:
                conns = list(self._clients.values())
            if (
                self.loop.work.empty()
                and self.launcher.running_threads == 0
                and not any(
                    c.busy or c.inbox or c.outbuf for c in conns if not c.closing
                )
            ):
                return
            time.sleep(0.005)

    # ------------------------------------------------------------------ #
    # On the loop's I/O thread
    # ------------------------------------------------------------------ #
    def _accepted(self, sock: socket.socket) -> None:
        self._reconcile(_ClientConn(sock))

    def _read(self, conn: _ClientConn) -> None:
        try:
            chunk = conn.sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if chunk:
            self.feed(conn, chunk)
        else:
            self._close(conn)  # end of stream, or reset
        self._reconcile(conn)

    def _reconcile(self, conn: _ClientConn) -> None:
        """Bring ``conn``'s socket in line with its state — the one place
        that does, on the loop thread: tear a closing connection down;
        else send what its buffer holds, pace it (``_pace``) and register
        the interest that leaves — reading unless paused, writing while
        output is left."""
        with conn.lock:
            conn.queued = False
            if conn.outbuf and not conn.closing:
                try:
                    del conn.outbuf[:conn.sock.send(conn.outbuf)]
                except BlockingIOError:
                    pass
                except OSError:
                    conn.closing = True
            self._pace(conn)
            mask = (0 if conn.paused else selectors.EVENT_READ) | (
                selectors.EVENT_WRITE if conn.outbuf else 0
            )
        if conn.closing:
            self._teardown(conn)
        elif mask != conn.sel_mask:
            conn.sel_mask = self.loop.watch(
                conn.sock, conn.sel_mask, mask, (self._read, self._reconcile, conn)
            )

    def _teardown(self, conn: _ClientConn) -> None:
        """The socket and selector entry go away now; the shard-side
        cleanup (which may evict and delete files on bounded areas) runs
        on the worker pool.  The client_id stays reserved until that
        cleanup finishes, so a reconnect cannot race its own teardown."""
        if conn.closed:
            return
        conn.closed = True
        conn.sel_mask = self.loop.drop(conn.sock, conn.sel_mask)
        if conn.client_id is not None or conn.contexts:
            self.loop.submit(self._drop_client, conn)

    # ------------------------------------------------------------------ #
    # What the core asks of the shell
    # ------------------------------------------------------------------ #
    def _schedule(self, conn: _ClientConn) -> None:
        self.loop.submit(self.drain, conn)

    def _handoff(self, conn: _ClientConn) -> None:
        """Have the loop thread reconcile ``conn`` — the one way another
        thread reaches it: one hand-off, one wake-up until it has looked."""
        with conn.lock:
            if conn.queued:
                return
            conn.queued = True
        self.loop.call_soon(self._reconcile, conn)

    def _deliver(self, conn: _ClientConn, data: bytes) -> None:
        """Write ``data`` to ``conn`` from any thread: straight to the
        socket when its buffer is clear (no wake-up, no extra hop), else
        behind the backlog; what is left over, or a failure, is handed to
        the loop thread."""
        with conn.lock:
            if conn.closing:
                return
            if conn.outbuf:
                conn.outbuf += data
                if len(conn.outbuf) >= _OUTBUF_HARD:
                    # Fan-out to a peer that stopped reading: cut it loose
                    # rather than buffer without bound (read-side pause
                    # cannot help here — the bytes are server-initiated).
                    self._m_slow_close.inc()
                    conn.closing = True
            else:
                try:
                    sent = conn.sock.send(data)
                except BlockingIOError:
                    sent = 0
                except OSError:
                    sent = len(data)  # dropped with the connection
                    conn.closing = True
                if sent < len(data):
                    conn.outbuf += memoryview(data)[sent:]
            if not (conn.outbuf or conn.closing):
                return
        self._handoff(conn)

    def _op_stats(self, conn: _ClientConn, message: dict) -> dict:
        snapshot = self.coordinator.stats_snapshot()
        with self._clients_lock:
            snapshot["server"] = {
                "connected_clients": len(self._clients),
                "mode": "selector",
                "workers": self.loop.workers,
            }
        return {"stats": snapshot}
