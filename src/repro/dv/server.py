"""The DV daemon's shell: sockets and threads around the connection core
(Sec. III).

:class:`DVServer` puts the core (:mod:`repro.dv.core`) on the network.
**One I/O thread** multiplexes every client socket, the listener and a
wake-up pipe through :mod:`selectors`: it accepts, hands what each
``recv`` returns to :meth:`~repro.dv.core.DVCore.feed`, and brings each
connection's socket in line with its state (:meth:`DVServer._reconcile`).
**A small worker pool** runs the drains the core takes off the event
loop, and disconnect cleanup.  Any thread — a worker, a notifier fanning
out ``ready`` — writes straight to a connection whose output buffer is
clear; otherwise it hands the connection to the I/O thread through one
queue, and the buffered frames leave together in one ``send``.

The daemon is also usable in-process via :meth:`DVServer.start` /
:meth:`DVServer.stop` — integration tests and the examples run it that
way on an ephemeral localhost port.  ``python -m repro.dv.daemon`` runs
one from a config file.
"""

from __future__ import annotations

import collections
import os
import queue
import selectors
import socket
import threading
import time

from repro.dv.core import _OUTBUF_HIGH, DVCore, _ClientConn

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
    """TCP Data Virtualizer daemon (selector event loop + worker pool)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
    ) -> None:
        super().__init__()
        self._host = host
        self._port = port
        self._num_workers = workers or max(2, min(8, os.cpu_count() or 2))
        self._handlers["stats"] = self._op_stats
        self._listener: socket.socket | None = None
        self._io_thread: threading.Thread | None = None
        self._worker_threads: list[threading.Thread] = []
        self._work_queue: queue.SimpleQueue = queue.SimpleQueue()
        self._selector: selectors.DefaultSelector | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        #: Connections other threads handed to the I/O thread (_handoff).
        self._handed: collections.deque[_ClientConn] = collections.deque()
        self._running = False
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
        """Bind, listen, and serve clients on background threads."""
        self._listener = socket.create_server((self._host, self._port))
        self._listener.setblocking(False)
        self._running = True
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        for idx in range(self._num_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"simfs-dv-worker-{idx}", daemon=True
            )
            thread.start()
            self._worker_threads.append(thread)
        self._io_thread = threading.Thread(
            target=self._io_loop, name="simfs-dv-io", daemon=True
        )
        self._io_thread.start()

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
            try:
                self._listener.close()
            except OSError:
                pass
        if drain_timeout > 0 and self._running:
            self._drain_for_stop(drain_timeout)
        self._running = False
        self._wake()
        if self._io_thread is not None:
            self._io_thread.join(timeout=10.0)
        for _ in self._worker_threads:
            self._work_queue.put(None)
        for thread in self._worker_threads:
            thread.join(timeout=10.0)
        self._worker_threads.clear()
        with self._clients_lock:
            conns = list(self._clients.values())
            self._clients.clear()
        for conn in conns:
            self._shutdown_socket(conn.sock)

    def _drain_for_stop(self, timeout: float) -> bool:
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
                self._work_queue.empty()
                and self.launcher.running_threads == 0
                and not any(
                    c.busy or c.inbox or c.outbuf for c in conns if not c.closing
                )
            ):
                return True
            self._wake()
            time.sleep(0.005)
        return False

    def __enter__(self) -> "DVServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @staticmethod
    def _shutdown_socket(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    @staticmethod
    def _tune_socket(sock: socket.socket) -> None:
        try:
            # Reply and ready frames are small; don't let Nagle's
            # algorithm sit on them.  Keepalive makes the server
            # eventually notice half-open peers, so their client_id
            # (reserved against duplicate hellos) frees up.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            # Default kernel keepalive idles for hours; probe after 60s
            # so a crashed client's reserved client_id frees up within
            # ~2 minutes instead.
            if hasattr(socket, "TCP_KEEPIDLE"):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, 60)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPINTVL, 15)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPCNT, 4)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # The I/O thread
    # ------------------------------------------------------------------ #
    def _wake(self) -> None:
        if self._wake_w is None:
            return
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass

    def _io_loop(self) -> None:
        assert self._selector is not None
        try:
            while self._running:
                for key, mask in self._selector.select(timeout=1.0):
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    elif mask & selectors.EVENT_READ:
                        self._read(key.data)
                    else:
                        self._reconcile(key.data)
                while self._handed:  # only this thread takes from it
                    self._reconcile(self._handed.popleft())
        finally:
            try:
                self._selector.close()
            except OSError:
                pass
            for sock in (self._wake_r, self._wake_w):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass

    def _accept(self) -> None:
        assert self._selector is not None and self._listener is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # none pending, or the listener closed
            self._tune_socket(sock)
            sock.setblocking(False)
            conn = _ClientConn(sock)
            try:
                self._selector.register(sock, selectors.EVENT_READ, conn)
                conn.sel_mask = selectors.EVENT_READ
            except (KeyError, ValueError, OSError):
                self._shutdown_socket(sock)

    def _drain_wake(self) -> None:
        assert self._wake_r is not None
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

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
        that does, on the I/O thread: tear a closing connection down;
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
            return
        if mask == conn.sel_mask:
            return
        try:
            if mask == 0:
                self._selector.unregister(conn.sock)
            elif conn.sel_mask == 0:
                self._selector.register(conn.sock, mask, conn)
            else:
                self._selector.modify(conn.sock, mask, conn)
            conn.sel_mask = mask
        except (KeyError, ValueError, OSError):
            pass

    def _teardown(self, conn: _ClientConn) -> None:
        """The socket and selector entry go away now; the shard-side
        cleanup (which may evict and delete files on bounded areas) runs
        on the worker pool.  The client_id stays reserved until that
        cleanup finishes, so a reconnect cannot race its own teardown."""
        if conn.closed:
            return
        conn.closed = True
        if conn.sel_mask:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.sel_mask = 0
        self._shutdown_socket(conn.sock)
        if conn.client_id is not None or conn.contexts:
            self._work_queue.put(lambda: self._drop_client(conn))

    # ------------------------------------------------------------------ #
    # What the core asks of the shell
    # ------------------------------------------------------------------ #
    def _schedule(self, conn: _ClientConn) -> None:
        self._work_queue.put(conn)

    def _worker_loop(self) -> None:
        while (item := self._work_queue.get()) is not None:
            if callable(item):
                item()  # deferred cleanup (see _teardown)
            else:
                self.drain(item)

    def _handoff(self, conn: _ClientConn) -> None:
        """Have the I/O thread reconcile ``conn`` — the one way another
        thread reaches it: one queue, one wake-up until it has looked."""
        with conn.lock:
            if conn.queued:
                return
            conn.queued = True
        self._handed.append(conn)
        self._wake()

    def _deliver(self, conn: _ClientConn, data: bytes) -> None:
        """Write ``data`` to ``conn`` from any thread: straight to the
        socket when its buffer is clear (no wake-up, no extra hop), else
        behind the backlog; what is left over, or a failure, is handed to
        the I/O thread."""
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
                "workers": self._num_workers,
            }
        return {"stats": snapshot}
