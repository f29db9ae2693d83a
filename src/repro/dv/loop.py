"""One event loop per node (Sec. III: one daemon serves both the control
requests and the bytes).

:class:`~repro.dv.server.DVServer` builds it and serves the control port
on it; a node's data port (:class:`~repro.data.server.DataServer`) is a
second handler.  A socket's selector data is its handler ``(on_read,
on_write, arg)``: a ready socket gets ``on_read(arg)`` when readable,
else ``on_write(arg)``.  Once the I/O thread runs, only it touches the
selector and the timers; any thread may ``call_soon`` and ``submit``.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import logging
import queue
import selectors
import socket
import threading
import time

__all__ = ["EventLoop"]

log = logging.getLogger("repro.dv.loop")


def _tune(sock: socket.socket) -> None:
    try:
        # Reply and ready frames are small; don't let Nagle's algorithm
        # sit on them.  Keepalive makes the server eventually notice
        # half-open peers, so their client_id (reserved against duplicate
        # hellos) frees up.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        # Default kernel keepalive idles for hours; probe after 60s so a
        # crashed client's reserved client_id frees up within ~2 minutes.
        if hasattr(socket, "TCP_KEEPIDLE"):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, 60)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPINTVL, 15)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPCNT, 4)
    except OSError:
        pass


class EventLoop:
    """One I/O thread (selector, wake-up pair, hand-offs, timers) and
    ``workers`` threads for blocking work."""

    def __init__(self, workers: int, name: str = "simfs-dv") -> None:
        self.workers = workers
        self.name = name
        self.selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)  # full: a wake-up is pending anyway
        self.watch(self._wake_r, 0, selectors.EVENT_READ, (self._drain_wake, None, None))
        #: Blocking work: ``(fn, args)``, or ``None`` to stop a worker.
        self.work: queue.SimpleQueue = queue.SimpleQueue()
        self._soon: collections.deque = collections.deque()  # (fn, args)
        self._timers: list = []  # heap of (when, seq, fn, args)
        self._seq = itertools.count()
        self._threads: list[threading.Thread] = []
        self._io_thread: threading.Thread | None = None
        self._ident: int | None = None
        self._running = False

    def start(self) -> None:
        self._running = True
        self._io_thread = threading.Thread(
            target=self._run, name=f"{self.name}-io", daemon=True
        )
        self._threads = [
            threading.Thread(target=self._work, name=f"{self.name}-worker-{idx}", daemon=True)
            for idx in range(self.workers)
        ]
        for thread in (*self._threads, self._io_thread):
            thread.start()

    def stop(self) -> None:
        """Stop the I/O thread, then the workers; run on this thread the
        hand-offs they left (a late prepare closes its descriptor there);
        close the selector."""
        self._running = False
        self.call_soon(int)  # a no-op hand-off wakes the I/O thread
        if self._io_thread is not None:
            self._io_thread.join(timeout=10.0)
        for _ in self._threads:
            self.work.put(None)
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads, self._io_thread, self._ident = [], None, None
        while self._soon:
            fn, args = self._soon.popleft()
            try:
                fn(*args)
            except Exception:
                log.exception("hand-off failed at stop")
        self.selector.close()
        self._wake_r.close()
        self._wake_w.close()

    @property
    def running(self) -> bool:
        """Started and not yet stopped: its timers and hand-offs run."""
        return self._running

    @staticmethod
    def time() -> float:
        """The loop's clock: what :meth:`call_at` takes."""
        return time.monotonic()

    def on_io_thread(self) -> bool:
        """Is the caller the running I/O thread (which must never wait)?"""
        return threading.get_ident() == self._ident

    def call(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the I/O thread and wait for it; with no
        I/O thread running, run it here."""
        thread = self._io_thread
        if thread is None or not thread.is_alive() or thread.ident == threading.get_ident():
            fn(*args)
            return
        done = threading.Event()
        self.call_soon(lambda: (fn(*args), done.set()))
        done.wait(timeout=10.0)

    def call_soon(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the I/O thread after its current events;
        from any other thread, with one wake-up."""
        self._soon.append((fn, args))
        if threading.get_ident() != self._ident:
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass

    def call_at(self, when: float, fn, *args) -> None:
        """Run ``fn(*args)`` on the I/O thread at ``time.monotonic()``
        ``when``; from the I/O thread only."""
        heapq.heappush(self._timers, (when, next(self._seq), fn, args))

    def submit(self, fn, *args) -> None:
        """Run ``fn(*args)`` on a worker."""
        self.work.put((fn, args))

    def listen(self, listener: socket.socket, on_accept) -> None:
        """Accept on the listening ``listener``: each connection goes,
        non-blocking, to ``on_accept(sock)`` on the I/O thread."""
        listener.setblocking(False)
        handler = (self._accept, None, (listener, on_accept))
        self.call(self.watch, listener, 0, selectors.EVENT_READ, handler)

    def unlisten(self, listener: socket.socket) -> None:
        """Stop accepting on ``listener`` and close it."""
        self.call(self.watch, listener, selectors.EVENT_READ, 0)
        listener.close()

    def watch(self, sock: socket.socket, old: int, new: int, handler=None) -> int:
        """Move ``sock``'s interest from ``old`` to ``new`` selector
        events (0: none), on the I/O thread; returns the one in effect."""
        if new != old:
            try:
                if not new:
                    self.selector.unregister(sock)
                elif not old:
                    self.selector.register(sock, new, handler)
                else:
                    self.selector.modify(sock, new, handler)
            except (KeyError, ValueError, OSError):
                return old
        return new

    def drop(self, sock: socket.socket, events: int = 0) -> int:
        """Unwatch ``sock`` (its interest was ``events``), shut it down
        both ways and close it; returns the interest left: none."""
        self.watch(sock, events, 0)
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or the peer reset it
        sock.close()
        return 0

    # ------------------------------------------------------------------ #
    # The threads
    # ------------------------------------------------------------------ #
    def _accept(self, entry) -> None:
        listener, on_accept = entry
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # none pending, or the listener closed
            sock.setblocking(False)
            _tune(sock)
            on_accept(sock)

    def _drain_wake(self, _arg: None) -> None:
        try:  # more than this: the next select comes straight back
            self._wake_r.recv(4096)
        except OSError:
            pass

    def _run(self) -> None:
        self._ident = threading.get_ident()
        select, soon, timers = self.selector.select, self._soon, self._timers
        read = selectors.EVENT_READ
        while self._running:
            timeout = 1.0  # stop wakes the loop
            if soon:
                timeout = 0.0
            elif timers:
                timeout = min(timeout, max(0.0, timers[0][0] - time.monotonic()))
            try:
                for key, mask in select(timeout):
                    on_read, on_write, arg = key.data
                    if mask & read:
                        on_read(arg)
                    else:
                        on_write(arg)
                now = time.monotonic()
                while timers and timers[0][0] <= now:
                    _when, _seq, fn, args = heapq.heappop(timers)
                    fn(*args)
                # What these hand off in turn waits one poll of the sockets.
                for _ in range(len(soon)):
                    fn, args = soon.popleft()
                    fn(*args)
            except Exception:
                # A handler's bug costs its own event, not the node's.
                log.exception("event loop handler failed")

    def _work(self) -> None:
        while (item := self.work.get()) is not None:
            fn, args = item
            try:
                fn(*args)
            except Exception:
                log.exception("worker task failed")
