"""The event loop's surface on a virtual clock, for tests.

:class:`VirtualLoop` stands in for :class:`~repro.dv.loop.EventLoop`
wherever a component only needs the loop's clock, timers, hand-offs and
worker pool (the launcher's re-simulation chains, the router's forwarded
runs): timers and hand-offs run in time order, the clock jumping to
each, and a worker job is a hand-off too.  Nothing runs until
:meth:`VirtualLoop.run`, and no thread is involved.
"""

import heapq
import itertools


class VirtualLoop:
    """Timers, hand-offs and jobs, run in time order on a virtual clock.
    ``delays`` lists how far ahead each timer was set (0 for a hand-off
    is not listed) and each :meth:`sleep`; ``jobs`` counts what was
    submitted to the pool."""

    running = True

    def __init__(self):
        self.now = 0.0
        self.delays = []
        self.jobs = 0
        self._timers = []
        self._seq = itertools.count()

    def time(self):
        return self.now

    def on_io_thread(self):
        return True

    def call_at(self, when, fn, *args):
        if when > self.now:
            self.delays.append(when - self.now)
        heapq.heappush(self._timers, (when, next(self._seq), fn, args))

    def call_soon(self, fn, *args):
        self.call_at(self.now, fn, *args)

    def submit(self, fn, *args):
        self.jobs += 1
        self.call_soon(fn, *args)

    def sleep(self, seconds):
        """A blocking wait, as ``time.sleep``: the clock moves on."""
        self.delays.append(seconds)
        self.now += seconds

    def run(self):
        while self._timers:
            when, _seq, fn, args = heapq.heappop(self._timers)
            self.now = max(self.now, when)
            fn(*args)
