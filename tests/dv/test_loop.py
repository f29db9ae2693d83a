"""The node's event loop: hand-offs, timers, the worker pool, and a
stop that runs what was handed off last."""

import threading
import time

from repro.dv.loop import EventLoop


def test_hand_offs_timers_and_work_run_where_they_belong():
    loop = EventLoop(workers=2)
    loop.start()
    io = loop._io_thread
    seen, done = [], threading.Event()

    def on_loop(tag):
        assert threading.current_thread() is io
        seen.append(tag)

    def arm():  # timers are set from the loop thread
        now = time.monotonic()
        loop.call_at(now + 0.02, on_loop, "late")
        loop.call_at(now + 0.01, on_loop, "early")
        loop.call_at(now + 0.03, done.set)

    def on_worker():
        assert threading.current_thread() is not io
        loop.call_soon(on_loop, "from a worker")

    try:
        loop.call_soon(on_loop, "soon")
        loop.call_soon(arm)
        loop.submit(on_worker)
        assert done.wait(5.0)
    finally:
        loop.stop()
    assert seen[0] == "soon"
    assert [tag for tag in seen if tag in ("early", "late")] == ["early", "late"]
    assert "from a worker" in seen


def test_a_failing_handler_costs_its_own_event_only():
    loop = EventLoop(workers=1)
    loop.start()
    done = threading.Event()
    try:
        loop.call_soon(lambda: 1 / 0)
        loop.call_soon(done.set)
        assert done.wait(5.0)
        assert loop._io_thread.is_alive()
    finally:
        loop.stop()


def test_stop_runs_the_hand_offs_left_behind():
    """A hand-off that lands after the I/O thread has gone — a worker
    finishing late — still runs, on the stopping thread."""
    loop = EventLoop(workers=1)
    loop.start()
    io, ran = loop._io_thread, []

    def late():
        io.join()
        loop.call_soon(lambda: ran.append(threading.current_thread()))

    loop.submit(late)
    loop.stop()
    assert ran == [threading.current_thread()]
    loop.stop()  # a second stop is a no-op

