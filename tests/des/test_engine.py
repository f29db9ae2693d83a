"""Tests for the discrete-event engine."""

import threading

import pytest

from repro.core.errors import InvalidArgumentError
from repro.des import DESEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = DESEngine()
        fired = []
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        engine = DESEngine()
        fired = []
        for tag in "abc":
            engine.schedule(1.0, lambda t=tag: fired.append(t))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = DESEngine()
        seen = []
        engine.schedule(5.5, lambda: seen.append(engine.now()))
        engine.run()
        assert seen == [5.5]
        assert engine.now() == 5.5

    def test_events_scheduled_during_run(self):
        engine = DESEngine()
        fired = []

        def first():
            fired.append(("first", engine.now()))
            engine.schedule(2.0, lambda: fired.append(("second", engine.now())))

        engine.schedule(1.0, first)
        engine.run()
        assert fired == [("first", 1.0), ("second", 3.0)]

    def test_call_at_absolute(self):
        engine = DESEngine()
        seen = []
        engine.schedule(1.0, lambda: None)
        engine.run()
        engine.call_at(10.0, lambda: seen.append(engine.now()))
        with pytest.raises(InvalidArgumentError):
            engine.call_at(0.5, lambda: None)
        engine.run()
        assert seen == [10.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DESEngine().schedule(-1.0, lambda: None)


class TestLoopSurface:
    """What the launcher and the router use of the node's event loop."""

    def test_a_hand_off_runs_after_what_is_due_now(self):
        engine = DESEngine()
        fired = []

        def first():
            engine.call_soon(fired.append, "soon")
            engine.submit(fired.append, "job")
            engine.call_at(engine.time() + 1.0, fired.append, "later")

        engine.schedule(1.0, first)
        engine.schedule(1.0, fired.append, "tie")
        engine.run()
        assert fired == ["tie", "soon", "job", "later"]
        assert engine.time() == 2.0

    def test_everything_runs_on_the_callers_thread(self):
        engine = DESEngine()
        threads = []
        before = threading.active_count()
        engine.submit(lambda: threads.append(threading.get_ident()))
        engine.call_soon(lambda: threads.append(threading.get_ident()))
        assert engine.running and engine.on_io_thread()
        engine.run()
        assert threads == [threading.get_ident()] * 2
        assert threading.active_count() == before


class TestRunBounds:
    def test_run_until(self):
        engine = DESEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now() == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_runaway_guard(self):
        engine = DESEngine()

        def reschedule():
            engine.schedule(0.1, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError):
            engine.run(max_events=1000)

    def test_determinism(self):
        def run_once():
            engine = DESEngine()
            out = []
            engine.schedule(2.0, lambda: out.append(("a", engine.now())))
            engine.schedule(2.0, lambda: out.append(("b", engine.now())))
            engine.schedule(1.0, lambda: engine.schedule(0.5, lambda: out.append(("c", engine.now()))))
            engine.run()
            return out

        assert run_once() == run_once()
