"""Unit tests for the bandwidth scheduler: token bucket semantics, DRR
fairness, the strict-priority control lane, and max-min fair allocation."""

import pytest

from repro.data.scheduler import (
    PRIO_BULK,
    PRIO_CONTROL,
    BandwidthScheduler,
    TokenBucket,
    max_min_rates,
)


class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=50.0)
        assert bucket.available(0.0) == pytest.approx(50.0)
        bucket.consume(50.0, 0.0)
        # Ten seconds of refill would be 1000 tokens; burst caps it.
        assert bucket.available(10.0) == pytest.approx(50.0)

    def test_refill_is_proportional_to_elapsed(self):
        bucket = TokenBucket(rate=100.0, burst=1000.0)
        bucket.consume(1000.0, 0.0)
        assert bucket.available(0.0) == pytest.approx(0.0)
        assert bucket.available(2.5) == pytest.approx(250.0)

    def test_consume_may_go_negative(self):
        # Priority traffic spends on credit; the debt delays bulk.
        bucket = TokenBucket(rate=100.0, burst=100.0)
        bucket.consume(300.0, 0.0)
        assert bucket.available(0.0) == pytest.approx(-200.0)
        assert bucket.delay_until(100.0, 0.0) == pytest.approx(3.0)

    def test_delay_until(self):
        bucket = TokenBucket(rate=1000.0, burst=1000.0)
        bucket.consume(1000.0, 0.0)
        assert bucket.delay_until(500.0, 0.0) == pytest.approx(0.5)
        assert bucket.delay_until(500.0, 0.25) == pytest.approx(0.25)
        assert bucket.delay_until(100.0, 1.0) == pytest.approx(0.0)

    def test_unlimited(self):
        bucket = TokenBucket(rate=None)
        assert bucket.available(0.0) == float("inf")
        bucket.consume(1e12, 0.0)
        assert bucket.delay_until(1e12, 0.0) == 0.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)


class TestDeficitRoundRobin:
    def make(self, **kwargs):
        return BandwidthScheduler(**kwargs)

    def test_alternates_between_ready_streams(self):
        sched = self.make(quantum=1000)
        for sid in ("a", "b"):
            sched.register(sid)
            sched.mark_ready(sid)
        order = []
        for _ in range(4):
            sid, budget = sched.grant(0.0)
            order.append(sid)
            sched.charge(sid, budget, 0.0)
            sched.mark_ready(sid)
        assert order == ["a", "b", "a", "b"]

    def test_equal_service_over_many_rounds(self):
        sched = self.make(rate=1e6, burst=1e6, quantum=10_000)
        served = {"a": 0, "b": 0}
        for sid in served:
            sched.register(sid)
            sched.mark_ready(sid)
        now = 0.0
        for _ in range(200):
            sid, budget = sched.grant(now)
            if sid is None:
                now += budget or 0.001
                continue
            served[sid] += budget
            sched.charge(sid, budget, now)
            sched.mark_ready(sid)
        total = sum(served.values())
        assert total > 0
        # DRR bound: each stream within one quantum of the fair share.
        assert abs(served["a"] - served["b"]) <= sched.quantum

    def test_token_starvation_reports_wait(self):
        sched = self.make(rate=1e4, burst=1e4, quantum=64 * 1024)
        sched.register("a")
        sched.mark_ready("a")
        sid, budget = sched.grant(0.0)
        assert sid == "a"
        sched.charge("a", budget, 0.0)
        sched.mark_ready("a")
        sid, wait = sched.grant(0.0)
        assert sid is None
        assert wait is not None and wait > 0
        # After the wait elapses the stream is grantable again.
        sid, budget = sched.grant(wait + 1.0)
        assert sid == "a" and budget > 0

    def test_budget_capped_by_tokens(self):
        sched = self.make(rate=1e6, burst=8192, quantum=64 * 1024)
        sched.register("a")
        sched.mark_ready("a")
        sid, budget = sched.grant(0.0)
        assert sid == "a"
        assert budget <= 8192

    def test_idle_scheduler_returns_none_none(self):
        sched = self.make()
        assert sched.grant(0.0) == (None, None)
        sched.register("a")  # registered but never ready
        assert sched.grant(0.0) == (None, None)

    def test_mark_idle_resets_deficit(self):
        sched = self.make(quantum=1000)
        sched.register("a")
        sched.mark_ready("a")
        sid, budget = sched.grant(0.0)
        sched.charge("a", 0, 0.0)  # sent nothing: deficit stays
        sched.mark_idle("a")
        sched.mark_ready("a")
        sid, budget = sched.grant(0.0)
        # A fresh deficit means exactly one quantum of budget, not the
        # carried-over credit of the idle period.
        assert budget == 1000

    def test_duplicate_register_rejected(self):
        sched = self.make()
        sched.register("a")
        with pytest.raises(ValueError):
            sched.register("a")

    def test_unregister_is_idempotent_and_unschedules(self):
        sched = self.make()
        sched.register("a")
        sched.mark_ready("a")
        sched.unregister("a")
        sched.unregister("a")
        assert sched.grant(0.0) == (None, None)
        assert sched.queue_depth() == 0


class TestControlLane:
    def test_control_granted_before_bulk(self):
        sched = BandwidthScheduler(rate=1e6, quantum=1000)
        sched.register("bulk", PRIO_BULK)
        sched.register("ctrl", PRIO_CONTROL)
        sched.mark_ready("bulk")
        sched.mark_ready("ctrl")
        sid, _ = sched.grant(0.0)
        assert sid == "ctrl"

    def test_control_never_token_blocked(self):
        sched = BandwidthScheduler(rate=1e4, burst=1e4, quantum=64 * 1024)
        sched.register("bulk", PRIO_BULK)
        sched.register("ctrl", PRIO_CONTROL)
        sched.mark_ready("bulk")
        sid, budget = sched.grant(0.0)
        sched.charge(sid, budget, 0.0)  # bucket now deeply negative
        sched.mark_ready("bulk")
        sched.mark_ready("ctrl")
        sid, budget = sched.grant(0.0)
        assert sid == "ctrl" and budget == sched.quantum
        # Bulk, by contrast, is starved.
        sid, wait = sched.grant(0.0)
        assert sid is None and wait > 0


class TestSharedLink:
    """The two ratios the live data-plane tests used to read off the wall
    clock, on the scheduler itself under an injected clock."""

    def drive(self, sched, streams, quanta, sends, now=0.0):
        """Grant ``quanta`` times; a granted stream sends what ``sends``
        says of its budget and stays ready.  Returns bytes per stream."""
        served = dict.fromkeys(streams, 0)
        for _ in range(quanta):
            sid, budget = sched.grant(now)
            if sid is None:
                now += budget  # the wait the scheduler asked for
                continue
            sent = sends(sid, budget)
            served[sid] += sent
            sched.charge(sid, sent, now)
            sched.mark_ready(sid)
        return served

    @pytest.mark.parametrize("rate", [None, 4e6], ids=["unlimited", "4MB/s"])
    def test_four_ready_streams_are_served_within_2x(self, rate):
        sched = BandwidthScheduler(rate=rate, burst=rate, quantum=64 * 1024)
        streams = ["a", "b", "c", "d"]
        for sid in streams:
            sched.register(sid)
            sched.mark_ready(sid)
        # Sockets take what they take: each stream sends a different
        # share of every budget it is given.
        share = {"a": 1.0, "b": 0.75, "c": 0.5, "d": 0.9}
        served = self.drive(
            sched, streams, 400, lambda sid, budget: int(budget * share[sid])
        )
        assert min(served.values()) > 0
        assert max(served.values()) / min(served.values()) <= 2.0, served

    def test_a_control_frame_is_granted_before_any_queued_bulk_byte(self):
        sched = BandwidthScheduler(rate=1e6, burst=1e6, quantum=64 * 1024)
        bulk = ["a", "b", "c", "d"]
        for sid in bulk:
            sched.register(sid)
            sched.mark_ready(sid)
        sched.register("ping", PRIO_CONTROL)
        self.drive(sched, bulk, 50, lambda sid, budget: budget)
        assert sched.queue_depth() == 4  # every bulk stream has bytes queued
        sched.mark_ready("ping")
        sid, budget = sched.grant(0.0)  # no time passed: bulk is token-starved
        assert (sid, budget) == ("ping", sched.quantum)
        # And again at any later point of the transfer.
        served = self.drive(sched, bulk, 20, lambda sid, budget: budget, now=5.0)
        assert sum(served.values()) > 0
        sched.mark_ready("ping")
        assert sched.grant(5.0)[0] == "ping"


class TestMaxMinRates:
    def test_equal_share_on_one_link(self):
        rates = max_min_rates({"l": 10.0}, {1: ["l"], 2: ["l"]})
        assert rates == {1: pytest.approx(5.0), 2: pytest.approx(5.0)}

    def test_bottleneck_link_pins_multi_hop_path(self):
        rates = max_min_rates(
            {"fast": 10.0, "slow": 1.0},
            {1: ["fast", "slow"], 2: ["fast"]},
        )
        assert rates[1] == pytest.approx(1.0)
        assert rates[2] == pytest.approx(9.0)  # picks up the residual

    def test_three_way_progressive_fill(self):
        # Classic example: flows a:(l1), b:(l1,l2), c:(l2) with c1=1, c2=2.
        rates = max_min_rates(
            {"l1": 1.0, "l2": 2.0},
            {"a": ["l1"], "b": ["l1", "l2"], "c": ["l2"]},
        )
        assert rates["a"] == pytest.approx(0.5)
        assert rates["b"] == pytest.approx(0.5)
        assert rates["c"] == pytest.approx(1.5)

    def test_unknown_or_dead_link_gets_zero(self):
        rates = max_min_rates({"l": 5.0, "dead": 0.0},
                              {1: ["nope"], 2: ["dead"], 3: ["l"], 4: []})
        assert rates[1] == 0.0
        assert rates[2] == 0.0
        assert rates[3] == pytest.approx(5.0)
        assert rates[4] == 0.0

    def test_empty_inputs(self):
        assert max_min_rates({}, {}) == {}
        assert max_min_rates({"l": 1.0}, {}) == {}

    def test_conservation(self):
        # Allocated rate on any link never exceeds its capacity.
        capacities = {"a": 3.0, "b": 7.0, "c": 2.0}
        paths = {
            1: ["a", "b"], 2: ["b"], 3: ["b", "c"], 4: ["a"], 5: ["c"],
        }
        rates = max_min_rates(capacities, paths)
        for link, cap in capacities.items():
            load = sum(r for tid, r in rates.items() if link in paths[tid])
            assert load <= cap + 1e-9
