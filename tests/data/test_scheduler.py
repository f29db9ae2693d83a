"""Unit tests for the bandwidth scheduler: token bucket semantics and
DRR fairness across the transfers sharing one link."""

import pytest

from repro.data.scheduler import _MIN_GRANT, BandwidthScheduler, TokenBucket


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
        # Bytes sent past a grant are spent on credit; the debt delays
        # the grants that follow.
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


class TestSharedLink:
    """The fairness ratio the live data-plane tests used to read off the
    wall clock, on the scheduler itself under an injected clock."""

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


MB = 1e6
QUANTUM = 64 * 1024


def pull(rate, sizes):
    """Bulk pulls of ``sizes`` bytes over one link of ``rate`` bytes/s,
    driven like the data server drives the scheduler: send what is
    granted, re-mark while bytes remain, unregister when done.  The burst
    is one quantum, so after it the link paces at ``rate``.  The clock
    moves only by the waits the scheduler asks for (at least 1 us, so
    float rounding cannot stall it).  Returns each pull's finish time."""
    sched = BandwidthScheduler(rate=rate, burst=QUANTUM, quantum=QUANTUM)
    left = dict(enumerate(sizes))
    for sid in left:
        sched.register(sid)
        sched.mark_ready(sid)
    now = 0.0
    finished = {}
    while left:
        sid, budget = sched.grant(now)
        if sid is None:
            now += max(budget, 1e-6)
            continue
        sent = min(budget, left[sid])
        sched.charge(sid, sent, now)
        left[sid] -= sent
        if left[sid]:
            sched.mark_ready(sid)
        else:
            del left[sid]
            sched.unregister(sid)
            finished[sid] = now
    return finished


def paced(nbytes, rate):
    """What a pull of ``nbytes`` should take on a link of ``rate``: the
    bytes past the burst at the link's pace.  The last grant may wait for
    a whole minimum grant of tokens, which bounds the error."""
    return pytest.approx((nbytes - QUANTUM) / rate, rel=0.01, abs=_MIN_GRANT / rate)


class TestLinkShare:
    """How concurrent pulls share one paced link, end to end through the
    scheduler: the questions of fair share and link speed, answered by
    the code the data server runs."""

    def test_one_pull_gets_the_whole_link(self):
        finished = pull(10 * MB, [10 * MB])
        assert finished[0] == paced(10 * MB, 10 * MB)

    @pytest.mark.parametrize("pullers", [2, 3, 4, 8])
    def test_equal_pulls_share_equally(self, pullers):
        rate = 10 * MB
        finished = pull(rate, [2 * MB] * pullers)
        # The link never idles while a pull has bytes left ...
        assert max(finished.values()) == paced(pullers * 2 * MB, rate)
        # ... and DRR keeps every pull within a quantum of its fair share,
        # so they finish within a quantum each of one another.
        spread = max(finished.values()) - min(finished.values())
        assert spread <= pullers * QUANTUM / rate, finished

    def test_short_pull_frees_its_share_for_the_long_one(self):
        # Both run at 5 MB/s until the short one is done at ~1 s; the long
        # one then has the whole link for its last 10 MB.
        finished = pull(10 * MB, [15 * MB, 5 * MB])
        assert finished[1] == paced(10 * MB, 10 * MB)
        assert finished[0] == paced(20 * MB, 10 * MB)

    @pytest.mark.parametrize("rate_mb", [1, 5, 10, 40, 100])
    def test_completion_time_scales_with_capacity(self, rate_mb):
        rate = rate_mb * MB
        size = rate / 4  # a quarter second of link at any speed
        finished = pull(rate, [size])
        assert finished[0] == paced(size, rate)

    def test_aggregate_matches_capacity(self):
        rate = 40 * MB
        finished = pull(rate, [5 * MB] * 4)
        assert max(finished.values()) == paced(20 * MB, rate)
