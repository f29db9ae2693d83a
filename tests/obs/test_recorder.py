"""SpanRecorder: sampling policy, retrieval, exemplars, journal."""

from repro.obs.recorder import Span, SpanRecorder
from repro.obs.trace import new_trace


def make_recorder(**kwargs):
    kwargs.setdefault("node", "n0")
    kwargs.setdefault("head_rate", 1.0)
    kwargs.setdefault("slow_threshold", 0.25)
    return SpanRecorder(**kwargs)


class TestSampling:
    def test_sampled_trace_records_fast_span(self):
        rec = make_recorder()
        tc = new_trace(sampled=True)
        span = rec.record("op.open", tc, 1.0, 1.001)
        assert span is not None
        assert span.trace_id == f"{tc.trace_id:016x}"
        assert span.parent_id == f"{tc.span_id:016x}"

    def test_unsampled_fast_span_dropped(self):
        rec = make_recorder()
        tc = new_trace(sampled=False)
        assert rec.record("op.open", tc, 1.0, 1.001) is None

    def test_unsampled_slow_span_tail_sampled(self):
        rec = make_recorder(slow_threshold=0.1)
        tc = new_trace(sampled=False)
        span = rec.record("op.open", tc, 1.0, 2.0)
        assert span is not None
        assert span.trace_id == f"{tc.trace_id:016x}"

    def test_absent_context_fast_span_dropped(self):
        rec = make_recorder()
        assert rec.record("op.open", None, 1.0, 1.001) is None

    def test_absent_context_slow_span_synthesizes_trace(self):
        rec = make_recorder(slow_threshold=0.1)
        span = rec.record("op.open", None, 1.0, 2.0)
        assert span is not None
        assert not span.sampled
        assert len(span.trace_id) == 16

    def test_wire_string_context_accepted(self):
        rec = make_recorder()
        tc = new_trace(sampled=True)
        span = rec.record("op.open", tc.to_wire(), 1.0, 1.001)
        assert span is not None
        assert span.trace_id == f"{tc.trace_id:016x}"

    def test_malformed_wire_string_degrades_to_untraced(self):
        rec = make_recorder()
        assert rec.record("op.open", "garbage", 1.0, 1.001) is None

    def test_start_trace_head_rate_zero(self):
        rec = make_recorder(head_rate=0.0)
        assert not any(rec.start_trace().sampled for _ in range(64))

    def test_start_trace_head_rate_one(self):
        rec = make_recorder(head_rate=1.0)
        assert all(rec.start_trace().sampled for _ in range(16))

    def test_start_trace_explicit_overrides_rate(self):
        rec = make_recorder(head_rate=0.0)
        assert rec.start_trace(sampled=True).sampled
        rec2 = make_recorder(head_rate=1.0)
        assert not rec2.start_trace(sampled=False).sampled


class TestRetrieval:
    def test_trace_sorted_by_start(self):
        rec = make_recorder()
        tc = new_trace()
        rec.record("b", tc, 2.0, 3.0)
        rec.record("a", tc, 1.0, 4.0)
        rec.record("other", new_trace(), 0.0, 9.0)
        spans = rec.trace(tc.trace_id)
        assert [s["name"] for s in spans] == ["a", "b"]
        assert all(s["trace_id"] == f"{tc.trace_id:016x}" for s in spans)

    def test_trace_accepts_int_and_str(self):
        rec = make_recorder()
        tc = new_trace()
        rec.record("x", tc, 1.0, 2.0)
        assert rec.trace(tc.trace_id) == rec.trace(f"{tc.trace_id:016x}")

    def test_trace_unknown_id_empty(self):
        assert make_recorder().trace("0" * 16) == []

    def test_slow_sorted_by_duration_desc(self):
        rec = make_recorder()
        tc = new_trace()
        rec.record("short", tc, 0.0, 1.0)
        rec.record("long", tc, 0.0, 5.0)
        rec.record("mid", tc, 0.0, 3.0)
        slow = rec.slow(limit=2)
        assert [s["name"] for s in slow] == ["long", "mid"]

    def test_ring_overwrites_oldest(self):
        rec = make_recorder(capacity=4)
        tc = new_trace()
        for i in range(6):
            rec.record(f"s{i}", tc, float(i), float(i) + 0.5)
        names = {s["name"] for s in rec.trace(tc.trace_id)}
        assert names == {"s2", "s3", "s4", "s5"}

    def test_span_duration_and_as_dict(self):
        span = Span("t" * 16, "s" * 16, "p" * 16, "n", "node", 1.0, 3.5)
        assert span.duration == 2.5
        d = span.as_dict()
        assert d["duration"] == 2.5
        assert "attrs" not in d

    def test_attrs_filter_none(self):
        rec = make_recorder()
        span = rec.record("x", new_trace(), 0.0, 1.0, file="a.nc", skip=None)
        assert span.attrs == {"file": "a.nc"}


class TestExemplars:
    def test_exemplar_keyed_by_bucket_upper_bound(self):
        rec = make_recorder()
        tc = new_trace(sampled=True)
        rec.attach_exemplar("op.open.seconds", (0.1, 1.0), 0.5, tc)
        ex = rec.exemplars()
        assert ex["op.open.seconds"][repr(1.0)]["trace_id"] == (
            f"{tc.trace_id:016x}"
        )

    def test_exemplar_overflow_keyed_inf(self):
        rec = make_recorder()
        tc = new_trace(sampled=True)
        rec.attach_exemplar("s", (0.1, 1.0), 5.0, tc)
        assert "+Inf" in rec.exemplars()["s"]

    def test_unsampled_or_absent_context_ignored(self):
        rec = make_recorder()
        rec.attach_exemplar("s", (1.0,), 0.5, new_trace(sampled=False))
        rec.attach_exemplar("s", (1.0,), 0.5, None)
        rec.attach_exemplar("s", (1.0,), 0.5, "garbage")
        assert rec.exemplars() == {}


class TestJournal:
    def test_journal_entry_shape(self):
        clock_now = [100.0]
        rec = make_recorder(clock=lambda: clock_now[0])
        entry = rec.journal("migrate.cutover", dest="n1", skip=None)
        assert entry["ts"] == 100.0
        assert entry["kind"] == "migrate.cutover"
        assert entry["node"] == "n0"
        assert entry["dest"] == "n1"
        assert "skip" not in entry

    def test_journal_entries_filter_and_limit(self):
        rec = make_recorder()
        rec.journal("a", i=0)
        rec.journal("b", i=1)
        rec.journal("a", i=2)
        assert [e["i"] for e in rec.journal_entries()] == [0, 1, 2]
        assert [e["i"] for e in rec.journal_entries(kind="a")] == [0, 2]
        assert [e["i"] for e in rec.journal_entries(limit=1)] == [2]
        assert [e["i"] for e in rec.journal_entries(limit=5)] == [0, 1, 2]
        assert rec.journal_entries(limit=0) == []

    def test_journal_capacity(self):
        rec = make_recorder(journal_capacity=2)
        for i in range(4):
            rec.journal("k", i=i)
        assert [e["i"] for e in rec.journal_entries()] == [2, 3]


class TestVirtualClock:
    def test_now_uses_injected_clock(self):
        t = [7.5]
        rec = make_recorder(clock=lambda: t[0])
        assert rec.now() == 7.5
        t[0] = 9.0
        assert rec.now() == 9.0

    def test_snapshot(self):
        rec = make_recorder(capacity=8, head_rate=0.5, slow_threshold=1.5)
        rec.record("x", new_trace(), 0.0, 1.0)
        rec.journal("k")
        snap = rec.snapshot()
        assert snap == {
            "node": "n0",
            "capacity": 8,
            "retained_spans": 1,
            "recorded_spans": 1,
            "head_rate": 0.5,
            "slow_threshold": 1.5,
            "journal_entries": 1,
        }
