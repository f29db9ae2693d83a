"""Daemon-side observability: per-op service histograms for every
registered op (the coverage guard), op spans for traced requests, and
the trace / trace_slow / metrics_text inspection ops."""

import os

import pytest

from repro.client import TcpConnection
from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import InvalidArgumentError, SimFSError
from repro.core.perfmodel import PerformanceModel
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver


@pytest.fixture
def warm_server(tmp_path):
    """A started daemon with one warm context (every output on disk)."""
    server = DVServer()
    config = ContextConfig(name="obs", delta_d=2, delta_r=8, num_timesteps=32)
    driver = SyntheticDriver(config.geometry, prefix="obs", cells=8)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    out = str(tmp_path / "out")
    rst = str(tmp_path / "rst")
    os.makedirs(out)
    os.makedirs(rst)
    produced = driver.execute(
        driver.make_job("obs", 0, 8, write_restarts=True), out, rst
    )
    for fname in produced:
        context.record_checksum(fname, driver.checksum(os.path.join(out, fname)))
    server.add_context(context, out, rst)
    server.start()
    yield server, context
    server.stop()


def connect(server, context_name="obs", **kwargs):
    host, port = server.address
    return TcpConnection(
        host,
        port,
        storage_dirs={context_name: server.launcher.output_dir(context_name)},
        restart_dirs={context_name: server.launcher.restart_dir(context_name)},
        **kwargs,
    )


class TestOpCoverageGuard:
    def test_every_registered_op_records_a_service_histogram(self, warm_server):
        """Guard: dispatching any op from the daemon's dispatch table must
        leave an ``op.<name>.seconds`` histogram behind — the `_observe_op`
        hook runs in the dispatch ``finally``, so even an error reply
        counts.  A new op added without riding `_dispatch` breaks this."""
        server, context = warm_server
        # open/release never reach the table: they execute as local runs,
        # which observe every op themselves.
        ops = sorted({*server._handlers, "open", "release"})
        assert ops, "dispatch table unexpectedly empty"
        fname = context.filename_of(1)
        extra_fields = {
            "acquire": {"files": [fname]},
            "batch": {"ops": []},
            "trace": {"trace_id": "f" * 16},
        }
        for op in ops:
            # Plausible arguments where cheap; error replies are fine (the
            # histogram observe happens either way).  One connection per
            # op: a handler crash on odd arguments only costs that conn.
            message = {"op": op, "context": "obs", "file": fname}
            message.update(extra_fields.get(op, {}))
            with connect(server) as conn:
                try:
                    conn.attach("obs")
                    conn.call(message, timeout=30.0)
                except SimFSError:
                    pass
        names = set(server.metrics.names())
        missing = [op for op in ops if f"op.{op}.seconds" not in names]
        assert not missing, f"ops without service histograms: {missing}"


class TestTracedRequests:
    def test_traced_open_records_span_and_exemplar(self, warm_server):
        server, context = warm_server
        fname = context.filename_of(1)
        with connect(server, trace=1.0) as conn:
            conn.attach("obs")
            conn.open("obs", fname)
            trace_id = conn.last_trace_id
        assert trace_id is not None
        spans = server.trace_spans(trace_id)
        assert any(s["name"] == "op.open" for s in spans)
        open_span = next(s for s in spans if s["name"] == "op.open")
        assert open_span["attrs"]["context"] == "obs"
        assert open_span["attrs"]["file"] == fname
        assert "op.open.seconds" in server.obs.exemplars()

    def test_untraced_fast_requests_leave_no_spans(self, warm_server):
        server, context = warm_server
        fname = context.filename_of(2)
        before = server.obs.snapshot()["recorded_spans"]
        with connect(server) as conn:  # tracing not negotiated
            conn.attach("obs")
            conn.open("obs", fname)
        # Histogram observes still happen; spans only for traced/slow.
        assert server.obs.snapshot()["recorded_spans"] == before
        assert "op.open.seconds" in server.metrics.names()


class TestInspectionOps:
    def test_trace_requires_trace_id(self, warm_server):
        server, _ = warm_server
        with connect(server) as conn:
            with pytest.raises(InvalidArgumentError):
                conn.call({"op": "trace"})
            with pytest.raises(InvalidArgumentError):
                conn.call({"op": "trace", "trace_id": 7})

    def test_trace_reply_shape(self, warm_server):
        server, context = warm_server
        fname = context.filename_of(3)
        with connect(server, trace=1.0) as conn:
            conn.attach("obs")
            conn.open("obs", fname)
            trace_id = conn.last_trace_id  # the trace op itself re-samples
            reply = conn.call({"op": "trace", "trace_id": trace_id})
        view = reply["trace"]
        assert view["trace_id"] == trace_id
        assert view["nodes"] == [server.obs.node]
        assert view["unreachable"] == []
        assert any(s["name"] == "op.open" for s in view["spans"])
        assert all(s["trace_id"] == trace_id for s in view["spans"])

    def test_trace_unknown_id_returns_empty(self, warm_server):
        server, _ = warm_server
        with connect(server) as conn:
            reply = conn.call({"op": "trace", "trace_id": "f" * 16})
        assert reply["trace"]["spans"] == []

    def test_trace_slow_lists_slow_spans_and_journal(self, warm_server):
        server, _ = warm_server
        now = server.obs.now()
        server.obs.record("sim.wait", None, now - 5.0, now, context="obs")
        server.obs.journal("autoscale", decision="noop")
        with connect(server) as conn:
            reply = conn.call({"op": "trace_slow", "limit": 5})
        view = reply["slow"]
        assert view["spans"][0]["name"] == "sim.wait"
        assert view["spans"][0]["duration"] == pytest.approx(5.0)
        kinds = [e["kind"] for e in view["journal"]]
        assert "autoscale" in kinds

    def test_metrics_text_is_prometheus_exposition(self, warm_server):
        server, context = warm_server
        fname = context.filename_of(4)
        with connect(server, trace=1.0) as conn:
            conn.attach("obs")
            conn.open("obs", fname)
            reply = conn.call({"op": "metrics_text"})
        text = reply["text"]
        assert "# TYPE op_open_seconds histogram" in text
        assert 'op_open_seconds_bucket{le="+Inf"}' in text
        assert "wire_frames_recv" in text
        # The traced open left an exemplar on its latency bucket.
        assert '# {trace_id="' in text
        assert reply["nodes"] == [server.obs.node]
