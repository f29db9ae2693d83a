"""simfs-ctl observability commands: trace, trace-slow, metrics-export.

Covers the rendering helpers with fabricated payloads, the live-daemon
paths end to end, and the partial-view satellite contract: a fan-out
that missed peers prints what it collected with a stderr warning and
still exits 0.
"""

import json

import pytest

from repro.cli import _union_seconds, main


@pytest.fixture
def warm_server(tmp_path):
    from repro.core.context import ContextConfig, SimulationContext
    from repro.core.perfmodel import PerformanceModel
    from repro.dv.server import DVServer
    from repro.simulators import SyntheticDriver

    config = ContextConfig(name="cli", delta_d=2, delta_r=8, num_timesteps=32)
    driver = SyntheticDriver(config.geometry, prefix="cli", cells=8)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    server = DVServer()
    server.add_context(context, str(tmp_path / "o"), str(tmp_path / "r"))
    server.start()
    yield server, context
    server.stop()


class _StubConnection:
    """Drop-in for TcpConnection: returns a canned reply for any op."""

    reply: dict = {}

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def call(self, message, timeout=60.0):
        return dict(type(self).reply)


@pytest.fixture
def stub_reply(monkeypatch):
    monkeypatch.setattr(
        "repro.client.dvlib.TcpConnection", _StubConnection
    )

    def set_reply(reply):
        _StubConnection.reply = reply

    yield set_reply
    _StubConnection.reply = {}


class TestUnionSeconds:
    def test_empty(self):
        assert _union_seconds([]) == 0.0

    def test_disjoint(self):
        assert _union_seconds([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)

    def test_overlap_not_double_counted(self):
        assert _union_seconds([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)

    def test_nested(self):
        assert _union_seconds([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)

    def test_unsorted_input(self):
        assert _union_seconds([(5.0, 6.0), (0.0, 1.0)]) == pytest.approx(2.0)


class TestTraceRendering:
    def span(self, name, start, end, node="n0", **attrs):
        return {"trace_id": "ab" * 8, "span_id": "cd" * 8,
                "parent_id": "ef" * 8, "name": name, "node": node,
                "start": start, "end": end, "duration": end - start,
                "attrs": attrs or None}

    def test_trace_output_with_critical_path(self, stub_reply, capsys):
        stub_reply({"trace": {
            "trace_id": "ab" * 8,
            "spans": [
                self.span("op.open", 0.0, 1.0, context="c", file="f.sdf"),
                self.span("sim.wait", 0.1, 0.9),
            ],
            "nodes": ["n0", "n1"],
            "unreachable": [],
        }})
        code = main(["trace", "ab" * 8])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        out = captured.out
        assert f"trace {'ab' * 8}: 2 spans nodes=[n0,n1]" in out
        assert "op.open @n0" in out
        assert "context=c file=f.sdf" in out
        assert "critical path:" in out
        assert "op.open: 1.000000s (100.0%)" in out
        assert "sim.wait: 0.800000s (80.0%)" in out

    def test_partial_view_warns_but_exits_zero(self, stub_reply, capsys):
        stub_reply({"trace": {
            "trace_id": "ab" * 8,
            "spans": [self.span("op.open", 0.0, 1.0)],
            "nodes": ["n0"],
            "unreachable": ["n2", "n1"],
        }})
        code = main(["trace", "ab" * 8])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: partial view, unreachable: n2, n1" in captured.err
        # The collected spans still print.
        assert "op.open @n0" in captured.out

    def test_no_spans_message(self, stub_reply, capsys):
        stub_reply({"trace": {"trace_id": "ff" * 8, "spans": [],
                              "nodes": ["n0"], "unreachable": []}})
        code = main(["trace", "ff" * 8])
        assert code == 0
        assert "no spans retained" in capsys.readouterr().out

    def test_json_output(self, stub_reply, capsys):
        view = {"trace_id": "ab" * 8, "spans": [], "nodes": ["n0"],
                "unreachable": []}
        stub_reply({"trace": view, "op": "reply", "req": 1, "error": 0})
        code = main(["trace", "ab" * 8, "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"trace": view}

    def test_trace_slow_output(self, stub_reply, capsys):
        stub_reply({"slow": {
            "spans": [self.span("sim.wait", 0.0, 5.0, context="c")],
            "journal": [{"ts": 12.0, "kind": "migrate.cutover", "node": "n0",
                         "dest": "n1"}],
            "nodes": ["n0"],
            "unreachable": [],
        }})
        code = main(["trace-slow"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slowest 1 spans nodes=[n0]" in out
        assert f"sim.wait @n0  trace={'ab' * 8}" in out
        assert "decision journal:" in out
        assert "[12.0] migrate.cutover @n0: dest=n1" in out


class TestLiveCommands:
    def test_trace_of_live_traced_open(self, warm_server, capsys):
        from repro.client.dvlib import TcpConnection

        server, context = warm_server
        host, port = server.address
        out_dir = server.launcher.output_dir("cli")
        rst_dir = server.launcher.restart_dir("cli")
        with TcpConnection(host, port, {"cli": out_dir}, {"cli": rst_dir},
                           trace=1.0) as conn:
            conn.attach("cli")
            conn.open("cli", context.filename_of(1))
            trace_id = conn.last_trace_id
        code = main(["trace", trace_id, "--host", host, "--port", str(port)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace {trace_id}:" in out
        assert "op.open" in out
        assert "critical path:" in out

    def test_metrics_export_stdout_and_file(self, warm_server, tmp_path,
                                            capsys):
        server, _ = warm_server
        host, port = server.address
        code = main(["metrics-export", "--host", host, "--port", str(port)])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE wire_frames_recv counter" in out
        target = tmp_path / "metrics.prom"
        code = main(["metrics-export", "--host", host, "--port", str(port),
                     "--out", str(target), "--local"])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert "# TYPE wire_frames_recv counter" in target.read_text()

    @pytest.mark.parametrize(
        "command",
        [["trace", "ab" * 8], ["trace-slow"], ["metrics-export"]],
    )
    def test_connection_failure_exits_nonzero(self, command, capsys):
        from tests.integration.conftest import free_port

        port = free_port()  # nothing listening here
        code = main(command + ["--host", "127.0.0.1", "--port", str(port)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot reach" in captured.err
