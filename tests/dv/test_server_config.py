"""Tests for the DV daemon's config-driven entry point and housekeeping."""

import json
import os
import threading

import pytest

from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import ContextError
from repro.core.perfmodel import PerformanceModel
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver


def make_server(tmp_path, name="cfg", **overrides):
    config = ContextConfig(
        name=name, delta_d=2, delta_r=8, num_timesteps=32, **overrides
    )
    driver = SyntheticDriver(config.geometry, prefix=name, cells=8)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    out, rst = str(tmp_path / "out"), str(tmp_path / "rst")
    server = DVServer()
    server.add_context(context, out, rst)
    return server, context, out, rst


class TestAddContext:
    def test_creates_directories(self, tmp_path):
        server, _, out, rst = make_server(tmp_path)
        assert os.path.isdir(out) and os.path.isdir(rst)
        server.stop()

    def test_existing_files_indexed_at_startup(self, tmp_path):
        # Pre-populate the storage area, then register: the daemon must
        # treat the surviving files as cache state.
        config = ContextConfig(name="warm", delta_d=2, delta_r=8,
                               num_timesteps=32)
        driver = SyntheticDriver(config.geometry, prefix="warm", cells=8)
        context = SimulationContext(
            config=config, driver=driver,
            perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
        )
        out, rst = str(tmp_path / "o"), str(tmp_path / "r")
        os.makedirs(out), os.makedirs(rst)
        driver.execute(driver.make_job("warm", 0, 4, write_restarts=True),
                       out, rst)
        server = DVServer()
        server.add_context(context, out, rst)
        try:
            state = server.coordinator.get_state("warm")
            assert len(state.area) == 16  # 32 timesteps / delta_d
        finally:
            server.stop()

    def test_duplicate_context_rejected(self, tmp_path):
        server, context, out, rst = make_server(tmp_path)
        try:
            with pytest.raises(ContextError):
                server.coordinator.register_context(context)
        finally:
            server.stop()

    def test_storage_path(self, tmp_path):
        server, context, out, _ = make_server(tmp_path)
        try:
            fname = context.filename_of(1)
            assert server.storage_path("cfg", fname) == os.path.join(out, fname)
        finally:
            server.stop()


class TestMainConfig:
    def test_daemon_starts_from_json_config(self, tmp_path, monkeypatch):
        """Drive `simfs-dv --config ...` far enough to bind its socket."""
        from repro.dv import server as server_mod

        config = {
            "host": "127.0.0.1",
            "port": 0,
            "contexts": [
                {
                    "name": "jsonctx",
                    "simulator": "synthetic",
                    "delta_d": 2,
                    "delta_r": 8,
                    "num_timesteps": 32,
                    "output_dir": str(tmp_path / "out"),
                    "restart_dir": str(tmp_path / "rst"),
                    "policy": "dcl",
                    "smax": 4,
                }
            ],
        }
        config_path = tmp_path / "dv.json"
        config_path.write_text(json.dumps(config))

        started = threading.Event()
        captured = {}
        real_start = DVServer.start

        def fake_start(self):
            real_start(self)
            captured["server"] = self
            started.set()
            raise KeyboardInterrupt  # unwind main() right after binding

        monkeypatch.setattr(DVServer, "start", fake_start)
        try:
            server_mod.main(["--config", str(config_path)])
        except KeyboardInterrupt:
            pass
        assert started.is_set()
        server = captured["server"]
        assert "jsonctx" in server.coordinator.context_names()
        server.stop()

    def test_retired_mode_is_a_startup_error(self, tmp_path, capsys):
        """The selector front end is the only one: a config that still
        asks for another must fail loudly, not silently run selector."""
        from repro.cluster import ClusterNode
        from repro.core.errors import InvalidArgumentError
        from repro.dv import server as server_mod

        config_path = tmp_path / "dv.json"
        config_path.write_text(json.dumps(
            {"host": "127.0.0.1", "port": 0, "mode": "threaded"}
        ))
        with pytest.raises(SystemExit) as exit_info:
            server_mod.main(["--config", str(config_path)])
        assert exit_info.value.code == 2
        assert "threaded" in capsys.readouterr().err
        with pytest.raises(InvalidArgumentError):
            ClusterNode("n1", mode="threaded")
        with pytest.raises(TypeError):
            DVServer(mode="selector")

    def test_config_paces_resimulations(self, tmp_path, monkeypatch):
        """`alpha_delay`/`tau_delay` context keys must reach the launcher:
        without pacing a synthetic re-simulation finishes in milliseconds
        and a live daemon can never show a blocked waiter."""
        from repro.dv import server as server_mod

        config = {
            "host": "127.0.0.1",
            "port": 0,
            "contexts": [
                {
                    "name": "paced",
                    "simulator": "synthetic",
                    "delta_d": 2,
                    "delta_r": 8,
                    "num_timesteps": 32,
                    "output_dir": str(tmp_path / "out"),
                    "restart_dir": str(tmp_path / "rst"),
                    "alpha_delay": 1.25,
                    "tau_delay": 0.5,
                }
            ],
        }
        config_path = tmp_path / "dv.json"
        config_path.write_text(json.dumps(config))

        captured = {}
        real_start = DVServer.start

        def fake_start(self):
            real_start(self)
            captured["server"] = self
            raise KeyboardInterrupt

        monkeypatch.setattr(DVServer, "start", fake_start)
        try:
            server_mod.main(["--config", str(config_path)])
        except KeyboardInterrupt:
            pass
        server = captured["server"]
        runtime = server.launcher._runtime("paced")
        assert runtime.alpha_delay == 1.25
        assert runtime.tau_delay == 0.5
        server.stop()
