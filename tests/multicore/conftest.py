"""Shared fixtures for the multi-core pool tests.

These tests spawn real executor processes (fork) and talk to them over
the real wire — they are the live counterpart to the in-process unit
tests under ``tests/dv``.  Contexts are built tiny (36 timesteps, 16
cells) so a full resimulation is milliseconds; ``alpha_delay`` stretches
individual sims when a test needs a wait to still be pending at a
carefully chosen moment (drain, kill -9).
"""

import os

import pytest

from repro.client.dvlib import TcpConnection
from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.dv.multicore import MultiCoreServer
from repro.simulators import SyntheticDriver


def make_context(tmp_path, name, num_timesteps=36, delta_r=6):
    """A synthetic context with restarts on disk and every output
    deleted, so any ``open`` triggers a (fast) resimulation."""
    output_dir = str(tmp_path / f"{name}-out")
    restart_dir = str(tmp_path / f"{name}-restart")
    os.makedirs(output_dir)
    os.makedirs(restart_dir)
    config = ContextConfig(
        name=name, delta_d=2, delta_r=delta_r, num_timesteps=num_timesteps
    )
    driver = SyntheticDriver(config.geometry, prefix=name, cells=16)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    produced = driver.execute(
        driver.make_job(name, 0, num_timesteps // delta_r, write_restarts=True),
        output_dir, restart_dir,
    )
    for fname in produced:
        context.record_checksum(
            fname, driver.checksum(os.path.join(output_dir, fname))
        )
        os.unlink(os.path.join(output_dir, fname))
    return context, output_dir, restart_dir


def out_name(context_name, timestep=4):
    """The SyntheticDriver's on-disk name for one output timestep."""
    return f"{context_name}_out_{timestep:08d}.sdf"


class PoolHarness:
    """A started pool plus the client-side directory maps."""

    def __init__(self, pool, storage_dirs, restart_dirs):
        self.pool = pool
        self.storage_dirs = storage_dirs
        self.restart_dirs = restart_dirs

    @property
    def address(self):
        return self.pool.address

    def connect(self, client_id, **kw):
        host, port = self.pool.address
        return TcpConnection(
            host, port, self.storage_dirs, self.restart_dirs,
            client_id=client_id, **kw,
        )

    def connect_to(self, executor_id, client_id, attempts=48, **kw):
        """Reconnect until the kernel's REUSEPORT hash lands the
        connection on ``executor_id``.  Each attempt uses a fresh
        ephemeral source port, so a fresh hash."""
        for attempt in range(attempts):
            conn = self.connect(f"{client_id}-a{attempt}", **kw)
            info = conn.server_info.get("multicore") or {}
            if info.get("executor") == executor_id:
                return conn
            conn.close()
        pytest.fail(
            f"could not land a connection on {executor_id!r} "
            f"in {attempts} attempts"
        )

    def owner_of(self, context_name):
        return self.pool.ring.owner(context_name)

    def other_than(self, executor_id):
        others = [e for e in sorted(self.pool._handles) if e != executor_id]
        assert others, "pool needs >= 2 executors"
        return others[0]

    def pid_of(self, executor_id):
        return self.pool._handles[executor_id].pid


def build_pool(tmp_path, names=("ctxa", "ctxb"), workers=2, **pool_kw):
    pool_kw.setdefault("heartbeat_interval", 0.25)
    alpha = pool_kw.pop("alpha_delay", 0.0)
    pool = MultiCoreServer(workers=workers, **pool_kw)
    storage_dirs, restart_dirs = {}, {}
    for name in names:
        context, out, rst = make_context(tmp_path, name)
        pool.add_context(context, out, rst, alpha_delay=alpha)
        storage_dirs[name] = out
        restart_dirs[name] = rst
    pool.start()
    return PoolHarness(pool, storage_dirs, restart_dirs)
