"""Shared fixtures for full-stack integration tests."""

import os
import socket

import pytest

from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver


#: Probe sockets of the ports handed out and not yet released.
_HELD_PORTS: list[socket.socket] = []


def free_port() -> int:
    """An ephemeral TCP port for tests that must bind a known port.

    The probe socket stays bound (never listening) until the test that
    asked is torn down: while it is, the kernel gives the port to no other
    ``bind(0)`` and to no outgoing connection, so two nodes of one test can
    no longer be handed the same port, and the port cannot be taken between
    this call and the node's own bind.  That bind succeeds beside the probe
    because both set ``SO_REUSEADDR`` (``socket.create_server`` does) and
    the probe does not listen; a connect to a port nothing else bound is
    still refused.
    """
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    _HELD_PORTS.append(sock)
    return sock.getsockname()[1]


@pytest.fixture(autouse=True)
def _release_ports():
    """Give the held ports back once the test's nodes are gone."""
    yield
    while _HELD_PORTS:
        _HELD_PORTS.pop().close()


@pytest.fixture
def stop_nodes():
    """A list for the cluster nodes a test starts; whatever is in it at
    teardown is stopped abruptly."""
    started = []
    yield started
    for node in started:
        try:
            node.stop(drain_timeout=0)
        except Exception:
            pass


def build_server(
    tmp_path,
    name="synth",
    delta_d=2,
    delta_r=6,
    num_timesteps=36,
    capacity_steps=None,
    policy="dcl",
    prefetch=False,
    smax=8,
    keep_outputs=(),
    record_checksums=True,
):
    """Build a DVServer with one synthetic context.

    Runs the initial simulation (producing restart files and all outputs),
    records reference checksums, then deletes every output not listed in
    ``keep_outputs`` — the 'we cannot store the full output' premise.
    """
    output_dir = str(tmp_path / f"{name}-out")
    restart_dir = str(tmp_path / f"{name}-restart")
    os.makedirs(output_dir)
    os.makedirs(restart_dir)

    config = ContextConfig(
        name=name,
        delta_d=delta_d,
        delta_r=delta_r,
        num_timesteps=num_timesteps,
        max_storage_bytes=None,
        replacement_policy=policy,
        smax=smax,
        prefetch_enabled=prefetch,
    )
    driver = SyntheticDriver(config.geometry, prefix=name, cells=16)
    perf = PerformanceModel(tau_sim=0.001, alpha_sim=0.0)
    context = SimulationContext(config=config, driver=driver, perf=perf)

    num_restarts = num_timesteps // delta_r
    produced = driver.execute(
        driver.make_job(name, 0, num_restarts, write_restarts=True),
        output_dir,
        restart_dir,
    )
    if record_checksums:
        for fname in produced:
            context.record_checksum(
                fname, driver.checksum(os.path.join(output_dir, fname))
            )
    reference_bytes = {
        fname: open(os.path.join(output_dir, fname), "rb").read()
        for fname in produced
    }
    for fname in produced:
        if fname not in keep_outputs:
            os.unlink(os.path.join(output_dir, fname))

    if capacity_steps is not None:
        entry = len(next(iter(reference_bytes.values())))
        config = config.with_overrides(
            max_storage_bytes=capacity_steps * entry, output_step_bytes=entry
        )
        context = SimulationContext(
            config=config, driver=driver, perf=perf, checksums=context.checksums
        )

    server = DVServer()
    server.add_context(context, output_dir, restart_dir)
    return server, context, reference_bytes


@pytest.fixture
def synth_server(tmp_path):
    server, context, reference = build_server(tmp_path)
    yield server, context, reference
    server.stop()
