"""Full-stack tests over real TCP sockets (the paper's deployment shape)."""

import threading

import numpy as np
import pytest

from repro.client import SimFSSession, TcpConnection, VirtualizedHooks
from repro.core.errors import ContextError
from repro.simio import install_hooks, sio_open
from tests.integration.conftest import wait_until


def connect(server, context):
    host, port = server.address
    return TcpConnection(
        host,
        port,
        storage_dirs={context.name: server.launcher.output_dir(context.name)},
        restart_dirs={context.name: server.launcher.restart_dir(context.name)},
    )


@pytest.fixture
def tcp_server(synth_server):
    server, context, reference = synth_server
    server.start()
    yield server, context, reference


class TestTcpBasics:
    def test_acquire_over_sockets(self, tcp_server):
        server, context, reference = tcp_server
        fname = context.filename_of(7)
        with connect(server, context) as conn:
            with SimFSSession(conn, context.name) as session:
                status = session.acquire([fname], timeout=30.0)
                assert status.ok
                blob = open(conn.storage_path(context.name, fname), "rb").read()
                assert blob == reference[fname]
                session.release(fname)

    def test_bitrep_over_sockets(self, tcp_server):
        server, context, _ = tcp_server
        with connect(server, context) as conn:
            with SimFSSession(conn, context.name) as session:
                fname = context.filename_of(4)
                session.acquire([fname], timeout=30.0)
                assert session.bitrep(fname) is True

    def test_unknown_context_raises(self, tcp_server):
        server, context, _ = tcp_server
        with connect(server, context) as conn:
            with pytest.raises(ContextError):
                conn.attach("no-such-context")

    def test_transparent_mode_over_sockets(self, tcp_server):
        server, context, _ = tcp_server
        with connect(server, context) as conn:
            conn.attach(context.name)
            hooks = VirtualizedHooks(
                conn, context.driver.naming, context=context.name
            )
            previous = install_hooks(hooks)
            try:
                with sio_open(context.filename_of(9)) as fh:
                    values = fh.read("value")
                assert np.isfinite(values).all()
            finally:
                install_hooks(previous)


class TestTcpConcurrency:
    def test_two_clients_share_one_resimulation(self, tcp_server):
        server, context, reference = tcp_server
        fname = context.filename_of(11)
        results = {}
        errors = []

        def worker(tag):
            try:
                with connect(server, context) as conn:
                    with SimFSSession(conn, context.name) as session:
                        status = session.acquire([fname], timeout=30.0)
                        assert status.ok
                        results[tag] = open(
                            conn.storage_path(context.name, fname), "rb"
                        ).read()
                        session.release(fname)
            except Exception as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert results[0] == results[1] == reference[fname]
        # Both clients were served; the step was simulated at most twice
        # (two opens can race before the first sim registers in-flight).
        assert server.coordinator.total_restarts <= 2

    def test_many_sequential_accesses(self, tcp_server):
        server, context, reference = tcp_server
        with connect(server, context) as conn:
            with SimFSSession(conn, context.name) as session:
                for key in range(1, 19):
                    fname = context.filename_of(key)
                    status = session.acquire([fname], timeout=30.0)
                    assert status.ok
                    session.release(fname)

    def test_client_disconnect_releases_state(self, tcp_server):
        server, context, _ = tcp_server
        conn = connect(server, context)
        session = SimFSSession(conn, context.name)
        session.acquire([context.filename_of(2)], timeout=30.0)
        conn.close()  # abrupt disconnect, no release/finalize
        state = server.coordinator.get_state(context.name)
        wait_until(
            lambda: not state.agents and state.area.refcount(2) == 0, 10.0,
            "a dropped client's agent or pin outlived its connection",
        )
        assert not state.agents
        assert state.area.refcount(2) == 0
