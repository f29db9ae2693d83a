"""Client resilience: DVConnectionLost surfacing and session reconnect."""

import pytest

from repro.client.api import SimFSSession
from repro.client.dvlib import TcpConnection
from repro.core.errors import DVConnectionLost
from repro.dv.server import DVServer

from tests.integration.conftest import build_server, free_port, wait_until


def lost(op, *args, **kwargs) -> bool:
    """Run one op: True once it fails with DVConnectionLost (any other
    error propagates)."""
    try:
        op(*args, **kwargs)
    except DVConnectionLost:
        return True
    return False


def rebuild_server(tmp_path, port):
    """A daemon on a fixed port over freshly initialised storage dirs."""
    server, context, reference = build_server(tmp_path, keep_outputs=())
    # build_server binds an ephemeral port via DVServer(); rebind fixed.
    out = server.launcher.output_dir(context.name)
    rst = server.launcher.restart_dir(context.name)
    fixed = DVServer(port=port)
    fixed.add_context(context, out, rst)
    return fixed, context, out, rst


def restart_server(context, out, rst, port):
    """The 'daemon restarted' half: same context, same dirs, same port."""
    server = DVServer(port=port)
    server.add_context(context, out, rst)
    return server


class TestConnectionLost:
    def test_dead_daemon_raises_dv_connection_lost(self, tmp_path):
        port = free_port()
        server, context, out, rst = rebuild_server(tmp_path, port)
        server.start()
        conn = TcpConnection("127.0.0.1", port, {}, {},
                             client_id="lost-client")
        try:
            conn.attach(context.name)
            assert not conn.is_lost
            server.stop(drain_timeout=0)
            wait_until(
                lambda: lost(conn.open, context.name, context.filename_of(1)),
                10.0, "ops kept succeeding after the daemon stopped",
            )
            assert conn.is_lost
        finally:
            conn.close()

    def test_unreachable_daemon_raises_dv_connection_lost(self):
        with pytest.raises(DVConnectionLost):
            TcpConnection("127.0.0.1", free_port(), {}, {},
                          connect_timeout=0.5)


class TestSessionReconnect:
    def test_reconnect_resends_hello_and_reattaches(self, tmp_path):
        port = free_port()
        server, context, out, rst = rebuild_server(tmp_path, port)
        server.start()
        conn = TcpConnection("127.0.0.1", port, {}, {},
                             client_id="resume-client")
        session = SimFSSession(conn, context.name)
        try:
            filename = context.filename_of(1)
            status = session.acquire([filename], timeout=30.0)
            assert status.ok
            session.release(filename)
            # Daemon restart: the link dies, ops fail cleanly...
            server.stop(drain_timeout=0)
            wait_until(
                lambda: lost(session.acquire, [filename], timeout=5.0),
                10.0, "ops kept succeeding after the daemon stopped",
            )
            server2 = restart_server(context, out, rst, port)
            server2.start()
            try:
                # ...and one reconnect() resumes the same session object:
                # fresh socket, fresh hello, context re-registered.
                session.reconnect()
                assert not conn.is_lost
                status = session.acquire([filename], timeout=30.0)
                assert status.ok
                session.release(filename)
                session.finalize()
            finally:
                server2.stop(drain_timeout=0)
        finally:
            conn.close()
