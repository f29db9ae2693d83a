"""Slow-consumer back-pressure on the server-initiated fan-out path.

Read-side pausing cannot protect the server from a peer that stops
*reading*: ``ready`` notifications are server-initiated, so a dead-slow
consumer would grow ``conn.outbuf`` without bound.  The outbuf hard cap
turns that into a disconnect — this suite pins the cap down with a
client that deliberately never drains its socket."""

import socket
import time

import pytest

from repro.dv import server as server_mod
from repro.dv.coordinator import Notification
from tests.dv.test_server_selector import connect, make_server


@pytest.fixture
def capped_server(tmp_path, monkeypatch):
    # Small caps so the test fills them in a handful of frames.
    monkeypatch.setattr(server_mod, "_OUTBUF_HIGH", 64 * 1024)
    monkeypatch.setattr(server_mod, "_OUTBUF_HARD", 256 * 1024)
    server, contexts = make_server(tmp_path)
    yield server, contexts
    server.stop()


def fill_fanout(server, client_id, payload_bytes=32 * 1024, frames=1024):
    """Fan ready notifications at one client until the hard cap trips
    (or the frame budget runs out — then the cap never engaged)."""
    fat_name = "f" * payload_bytes  # one ~32 KiB frame per notification
    for i in range(frames):
        server._push_ready(Notification(client_id, "alpha", fat_name, True))
        if server.metrics.get("wire.slow_disconnects").value > 0:
            return i
    return frames


class TestSlowConsumerDisconnect:
    def test_non_reading_client_is_cut_loose(self, capped_server):
        server, _ = capped_server
        conn = connect(server, "alpha", client_id="sloth")
        try:
            conn.attach("alpha")
            raw: socket.socket = conn._sock
            # Shrink the kernel buffers so queued frames land in outbuf
            # instead of in-flight socket buffers, then stop reading.
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            fill_fanout(server, "sloth")
            assert server.metrics.get("wire.slow_disconnects").value >= 1
            # The server tears the connection down; the socket dies under
            # the reader shortly after.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with server._clients_lock:
                    if "sloth" not in server._clients:
                        break
                time.sleep(0.02)
            with server._clients_lock:
                assert "sloth" not in server._clients
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def test_outbuf_stays_bounded(self, capped_server):
        server, _ = capped_server
        conn = connect(server, "alpha", client_id="sloth")
        try:
            conn.attach("alpha")
            conn._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            with server._clients_lock:
                sloth = server._clients["sloth"]
            fill_fanout(server, "sloth")
            # One frame may straddle the cap; nothing beyond that is
            # ever buffered (unbounded growth is the regression).
            assert len(sloth.outbuf) <= server_mod._OUTBUF_HARD + 64 * 1024
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def test_reading_client_keeps_its_connection(self, capped_server):
        server, _ = capped_server
        conn = connect(server, "alpha", client_id="prompt")
        try:
            conn.attach("alpha")
            for _ in range(64):
                server._push_ready(
                    Notification("prompt", "alpha", "x" * 1024, True)
                )
            time.sleep(0.2)
            assert server.metrics.get("wire.slow_disconnects").value == 0
            with server._clients_lock:
                assert "prompt" in server._clients
        finally:
            conn.close()
