"""The DV front end: hello validation, coalesced notifications, worker
hand-off, wire metrics, and a >=16-client stress run.

The server speaks one newline-JSON hello line each way and binary frames
after it; it must reject every other hello with an error reply line,
survive hostile framing, and keep per-connection ordering.
"""

import os
import socket
import threading
import time

import pytest

from repro.client import SimFSSession, TcpConnection
from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.cluster.link import PeerLink
from repro.core.errors import DVConnectionLost, ErrorCode, ProtocolError
from repro.dv.protocol import (
    _MAX_MESSAGE,
    CODEC_BINARY,
    MessageReader,
    encode_message,
    send_message,
)
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver


def make_server(tmp_path, names=("alpha",), timesteps=32):
    server = DVServer()
    contexts = {}
    for name in names:
        config = ContextConfig(name=name, delta_d=2, delta_r=8,
                               num_timesteps=timesteps)
        driver = SyntheticDriver(config.geometry, prefix=name, cells=8)
        context = SimulationContext(
            config=config, driver=driver,
            perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
        )
        out = str(tmp_path / f"{name}-out")
        rst = str(tmp_path / f"{name}-rst")
        os.makedirs(out, exist_ok=True)
        os.makedirs(rst, exist_ok=True)
        produced = driver.execute(
            driver.make_job(name, 0, 4, write_restarts=True), out, rst
        )
        for fname in produced:
            context.record_checksum(
                fname, driver.checksum(os.path.join(out, fname))
            )
        server.add_context(context, out, rst)
        contexts[name] = context
    server.start()
    return server, contexts


def connect(server, context_name, client_id=None):
    host, port = server.address
    return TcpConnection(
        host, port,
        storage_dirs={context_name: server.launcher.output_dir(context_name)},
        restart_dirs={context_name: server.launcher.restart_dir(context_name)},
        client_id=client_id,
    )


def raw_hello(server, **fields):
    """Send one hello line built from ``fields``; returns (sock, reader,
    reply) with the reader still in newline-JSON mode."""
    sock = socket.create_connection(server.address, timeout=10.0)
    send_message(sock, {"op": "hello", "req": 0, **fields})
    reader = MessageReader(sock)
    return sock, reader, reader.read_message()


@pytest.fixture
def selector_server(tmp_path):
    server, contexts = make_server(tmp_path)
    yield server, contexts
    server.stop()


class TestOpSurface:
    def test_full_op_surface(self, selector_server):
        server, contexts = selector_server
        context = contexts["alpha"]
        fname = context.filename_of(1)
        with connect(server, "alpha") as conn:
            with SimFSSession(conn, "alpha") as session:
                assert session.acquire([fname], timeout=30.0).ok
                assert session.bitrep(fname) is True
                session.release(fname)
                stats = session.stats()
                assert stats["server"]["mode"] == "selector"
                assert stats["client_wire"]["codec"] == "binary"

    def test_batch(self, selector_server):
        server, contexts = selector_server
        fname = contexts["alpha"].filename_of(2)
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            results = conn.batch([
                {"op": "open", "context": "alpha", "file": fname},
                {"op": "bitrep", "context": "alpha", "file": fname},
                {"op": "frobnicate"},
                {"op": "release", "context": "alpha", "file": fname},
            ])
            assert [bool(r["error"]) for r in results] == [False, False, True, False]
            assert results[1]["matches"] is True

    def test_two_clients_share_one_daemon(self, selector_server):
        server, contexts = selector_server
        context = contexts["alpha"]
        first = connect(server, "alpha", client_id="client-1")
        second = connect(server, "alpha", client_id="client-2")
        try:
            with SimFSSession(first, "alpha") as s1, \
                    SimFSSession(second, "alpha") as s2:
                fname = context.filename_of(3)
                assert s1.acquire([fname], timeout=30.0).ok
                assert s2.acquire([fname], timeout=30.0).ok
                s1.release(fname)
                s2.release(fname)
        finally:
            first.close()
            second.close()

    def test_resimulation_ready_notification(self, selector_server):
        """A miss exercises launcher -> shard -> coalesced ready path."""
        server, contexts = selector_server
        context = contexts["alpha"]
        missing = context.filename_of(9)  # beyond the 4 produced steps
        with connect(server, "alpha") as conn:
            with SimFSSession(conn, "alpha") as session:
                status = session.acquire([missing], timeout=30.0)
                assert status.ok
                assert os.path.exists(
                    conn.storage_path("alpha", missing)
                )

    def test_shared_wait_fans_ready_to_every_waiter(self, selector_server):
        """Two waiters on the same missing step: the encode-once memo
        must deliver a correct frame to each."""
        server, contexts = selector_server
        context = contexts["alpha"]
        missing = context.filename_of(11)
        results = {}
        errors = []

        def worker(tag):
            try:
                with connect(server, "alpha") as conn:
                    with SimFSSession(conn, "alpha") as session:
                        results[tag] = session.acquire(
                            [missing], timeout=30.0
                        ).ok
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tag,))
                   for tag in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert results == {"a": True, "b": True}


class TestHelloValidation:
    """The hello is validated once; anything else gets an error reply
    line and the connection stays un-negotiated."""

    def test_v1_hello_is_rejected_and_binary_client_still_served(
        self, selector_server
    ):
        server, contexts = selector_server
        sock, reader, reply = raw_hello(
            server, client_id="v1-client", context="alpha"
        )
        try:
            # The rejection itself is a newline-JSON line a v1 client reads.
            assert reply["error"] == int(ErrorCode.ERR_PROTOCOL)
            assert "vers" in reply["detail"]
            # Still un-negotiated: ops are refused, in newline JSON.
            send_message(sock, {"op": "stats", "req": 1})
            again = reader.read_message()
            assert again["error"] == int(ErrorCode.ERR_PROTOCOL)
            assert "hello" in again["detail"]
        finally:
            sock.close()
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha", client_id="v1-client") as conn:
            with SimFSSession(conn, "alpha") as session:
                assert session.acquire([fname], timeout=30.0).ok
                session.release(fname)

    @pytest.mark.parametrize("fields, reason", [
        ({"client_id": "c", "vers": 2}, "codec"),
        ({"client_id": "c", "vers": 2, "codec": "zstd"}, "codec"),
        ({"client_id": "c", "vers": 1, "codec": "binary"}, "vers"),
        ({"client_id": "c", "vers": True, "codec": "binary"}, "vers"),
        ({"client_id": "c", "vers": float("inf"), "codec": "binary"}, "vers"),
        ({"vers": 2, "codec": "binary"}, "client_id"),
        ({"client_id": "", "vers": 2, "codec": "binary"}, "client_id"),
        ({"client_id": {"a": 1}, "vers": 2, "codec": "binary"}, "client_id"),
    ])
    def test_malformed_hello_fields_get_an_error_reply(
        self, selector_server, fields, reason
    ):
        server, _ = selector_server
        sock, _reader, reply = raw_hello(server, **fields)
        try:
            assert reply is not None, "connection dropped without a reply"
            assert reply["error"] == int(ErrorCode.ERR_PROTOCOL)
            assert reason in reply["detail"]
        finally:
            sock.close()
        with server._clients_lock:
            assert not server._clients

    def test_rejected_hello_may_be_retried(self, selector_server):
        server, _ = selector_server
        sock, reader, reply = raw_hello(server, vers=2, codec="binary")
        try:
            assert reply["error"] == int(ErrorCode.ERR_PROTOCOL)
            send_message(sock, {"op": "hello", "req": 1, "client_id": "anon",
                                "vers": 2, "codec": "binary"})
            granted = reader.read_message()
            assert granted["error"] == 0
            assert granted["codec"] == "binary"
        finally:
            sock.close()


class TestClientsRefuseNonBinaryServers:
    """A server whose hello reply does not grant the binary codec (a v1
    daemon) is refused, never spoken newline JSON to."""

    @pytest.fixture
    def v1_server(self):
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                try:
                    sock, _ = listener.accept()
                except OSError:
                    return
                with sock:
                    hello = MessageReader(sock).read_message()
                    sock.sendall(encode_message(
                        {"op": "reply", "req": hello.get("req"), "error": 0}
                    ))
                    sock.recv(1)  # hold until the client hangs up

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield listener.getsockname()[:2]
        stop.set()
        listener.close()
        thread.join(timeout=5.0)

    def test_tcp_connection_raises(self, v1_server):
        host, port = v1_server
        with pytest.raises(ProtocolError, match="binary"):
            TcpConnection(host, port, {}, {}, connect_timeout=5.0)

    def test_peer_link_raises(self, v1_server):
        host, port = v1_server
        with pytest.raises(DVConnectionLost, match="rejected the hello"):
            PeerLink("n1", "n2", host, port, connect_timeout=5.0)


class TestHandshakeTimeout:
    """``connect_timeout`` covers the hello round trip, not just the TCP
    connect: a listener that accepts and stays silent must not park the
    caller forever."""

    @pytest.fixture
    def silent_listener(self):
        listener = socket.create_server(("127.0.0.1", 0))
        yield listener.getsockname()[:2]
        listener.close()

    @staticmethod
    def _raises_within(dial, seconds):
        outcome = []

        def run():
            try:
                dial()
                outcome.append(None)
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        began = time.monotonic()
        thread.start()
        thread.join(timeout=seconds)
        assert not thread.is_alive(), "handshake still blocked"
        assert isinstance(outcome[0], DVConnectionLost), outcome
        return time.monotonic() - began

    def test_tcp_connection_times_out(self, silent_listener):
        host, port = silent_listener
        took = self._raises_within(
            lambda: TcpConnection(host, port, {}, {}, connect_timeout=0.5),
            seconds=5.0,
        )
        assert took >= 0.4

    def test_peer_link_times_out(self, silent_listener):
        host, port = silent_listener
        took = self._raises_within(
            lambda: PeerLink("n1", "n2", host, port, connect_timeout=0.5),
            seconds=5.0,
        )
        assert took >= 0.4


class TestSelectorRobustness:
    def test_oversized_frame_drops_connection(self, selector_server):
        server, _ = selector_server
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            blob = b"x" * (_MAX_MESSAGE + 4096)  # no newline anywhere
            try:
                sock.sendall(blob)
            except (BrokenPipeError, ConnectionResetError):
                return  # server already slammed the door
            sock.settimeout(10.0)
            try:
                data = sock.recv(4096)
            except (ConnectionResetError, TimeoutError):
                return
            assert data == b"", "server must close an oversized connection"
        finally:
            sock.close()

    def test_first_message_must_be_hello(self, selector_server):
        server, _ = selector_server
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            send_message(sock, {"op": "open", "req": 1, "context": "alpha",
                                "file": "x"})
            reader = MessageReader(sock)
            reply = reader.read_message()
            assert reply["error"] != 0
            assert "hello" in reply["detail"]
        finally:
            sock.close()

    def test_handler_crash_closes_only_that_connection(self, selector_server):
        server, contexts = selector_server
        fname = contexts["alpha"].filename_of(1)
        # A malformed op payload (missing 'file') raises KeyError in the
        # handler; the server must drop that connection but keep serving.
        sock, reader, reply = raw_hello(
            server, client_id="evil", context="alpha", vers=2, codec="binary"
        )
        try:
            assert reply["error"] == 0
            reader.set_codec(CODEC_BINARY)
            send_message(sock, {"op": "open", "req": 1, "context": "alpha"},
                         CODEC_BINARY)
            assert reader.read_message() is None  # connection dropped
        finally:
            sock.close()
        with connect(server, "alpha") as conn:
            with SimFSSession(conn, "alpha") as session:
                assert session.acquire([fname], timeout=30.0).ok
                session.release(fname)

    def test_duplicate_hello_rejected_on_selector(self, selector_server):
        from repro.core.errors import InvalidArgumentError

        server, contexts = selector_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha", client_id="dup") as first:
            with pytest.raises(InvalidArgumentError):
                connect(server, "alpha", client_id="dup")
            with SimFSSession(first, "alpha") as session:
                assert session.acquire([fname], timeout=30.0).ok
                session.release(fname)

    def test_wire_metrics_exposed(self, selector_server):
        server, contexts = selector_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            with SimFSSession(conn, "alpha") as session:
                session.acquire([fname], timeout=30.0)
                session.release(fname)
                stats = session.stats()
        metrics = stats["metrics"]
        for name in ("wire.frames_sent", "wire.bytes_sent",
                     "wire.frames_recv", "wire.bytes_recv"):
            assert metrics[name]["value"] > 0, name
        wire = stats["client_wire"]
        assert wire["frames_sent"] >= 4
        assert wire["bytes_sent"] > 0
        assert wire["frames_recv"] >= 4
        assert wire["bytes_recv"] > 0


class TestSelectorStress:
    NUM_CLIENTS = 16
    OPS_PER_CLIENT = 30

    def test_sixteen_concurrent_clients(self, tmp_path):
        """16 clients over 4 contexts hammering
        acquire/batch/bitrep/release; every op must succeed and the
        daemon must account every connection."""
        names = ("c0", "c1", "c2", "c3")
        server, contexts = make_server(tmp_path, names=names)
        try:
            errors = []
            done = [0] * self.NUM_CLIENTS
            gate = threading.Event()

            def worker(slot):
                name = names[slot % len(names)]
                context = contexts[name]
                try:
                    with connect(server, name,
                                 client_id=f"stress-{slot}") as conn:
                        with SimFSSession(conn, name) as session:
                            gate.wait(timeout=10.0)
                            for i in range(self.OPS_PER_CLIENT):
                                key = 1 + (slot + i) % 12
                                fname = context.filename_of(key)
                                assert session.acquire(
                                    [fname], timeout=30.0
                                ).ok
                                if i % 5 == 0:
                                    assert session.bitrep(fname) is True
                                if i % 7 == 0:
                                    session.release_many([fname])
                                else:
                                    session.release(fname)
                                done[slot] += 1
                except Exception as exc:  # surfaced after join
                    errors.append((slot, exc))

            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(self.NUM_CLIENTS)]
            for t in threads:
                t.start()
            time.sleep(0.3)
            gate.set()
            for t in threads:
                t.join(timeout=120.0)
            assert not errors, errors[:3]
            assert done == [self.OPS_PER_CLIENT] * self.NUM_CLIENTS
            snapshot = server.coordinator.stats_snapshot()
            opens = sum(
                snapshot["metrics"][f"dv.{n}.opens"]["value"] for n in names
            )
            assert opens >= self.NUM_CLIENTS * self.OPS_PER_CLIENT
        finally:
            server.stop()


class TestBoundedAreaEviction:
    def test_release_evicts_and_serves_over_tcp(self, tmp_path):
        """With a bounded storage area, release/wclose route through the
        worker pool (they may unlink evicted files); the daemon must keep
        serving and actually delete evicted outputs."""
        server = DVServer()
        config = ContextConfig(name="tiny", delta_d=2, delta_r=8,
                               num_timesteps=32, max_storage_bytes=4)
        driver = SyntheticDriver(config.geometry, prefix="tiny", cells=8)
        context = SimulationContext(
            config=config, driver=driver,
            perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
        )
        out = str(tmp_path / "out")
        rst = str(tmp_path / "rst")
        os.makedirs(out)
        os.makedirs(rst)
        produced = driver.execute(
            driver.make_job("tiny", 0, 4, write_restarts=True), out, rst
        )
        for fname in produced:
            context.record_checksum(
                fname, driver.checksum(os.path.join(out, fname))
            )
        server.add_context(context, out, rst)
        server.start()
        try:
            assert server._evicting_contexts == {"tiny"}
            with connect(server, "tiny") as conn:
                with SimFSSession(conn, "tiny") as session:
                    for key in range(1, 13):
                        fname = context.filename_of(key)
                        assert session.acquire([fname], timeout=30.0).ok
                        session.release(fname)
            shard = server.coordinator.shard("tiny")
            assert shard.area.used_bytes <= 4
            resident = {f for f in os.listdir(out)
                        if driver.naming.is_output(f)}
            # Evicted steps are physically gone from the storage area.
            assert len(resident) <= 4 + config.smax
        finally:
            server.stop()


class TestBackpressure:
    def test_flood_pauses_and_resumes(self, tmp_path, monkeypatch):
        """A client flooding requests past the inbox high-water mark is
        paused, then resumed once the worker drains — every request still
        gets exactly one reply."""
        from repro.dv import server as server_mod
        from repro.dv.protocol import encode_frame, encode_open_request

        monkeypatch.setattr(server_mod, "_INBOX_HIGH", 8)
        server, contexts = make_server(tmp_path)
        try:
            context = contexts["alpha"]
            fname = context.filename_of(1)
            sock, reader, reply = raw_hello(
                server, client_id="flood", vers=2, codec="binary",
                context="alpha",
            )
            assert reply["error"] == 0
            reader.set_codec(CODEC_BINARY)
            # bitrep routes to the worker pool; the opens behind it pile
            # into the inbox and trip the (tiny) high-water mark.
            total = 200
            sock.sendall(encode_frame(
                {"op": "bitrep", "req": 1, "context": "alpha", "file": fname},
                CODEC_BINARY,
            ))
            for req in range(2, total + 1):
                sock.sendall(encode_open_request(
                    req, "alpha", fname, CODEC_BINARY
                ))
            seen = set()
            while len(seen) < total:
                message = reader.read_message()
                assert message is not None, "connection dropped mid-flood"
                if message.get("op") == "reply":
                    assert message["req"] not in seen
                    seen.add(message["req"])
            assert seen == set(range(1, total + 1))
            sock.close()
        finally:
            server.stop()
