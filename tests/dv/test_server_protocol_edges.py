"""Protocol edge cases and concurrency behavior of the sharded TCP daemon:
oversized frames, ``batch`` sub-op validation, duplicate ``hello``,
``stats``, bitrep path confinement, and cross-context non-blocking."""

import os
import socket
import threading
import time

import pytest

from repro.client import SimFSSession, TcpConnection
from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import (
    ErrorCode,
    InvalidArgumentError,
    ProtocolError,
    SimFSError,
)
from repro.core.perfmodel import PerformanceModel
from repro.dv.protocol import _MAX_MESSAGE
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver


@pytest.fixture
def two_context_server(tmp_path):
    """A started daemon with two warm contexts (every output on disk)."""
    server = DVServer()
    contexts = {}
    for name in ("alpha", "beta"):
        config = ContextConfig(name=name, delta_d=2, delta_r=8, num_timesteps=32)
        driver = SyntheticDriver(config.geometry, prefix=name, cells=8)
        context = SimulationContext(
            config=config, driver=driver,
            perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
        )
        out = str(tmp_path / f"{name}-out")
        rst = str(tmp_path / f"{name}-rst")
        os.makedirs(out)
        os.makedirs(rst)
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
    yield server, contexts
    server.stop()


def connect(server, context_name, client_id=None):
    host, port = server.address
    return TcpConnection(
        host,
        port,
        storage_dirs={context_name: server.launcher.output_dir(context_name)},
        restart_dirs={context_name: server.launcher.restart_dir(context_name)},
        client_id=client_id,
    )


class TestOversizedFrame:
    def test_server_drops_connection_on_oversized_frame(self, two_context_server):
        server, _ = two_context_server
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

    def test_reader_rejects_oversized_line(self):
        server_sock, client_sock = socket.socketpair()
        try:
            from repro.dv.protocol import MessageReader

            def send_blob():
                # A socketpair buffer is far smaller than the frame: feed
                # it from a thread while the reader drains.
                try:
                    client_sock.sendall(b"y" * (_MAX_MESSAGE + 1))
                except OSError:
                    pass

            sender = threading.Thread(target=send_blob)
            sender.start()
            reader = MessageReader(server_sock)
            with pytest.raises(ProtocolError):
                reader.read_message()
            sender.join(timeout=10.0)
        finally:
            server_sock.close()
            client_sock.close()


class TestUnhashableFields:
    def test_a_list_for_an_op_costs_only_that_connection(self, two_context_server):
        """JSON lets ``op``/``context`` be a list; the run splitter and
        the dispatch tables must not take the event loop (or a worker)
        down with a ``TypeError`` - the connection goes, the daemon stays."""
        from repro.dv.protocol import encode_frame

        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        for bad in (
            {"op": ["open"], "req": 1},
            {"op": "open", "req": 1, "context": ["alpha"], "file": fname},
            {"op": "release", "req": 1, "context": {"a": 1}, "file": fname},
        ):
            conn = connect(server, "alpha")
            try:
                conn._sock.sendall(encode_frame(bad, "binary"))
                with pytest.raises(SimFSError):
                    conn.call({"op": "stats"}, timeout=10.0)
            finally:
                conn.close()
            with connect(server, "alpha") as conn:  # the daemon still serves
                conn.attach("alpha")
                assert conn.open("alpha", fname)
                conn.release("alpha", fname)


class TestDuplicateHello:
    def test_second_hello_with_live_client_id_rejected(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha", client_id="dup-client") as first:
            with pytest.raises(InvalidArgumentError):
                connect(server, "alpha", client_id="dup-client")
            # The original connection keeps working after the rejection.
            with SimFSSession(first, "alpha") as session:
                status = session.acquire([fname], timeout=30.0)
                assert status.ok
                session.release(fname)

    def test_client_id_reusable_after_disconnect(self, two_context_server):
        server, _ = two_context_server
        first = connect(server, "alpha", client_id="recycled")
        first.close()
        deadline = time.time() + 10.0
        second = None
        while time.time() < deadline:
            try:
                second = connect(server, "alpha", client_id="recycled")
                break
            except InvalidArgumentError:
                time.sleep(0.01)  # server still tearing the old conn down
        assert second is not None, "client_id never became reusable"
        second.close()


class TestBatch:
    def test_batch_runs_sub_ops_in_order(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            results = conn.batch([
                {"op": "open", "context": "alpha", "file": fname},
                {"op": "release", "context": "alpha", "file": fname},
            ])
            assert [r["error"] for r in results] == [0, 0]
            assert results[0]["available"] is True

    def test_unknown_sub_op_fails_only_that_entry(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            results = conn.batch([
                {"op": "open", "context": "alpha", "file": fname},
                {"op": "frobnicate"},
                {"op": "release", "context": "alpha", "file": fname},
            ])
            assert results[0]["error"] == 0
            assert results[1]["error"] == int(ErrorCode.ERR_PROTOCOL)
            assert results[2]["error"] == 0

    def test_nested_batch_and_hello_rejected(self, two_context_server):
        server, _ = two_context_server
        with connect(server, "alpha") as conn:
            results = conn.batch([
                {"op": "batch", "ops": []},
                {"op": "hello", "client_id": "smuggled"},
            ])
            assert all(r["error"] == int(ErrorCode.ERR_PROTOCOL) for r in results)

    def test_sub_op_error_does_not_abort_batch(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            results = conn.batch([
                # release of a file the client does not hold -> ERR_INVALID
                {"op": "release", "context": "alpha", "file": fname},
                {"op": "open", "context": "alpha", "file": fname},
            ])
            assert results[0]["error"] == int(ErrorCode.ERR_INVALID)
            assert results[1]["error"] == 0

    def test_release_many_uses_one_frame(self, two_context_server):
        server, contexts = two_context_server
        context = contexts["beta"]
        filenames = [context.filename_of(k) for k in (1, 2, 3)]
        with connect(server, "beta") as conn:
            with SimFSSession(conn, "beta") as session:
                assert session.acquire(filenames, timeout=30.0).ok
                session.release_many(filenames)
        shard = server.coordinator.shard("beta")
        assert all(shard.area.refcount(k) == 0 for k in (1, 2, 3))


class TestStats:
    def test_stats_op_reports_shards_and_metrics(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            with SimFSSession(conn, "alpha") as session:
                session.acquire([fname], timeout=30.0)
                session.release(fname)
                stats = session.stats()
        assert [c["context"] for c in stats["contexts"]] == ["alpha", "beta"]
        assert stats["metrics"]["dv.alpha.opens"]["value"] >= 1
        assert stats["metrics"]["dv.alpha.hits"]["value"] >= 1
        assert stats["server"]["connected_clients"] >= 1

    def test_simfs_dv_stats_cli(self, two_context_server, capsys):
        import json

        from repro.dv import server as server_mod

        server, _ = two_context_server
        host, port = server.address
        rc = server_mod.main(["--stats", "--host", host, "--port", str(port)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert [c["context"] for c in printed["contexts"]] == ["alpha", "beta"]


class TestBitrepPathConfinement:
    def test_storage_path_allowed(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            with SimFSSession(conn, "alpha") as session:
                session.acquire([fname], timeout=30.0)
                assert session.bitrep(fname) is True

    def test_path_outside_storage_rejected(self, two_context_server, tmp_path):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        evil = tmp_path / "evil.txt"
        evil.write_bytes(b"secret server file")
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            with pytest.raises(InvalidArgumentError):
                conn.bitrep("alpha", fname, path=str(evil))

    def test_traversal_out_of_storage_rejected(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        sneaky = os.path.join(
            server.launcher.output_dir("alpha"), "..", "..", "etc", "passwd"
        )
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            with pytest.raises(InvalidArgumentError):
                conn.bitrep("alpha", fname, path=sneaky)

    def test_vanished_file_yields_error_reply_not_disconnect(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        ghost = os.path.join(
            server.launcher.output_dir("alpha"), "no_such_file.sdf"
        )
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            with pytest.raises(InvalidArgumentError):
                conn.bitrep("alpha", fname, path=ghost)
            # The connection survives the unreadable path.
            results = conn.batch([
                {"op": "open", "context": "alpha", "file": fname}
            ])
            assert results[0]["error"] == 0

    def test_restart_dir_allowed(self, two_context_server):
        server, contexts = two_context_server
        context = contexts["alpha"]
        fname = context.filename_of(1)
        restart = os.listdir(server.launcher.restart_dir("alpha"))[0]
        path = os.path.join(server.launcher.restart_dir("alpha"), restart)
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            # Confinement admits the path; the checksum simply mismatches.
            assert conn.bitrep("alpha", fname, path=path) is False


class TestCrossContextConcurrency:
    def test_beta_ops_proceed_while_alpha_shard_is_locked(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["beta"].filename_of(1)
        done = threading.Event()
        errors = []

        def beta_worker():
            try:
                with connect(server, "beta") as conn:
                    with SimFSSession(conn, "beta") as session:
                        assert session.acquire([fname], timeout=10.0).ok
                        session.release(fname)
                done.set()
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        # Simulate a long-running alpha operation by holding alpha's shard
        # lock: the beta client must be completely unaffected.
        with server.coordinator.shard("alpha").lock:
            thread = threading.Thread(target=beta_worker)
            thread.start()
            finished = done.wait(timeout=10.0)
        thread.join(timeout=10.0)
        assert not errors
        assert finished, "beta traffic stalled behind alpha's shard lock"

    def test_concurrent_clients_on_two_contexts(self, two_context_server):
        server, contexts = two_context_server
        errors = []

        def worker(context_name):
            try:
                context = contexts[context_name]
                with connect(server, context_name) as conn:
                    with SimFSSession(conn, context_name) as session:
                        for key in (1, 2, 3, 4):
                            fname = context.filename_of(key)
                            assert session.acquire([fname], timeout=30.0).ok
                            session.release(fname)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in ("alpha", "beta")
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        stats = server.coordinator.stats_snapshot()
        assert stats["metrics"]["dv.alpha.opens"]["value"] >= 8
        assert stats["metrics"]["dv.beta.opens"]["value"] >= 8
