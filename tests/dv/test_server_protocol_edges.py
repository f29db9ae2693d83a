"""Protocol edge cases and concurrency behavior of the sharded TCP daemon:
oversized frames, malformed ops (each answered, the connection served
on), pipelined batches of requests, duplicate ``hello``, ``stats``,
bitrep and fetch_info path confinement, and cross-context non-blocking."""

import os
import socket
import threading
import time

import pytest

from repro.client import SimFSSession, TcpConnection
from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import (
    DETAIL_ALREADY_CONNECTED,
    ErrorCode,
    FileNotInContextError,
    InvalidArgumentError,
    ProtocolError,
)
from repro.core.perfmodel import PerformanceModel
from repro.dv.ops import OPS
from repro.dv.protocol import (
    _MAX_MESSAGE,
    MessageReader,
    encode_binary,
    encode_chunk_header,
    encode_open_request,
    send_message,
)
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver

ERR_PROTOCOL = int(ErrorCode.ERR_PROTOCOL)


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


def pipelined(conn, messages):
    """``messages`` sent in one write on ``conn``'s channel, numbered
    from its own counter; their replies, in order."""
    reqs = [next(conn._reqs) for _ in messages]
    data = b"".join(
        encode_binary(dict(message, req=req)) for message, req in zip(messages, reqs)
    )
    return conn._entry.pipeline(reqs, data, 30.0)


class RawClient:
    """A binary-codec connection with no client library in between:
    every frame the daemon sends is read, none is matched away."""

    def __init__(self, server, context="alpha"):
        self.sock = socket.create_connection(server.address, timeout=10.0)
        send_message(self.sock, {"op": "hello", "req": 0, "client_id": "raw",
                                 "vers": 2, "codec": "binary", "context": context})
        self.reader = MessageReader(self.sock)
        assert self.reader.read_message()["error"] == 0
        self.reader.set_codec("binary")

    def close(self):
        self.sock.close()


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
        down with a ``TypeError``.  The message is refused — one
        ``ERR_PROTOCOL`` reply — and the connection is served on."""
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            for bad in (
                {"op": ["open"]},
                {"op": "open", "context": ["alpha"], "file": fname},
                {"op": "release", "context": {"a": 1}, "file": fname},
            ):
                refused, served = pipelined(conn, [bad, {"op": "stats"}])
                assert refused["error"] == ERR_PROTOCOL, refused
                assert served["error"] == 0 and "stats" in served
            assert conn.open("alpha", fname).available
            conn.release("alpha", fname)


def _malformed_probes():
    """Per row of the op table: the op without each of its required
    fields, and with its first field of the wrong type (``"<file>"``
    stands for a resident file of ``alpha``)."""
    plausible = {str: "x", int: 2}
    wrong = {str: 5, int: "a"}
    values = {"context": "alpha", "file": "<file>", "codec": "binary"}
    for op, row in sorted(OPS.items()):
        fields = {key.rstrip("?"): kind for key, kind in row.fields.items()}
        message = {"op": op}
        for key, kind in row.fields.items():
            if not key.endswith("?"):
                message[key] = values.get(key, plausible[kind])
        for name in row.fields:
            if not name.endswith("?"):
                missing = {k: v for k, v in message.items() if k != name}
                yield pytest.param(missing, name, id=f"{op}-without-{name}")
        if fields:
            name, kind = next(iter(fields.items()))
            yield pytest.param(
                dict(message, **{name: wrong[kind]}), name, id=f"{op}-bad-{name}"
            )
    # The multi-op requests are gone: a client that still sends one is
    # told so, and keeps its connection.
    for op in ("acquire", "batch"):
        yield pytest.param(
            {"op": op, "context": "alpha", "files": [], "ops": []}, op, id=op
        )


class TestMalformedOps:
    @pytest.mark.parametrize("message, named", list(_malformed_probes()))
    def test_a_malformed_op_is_answered_and_the_next_one_served(
        self, two_context_server, message, named
    ):
        """Exactly one ``ERR_PROTOCOL`` reply, for the message's own
        ``req``, naming what is wrong; then the next op on the same
        connection is served."""
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        if message.get("file") == "<file>":
            message = dict(message, file=fname)
        client = RawClient(server)
        try:
            client.sock.sendall(
                encode_binary(dict(message, req=1))
                + encode_open_request(2, "alpha", fname, "binary")
            )
            refused = client.reader.read_message()
            served = client.reader.read_message()
        finally:
            client.close()
        assert refused["req"] == 1 and refused["error"] == ERR_PROTOCOL, refused
        assert repr(named) in refused["detail"]
        assert served["req"] == 2 and served["error"] == 0 and served["available"]

    def test_a_data_port_chunk_is_refused_like_any_unknown_op(
        self, two_context_server
    ):
        """The data port's ``chunk`` kind shares the codec but is no op of
        the table: one ``ERR_PROTOCOL`` reply, and the next op is served."""
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        client = RawClient(server)
        try:
            client.sock.sendall(
                encode_chunk_header(5) + b"bytes"
                + encode_open_request(2, "alpha", fname, "binary")
            )
            refused = client.reader.read_message()
            served = client.reader.read_message()
        finally:
            client.close()
        assert refused["error"] == ERR_PROTOCOL, refused
        assert "chunk" in refused["detail"]
        assert served["req"] == 2 and served["error"] == 0 and served["available"]


class TestDuplicateHello:
    def test_second_hello_with_live_client_id_rejected(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha", client_id="dup-client") as first:
            with pytest.raises(InvalidArgumentError) as refused:
                connect(server, "alpha", client_id="dup-client")
            # The detail the clients' retry loops match on.
            assert DETAIL_ALREADY_CONNECTED in str(refused.value)
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
    """A batch of requests pipelined in one write: the one way to carry
    many ops (there is no multi-op request)."""

    def test_batch_runs_sub_ops_in_order(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            results = pipelined(conn, [
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
            results = pipelined(conn, [
                {"op": "open", "context": "alpha", "file": fname},
                {"op": "frobnicate"},
                {"op": "release", "context": "alpha", "file": fname},
            ])
            assert results[0]["error"] == 0
            assert results[1]["error"] == int(ErrorCode.ERR_PROTOCOL)
            assert results[2]["error"] == 0

    def test_nested_batch_and_hello_rejected(self, two_context_server):
        """The retired ``batch`` request, and a ``hello`` past the
        handshake, are refused — each for its own ``req``."""
        server, _ = two_context_server
        with connect(server, "alpha") as conn:
            results = pipelined(conn, [
                {"op": "batch", "ops": []},
                {"op": "hello", "client_id": "smuggled", "vers": 2,
                 "codec": "binary"},
            ])
            assert all(r["error"] == int(ErrorCode.ERR_PROTOCOL) for r in results)

    def test_sub_op_error_does_not_abort_batch(self, two_context_server):
        server, contexts = two_context_server
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            conn.attach("alpha")
            results = pipelined(conn, [
                # release of a file the client does not hold -> ERR_INVALID
                {"op": "release", "context": "alpha", "file": fname},
                {"op": "open", "context": "alpha", "file": fname},
            ])
            assert results[0]["error"] == int(ErrorCode.ERR_INVALID)
            assert results[1]["error"] == 0

    def test_acquire_and_release_many_are_one_write_each(self, two_context_server):
        server, contexts = two_context_server
        context = contexts["beta"]
        filenames = [context.filename_of(k) for k in (1, 2, 3)]
        with connect(server, "beta") as conn:
            with SimFSSession(conn, "beta") as session:
                writes = []
                write = conn._entry._write
                conn._entry._write = lambda data, frames=1: (
                    writes.append(frames), write(data, frames)
                )
                assert session.acquire(filenames, timeout=30.0).ok
                session.release_many(filenames)
                assert writes == [3, 3]
                with pytest.raises(InvalidArgumentError, match="does not hold"):
                    session.release_many(filenames)  # every one is tried
                assert writes == [3, 3, 3]
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

        from repro.dv import daemon

        server, _ = two_context_server
        host, port = server.address
        rc = daemon.main(["--stats", "--host", host, "--port", str(port)])
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
            assert conn.open("alpha", fname).available

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


class TestFetchInfoConfinement:
    @pytest.mark.parametrize("spelling", ["relative", "absolute"])
    def test_a_name_outside_the_storage_area_is_refused(
        self, two_context_server, tmp_path, spelling
    ):
        """``fetch_info`` says whether a file exists and how big it is: a
        name outside the storage area would probe any server file.  It is
        refused as the data plane refuses it, and the connection is
        served on."""
        server, contexts = two_context_server
        secret = tmp_path / "secret.txt"
        secret.write_bytes(b"not a context file")
        out_dir = server.launcher.output_dir("alpha")
        name = str(secret) if spelling == "absolute" else os.path.relpath(
            secret, out_dir
        )
        fname = contexts["alpha"].filename_of(1)
        with connect(server, "alpha") as conn:
            with pytest.raises(FileNotInContextError, match="escapes"):
                conn.call({"op": "fetch_info", "context": "alpha", "file": name})
            info = conn.call({"op": "fetch_info", "context": "alpha", "file": fname})
        assert info["exists"]
        assert info["size"] == os.path.getsize(os.path.join(out_dir, fname))


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
