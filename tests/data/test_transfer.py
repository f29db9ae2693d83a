"""DataServer + DataClient over loopback: chunked fetch, checksums,
resume, error mapping, malformed requests, one fetch per connection,
bounded answers, ping latency under bulk load, and a fetch that hashes
and writes each chunk once, as it arrives."""

import os
import socket
import threading
import time

import pytest

from repro.core.errors import (
    DVConnectionLost,
    ErrorCode,
    FileNotInContextError,
    ProtocolError,
)
from repro.data import DataClient, DataServer, TransferChecksumError
from repro.data import client as client_module
from repro.data import server as server_module
from repro.data.server import _CTRL_HIGH_WATER, _RECV_SIZE, _DataConn
from repro.dv.loop import EventLoop
from repro.dv.protocol import (
    _MAX_MESSAGE,
    CODEC_BINARY,
    StreamDecoder,
    encode_binary,
    encode_chunk_header,
)
from repro.util import checksums
from repro.util.checksums import file_checksum

#: Fetch fields no client library sends; each must get an ERR_PROTOCOL
#: answer and leave the port serving.
MALFORMED_FETCH = {
    "offset-str": {"offset": "abc"},
    "offset-none": {"offset": None},
    "offset-bool": {"offset": True},
    "file-int": {"file": 7},
    "file-none": {"file": None},
    "context-list": {"context": ["ctx"]},
}


def answers(sock, decoder=None):
    """The messages the server sends on ``sock``, as they arrive."""
    decoder = decoder or StreamDecoder(CODEC_BINARY)
    while True:
        data = sock.recv(65536)
        assert data, "the server closed the connection without a reply"
        decoder.feed(data)
        yield from decoder.drain()


@pytest.fixture
def served_context(tmp_path, loop):
    outdir = tmp_path / "out"
    outdir.mkdir()
    files = {}
    for name, size in (("small.sdf", 650), ("big.sdf", 3 * 1024 * 1024)):
        payload = os.urandom(size)
        (outdir / name).write_bytes(payload)
        files[name] = payload
    server = DataServer(loop, "127.0.0.1")
    server.add_context("ctx", str(outdir))
    server.start()
    yield server, str(outdir), files, tmp_path
    server.stop()


class TestFetch:
    def test_fetch_verifies_and_renames(self, served_context):
        server, outdir, files, tmp_path = served_context
        dest = str(tmp_path / "got.sdf")
        with DataClient(server.host, server.port) as client:
            result = client.fetch("ctx", "big.sdf", dest)
        assert result.size == len(files["big.sdf"])
        assert result.bytes == result.size
        assert result.resumed_from == 0
        assert open(dest, "rb").read() == files["big.sdf"]
        assert result.checksum == file_checksum(dest)
        assert not os.path.exists(dest + ".part")

    def test_multiple_fetches_on_one_connection(self, served_context):
        server, outdir, files, tmp_path = served_context
        with DataClient(server.host, server.port) as client:
            for name in files:
                result = client.fetch("ctx", name, str(tmp_path / name))
                assert result.size == len(files[name])

    def test_resume_transfers_only_the_tail(self, served_context):
        server, outdir, files, tmp_path = served_context
        dest = str(tmp_path / "resumed.sdf")
        half = len(files["big.sdf"]) // 2
        with open(dest + ".part", "wb") as fh:
            fh.write(files["big.sdf"][:half])
        with DataClient(server.host, server.port) as client:
            result = client.fetch("ctx", "big.sdf", dest)
        assert result.resumed_from == half
        assert result.bytes == len(files["big.sdf"]) - half
        assert open(dest, "rb").read() == files["big.sdf"]

    def test_stale_part_larger_than_file_restarts(self, served_context):
        server, outdir, files, tmp_path = served_context
        dest = str(tmp_path / "stale.sdf")
        with open(dest + ".part", "wb") as fh:
            fh.write(b"x" * (len(files["small.sdf"]) + 100))
        with DataClient(server.host, server.port) as client:
            result = client.fetch("ctx", "small.sdf", dest)
        assert result.resumed_from == 0
        assert open(dest, "rb").read() == files["small.sdf"]

    def test_corrupt_resume_detected_by_checksum(self, served_context):
        server, outdir, files, tmp_path = served_context
        dest = str(tmp_path / "corrupt.sdf")
        with open(dest + ".part", "wb") as fh:
            fh.write(b"\x00" * 1000)  # right length prefix, wrong bytes
        with DataClient(server.host, server.port) as client:
            with pytest.raises(TransferChecksumError):
                client.fetch("ctx", "big.sdf", dest)
        # The poisoned partial was discarded: a clean retry succeeds.
        with DataClient(server.host, server.port) as client:
            result = client.fetch("ctx", "big.sdf", dest)
        assert result.resumed_from == 0
        assert open(dest, "rb").read() == files["big.sdf"]

    def test_expected_checksum_mismatch_rejected(self, served_context):
        server, outdir, files, tmp_path = served_context
        with DataClient(server.host, server.port) as client:
            with pytest.raises(TransferChecksumError):
                client.fetch("ctx", "small.sdf", str(tmp_path / "x.sdf"),
                             expected_checksum="0" * 64)

    def test_missing_file_and_unknown_context(self, served_context):
        server, outdir, files, tmp_path = served_context
        with DataClient(server.host, server.port) as client:
            with pytest.raises(FileNotInContextError):
                client.fetch("ctx", "nope.sdf", str(tmp_path / "n.sdf"))
            with pytest.raises(FileNotInContextError):
                client.fetch("other", "small.sdf", str(tmp_path / "o.sdf"))
            # The connection survives errors: a good fetch still works.
            result = client.fetch("ctx", "small.sdf", str(tmp_path / "k.sdf"))
            assert result.size == len(files["small.sdf"])

    def test_path_escape_rejected(self, served_context):
        server, outdir, files, tmp_path = served_context
        (tmp_path / "secret.txt").write_bytes(b"no")
        with DataClient(server.host, server.port) as client:
            with pytest.raises(FileNotInContextError):
                client.fetch("ctx", "../secret.txt", str(tmp_path / "s.txt"))

    def test_connect_refused_maps_to_connection_lost(self, served_context):
        server, *_ = served_context
        from tests.integration.conftest import free_port

        with pytest.raises(DVConnectionLost):
            DataClient("127.0.0.1", free_port(), timeout=2.0)


class TestSchedulingLive:
    def test_concurrent_pulls_within_fairness_bound(self, tmp_path, loop):
        outdir = tmp_path / "out"
        outdir.mkdir()
        payload = os.urandom(4 * 1024 * 1024)
        (outdir / "bulk.sdf").write_bytes(payload)
        server = DataServer(loop, "127.0.0.1", link_rate=40e6, burst=1e6)
        server.add_context("ctx", str(outdir))
        server.start()
        results = {}
        barrier = threading.Barrier(4)

        def pull(i):
            with DataClient(server.host, server.port) as client:
                barrier.wait()
                results[i] = client.fetch(
                    "ctx", "bulk.sdf", str(tmp_path / f"copy{i}.sdf")
                )

        try:
            threads = [
                threading.Thread(target=pull, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(results) == 4
            rates = sorted(r.throughput_mbps for r in results.values())
            assert rates[0] > 0
            # DRR acceptance bound: fastest within 2x of slowest.
            assert rates[-1] / rates[0] <= 2.0, rates
        finally:
            server.stop()

    def test_ping_latency_survives_bulk_load(self, tmp_path, loop):
        outdir = tmp_path / "out"
        outdir.mkdir()
        payload = os.urandom(8 * 1024 * 1024)
        (outdir / "bulk.sdf").write_bytes(payload)
        server = DataServer(loop, "127.0.0.1", link_rate=20e6, burst=1e6)
        server.add_context("ctx", str(outdir))
        server.start()
        stop = threading.Event()

        def bulk_pull(i):
            try:
                with DataClient(server.host, server.port) as client:
                    while not stop.is_set():
                        client.fetch("ctx", "bulk.sdf",
                                     str(tmp_path / f"bg{i}.sdf"))
            except DVConnectionLost:
                pass  # server stopping mid-fetch at teardown

        try:
            pullers = [
                threading.Thread(target=bulk_pull, args=(i,), daemon=True)
                for i in range(2)
            ]
            for t in pullers:
                t.start()
            time.sleep(0.3)  # let bulk saturate the throttled link
            with DataClient(server.host, server.port) as client:
                rtts = [client.ping() for _ in range(20)]
            rtts.sort()
            # A ping on its own connection never waits for the link:
            # even p95 stays well under the multi-second span a 20 MB/s
            # link spends on each 8 MiB bulk file.
            assert rtts[int(len(rtts) * 0.95) - 1] < 0.5, rtts
        finally:
            stop.set()
            server.stop()
            for t in pullers:
                t.join(timeout=10)

    def test_stats_exposes_transfer_metrics(self, served_context):
        server, outdir, files, tmp_path = served_context
        with DataClient(server.host, server.port) as client:
            client.fetch("ctx", "small.sdf", str(tmp_path / "m.sdf"))
        stats = server.stats()
        assert stats["port"] == server.port
        metrics = stats["metrics"]
        assert metrics["transfer.completed"]["value"] >= 1
        assert metrics["transfer.bytes_sent"]["value"] >= len(files["small.sdf"])


class TestProtocolEdges:
    @pytest.mark.parametrize(
        "fields", list(MALFORMED_FETCH.values()), ids=list(MALFORMED_FETCH)
    )
    def test_malformed_fetch_is_answered_and_the_port_keeps_serving(
        self, served_context, fields
    ):
        server, outdir, files, tmp_path = served_context
        request = {"op": "fetch", "context": "ctx", "file": "small.sdf",
                   "offset": 0, **fields}
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as sock:
            sock.sendall(encode_binary(request))
            reply = next(answers(sock))
        assert reply["op"] == "error", reply
        assert reply["code"] == ErrorCode.ERR_PROTOCOL
        with DataClient(server.host, server.port, timeout=5.0) as client:
            result = client.fetch("ctx", "small.sdf", str(tmp_path / "next.sdf"))
        assert result.size == len(files["small.sdf"])

    @pytest.mark.parametrize("op", ["list", "chunk", "open"])
    def test_an_op_the_port_does_not_serve_is_refused(self, served_context, op):
        """``list`` is gone (``fetch_info`` lists a context), a ``chunk``
        is the server's to send, and control-port ops have no business
        here: each is answered ``ERR_PROTOCOL`` and the connection serves
        the next request."""
        server, *_ = served_context
        frame = {
            "list": encode_binary({"op": "list", "context": "ctx"}),
            "chunk": encode_chunk_header(5) + b"bytes",
            "open": encode_binary({"op": "open", "req": 1, "context": "ctx",
                                   "file": "small.sdf"}),
        }[op]
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as sock:
            sock.sendall(frame + encode_binary({"op": "ping", "t": 1}))
            replies = answers(sock)
            refused = next(replies)
            assert (refused["op"], refused["code"]) == (
                "error", ErrorCode.ERR_PROTOCOL), refused
            assert next(replies) == {"op": "pong", "t": 1}

    def test_garbage_bytes_get_error_frame_and_close(self, served_context):
        server, *_ = served_context
        import socket as socket_mod

        sock = socket_mod.create_connection((server.host, server.port))
        try:
            sock.sendall(b"\x00" * 64)
            sock.settimeout(5.0)
            # Server replies with an error control frame, then closes.
            data = sock.recv(65536)
            assert data  # error frame, not a silent drop
            rest = sock.recv(65536)
            assert rest == b""
        finally:
            sock.close()

    @pytest.mark.parametrize("second", ["same", "different"])
    def test_a_fetch_while_the_slot_is_taken_is_refused(self, tmp_path, loop,
                                                         second):
        """One fetch per connection: a second ``fetch`` — the same file
        or another — while the first streams is refused ``ERR_INVALID``,
        the first streams on to its ``fetch_end``, and the freed slot
        serves the next fetch."""
        outdir = tmp_path / "out"
        outdir.mkdir()
        size = 4 * 1024 * 1024
        (outdir / "big.sdf").write_bytes(os.urandom(size))
        (outdir / "other.sdf").write_bytes(b"other")
        # Throttled link: the first transfer is guaranteed in flight
        # when the second fetch lands.
        server = DataServer(loop, "127.0.0.1", link_rate=8e6, burst=256 * 1024)
        server.add_context("ctx", str(outdir))
        server.start()
        first = {"op": "fetch", "context": "ctx", "file": "big.sdf", "offset": 0}
        again = first if second == "same" else dict(first, file="other.sdf")
        try:
            with socket.create_connection((server.host, server.port),
                                          timeout=10.0) as sock:
                sock.sendall(encode_binary(first))
                replies = answers(sock)
                ops, streamed = [], 0
                for message in replies:
                    ops.append(message["op"])
                    if message["op"] == "fetch_start" and ops.count("fetch_start") == 1:
                        sock.sendall(encode_binary(again))
                    elif message["op"] == "chunk":
                        streamed += len(message["data"])
                    elif message["op"] == "error":
                        assert message["code"] == ErrorCode.ERR_INVALID, message
                    elif message["op"] == "fetch_end":
                        assert message["bytes"] == size
                        break
                assert streamed == size
                assert [op for op in ops if op != "chunk"] == [
                    "fetch_start", "error", "fetch_end"]
                sock.sendall(encode_binary(again))
                follow_up = [next(replies) for _ in range(2)]
                assert follow_up[0]["op"] == "fetch_start", follow_up
        finally:
            server.stop()


class TestOneConnectionState:
    def test_unread_answers_stay_bounded_and_all_arrive_in_order(
        self, served_context
    ):
        """A client that floods pings and never reads: the server stops
        reading that connection while its unsent answers are past the
        high-water mark, so they stay under the mark plus one read's
        worth.  Once the client reads, every ping the kernel took is
        answered, in order."""
        server, *_ = served_context
        ping = len(encode_binary({"op": "ping", "t": 0}))
        pong = len(encode_binary({"op": "pong", "t": 10 ** 9}))
        bound = _CTRL_HIGH_WATER + (_RECV_SIZE // ping + 1) * pong
        # Small socket buffers on both ends (the server's connection
        # inherits its listener's) keep the flood and the read-back short.
        server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.connect((server.host, server.port))
        try:
            sock.setblocking(False)
            sent, peak = 0, 0
            pending = b""
            now = time.monotonic()
            deadline, stalled = now + 3.0, now + 0.5
            # Until the server has stopped reading for half a second.
            while now < min(deadline, stalled):
                if not pending:
                    pending = b"".join(
                        encode_binary({"op": "ping", "t": sent + i})
                        for i in range(1000))
                try:
                    n = sock.send(pending)
                except BlockingIOError:
                    time.sleep(0.01)
                else:
                    pending = pending[n:]
                    if not pending:
                        sent += 1000
                    stalled = time.monotonic() + 0.5
                peak = max([peak, *(len(conn.ctrl_out)
                                     for conn in list(server._conns.values()))])
                now = time.monotonic()
            # The flood reached the mark, and the server stopped there.
            assert _CTRL_HIGH_WATER < peak <= bound, (peak, bound)
            # Read everything while the last partial burst goes out.
            sock.setblocking(True)
            sock.settimeout(30.0)
            tail = threading.Thread(target=sock.sendall, args=(pending,))
            tail.start()
            replies = answers(sock)
            for i in range(sent + (1000 if pending else 0)):
                assert next(replies) == {"op": "pong", "t": i}
            tail.join(timeout=30.0)
        finally:
            sock.close()

    def test_a_fetch_that_fails_mid_stream_closes_the_client(self, tmp_path):
        """After ``fetch_start`` a bad frame leaves the client nowhere in
        the stream: the fetch raises and the connection is closed, so
        the next call cannot misread the rest of that stream."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(
                    encode_binary({"op": "fetch_start", "size": 10,
                                   "offset": 0, "checksum": ""})
                    + encode_chunk_header(4) + b"abcd" + b"\x00" * 16)
                conn.recv(65536)  # until the client hangs up

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = DataClient(*listener.getsockname(), timeout=5.0)
            with pytest.raises(ProtocolError):
                client.fetch("ctx", "f.sdf", str(tmp_path / "f.sdf"))
            with pytest.raises(DVConnectionLost):
                client.ping()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            listener.close()


def scripted_server(script):
    """A one-connection server that, for each ``(reads, reply)`` of
    ``script``, takes ``reads`` request frames and sends ``reply``, then
    waits for the client to hang up.  Returns ``(address, thread,
    listener)``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            decoder = StreamDecoder(CODEC_BINARY)
            taken = 0
            for reads, reply in script:
                taken += reads
                while len(seen) < taken:
                    data = conn.recv(65536)
                    if not data:
                        return
                    decoder.feed(data)
                    seen.extend(decoder.drain())
                conn.sendall(reply)
            while conn.recv(65536):
                pass

    seen = []
    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread, listener


class TestOnePass:
    def test_a_4_mib_fetch_on_an_unlimited_link_is_16_frames(self, tmp_path,
                                                              loop):
        outdir = tmp_path / "out"
        outdir.mkdir()
        payload = os.urandom(4 * 1024 * 1024)
        (outdir / "bulk.sdf").write_bytes(payload)
        server = DataServer(loop, "127.0.0.1")
        server.add_context("ctx", str(outdir))
        server.start()
        try:
            with DataClient(server.host, server.port) as client:
                client.fetch("ctx", "bulk.sdf", str(tmp_path / "got.sdf"))
            frames = server.stats()["metrics"]["transfer.frames_sent"]["value"]
        finally:
            server.stop()
        assert frames == 16
        assert (tmp_path / "got.sdf").read_bytes() == payload

    def test_the_fetch_path_never_reads_a_file_back(self, served_context,
                                                    monkeypatch):
        """The server hashes from the descriptor it sends from, and the
        client hashes the stream as it writes it (and a resumed prefix
        from disk): ``file_checksum`` is never called."""
        server, outdir, files, tmp_path = served_context

        def boom(path):
            raise AssertionError(f"file_checksum({path!r}) on the fetch path")

        for module in (checksums, client_module, server_module):
            monkeypatch.setattr(module, "file_checksum", boom, raising=False)
        dest = str(tmp_path / "once.sdf")
        half = len(files["big.sdf"]) // 2
        with open(dest + ".part", "wb") as fh:
            fh.write(files["big.sdf"][:half])
        with DataClient(server.host, server.port) as client:
            resumed = client.fetch("ctx", "big.sdf", dest)
            fresh = client.fetch("ctx", "small.sdf", str(tmp_path / "s.sdf"))
        assert resumed.resumed_from == half
        assert open(dest, "rb").read() == files["big.sdf"]
        assert fresh.checksum == checksums.bytes_checksum(files["small.sdf"])

    def test_a_wrong_announced_checksum_leaves_no_dest_and_no_part(
        self, served_context, monkeypatch
    ):
        server, outdir, files, tmp_path = served_context
        monkeypatch.setattr(server, "_checksum", lambda path, fd, st: "0" * 64)
        dest = str(tmp_path / "wrong.sdf")
        with DataClient(server.host, server.port) as client:
            with pytest.raises(TransferChecksumError):
                client.fetch("ctx", "big.sdf", dest)
            # A checksum mismatch is an answer: the connection serves on.
            assert client.ping() >= 0
        assert not os.path.exists(dest)
        assert not os.path.exists(dest + ".part")

    def test_a_fetch_over_an_existing_dest_never_shows_it_missing_or_partial(
        self, served_context, monkeypatch
    ):
        """``dest`` is published whole: a reader polling it — a thread,
        and a look before and after every rename and unlink the fetch
        makes — sees the old bytes or the new ones, never no file or a
        prefix.  A fetch failing its checksum leaves the old ``dest``."""
        server, outdir, files, tmp_path = served_context
        dest = str(tmp_path / "published.sdf")
        old, new = b"old version " * 4096, files["big.sdf"]
        with open(dest, "wb") as fh:
            fh.write(old)
        seen = []

        def look():
            try:
                with open(dest, "rb") as fh:
                    body = fh.read()
            except FileNotFoundError:
                body = None
            if body not in (old, new):
                seen.append("missing" if body is None else len(body))

        for name in ("replace", "rename", "unlink", "remove"):
            call = getattr(os, name)

            def probed(*args, _call=call, **kwargs):
                look()
                try:
                    return _call(*args, **kwargs)
                finally:
                    look()

            monkeypatch.setattr(os, name, probed)
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                look()

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            with DataClient(server.host, server.port) as client:
                for _ in range(2):  # over the old version, then over itself
                    client.fetch("ctx", "big.sdf", dest, resume=False)
                with open(dest + ".old", "wb") as fh:  # the old one back
                    fh.write(old)
                os.replace(dest + ".old", dest)
                with pytest.raises(TransferChecksumError):
                    client.fetch("ctx", "big.sdf", dest, resume=False,
                                 expected_checksum="0" * 64)
        finally:
            stop.set()
            poller.join()
        assert seen == []
        assert open(dest, "rb").read() == old
        assert not os.path.exists(dest + ".part")

    def test_a_resume_over_a_prefix_corrupted_on_disk_is_caught(
        self, served_context
    ):
        server, outdir, files, tmp_path = served_context
        dest = str(tmp_path / "flipped.sdf")
        half = len(files["big.sdf"]) // 2
        prefix = bytearray(files["big.sdf"][:half])
        prefix[half // 2] ^= 0xFF  # one bit-rotted byte the stream never sees
        with open(dest + ".part", "wb") as fh:
            fh.write(prefix)
        with DataClient(server.host, server.port) as client:
            with pytest.raises(TransferChecksumError):
                client.fetch("ctx", "big.sdf", dest)
            assert not os.path.exists(dest + ".part")
            result = client.fetch("ctx", "big.sdf", dest)
        assert result.resumed_from == 0
        assert open(dest, "rb").read() == files["big.sdf"]

    def test_a_new_version_renamed_over_the_file_mid_prepare(
        self, served_context, monkeypatch
    ):
        """The prepare opens the file once: a re-simulation that renames a
        new version over it right after the checksum is taken changes
        neither the size nor the bytes the announced checksum covers."""
        server, outdir, files, tmp_path = served_context
        path = os.path.join(outdir, "big.sdf")
        newer = os.urandom(len(files["big.sdf"]) + 4096)
        checksum = server._checksum

        def checksum_then_swap(path_, fd, st):
            digest = checksum(path_, fd, st)
            with open(path + ".new", "wb") as fh:
                fh.write(newer)
            os.replace(path + ".new", path)
            return digest

        monkeypatch.setattr(server, "_checksum", checksum_then_swap)
        dest = str(tmp_path / "snapshot.sdf")
        with DataClient(server.host, server.port) as client:
            result = client.fetch("ctx", "big.sdf", dest)
        assert result.size == len(files["big.sdf"])
        assert open(dest, "rb").read() == files["big.sdf"]

    def test_a_directory_is_not_a_file_to_fetch(self, served_context):
        server, outdir, files, tmp_path = served_context
        os.mkdir(os.path.join(outdir, "adir"))
        with DataClient(server.host, server.port) as client:
            with pytest.raises(FileNotInContextError):
                client.fetch("ctx", "adir", str(tmp_path / "d.sdf"))
            assert client.fetch("ctx", "small.sdf",
                                str(tmp_path / "k.sdf")).size == 650

    def test_answers_to_one_read_leave_in_one_send(self):
        """32 pipelined pings, read at once, are answered by 32 in-order
        pongs written with one ``send``."""

        class CountingSocket:
            def __init__(self, sock):
                self.sock, self.sends = sock, 0

            def send(self, data):
                self.sends += 1
                return self.sock.send(data)

            def __getattr__(self, name):
                return getattr(self.sock, name)

        loop = EventLoop(workers=1)  # never started: no threads
        server = DataServer(loop, "127.0.0.1")
        ours, theirs = socket.socketpair()
        try:
            sock = CountingSocket(ours)
            conn = _DataConn(sock)
            server._conns[conn.fd] = conn
            theirs.sendall(b"".join(encode_binary({"op": "ping", "t": i})
                                    for i in range(32)))
            server._on_readable(conn)
            assert sock.sends == 1
            theirs.settimeout(5.0)
            replies = answers(theirs)
            assert [next(replies) for _ in range(32)] == [
                {"op": "pong", "t": i} for i in range(32)]
        finally:
            server.stop()
            loop.stop()
            ours.close()
            theirs.close()


class TestClientFraming:
    """The client reads frame headers itself; what the decoder refuses,
    it refuses, and any answer the decoder takes, it takes."""

    @pytest.mark.parametrize("header", [
        b"\x00" * 8,                                    # bad magic
        bytes([0xDF, 0, 0, 0]) + (_MAX_MESSAGE + 1).to_bytes(4, "big"),
    ], ids=["bad-magic", "oversize"])
    def test_a_bad_first_header_fails_the_fetch_and_closes(self, tmp_path, header):
        address, thread, listener = scripted_server([(1, header + b"\x00" * 64)])
        try:
            client = DataClient(*address, timeout=5.0)
            with pytest.raises(ProtocolError):
                client.fetch("ctx", "f.sdf", str(tmp_path / "f.sdf"))
            with pytest.raises(DVConnectionLost):
                client.ping()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            listener.close()

    def test_a_chunk_before_fetch_start_is_a_protocol_error(self, tmp_path):
        address, thread, listener = scripted_server(
            [(1, encode_chunk_header(4) + b"abcd")])
        try:
            client = DataClient(*address, timeout=5.0)
            with pytest.raises(ProtocolError, match="before fetch_start"):
                client.fetch("ctx", "f.sdf", str(tmp_path / "f.sdf"))
            assert not os.path.exists(tmp_path / "f.sdf.part")
            with pytest.raises(DVConnectionLost):
                client.ping()
        finally:
            listener.close()

    def test_an_answer_bigger_than_the_buffer_is_read_whole(self, tmp_path):
        """An error answer near the codec's cap is larger than any
        buffer the client keeps; it is read whole, and the connection
        serves the next request."""
        detail = "x" * (_MAX_MESSAGE - 100)
        error = encode_binary({"op": "error", "code": int(ErrorCode.ERR_NOT_FOUND),
                               "error": detail})
        address, thread, listener = scripted_server([
            (1, error),
            (1, encode_binary({"op": "pong", "t": 1})),
        ])
        try:
            with DataClient(*address, timeout=5.0) as client:
                with pytest.raises(FileNotInContextError) as info:
                    client.fetch("ctx", "f.sdf", str(tmp_path / "f.sdf"))
                assert str(info.value) == detail
                assert len(client._buf) < len(error)
                assert client.ping() >= 0
        finally:
            listener.close()

    def test_a_header_across_the_buffers_end(self, tmp_path):
        """A ``fetch_start`` that ends 4 bytes short of the client's
        first buffer: the chunk header after it arrives split across the
        buffer's end and is moved to the front whole."""
        body = os.urandom(5000)
        fields = {"op": "fetch_start", "size": len(body), "offset": 0,
                  "checksum": checksums.bytes_checksum(body), "pad": ""}
        fields["pad"] = "x" * (client_module._CTRL_BUFFER - 4
                               - len(encode_binary(fields)))
        start = encode_binary(fields)
        assert len(start) == client_module._CTRL_BUFFER - 4
        address, thread, listener = scripted_server([(1, (
            start + encode_chunk_header(len(body)) + body
            + encode_binary({"op": "fetch_end", "bytes": len(body)})))])
        try:
            with DataClient(*address, timeout=5.0) as client:
                result = client.fetch("ctx", "f.sdf", str(tmp_path / "f.sdf"))
            assert result.size == len(body)
            assert (tmp_path / "f.sdf").read_bytes() == body
        finally:
            listener.close()

    def test_chunks_split_anywhere_reassemble(self, tmp_path):
        """Frames that arrive cut at every boundary — a header split
        across reads, many frames in one read — still land byte-exact."""
        body = os.urandom(300_000)
        frames = encode_binary({"op": "fetch_start", "size": len(body),
                                "offset": 0,
                                "checksum": checksums.bytes_checksum(body)})
        for at in range(0, len(body), 70_000):
            piece = body[at:at + 70_000]
            frames += encode_chunk_header(len(piece)) + piece
        frames += encode_binary({"op": "fetch_end", "bytes": len(body)})
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.recv(65536)
                for at in range(0, len(frames), 4093):  # prime-sized dribble
                    conn.sendall(frames[at:at + 4093])
                while conn.recv(65536):
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with DataClient(*listener.getsockname(), timeout=5.0) as client:
                result = client.fetch("ctx", "f.sdf", str(tmp_path / "f.sdf"))
            assert result.size == len(body)
            assert (tmp_path / "f.sdf").read_bytes() == body
        finally:
            listener.close()
