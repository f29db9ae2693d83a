"""DataServer + DataClient over loopback: chunked fetch, checksums,
resume, error mapping, malformed requests, and the control lane's
latency guarantee under bulk load."""

import json
import os
import socket
import threading
import time

import pytest

from repro.core.errors import (
    DVConnectionLost,
    ErrorCode,
    FileNotInContextError,
)
from repro.data import DataClient, DataServer, TransferChecksumError
from repro.data.protocol import (
    HEADER,
    KIND_CTRL,
    MAGIC,
    DataFrameDecoder,
    decode_ctrl,
    encode_ctrl,
)
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


def first_ctrl(sock):
    """The first control message the server sends on ``sock``."""
    decoder = DataFrameDecoder()
    while True:
        data = sock.recv(65536)
        assert data, "the server closed the connection without a reply"
        for kind, _chan, payload in decoder.feed(data):
            if kind == KIND_CTRL:
                return decode_ctrl(payload)


@pytest.fixture
def served_context(tmp_path):
    outdir = tmp_path / "out"
    outdir.mkdir()
    files = {}
    for name, size in (("small.sdf", 650), ("big.sdf", 3 * 1024 * 1024)):
        payload = os.urandom(size)
        (outdir / name).write_bytes(payload)
        files[name] = payload
    server = DataServer("127.0.0.1")
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

    def test_list_files(self, served_context):
        server, outdir, files, tmp_path = served_context
        with DataClient(server.host, server.port) as client:
            assert sorted(client.list_files("ctx")) == sorted(files)
            with pytest.raises(FileNotInContextError):
                client.list_files("other")

    def test_connect_refused_maps_to_connection_lost(self, served_context):
        server, *_ = served_context
        from tests.integration.conftest import free_port

        with pytest.raises(DVConnectionLost):
            DataClient("127.0.0.1", free_port(), timeout=2.0)


class TestSchedulingLive:
    def test_concurrent_pulls_within_fairness_bound(self, tmp_path):
        outdir = tmp_path / "out"
        outdir.mkdir()
        payload = os.urandom(4 * 1024 * 1024)
        (outdir / "bulk.sdf").write_bytes(payload)
        server = DataServer("127.0.0.1", link_rate=40e6, burst=1e6)
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

    def test_ping_latency_survives_bulk_load(self, tmp_path):
        outdir = tmp_path / "out"
        outdir.mkdir()
        payload = os.urandom(8 * 1024 * 1024)
        (outdir / "bulk.sdf").write_bytes(payload)
        server = DataServer("127.0.0.1", link_rate=20e6, burst=1e6)
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
            # Control lane: even p95 stays well under the multi-second
            # span a 20 MB/s link spends on each 8 MiB bulk file.
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
        request = {"op": "fetch", "channel": 3, "context": "ctx",
                   "file": "small.sdf", "offset": 0, **fields}
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as sock:
            sock.sendall(encode_ctrl(request))
            reply = first_ctrl(sock)
        assert reply["op"] == "error", reply
        assert (reply["code"], reply["channel"]) == (ErrorCode.ERR_PROTOCOL, 3)
        with DataClient(server.host, server.port, timeout=5.0) as client:
            result = client.fetch("ctx", "small.sdf", str(tmp_path / "next.sdf"))
        assert result.size == len(files["small.sdf"])

    def test_the_frame_header_names_the_channel(self, served_context):
        """A ``channel`` field in the body is ignored: the transfer runs
        on the header's channel, and the port keeps serving."""
        server, outdir, files, tmp_path = served_context
        payload = json.dumps({"op": "fetch", "channel": "abc", "context": "ctx",
                              "file": "small.sdf", "offset": 0}).encode()
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as sock:
            sock.sendall(HEADER.pack(MAGIC, KIND_CTRL, 5, len(payload)) + payload)
            reply = first_ctrl(sock)
        assert (reply["op"], reply["channel"]) == ("fetch_start", 5)
        with DataClient(server.host, server.port, timeout=5.0) as client:
            assert client.list_files("ctx") == sorted(files)

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

    def test_duplicate_channel_rejected(self, tmp_path):
        from repro.data.protocol import (
            KIND_CTRL,
            DataFrameDecoder,
            decode_ctrl,
            encode_ctrl,
        )
        import socket as socket_mod

        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "big.sdf").write_bytes(os.urandom(4 * 1024 * 1024))
        # Throttled link: the first transfer is guaranteed in flight
        # when the duplicate fetch lands.
        server = DataServer("127.0.0.1", link_rate=2e6, burst=256 * 1024)
        server.add_context("ctx", str(outdir))
        server.start()
        sock = socket_mod.create_connection((server.host, server.port))
        sock.settimeout(10.0)
        try:
            fetch = encode_ctrl({
                "op": "fetch", "channel": 9, "context": "ctx",
                "file": "big.sdf", "offset": 0,
            })
            sock.sendall(fetch)
            decoder = DataFrameDecoder()
            saw_start = saw_error = False
            deadline = time.monotonic() + 15.0
            while not saw_error and time.monotonic() < deadline:
                for kind, _chan, payload in decoder.feed(sock.recv(65536)):
                    if kind != KIND_CTRL:
                        continue
                    op = decode_ctrl(payload).get("op")
                    if op == "fetch_start" and not saw_start:
                        saw_start = True
                        sock.sendall(fetch)  # duplicate while in flight
                    elif op == "error":
                        saw_error = True
            assert saw_start and saw_error
        finally:
            sock.close()
            server.stop()
