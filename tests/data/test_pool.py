"""DVLib keeps its data connections: ``DataClientPool``.

A fetch runs on an idle connection to its data port, or a new one, one
fetch per connection at a time.  An error answer keeps the connection
for the next fetch; a fetch cut mid-stream drops it; a kept connection
the server closed meanwhile fails before any answer byte and is
replaced once, the fetch succeeding; ``close`` closes every one.
Through ``TcpConnection`` the same holds per thread: two threads
fetching at once use two connections.
"""

import os
import threading

import pytest

from repro.core.errors import DVConnectionLost, FileNotInContextError
from repro.data import DataClient, DataClientPool, DataServer
from tests.data.test_one_loop import eventually
from tests.dv.test_server_selector import connect, make_server


@pytest.fixture
def port(tmp_path, loop):
    """A data port serving ``ctx``: a small and a 2 MiB file."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "small.sdf").write_bytes(os.urandom(650))
    (outdir / "big.sdf").write_bytes(os.urandom(2 * 1024 * 1024))
    server = DataServer(loop, "127.0.0.1", link_rate=4e6, burst=256 * 1024)
    server.add_context("ctx", str(outdir))
    server.start()
    yield server
    server.stop()


def connections(server):
    """The data connections the server holds, counted on its loop."""
    counted = []
    server.loop.call(lambda: counted.append(len(server._conns)))
    return counted[0]


def cut_all(server):
    """The server drops every data connection, as a restart would."""
    server.loop.call(lambda: [server._teardown(c) for c in list(server._conns.values())])


def idle(pool, server):
    return list(pool._idle.get((server.host, server.port), []))


def test_an_error_answer_keeps_the_connection(port, tmp_path):
    pool = DataClientPool()
    try:
        with pytest.raises(FileNotInContextError):
            pool.fetch(port.host, port.port, 10.0, "ctx", "none.sdf",
                       str(tmp_path / "none.sdf"))
        (kept,) = idle(pool, port)
        result = pool.fetch(port.host, port.port, 10.0, "ctx", "small.sdf",
                            str(tmp_path / "small.sdf"))
        assert result.size == 650
        assert idle(pool, port) == [kept] and connections(port) == 1
    finally:
        pool.close()


def test_a_mid_stream_cut_drops_the_connection(port, tmp_path):
    pool = DataClientPool()
    failed = []

    def fetch():
        try:
            pool.fetch(port.host, port.port, 10.0, "ctx", "big.sdf",
                       str(tmp_path / "big.sdf"))
        except DVConnectionLost as exc:
            failed.append(exc)

    fetcher = threading.Thread(target=fetch, daemon=True)
    fetcher.start()
    try:
        # The throttled link is streaming: chunks have left.
        assert eventually(
            lambda: port.metrics.get("transfer.bytes_sent").value > 0)
        cut_all(port)
        fetcher.join(10.0)
        assert failed and idle(pool, port) == []
        assert os.path.exists(str(tmp_path / "big.sdf.part"))  # resumable
    finally:
        pool.close()


def test_a_kept_connection_the_server_closed_is_replaced_once(port, tmp_path):
    pool = DataClientPool()
    dest = str(tmp_path / "small.sdf")
    try:
        pool.fetch(port.host, port.port, 10.0, "ctx", "small.sdf", dest)
        (stale,) = idle(pool, port)
        cut_all(port)
        assert eventually(lambda: connections(port) == 0)
        result = pool.fetch(port.host, port.port, 10.0, "ctx", "small.sdf", dest)
        assert result.size == 650 and open(dest, "rb").read() == open(
            os.path.join(port._dirs["ctx"], "small.sdf"), "rb").read()
        (fresh,) = idle(pool, port)
        assert fresh is not stale and stale.closed
    finally:
        pool.close()


@pytest.fixture
def daemon(tmp_path):
    """A started daemon advertising a data port on its loop."""
    server, contexts = make_server(tmp_path)
    data = DataServer(server.loop)
    data.add_context("alpha", server.launcher.output_dir("alpha"))
    data.start()
    server.set_data_endpoint(data.host, data.port)
    yield server, data, contexts["alpha"]
    data.stop()
    server.stop()


def test_two_threads_sharing_a_connection_use_two_data_connections(
    daemon, tmp_path, monkeypatch
):
    server, data, context = daemon
    both = threading.Barrier(2, timeout=10.0)
    fetch = DataClient.fetch

    def fetch_together(client, *args, **kwargs):
        both.wait()  # each thread holds its connection here
        return fetch(client, *args, **kwargs)

    monkeypatch.setattr(DataClient, "fetch", fetch_together)
    results = []
    with connect(server, "alpha") as conn:
        conn.attach("alpha")

        def pull(index):
            results.append(conn.fetch_file(
                "alpha", context.filename_of(1 + index),
                str(tmp_path / f"got-{index}.sdf")))

        threads = [threading.Thread(target=pull, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(results) == 2
        assert len(idle(conn._data, data)) == 2 and connections(data) == 2


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_close_leaves_no_data_connection_open(daemon, tmp_path):
    server, data, context = daemon
    before = open_fds()
    conn = connect(server, "alpha")
    conn.attach("alpha")
    for key in (1, 2):
        conn.fetch_file("alpha", context.filename_of(key), str(tmp_path / "got.sdf"))
    (kept,) = idle(conn._data, data)
    conn.close()
    assert kept.closed
    assert eventually(lambda: connections(data) == 0)
    assert eventually(lambda: open_fds() <= before)
