"""One loop per node: the data port, the node's timers and its peer
links on the DV daemon's event loop.

A node runs one I/O thread and one worker pool.  The data port owns no
thread of its own, and neither do the heartbeat, the gossip kicks, the
replication pump and the peer links: the first three are timers and
hand-offs on the loop that submit their work to the pool, and the loop
reads and writes the links.  The data port's sockets share the I/O
thread with the control port, so nothing the data port waits on may
hold the control port up: a client that stops reading, a link waiting
for tokens, the data port's own stop.  And a prepare that finishes after
the data port stopped closes the descriptor it opened."""

import os
import socket
import threading
import time

import pytest

from repro.cluster import ClusterNode
from repro.core.context import SimulationContext
from repro.core.errors import DVConnectionLost
from repro.data import DataClient, DataServer
from repro.dv.protocol import encode_binary
from tests.dv.test_server_selector import connect, make_server
from tests.integration.test_cluster_stack import build_context
from tests.integration.test_forwarding_regressions import (
    VNODES,
    PipelinedClient,
    owned_by,
)


def eventually(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


def new_threads(before):
    return sorted(t.name for t in set(threading.enumerate()) - before)


@pytest.fixture
def node(tmp_path):
    """A started DV server with context ``alpha``, and a function that
    puts a data port serving ``size`` random bytes on its loop."""
    server, contexts = make_server(tmp_path)
    ports = []

    def data_port(size, **kwargs):
        outdir = tmp_path / "bulk"
        outdir.mkdir(exist_ok=True)
        (outdir / "bulk.sdf").write_bytes(os.urandom(size))
        data = DataServer(server.loop, **kwargs)
        data.add_context("bulk", str(outdir))
        data.start()
        ports.append(data)
        return data

    yield server, contexts["alpha"], data_port
    for data in ports:
        data.stop()
    server.stop()


def control_port_answers(server, context):
    """An ``open`` of a resident file on the control port is answered."""
    with connect(server, "alpha") as conn:
        conn.call({"op": "attach", "context": "alpha"})
        return conn.open("alpha", context.filename_of(1)).available


LOOP_THREADS = ["simfs-dv-io"] + [f"simfs-dv-worker-{idx}" for idx in range(4)]


def test_an_idle_node_runs_five_threads_and_a_data_port_adds_none():
    before = set(threading.enumerate())
    node = ClusterNode("n1")
    node.start()
    try:
        names = new_threads(before)
        assert names == LOOP_THREADS
        data = DataServer(node.server.loop)
        data.start()
        try:
            assert new_threads(before) == names
        finally:
            data.stop()
    finally:
        node.stop()


@pytest.mark.parametrize("factor", [1, 2])
def test_a_peered_node_runs_five_threads_and_its_timers_and_runs_start_none(
    factor, monkeypatch, tmp_path
):
    """Each of two peered nodes runs its loop's five threads: its peer
    link is read by the loop, not by a thread of its own.  Heartbeats, a
    gossip kick, a dozen pump intervals and a burst of forwarded runs
    later, no thread has started."""
    name = owned_by("n1", ("n1", "n2"), "inventory")
    context, out, rst = build_context(tmp_path, name, keep_outputs=True)
    before = set(threading.enumerate())
    first = ClusterNode(
        "n1", heartbeat_interval=0.05, suspect_after=40, vnodes=VNODES,
        replication_factor=factor, repl_interval=0.02,
    )
    first.add_context(context, out, rst)
    first.start()
    nodes = [first]
    try:
        host, port = first.address
        second = ClusterNode(
            "n2", peers=[f"n1@{host}:{port}"], heartbeat_interval=0.05,
            suspect_after=40, vnodes=VNODES, replication_factor=factor,
            repl_interval=0.02,
        )
        second.add_context(context, out, rst)
        second.start()
        nodes.append(second)
        links = lambda: (  # noqa: E731
            "n2" in first.router._links and "n1" in second.router._links)
        assert eventually(links), "the pair never linked up"
        assert new_threads(before) == sorted(LOOP_THREADS * 2)
        client = PipelinedClient(second.address, "burst", name)
        files = [context.filename_of(1 + i % 16) for i in range(32)]
        client.window(files)  # warm: the hello's attach went on a worker
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start",
            lambda thread: (started.append(thread.name), start(thread))[1],
        )
        rounds = [n.metrics.get("cluster.gossip_rounds").value for n in nodes]
        for node in nodes:
            node._gossip_soon()
        for _ in range(8):
            for op, reply in client.window(files):
                assert reply["error"] == 0, reply
        client.close()
        time.sleep(12 * 0.02)
        assert eventually(lambda: all(
            n.metrics.get("cluster.gossip_rounds").value >= r + 3
            for n, r in zip(nodes, rounds)))
        assert started == []
    finally:
        for node in nodes:
            node.stop(drain_timeout=0)


def test_a_node_running_smax_paced_resimulations_starts_no_thread(
    monkeypatch, tmp_path
):
    """A re-simulation is a chain of timers on the node's loop: with
    ``smax`` of them waiting out their restart latency, the node still
    runs its loop's five threads, and every waiter gets its ready."""
    context, out, rst = build_context(tmp_path, "paced")
    smax = 4
    context = SimulationContext(
        config=context.config.with_overrides(smax=smax, prefetch_enabled=False),
        driver=context.driver, perf=context.perf,
    )
    before = set(threading.enumerate())
    node = ClusterNode("n1")
    node.add_context(context, out, rst, alpha_delay=0.3, tau_delay=0.01)
    node.start()
    try:
        with connect(node.server, context.name) as conn:
            conn.attach(context.name)
            since = conn.ready_table.stamp
            started = []
            start = threading.Thread.start
            monkeypatch.setattr(
                threading.Thread, "start",
                lambda thread: (started.append(thread.name), start(thread))[1],
            )
            # One miss per restart interval: smax simulations.
            files = [context.filename_of(1 + 4 * i) for i in range(smax)]
            for fname in files:
                assert not conn.open(context.name, fname).available
            assert node.server.launcher.running_threads == smax
            assert started == []
            assert len(new_threads(before)) == len(LOOP_THREADS) + 1  # + the client's
            for fname in files:
                assert conn.ready_table.wait(context.name, fname, 10.0, since)
            assert node.server.launcher.wait_idle(5.0)
            assert started == []
    finally:
        node.stop()


def test_a_stopped_peered_pair_leaves_no_link_descriptor_open():
    first = ClusterNode("n1", heartbeat_interval=0.05, suspect_after=40)
    first.start()
    host, port = first.address
    second = ClusterNode(
        "n2", peers=[f"n1@{host}:{port}"], heartbeat_interval=0.05,
        suspect_after=40,
    )
    second.start()
    try:
        links = lambda: (  # noqa: E731
            "n2" in first.router._links and "n1" in second.router._links)
        assert eventually(links), "the pair never linked up"
        socks = [
            link.sock for node in (first, second)
            for link in node.router._links.values()
        ]
    finally:
        second.stop(drain_timeout=0)
        first.stop(drain_timeout=0)
    assert [sock.fileno() for sock in socks] == [-1, -1]


def test_a_data_client_that_stops_reading_does_not_hold_the_control_port(node):
    server, context, data_port = node
    data = data_port(1024 * 1024)
    # Small buffers on both ends: the transfer blocks on write early.
    data._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect((data.host, data.port))
    try:
        sock.sendall(encode_binary(
            {"op": "fetch", "context": "bulk", "file": "bulk.sdf", "offset": 0}))
        blocked = lambda: any(  # noqa: E731
            conn.blocked for conn in list(data._conns.values()))
        assert eventually(blocked), "the transfer never blocked on write"
        assert control_port_answers(server, context)
        assert blocked()  # still stuck behind the client that does not read
    finally:
        sock.close()


def test_an_open_is_answered_while_a_throttled_transfer_waits_for_tokens(node):
    server, context, data_port = node
    size = 512 * 1024
    data = data_port(size, link_rate=1e6, burst=64 * 1024)
    dest = os.path.join(os.path.dirname(data._dirs["bulk"]), "got.sdf")
    fetched = []

    def fetch():
        with DataClient(data.host, data.port) as client:
            fetched.append(client.fetch("bulk", "bulk.sdf", dest))

    fetcher = threading.Thread(target=fetch, daemon=True)
    fetcher.start()
    try:
        # The link is out of tokens: the pump waits on a loop timer.
        assert eventually(lambda: data._pump_due and server.loop._timers)
        assert control_port_answers(server, context)
        assert fetcher.is_alive()  # the transfer is still waiting on the link
    finally:
        fetcher.join(timeout=30.0)
    assert fetched and fetched[0].bytes == size
    assert os.path.getsize(dest) == size


def test_stopping_the_data_port_leaves_the_control_port_serving(node, tmp_path):
    server, context, data_port = node
    data = data_port(4096)
    with DataClient(data.host, data.port) as client:
        assert client.fetch("bulk", "bulk.sdf", str(tmp_path / "a.sdf")).size == 4096
    data.stop()
    with pytest.raises(DVConnectionLost):
        DataClient(data.host, data.port, timeout=2.0)
    assert control_port_answers(server, context)
    assert server.loop._io_thread.is_alive()


def test_a_prepare_that_finishes_after_stop_closes_its_descriptor(
    tmp_path, loop, monkeypatch
):
    """A resolver busy on the I/O thread sends the prepare to a worker,
    where it is held until ``stop()`` has run: the prepare then opens
    the file for a connection that is gone, and the loop closes the
    descriptor."""
    path = tmp_path / "held.sdf"
    path.write_bytes(b"x" * 4096)
    entered, release = threading.Event(), threading.Event()

    def held_resolver(context, filename, wait):
        if not wait:
            return None  # busy: ask again on a worker
        entered.set()
        release.wait(10.0)
        return str(path)

    data = DataServer(loop, resolver=held_resolver)
    opened = []
    prepare = data._prepare

    def spy(message, on_loop):
        result = prepare(message, on_loop)
        if result is not None:
            opened.append(result["fd"])
        return result

    monkeypatch.setattr(data, "_prepare", spy)
    data.start()

    def open_on_path():
        fds = os.listdir("/proc/self/fd")
        links = []
        for fd in fds:
            try:
                links.append(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:
                pass
        return str(path) in links

    with socket.create_connection((data.host, data.port), timeout=5.0) as sock:
        sock.sendall(encode_binary(
            {"op": "fetch", "context": "ctx", "file": "held.sdf", "offset": 0}))
        assert entered.wait(5.0)
        data.stop()
        release.set()
        assert eventually(lambda: opened), "the prepare never opened the file"
        assert eventually(lambda: not open_on_path()), "the descriptor leaked"
