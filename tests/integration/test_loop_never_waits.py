"""The event loop never waits on a peer or on the cluster lock.

A forwarded run is sent from the ingress's event loop and its reply is
settled there, so whatever the owner does — answer nothing, read
nothing — and whoever holds the node's lock, the loop keeps serving
every other connection.  The owner here is a stub that grants the
hello and then stays silent, or stops reading; the ingress runs a short
``rpc_timeout``.  (a) and (b) follow the run to its ``ERR_CONNECTION``
"timed out" reply; (c) holds ``node._lock`` from another thread with a
real owner behind the link.
"""

import os
import socket
import threading
import time

import pytest

from repro.cluster import ClusterNode
from repro.core.errors import ErrorCode
from repro.dv.protocol import (
    MessageReader,
    encode_frame,
    send_message,
)
from tests.integration.conftest import free_port, wait_until
from tests.integration.test_cluster_stack import build_context
from tests.integration.test_forwarding_regressions import VNODES, owned_by

NODES = ("ingress", "owner")
ERR_CONNECTION = int(ErrorCode.ERR_CONNECTION)


class StubOwner:
    """A peer that grants every hello, then reads and counts the ``fwd``
    frames it is sent and answers nothing; with ``reading`` cleared it
    reads nothing at all after the hello, until ``reading`` is set."""

    def __init__(self, reading=True, rcvbuf=None):
        self.listener = socket.socket()
        if rcvbuf is not None:  # inherited by every accepted socket
            self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.reading = threading.Event()
        if reading:
            self.reading.set()
        self.fwds = 0
        self.socks = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                sock, _addr = self.listener.accept()
            except OSError:
                return
            self.socks.append(sock)
            threading.Thread(target=self._serve, args=(sock,), daemon=True).start()

    def _serve(self, sock):
        try:
            reader = MessageReader(sock)
            hello = reader.read_message()
            send_message(sock, {
                "op": "reply", "req": hello.get("req"), "error": 0,
                "vers": 2, "codec": "binary",
            })
            reader.set_codec("binary")
            self.reading.wait()
            while (message := reader.read_message()) is not None:
                self.fwds += message.get("op") == "fwd"
        except (OSError, ValueError):
            pass

    def close(self):
        self.reading.set()
        self.listener.close()
        for sock in self.socks:
            sock.close()


class Client:
    """A raw wire client: a hello naming no context, then frames."""

    def __init__(self, address, client_id):
        self.sock = socket.create_connection(address, timeout=10.0)
        send_message(self.sock, {
            "op": "hello", "req": 0, "client_id": client_id,
            "vers": 2, "codec": "binary",
        })
        self.reader = MessageReader(self.sock)
        assert self.reader.read_message()["error"] == 0
        self.reader.set_codec("binary")

    def send(self, *messages):
        self.sock.sendall(b"".join(encode_frame(m, "binary") for m in messages))

    def replies(self, count):
        return [self.reader.read_message() for _ in range(count)]

    def silent_for(self, seconds):
        """Nothing arrives for ``seconds``."""
        self.sock.settimeout(seconds)
        try:
            self.sock.recv(1, socket.MSG_PEEK)
            return False
        except socket.timeout:
            return True
        finally:
            self.sock.settimeout(10.0)

    def close(self):
        self.sock.close()


@pytest.fixture
def contexts(tmp_path):
    """A context the ``owner`` serves and one the ``ingress`` serves,
    every output resident."""
    return {
        side: build_context(tmp_path, owned_by(side, NODES, side), keep_outputs=True)
        for side in NODES
    }


def ingress_before(stub, contexts, stop_nodes, rpc_timeout):
    """A started ingress whose peer ``owner`` is ``stub``, with its link
    to the stub dialled (by its first gossip round) and cached."""
    node = ClusterNode(
        "ingress", port=free_port(), peers=[f"owner@127.0.0.1:{stub.port}"],
        vnodes=VNODES, rpc_timeout=rpc_timeout, heartbeat_interval=60.0,
        suspect_after=1000,
    )
    for context, out, rst in contexts.values():
        node.add_context(context, out, rst)
    node.start()
    stop_nodes.append(node)
    wait_until(lambda: "owner" in node.router._links, 10.0, "never dialled the stub")
    return node


def local_open_answered(node, contexts):
    """An ``open`` of a resident file of the ingress's own context, on a
    connection of its own, is answered."""
    context = contexts["ingress"][0]
    client = Client(node.address, f"local-{time.monotonic_ns()}")
    try:
        client.send(
            {"op": "attach", "req": 1, "context": context.name},
            {"op": "open", "req": 2, "context": context.name,
             "file": context.filename_of(1)},
        )
        attach, opened = client.replies(2)
        return attach["error"] == 0 and opened["available"] is True
    finally:
        client.close()


def remote_open(req, context, filename):
    return {"op": "open", "req": req, "context": context.name, "file": filename}


def test_an_owner_that_never_answers_times_out_once_and_the_loop_serves_on(
    contexts, stop_nodes
):
    stub = StubOwner()
    try:
        node = ingress_before(stub, contexts, stop_nodes, rpc_timeout=1.0)
        client = Client(node.address, "routed")
        client.send(remote_open(1, contexts["owner"][0], "f1"))
        wait_until(lambda: stub.fwds == 1, 5.0, "the run never left")
        began = time.monotonic()
        assert local_open_answered(node, contexts)
        assert time.monotonic() - began < 0.5
        (reply,) = client.replies(1)
        assert reply["req"] == 1 and reply["error"] == ERR_CONNECTION, reply
        assert "timed out" in reply["detail"]
        assert client.silent_for(1.0)  # exactly one reply ...
        assert stub.fwds == 1  # ... and nothing re-sent
        client.close()
    finally:
        stub.close()


def test_an_owner_that_never_reads_holds_no_other_connection(
    contexts, stop_nodes
):
    stub = StubOwner(reading=False, rcvbuf=4096)
    try:
        node = ingress_before(stub, contexts, stop_nodes, rpc_timeout=2.0)
        link = node.router._links["owner"]
        link.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        client = Client(node.address, "routed")
        name = "x" * 200  # a run far larger than both socket buffers
        client.send(*(
            remote_open(req, contexts["owner"][0], f"{name}{req}")
            for req in range(1, 257)
        ))
        wait_until(lambda: link._out, 5.0, "the kernel took the whole run")
        assert local_open_answered(node, contexts)
        assert link._out  # still waiting for the owner to read
        replies = client.replies(256)
        assert [r["req"] for r in replies] == list(range(1, 257))
        assert {r["error"] for r in replies} == {ERR_CONNECTION}
        stub.reading.set()  # the owner reads: the loop sends the rest
        wait_until(lambda: not link._out, 5.0, "the rest never left")
        wait_until(lambda: stub.fwds == 1, 5.0, "the run never arrived")
        client.close()
    finally:
        stub.close()


def test_a_held_cluster_lock_holds_the_routed_run_only(contexts, stop_nodes):
    ports = {side: free_port() for side in NODES}
    nodes = {
        side: ClusterNode(
            side, port=ports[side], vnodes=VNODES, rpc_timeout=2.0,
            peers=[f"{other}@127.0.0.1:{ports[other]}" for other in NODES
                   if other != side],
        )
        for side in NODES
    }
    for node in nodes.values():
        for context, out, rst in contexts.values():
            node.add_context(context, out, rst)
        node.start()
        stop_nodes.append(node)
    ingress = nodes["ingress"]
    wait_until(lambda: "owner" in ingress.router._links, 10.0, "never linked")
    remote = contexts["owner"][0]
    client = Client(ingress.address, "routed")
    client.send({"op": "attach", "req": 1, "context": remote.name})
    assert client.replies(1)[0]["error"] == 0
    local = Client(ingress.address, "local")  # its hello takes the lock
    local_context = contexts["ingress"][0]
    local.send({"op": "attach", "req": 1, "context": local_context.name})
    assert local.replies(1)[0]["error"] == 0
    held, release = threading.Event(), threading.Event()

    def hold():
        with ingress._lock:
            held.set()
            release.wait(10.0)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    try:
        assert held.wait(5.0)
        client.send(remote_open(2, remote, remote.filename_of(1)))
        assert client.silent_for(0.3)  # waits on the lock, on a worker
        local.sock.settimeout(3.0)  # the lock is held for 10 s
        local.send({"op": "open", "req": 2, "context": local_context.name,
                    "file": local_context.filename_of(1)})
        assert local.replies(1)[0]["available"] is True
        assert not release.is_set()
    finally:
        release.set()
        holder.join(5.0)
    (reply,) = client.replies(1)
    assert reply["req"] == 2 and reply["error"] == 0 and reply["available"]
    client.close()
    local.close()


def test_a_held_cluster_lock_holds_the_data_fetch_only(
    contexts, stop_nodes, tmp_path
):
    """The data port resolves a fetch on the I/O thread with a
    non-blocking take of the node's lock: held by another thread, the
    fetch waits for it on a worker, and the loop serves on."""
    from repro.data import DataClient

    node = ClusterNode("owner", port=free_port(), vnodes=VNODES)
    context = contexts["owner"][0]
    for ctx, out, rst in contexts.values():
        node.add_context(ctx, out, rst)
    node.start()
    stop_nodes.append(node)
    local = Client(node.address, "local")  # its hello takes the lock
    local.send({"op": "attach", "req": 1, "context": context.name})
    assert local.replies(1)[0]["error"] == 0
    held, release, fetched = threading.Event(), threading.Event(), []

    def hold():
        with node._lock:
            held.set()
            release.wait(10.0)

    def fetch():
        with DataClient(node.data.host, node.data.port) as data:
            fetched.append(data.fetch(
                context.name, context.filename_of(1), str(tmp_path / "got.sdf")))

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    fetcher = threading.Thread(target=fetch, daemon=True)
    try:
        assert held.wait(5.0)
        fetcher.start()
        fetcher.join(0.3)
        assert not fetched  # waits on the lock, on a worker
        local.sock.settimeout(3.0)  # the lock is held for 10 s
        local.send({"op": "open", "req": 2, "context": context.name,
                    "file": context.filename_of(1)})
        assert local.replies(1)[0]["available"] is True
        assert not release.is_set()
    finally:
        release.set()
        holder.join(5.0)
    fetcher.join(5.0)
    assert fetched and fetched[0].size > 0
    local.close()


class SilentPeer:
    """A peer that accepts every connection and never answers its hello:
    a dial to it waits out the whole ``rpc_timeout``."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.socks = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                sock, _addr = self.listener.accept()
            except OSError:
                return
            self.socks.append(sock)

    def close(self):
        self.listener.close()
        for sock in self.socks:
            sock.close()


def test_a_ready_whose_origin_never_answers_its_dial_holds_no_connection(
    contexts, stop_nodes, monkeypatch
):
    """A promoted replica's waiter holds only its ingress's name.  Its
    ready lands on the loop (the re-simulation is a chain there) and
    must dial that ingress: the dial goes to a worker, and while it
    waits on a peer that never answers, an ``open`` on another
    connection is answered."""
    context, out, rst = contexts["owner"]
    fname = context.filename_of(3)
    os.unlink(os.path.join(out, fname))
    peer = SilentPeer()
    try:
        node = ClusterNode(
            "owner", port=free_port(), peers=[f"ingress@127.0.0.1:{peer.port}"],
            vnodes=VNODES, rpc_timeout=3.0, heartbeat_interval=60.0,
            suspect_after=1000,
        )
        node.add_context(context, out, rst, alpha_delay=0.2)
        node.start()
        stop_nodes.append(node)
        dialing, dialed, where = threading.Event(), threading.Event(), []
        real = node.router._ready_to_origin

        def ready_to_origin(origin, frame, link=None):
            where.append((link, node.server.loop.on_io_thread()))
            dialing.set()
            try:
                real(origin, frame, link)
            finally:
                dialed.set()

        monkeypatch.setattr(node.router, "_ready_to_origin", ready_to_origin)
        node.router.restore_proxies(context.name, ["far"], [["far", fname, "ingress"]])
        node.router.run_local("far", [
            {"op": "attach", "context": context.name},
            {"op": "open", "context": context.name, "file": fname},
        ])
        assert dialing.wait(5.0), "the ready never left for its origin"
        began = time.monotonic()
        client = Client(node.address, "local")
        try:
            client.send(
                {"op": "attach", "req": 1, "context": context.name},
                {"op": "open", "req": 2, "context": context.name,
                 "file": context.filename_of(1)},
            )
            attach, opened = client.replies(2)
            assert attach["error"] == 0 and opened["available"] is True
        finally:
            client.close()
        assert time.monotonic() - began < 1.0
        assert not dialed.is_set()  # the dial still waits on the peer
        assert where == [(None, False)]
    finally:
        peer.close()
