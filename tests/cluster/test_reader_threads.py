"""A frame the reader cannot digest loses the link, loudly.

The RPC multiplexer under ``PeerLink`` and ``TcpConnection``
(``RpcChannel``) once caught only ``SimFSError``/``OSError`` around its
reader loop: a well-framed reply that breaks the loop body (an
unhashable ``req``, a ``ready`` without ``context``) ended the thread
and left a zombie — link "open", calls in flight never failed, every
later call burning its full timeout.  The stub peer below grants the
hello and answers the first request with such a frame, keeping the
socket open.  A cluster node's links are read by its event loop
instead of a thread: the same frame loses such a link the same way, a
request started there times out there, and a blocking call from the
loop's own thread raises rather than wait on itself.
"""

import json
import socket
import threading
import time

import pytest

from repro.client.dvlib import TcpConnection
from repro.cluster.link import PeerLink, PeerTimeout
from repro.core.errors import ConnectionLostError, DVConnectionLost
from repro.dv.loop import EventLoop
from repro.dv.protocol import encode_binary

MALFORMED = {
    "unhashable-req": {"op": "reply", "req": [1]},
    "ready-without-context": {"op": "ready", "file": "f1", "ok": True},
}


@pytest.fixture
def stub_peer():
    """``start(frame)`` -> port of a peer that answers the hello, then
    answers whatever arrives next with ``frame`` and goes quiet."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    done = threading.Event()
    socks = [listener]

    def serve(frame):
        sock, _addr = listener.accept()
        socks.append(sock)
        buf = b""
        while not buf.endswith(b"\n"):
            buf += sock.recv(4096)
        grant = {"op": "reply", "req": 0, "error": 0, "vers": 2, "codec": "binary"}
        sock.sendall(json.dumps(grant).encode() + b"\n")
        sock.recv(4096)  # the first request
        sock.sendall(encode_binary(frame))
        done.wait(10.0)  # the socket stays open: this is not an EOF

    def start(frame):
        threading.Thread(target=serve, args=(frame,), daemon=True).start()
        return listener.getsockname()[1]

    yield start
    done.set()
    for sock in socks:
        sock.close()


def test_peer_link_reader_death_is_a_lost_link(stub_peer):
    downs = []
    port = stub_peer(MALFORMED["unhashable-req"])  # a link skips readies
    link = PeerLink("me", "peer", "127.0.0.1", port, on_down=downs.append)
    began = time.monotonic()
    with pytest.raises(DVConnectionLost) as lost:
        link.call({"op": "gossip"}, timeout=3.0)
    assert not isinstance(lost.value, PeerTimeout)
    assert time.monotonic() - began < 2.0
    link._thread.join(2.0)
    assert not link._thread.is_alive()
    assert link.closed and downs == ["peer"]
    began = time.monotonic()
    with pytest.raises(DVConnectionLost):
        link.call({"op": "gossip"}, timeout=3.0)
    assert time.monotonic() - began < 0.5
    assert downs == ["peer"]


@pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
def test_client_reader_death_is_a_lost_connection(stub_peer, frame):
    conn = TcpConnection("127.0.0.1", stub_peer(frame), {}, {}, client_id="me")
    try:
        began = time.monotonic()
        with pytest.raises(ConnectionLostError, match="lost"):
            conn.call({"op": "stats"}, timeout=3.0)
        assert time.monotonic() - began < 2.0
        conn._entry._thread.join(2.0)
        assert not conn._entry._thread.is_alive() and conn.is_lost
        began = time.monotonic()
        with pytest.raises(DVConnectionLost):
            conn.call({"op": "stats"}, timeout=3.0)
        assert time.monotonic() - began < 0.5
    finally:
        conn.close()


@pytest.fixture
def loop():
    loop = EventLoop(workers=1)
    loop.start()
    yield loop
    loop.stop()


def eventually(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


def test_a_link_on_the_loop_is_lost_the_same_way(stub_peer, loop):
    downs = []
    port = stub_peer(MALFORMED["unhashable-req"])
    link = PeerLink(
        "me", "peer", "127.0.0.1", port, on_down=downs.append, loop=loop
    )
    began = time.monotonic()
    with pytest.raises(DVConnectionLost) as lost:
        link.call({"op": "gossip"}, timeout=3.0)
    assert not isinstance(lost.value, PeerTimeout)
    assert time.monotonic() - began < 2.0
    assert eventually(lambda: downs == ["peer"])  # on_down runs on a worker
    assert link.closed
    assert eventually(lambda: link.sock.fileno() == -1)  # the loop closed it
    with pytest.raises(DVConnectionLost):
        link.call({"op": "gossip"}, timeout=3.0)
    assert downs == ["peer"]


def test_requests_started_on_the_loop_share_one_timer_and_time_out_there(
    stub_peer, loop
):
    # The peer answers one request nobody made, then stays silent.
    link = PeerLink(
        "me", "peer", "127.0.0.1", stub_peer({"op": "reply", "req": 10**6}),
        loop=loop,
    )
    results, timers, done = [], [], threading.Event()

    def on_reply(reply):
        results.append((threading.current_thread() is loop._io_thread, reply))
        if len(results) == 10:
            done.set()

    def start_ten():
        for _ in range(10):
            link.start({"op": "gossip"}, 0.3, on_reply)
        timers.append(sum(entry[2] == link._expire for entry in loop._timers))

    loop.call(start_ten)
    assert timers == [1]
    assert done.wait(5.0)
    assert all(on_io and isinstance(r, PeerTimeout) for on_io, r in results)
    assert not link.closed  # a slow peer is no verdict
    link.close()


def test_a_blocking_call_on_the_loop_thread_raises(stub_peer, loop):
    link = PeerLink(
        "me", "peer", "127.0.0.1", stub_peer({"op": "reply", "req": 10**6}),
        loop=loop,
    )
    raised = []

    def call():
        try:
            link.call({"op": "gossip"}, timeout=1.0)
        except RuntimeError as exc:
            raised.append(exc)

    began = time.monotonic()
    loop.call(call)
    assert raised and time.monotonic() - began < 0.5
    link.close()
