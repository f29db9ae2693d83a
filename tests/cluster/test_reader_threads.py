"""A frame the reader thread cannot digest loses the link, loudly.

The RPC multiplexer under ``PeerLink`` and ``TcpConnection``
(``RpcChannel``) once caught only ``SimFSError``/``OSError`` around its
reader loop: a well-framed reply that breaks the loop body (an
unhashable ``req``, a ``ready`` without ``context``) ended the thread
and left a zombie — link "open", calls in flight never failed, every
later call burning its full timeout.  The stub peer below grants the
hello and answers the first request with such a frame, keeping the
socket open.
"""

import json
import socket
import threading
import time

import pytest

from repro.client.dvlib import TcpConnection
from repro.cluster.link import PeerLink, PeerTimeout
from repro.core.errors import ConnectionLostError, DVConnectionLost
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
