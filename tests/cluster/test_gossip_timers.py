"""Gossip on the node's event loop: one round at a time, and a stop that
no peer can hold.

A timer on the loop submits each gossip round to the worker pool, and
``_gossip_soon()`` is a hand-off to the loop.  A kick while a round runs
queues one full round right after it, so two rounds never see the same
seed or the same peer at once.  ``stop()`` closes the links a round
waits on, and any a round is still dialing, so a peer that grants the
hello and then never answers gossip does not hold the node's stop for
the RPC timeout.
"""

import socket
import threading
import time

import pytest

from repro.cluster import ClusterNode
from repro.dv.protocol import MessageReader, encode_binary, encode_frame


class GossipPeer:
    """A peer on threads: grants every hello, ``hello_delay`` seconds after
    it arrives, then answers each gossip with an empty view, but only once
    ``answering`` is set."""

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.answering = threading.Event()
        self.hello_delay = 0.0
        self.hellos = self.gossips = 0
        self.socks: list[socket.socket] = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self.listener.accept()
            except OSError:
                return
            self.socks.append(sock)
            threading.Thread(target=self._serve, args=(sock,), daemon=True).start()

    def _serve(self, sock: socket.socket) -> None:
        reader = MessageReader(sock)
        try:
            hello = reader.read_message()
            self.hellos += 1
            time.sleep(self.hello_delay)
            sock.sendall(encode_frame({"op": "reply", "req": hello["req"],
                                       "error": 0, "vers": 2, "codec": "binary"}))
            reader.set_codec("binary")
            while (message := reader.read_message()) is not None:
                self.gossips += 1
                self.answering.wait()
                sock.sendall(encode_binary({
                    "op": "reply", "req": message["req"], "error": 0,
                    "from": "s1", "view": [], "pins": [],
                }))
        except OSError:
            return

    def close(self) -> None:
        self.answering.set()
        self.listener.close()
        for sock in self.socks:
            sock.close()


@pytest.fixture
def peer():
    peer = GossipPeer()
    yield peer
    peer.close()


def eventually(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("hello_delay", [0.0, 0.3], ids=["in-call", "in-dial"])
@pytest.mark.parametrize("spec", ["s1@127.0.0.1:{port}", "127.0.0.1:{port}"],
                         ids=["peer-link", "seed-probe"])
def test_stop_returns_at_once_while_a_peer_holds_a_round(
    peer, spec, hello_delay, factor
):
    """The round waits in the gossip call, or still in the dial (stop
    comes before the hello is granted): either way stop() is prompt."""
    peer.hello_delay = hello_delay
    node = ClusterNode(
        "n1", peers=[spec.format(port=peer.port)], heartbeat_interval=0.05,
        replication_factor=factor,
    )
    node.start()
    try:
        held = (lambda: peer.hellos >= 1) if hello_delay else (lambda: peer.gossips >= 1)
        assert eventually(held), "no round reached the peer"
    finally:
        began = time.monotonic()
        node.stop()
        took = time.monotonic() - began
    assert took < 1.0


def test_kicks_during_a_round_coalesce_into_one_more(peer, monkeypatch):
    """The first round waits in the peer's gossip reply; two kicks meanwhile
    make exactly one more round, after the first has ended."""
    node = ClusterNode(
        "n1", peers=[f"s1@127.0.0.1:{peer.port}"], heartbeat_interval=30.0,
    )
    lock = threading.Lock()
    running, peak, rounds = [0], [0], []
    gossip_round = node._gossip_round

    def counted(joining_only=False):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            rounds.append(joining_only)
        try:
            gossip_round(joining_only)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(node, "_gossip_round", counted)
    node.start()
    try:
        assert eventually(lambda: peer.gossips == 1), "no round reached the peer"
        node._gossip_soon()
        node._gossip_soon()
        time.sleep(0.1)  # both kicks reach the loop while the round waits
        assert rounds == [False]
        peer.answering.set()
        assert eventually(lambda: peer.gossips == 2 and running[0] == 0)
        time.sleep(0.2)  # and no third round follows
        assert rounds == [False, False]
        assert peak[0] == 1
    finally:
        node.stop()
