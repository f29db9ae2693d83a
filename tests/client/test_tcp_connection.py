"""``TcpConnection`` as the benchmark ledger and its callers see it.

Two stub daemons stand in for a cluster: ``entry`` (the address the
client is given) and ``owner`` (what a placement pin in entry's hello
view names as the owner of ``ctx``).  The ledger's
``benchmarks/e2e/workloads.py:Analysis.take_frames`` counts replies as
``wire_stats()["frames_recv"]`` minus the readies its watcher saw, and
its checks require misses == notifications == readies, so:

* ``wire_stats()`` sums every channel the connection opened;
* every ``ready`` fires the watchers once, whichever channel it came on;
* a connection to a plain ``DVServer``, or to the owner itself, opens
  exactly one socket.

And the client's hot path has a budget in Python-level calls, counted
with ``sys.setprofile`` like the server's in ``test_server_local_runs``:
routing an op is one dict lookup and stays one.
"""

import socket
import threading
import time

import pytest

from repro.client.dvlib import TcpConnection
from repro.dv.protocol import (
    MessageReader,
    encode_binary,
    encode_frame,
    encode_open_reply,
)
from tests.dv.test_server_local_runs import count_calls
from tests.integration.conftest import build_server

#: Python calls on the client thread for one ``open`` + ``release``
#: before owner-direct routing (53), plus two for routing.
CLIENT_CALL_BUDGET = 53 + 2


class StubDaemon:
    """A wire peer on threads: grants every hello (appending ``view`` as
    the cluster view), answers ``open`` with a hit and anything else with
    a plain success — ``delay`` seconds after the request — and counts
    the sockets it accepted and the frames and bytes it exchanged."""

    def __init__(self, delay: float = 0.0) -> None:
        self.view: dict | None = None
        self.delay = delay
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.accepted = 0
        self.frames_in = self.frames_out = self.bytes_out = 0
        self.ops: list[str] = []
        self.socks: list[socket.socket] = []
        self._lock = threading.Lock()
        threading.Thread(target=self._accept, daemon=True).start()

    def node(self, node_id: str) -> dict:
        return {"id": node_id, "host": "127.0.0.1", "port": self.port,
                "alive": True}

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(target=self._serve, args=(sock,), daemon=True).start()

    def _serve(self, sock: socket.socket) -> None:
        reader = MessageReader(sock)
        try:
            hello = reader.read_message()
            reply = {"op": "reply", "req": hello["req"], "error": 0,
                     "vers": 2, "codec": "binary"}
            if self.view is not None:
                reply["cluster"] = self.view
            data = encode_frame(reply)  # the newline-JSON hello line
            sock.sendall(data)
            self.bytes_out += len(data)
            reader.set_codec("binary")
            self.socks.append(sock)
            while True:
                message = reader.read_message()
                if message is None:
                    return
                if self.delay:
                    time.sleep(self.delay)
                self.frames_in += 1
                self.ops.append(message["op"])
                if message["op"] == "open":
                    frame = encode_open_reply(
                        message["req"], True, "on_disk", 0.0, "binary"
                    )
                else:
                    frame = encode_frame(
                        {"op": "reply", "req": message["req"], "error": 0,
                         "stats": {}}, "binary"
                    )
                self._send(sock, frame)
        except OSError:
            return

    def _send(self, sock: socket.socket, frame: bytes) -> None:
        with self._lock:
            sock.sendall(frame)
            self.frames_out += 1
            self.bytes_out += len(frame)

    def push_ready(self, context: str, filename: str) -> None:
        (sock,) = self.socks
        self._send(sock, encode_binary(
            {"op": "ready", "context": context, "file": filename, "ok": True}
        ))

    def close(self) -> None:
        self.listener.close()
        for sock in self.socks:
            sock.close()


@pytest.fixture
def stubs():
    entry, owner = StubDaemon(), StubDaemon()
    entry.view = {
        "self": "e", "vnodes": 16,
        "nodes": [entry.node("e"), owner.node("o")],
        "contexts": {"ctx": "o", "home": "e"},
        "pins": {"ctx": "o", "home": "e"},
    }
    yield entry, owner
    entry.close()
    owner.close()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_the_owner_is_dialled_and_the_ledger_view_holds(stubs):
    entry, owner = stubs
    seen = []
    with TcpConnection("127.0.0.1", entry.port, {}, {}, client_id="c") as conn:
        conn.ready_table.add_watcher(lambda *ready: seen.append(ready))
        conn.attach("ctx")
        assert conn.open("ctx", "f1").available
        conn.release("ctx", "f1")
        conn.stats()
        assert (entry.accepted, owner.accepted) == (1, 1)
        assert entry.ops == ["stats"]
        assert owner.ops == ["attach", "open", "release"]

        owner.push_ready("ctx", "f2")
        entry.push_ready("ctx", "f3")
        wait_for(lambda: len(seen) == 2)
        wire = conn.wire_stats()
        time.sleep(0.05)  # a doubled delivery would land by now
        assert sorted(seen) == [("ctx", "f2", True), ("ctx", "f3", True)]
        assert wire["frames_recv"] == entry.frames_out + owner.frames_out == 6
        assert wire["bytes_recv"] == entry.bytes_out + owner.bytes_out
        assert wire["frames_sent"] == entry.frames_in + owner.frames_in == 4


def test_the_owner_itself_needs_no_second_socket(stubs):
    entry, owner = stubs
    with TcpConnection("127.0.0.1", entry.port, {}, {}, client_id="c") as conn:
        conn.attach("home")
        assert conn.open("home", "f1").available
        conn.release("home", "f1")
        assert conn.fetch_info("ctx")["error"] == 0  # not attached: entry
    assert (entry.accepted, owner.accepted) == (1, 0)


def test_a_plain_daemon_gets_one_socket(tmp_path):
    server, context, _reference = build_server(tmp_path)
    server.start()
    try:
        host, port = server.address
        with TcpConnection(host, port, {}, {}, client_id="solo") as conn:
            conn.attach(context.name)
            filename = context.filename_of(1)
            if not conn.open(context.name, filename).available:
                assert conn.ready_table.wait(context.name, filename, 30.0)
            conn.release(context.name, filename)
            assert conn.stats()["server"]["connected_clients"] == 1
    finally:
        server.stop()


def test_open_and_release_stay_within_the_call_budget(stubs):
    """One ``open`` + ``release`` on an owner channel, against a budget
    of 55: the 53 calls the pair took on the client thread before
    owner-direct routing (one channel, a ``queue.Queue`` per request),
    plus two.  The stubs answer each request 20 ms late, so the client
    thread always waits for its reply and the count does not depend on
    who wins that race."""
    entry, owner = stubs
    entry.delay = owner.delay = 0.02
    with TcpConnection("127.0.0.1", entry.port, {}, {}, client_id="c") as conn:
        conn.attach("ctx")

        def step():
            conn.open("ctx", "f1")
            conn.release("ctx", "f1")

        step()  # warm
        calls = min(count_calls(step) for _ in range(3))
    assert calls <= CLIENT_CALL_BUDGET, f"{calls} Python calls"
    assert calls > 10, "the profiler saw nothing: the count is broken"
