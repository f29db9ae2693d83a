"""Local runs at the daemon: a pipelined client's consecutive
``open``/``release`` for one context execute as one shard call — and
nothing a client can see may depend on that.

* wire: one request stream, sent to a live ``DVServer`` in one ``send``
  and one frame per ``send``, is answered with byte-identical reply
  streams — which are also the bytes recorded at the parent commit
  (``fixtures/local_run_replies.json``; ``python
  tests/dv/test_server_local_runs.py`` rewrites it from whatever ``repro``
  is on the path);
* the eviction gate is per context: a bounded context does not send an
  unbounded one's releases off the event loop;
* the hot path has a budget in Python-level calls per op, counted with
  ``sys.setprofile`` — a count, not a wall-clock ratio, so it cannot flake.
"""

import json
import os
import random
import socket
import struct
import sys
import time

import pytest

from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.dv.protocol import (
    FWD_RUN_MAX,
    decode_frames,
    encode_frame,
    encode_open_request,
)
from repro.dv.server import DVServer, _ClientConn
from repro.simulators import SyntheticDriver

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "local_run_replies.json"
)
TC = "00000000000000ab-00000000000000cd-01"
KIND_READY = 3


# --------------------------------------------------------------------- #
# Fixtures: a daemon with two unbounded contexts and a bounded one
# --------------------------------------------------------------------- #
def build_context(root, name, steps, keep, capacity_steps=None):
    """Context ``name`` with outputs ``1..keep`` on disk and checksummed,
    as ``(context, output_dir, restart_dir)``; ``capacity_steps`` bounds
    its storage area."""
    config = ContextConfig(name=name, delta_d=1, delta_r=8, num_timesteps=steps)
    driver = SyntheticDriver(config.geometry, prefix=name, cells=8)
    out, rst = os.path.join(root, name + "-out"), os.path.join(root, name + "-rst")
    os.makedirs(out)
    os.makedirs(rst)
    produced = driver.execute(
        driver.make_job(name, 0, steps // 8, write_restarts=True), out, rst
    )
    if capacity_steps is not None:
        entry = os.path.getsize(os.path.join(out, produced[0]))
        config = config.with_overrides(
            max_storage_bytes=capacity_steps * entry, output_step_bytes=entry
        )
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
        checksums={
            fname: driver.checksum(os.path.join(out, fname)) for fname in produced
        },
    )
    for fname in produced:
        if context.key_of(fname) > keep:
            os.unlink(os.path.join(out, fname))
    return context, out, rst


#: The three contexts of the fixture daemon: two unbounded, one bounded.
CONTEXTS = {
    "hot": dict(steps=64, keep=48),
    "two": dict(steps=16, keep=16),
    "scan": dict(steps=32, keep=32, capacity_steps=40),
}


def make_server(root):
    server = DVServer()
    contexts = {}
    for name, shape in CONTEXTS.items():
        contexts[name], out, rst = build_context(root, name, **shape)
        server.add_context(contexts[name], out, rst, alpha_delay=0.3)
    return server, contexts


# --------------------------------------------------------------------- #
# Wire: one send ≡ one frame per send ≡ the parent's bytes
# --------------------------------------------------------------------- #
def request_stream(contexts) -> list[bytes]:
    hot, two = contexts["hot"].filename_of, contexts["two"].filename_of
    frames: list[bytes] = []

    def send(op, context, file=None, **extra):
        message = {"op": op, "req": len(frames) + 1, "context": context}
        if file is not None:
            message["file"] = file
        message.update(extra)
        frames.append(encode_frame(message, "binary"))

    # A run with errors in the middle: they do not stop what is behind.
    send("open", "hot", hot(1))
    send("open", "hot", hot(2))
    send("release", "hot", hot(3))                  # not held
    send("open", "hot", "hot_out_99999999.sdf")     # beyond the run
    send("open", "hot", "two_out_00000001.sdf")     # another naming
    send("release", "hot", hot(1))
    send("release", "hot", hot(2))
    # A traced op inside a run; a JSON-carried open with an odd req.
    send("open", "hot", hot(4))
    send("open", "hot", hot(5), tc=TC)
    send("release", "hot", hot(5), tc=TC)
    send("release", "hot", hot(4))
    frames.append(encode_frame(
        {"op": "open", "req": "r-13", "context": "hot", "file": hot(6)}, "binary"
    ))
    frames.append(encode_frame(
        {"op": "release", "req": None, "context": "hot", "file": hot(6)}, "binary"
    ))
    # Two contexts interleaved, one of them not attached yet.
    send("open", "two", two(1))                     # not attached
    send("attach", "two")
    for key in (1, 2, 3):
        send("open", "hot", hot(key))
        send("open", "two", two(key))
    for key in (1, 2, 3):
        send("release", "two", two(key))
        send("release", "hot", hot(key))
    # A context nobody serves.
    send("open", "nope", "nope_out_00000001.sdf")
    send("release", "nope", "nope_out_00000001.sdf")
    # A run cut by an op that must leave the loop.
    send("open", "hot", hot(7))
    send("bitrep", "hot", hot(7))
    send("release", "hot", hot(7))
    # A run longer than FWD_RUN_MAX.
    for pair in range(FWD_RUN_MAX // 2 + 10):
        key = 1 + pair % 48
        frames.append(encode_open_request(len(frames) + 1, "hot", hot(key), "binary"))
        send("release", "hot", hot(key))
    # A bounded context: its releases leave the loop, its opens do not.
    send("attach", "scan")
    for key in (1, 2):
        send("open", "scan", contexts["scan"].filename_of(key))
    for key in (1, 2):
        send("release", "scan", contexts["scan"].filename_of(key))
    # Last, a miss (its ready arrives whenever: the reader drops those).
    send("open", "hot", hot(60))
    return frames


def split_frames(stream: bytes) -> tuple[list[bytes], bytes]:
    """Complete binary frames of ``stream`` and the partial rest."""
    frames, pos = [], 0
    while len(stream) - pos >= 8:
        _magic, _kind, _reserved, length = struct.unpack_from("!BBHI", stream, pos)
        if len(stream) - pos < 8 + length:
            break
        frames.append(stream[pos:pos + 8 + length])
        pos += 8 + length
    return frames, stream[pos:]


class Client:
    """A raw binary-codec connection that negotiated tracing."""

    def __init__(self, server, client_id="wire"):
        self.sock = socket.create_connection(server.address, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = {"op": "hello", "req": 0, "client_id": client_id,
                 "context": "hot", "vers": 2, "codec": "binary", "trace": 1}
        self.sock.sendall(encode_frame(hello, "legacy"))
        line = b""
        while not line.endswith(b"\n"):
            line += self.sock.recv(1)
        assert json.loads(line)["error"] == 0, line
        self.rest = b""

    def replies(self, count: int) -> list[bytes]:
        """The next ``count`` frames that are not ``ready`` notifications."""
        got: list[bytes] = []
        while len(got) < count:
            frames, self.rest = split_frames(self.rest)
            got += [f for f in frames if f[1] & 0x7F != KIND_READY]
            if len(got) < count:
                chunk = self.sock.recv(1 << 20)
                assert chunk, "the daemon closed the connection"
                self.rest += chunk
        assert len(got) == count
        return got

    def close(self):
        self.sock.close()


def reply_stream(root, mode: str) -> tuple[list[bytes], DVServer]:
    """Play the request stream against a fresh daemon.  ``burst``: one
    ``send`` for all of it but the last frame's tail, which follows (a
    partial frame waits in the buffer); ``single``: one frame per
    ``send``, each answered before the next leaves."""
    server, contexts = make_server(root)
    server.start()
    frames = request_stream(contexts)
    client = Client(server)
    try:
        if mode == "burst":
            stream = b"".join(frames)
            client.sock.sendall(stream[:-5])
            early = client.replies(len(frames) - 1)
            client.sock.sendall(stream[-5:])
            return early + client.replies(1), server
        replies = []
        for frame in frames:
            client.sock.sendall(frame)
            replies += client.replies(1)
        return replies, server
    finally:
        client.close()


@pytest.fixture
def stop_servers():
    started = []
    yield started
    for server in started:
        server.stop(drain_timeout=0)


def test_one_send_and_one_frame_per_send_answer_alike(tmp_path, stop_servers):
    burst, server = reply_stream(str(tmp_path / "burst"), "burst")
    stop_servers.append(server)
    single, other = reply_stream(str(tmp_path / "single"), "single")
    stop_servers.append(other)
    assert burst == single
    with open(FIXTURE) as fh:
        golden = [bytes.fromhex(frame) for frame in json.load(fh)["replies"]]
    assert burst == golden
    # The traced op rode a run and still left its spans and its exemplar.
    for node in (server, other):
        names = [span["name"] for span in node.obs.trace(TC.split("-")[0])]
        assert names.count("op.open") == 1 and names.count("op.release") == 1
        assert names.count("op.queue") == 2
        assert "op.open.seconds" in node.obs.exemplars()
    # Every op was observed once, and the counters are exact.
    snapshot = server.metrics.snapshot()
    pairs = FWD_RUN_MAX // 2 + 10
    assert snapshot["op.open.seconds"]["count"] == 19 + pairs
    assert snapshot["op.release.seconds"]["count"] == 16 + pairs
    assert snapshot["dv.hot.opens"]["value"] == 10 + pairs
    assert snapshot["dv.hot.hits"]["value"] == 9 + pairs
    assert snapshot["dv.hot.misses"]["value"] == 1
    assert snapshot["dv.hot.releases"]["value"] == 9 + pairs
    assert snapshot["cache.hot.hits"]["value"] == 9 + pairs


# --------------------------------------------------------------------- #
# In-process: a connection over a socketpair, drained on this thread
# --------------------------------------------------------------------- #
@pytest.fixture
def loop(tmp_path):
    """An unstarted daemon and a negotiated connection whose batches this
    thread runs the way the event loop does."""
    server, contexts = make_server(str(tmp_path))
    ours, theirs = socket.socketpair()
    conn = _ClientConn(ours, client_id="c1")
    conn.decoder.set_codec("binary")
    for name in contexts:
        server.coordinator.client_connect("c1", name)
        conn.contexts.add(name)
    yield server, contexts, conn, theirs
    ours.close()
    theirs.close()


def batch(context, pairs: int, first_req: int = 1) -> bytes:
    """Open/release pairs over resident files in a shuffled order (what
    ``hot_open`` sends: no stride for the prefetch agent to confirm)."""
    keys = list(range(1, 33))
    random.Random(pairs).shuffle(keys)
    frames = []
    for pair in range(pairs):
        fname = context.filename_of(keys[pair % 32])
        req = first_req + 2 * pair
        frames.append(encode_open_request(req, context.name, fname, "binary"))
        frames.append(encode_frame(
            {"op": "release", "req": req + 1, "context": context.name,
             "file": fname}, "binary"))
    return b"".join(frames)


def read_replies(theirs, count: int) -> list[bytes]:
    theirs.settimeout(5.0)
    stream = b""
    while True:
        frames, rest = split_frames(stream)
        if len(frames) >= count:
            assert len(frames) == count and not rest
            return frames
        stream += theirs.recv(1 << 20)


def test_a_bounded_context_does_not_send_its_neighbours_off_the_loop(loop):
    server, contexts, conn, theirs = loop
    assert server._evicting_contexts == {"scan"}
    conn.decoder.feed(batch(contexts["hot"], 16))
    messages = conn.decoder.drain()
    assert len(messages) == 32
    server._run_inline(conn, messages)
    assert not conn.busy and not conn.inbox and server._work_queue.empty()
    assert len(read_replies(theirs, 32)) == 32
    # The bounded context's opens stay on the loop; its release leaves it.
    conn.decoder.feed(batch(contexts["scan"], 1, first_req=101))
    server._run_inline(conn, conn.decoder.drain())
    assert len(read_replies(theirs, 1)) == 1
    assert conn.busy and len(conn.inbox) == 1
    assert server._work_queue.get_nowait() is conn
    server._process_inbox(conn)
    assert len(read_replies(theirs, 1)) == 1 and not conn.busy
    assert server.coordinator.shard("scan").open_files["c1"] == []


def test_a_batch_splits_its_ops_per_context(loop):
    """``batch`` recursion tests each sub-op's own context."""
    server, contexts, _conn, _theirs = loop
    hot, scan = (contexts[n].filename_of(1) for n in ("hot", "scan"))
    release = lambda ctx, f: {"op": "release", "context": ctx, "file": f}  # noqa: E731
    assert not server._needs_worker({"op": "batch", "ops": [release("hot", hot)]})
    assert server._needs_worker(
        {"op": "batch", "ops": [release("hot", hot), release("scan", scan)]}
    )
    assert not server._needs_worker({"op": "finalize", "context": "hot"})
    assert server._needs_worker({"op": "wclose", "context": "scan", "file": scan})


def test_stats_leaves_the_loop_and_is_answered_in_order(tmp_path, stop_servers):
    """A ``stats`` snapshot takes milliseconds: it runs on a worker — the
    built-in handler and a replacement (the engine's merged view) alike —
    and its reply still leaves between those of the opens around it."""
    server, contexts = make_server(str(tmp_path))
    assert server._needs_worker({"op": "stats"})
    assert server._needs_worker({"op": "batch", "ops": [{"op": "stats"}]})
    server.start()
    stop_servers.append(server)
    client = Client(server)
    try:
        for replaced in (False, True):
            if replaced:
                server.register_op(
                    "stats", lambda conn, message: {"stats": {"merged": True}},
                    needs_worker=True, replace=True,
                )
                assert server._needs_worker({"op": "stats"})
            stream = (
                batch(contexts["hot"], 16)
                + encode_frame({"op": "stats", "req": 33}, "binary")
                + batch(contexts["hot"], 16, first_req=34)
            )
            client.sock.sendall(stream)
            replies = decode_frames(b"".join(client.replies(65)))
            assert [reply["req"] for reply in replies] == list(range(1, 66))
            assert all(reply["error"] == 0 for reply in replies)
            stats = replies[32]["stats"]
            assert stats == {"merged": True} if replaced else "server" in stats
    finally:
        client.close()


#: Python-level calls per op the hot path may make (the parent made 36.5,
#: this change 19.5): decode + inline drain of a 32-op local batch.
CALL_BUDGET = 24


def count_calls(step) -> int:
    """Python-level ``call`` events of one ``step()``."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        step()
    finally:
        sys.setprofile(previous)
    return calls


def test_the_hot_path_stays_within_its_call_budget(loop):
    server, contexts, conn, theirs = loop
    data = batch(contexts["hot"], 16)

    def step():
        conn.decoder.feed(data)
        server._run_inline(conn, conn.decoder.drain())

    step()  # warm: histograms created, key memo filled
    read_replies(theirs, 32)
    calls = count_calls(step)
    read_replies(theirs, 32)
    assert calls / 32 <= CALL_BUDGET, f"{calls / 32:.1f} Python calls per op"
    assert calls / 32 > 5, "the profiler saw nothing: the count is broken"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        replies, daemon = reply_stream(root, "single")
        time.sleep(0.5)
        daemon.stop(drain_timeout=0)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump({"replies": [frame.hex() for frame in replies]}, fh, indent=0)
        fh.write("\n")
