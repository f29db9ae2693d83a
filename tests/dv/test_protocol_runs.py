"""The two packed kinds of the hop: a run of client frames (``pack_run``
/ ``unpack_run``) and its reply frames (``unpack_run_reply``).

Round trips under hypothesis, every malformed shape refused whole with a
``ProtocolError`` — and, against a live owner, refused with one
``ERR_PROTOCOL`` ``fwd_reply`` while nothing executes and the link stays
up.  (The reply carries no list of slots beside its frames — the marks
are read off the frames' kind bytes — so there is no "mark slot >= count"
to refuse.)
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterNode
from repro.cluster.link import PeerLink
from repro.core.errors import ErrorCode, ProtocolError
from repro.dv.protocol import (
    FWD_RUN_MAX,
    MARK_BODY,
    MARK_MISS,
    decode_frames,
    encode_binary,
    encode_ok_reply,
    encode_open_reply,
    make_fwd,
    pack_run,
    unpack_run,
    unpack_run_reply,
)
from tests.dv.test_server_local_runs import CONTEXTS, build_context

TC = "00000000000000ab-00000000000000cd-01"
text = st.text(max_size=12)
reqs = st.one_of(
    st.integers(0, (1 << 32) - 1), st.integers(1 << 32, 1 << 40), st.none(),
    st.booleans(), text,
)
ops = st.one_of(
    st.builds(
        lambda op, req, context, file: {
            "op": op, "req": req, "context": context, "file": file,
        },
        st.sampled_from(["open", "release", "wclose"]), reqs, text, text,
    ),
    st.builds(
        lambda req, context, file: {
            "op": "open", "req": req, "context": context, "file": file, "tc": TC,
        },
        reqs, text, text,
    ),
    st.builds(
        lambda req, file, path: {
            "op": "bitrep", "req": req, "context": "c", "file": file, "path": path,
        },
        reqs, text, text,
    ),
    st.builds(lambda context: {"op": "attach", "context": context}, text),
)


def over_the_wire(message, req=7):
    """What the peer decodes of ``message`` sent the way ``PeerLink.call``
    sends it."""
    (decoded,) = decode_frames(encode_binary(dict(message, req=req)))
    return decoded


@settings(max_examples=150, deadline=None)
@given(text, text, st.lists(ops, min_size=1, max_size=12))
def test_a_run_round_trips(origin, client_id, messages):
    packed = pack_run(origin, client_id, messages)
    decoded = over_the_wire(packed)
    assert decoded == dict(packed, req=7)
    assert unpack_run(decoded) == (origin, client_id, messages)
    # The ops cross as the client frames they are: the fast pack of a
    # packed open/release is the generic encoder's bytes.
    head = struct.pack(
        "!HHH", len(origin.encode()), len(client_id.encode()), len(messages)
    ) + origin.encode() + client_id.encode()
    assert packed["run"] == head + b"".join(encode_binary(m) for m in messages)


replies = st.one_of(
    st.builds(encode_ok_reply, reqs),
    st.builds(
        lambda req, available, state, wait: encode_open_reply(
            req, available, state, wait, "binary"
        ),
        reqs, st.booleans(), st.sampled_from(["on_disk", "queued", "simulating"]),
        st.floats(0, 1e6),
    ),
    st.builds(
        lambda req, code, detail: encode_binary(
            {"error": code, "detail": detail, "op": "reply", "req": req}
        ),
        reqs, st.integers(1, 9), text,
    ),
    st.builds(
        lambda req: encode_binary(
            {"results": [{"file": "f", "available": False}], "error": 0,
             "op": "reply", "req": req}
        ),
        reqs,
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(replies, max_size=12))
def test_a_run_reply_round_trips_and_its_marks_say_what_the_frames_do(frames):
    reply = {"op": "fwd_reply", "error": 0, "run": b"".join(frames)}
    decoded = over_the_wire(reply)
    assert decoded == dict(reply, req=7)
    split, marks = unpack_run_reply(decoded, len(frames))
    assert split == frames
    for slot, message in enumerate(decode_frames(b"".join(frames))):
        packed = frames[slot][1] != 0  # not carried as JSON
        plain = message["error"] == 0 and message.get("available", True) \
            and "results" not in message
        if packed:
            assert marks.get(slot) == (None if plain else MARK_MISS)
        else:  # JSON-carried (an odd req, an error, a body): read it
            assert marks[slot] == MARK_BODY


OPEN = {"op": "open", "req": 1, "context": "hot", "file": "f"}
RELEASE = {"op": "release", "req": 2, "context": "hot", "file": "f"}


def run_body(ops=(OPEN, RELEASE), origin=b"gw", client=b"c1", count=None, tail=b""):
    frames = b"".join(encode_binary(message) for message in ops)
    return struct.pack(
        "!HHH", len(origin), len(client), len(ops) if count is None else count
    ) + origin + client + frames + tail


MALFORMED_RUNS = {
    "no header": b"",
    "truncated header": b"\x00\x02\x00",
    "strings cut short": struct.pack("!HHH", 2, 2, 2) + b"gwc",
    "origin not utf-8": run_body(origin=b"\xff\xfe"),
    "client not utf-8": run_body(client=b"\xc3"),
    "count above the frames held": run_body(count=3),
    "count below the frames held": run_body(count=1),
    "0 ops": run_body(ops=()),
    "257 ops": run_body(ops=(RELEASE,) * (FWD_RUN_MAX + 1)),
    "trailing partial frame": run_body(tail=encode_binary(OPEN)[:-2]),
    "trailing byte": run_body(tail=b"\xdf"),
    "bad magic inside": run_body(tail=b"\x7f" + encode_binary(OPEN)[1:], count=3),
    "nested fwd": run_body(ops=(OPEN, make_fwd("gw", "c1", OPEN, req=3))),
    "nested packed fwd": run_body(ops=(OPEN, dict(pack_run("gw", "c1", [OPEN]), req=3))),
    "nested hello": run_body(ops=(OPEN, {"op": "hello", "client_id": "x"})),
    "nested batch": run_body(ops=(OPEN, {"op": "batch", "ops": []})),
    "nested ready": run_body(ops=(OPEN, {"op": "ready", "context": "hot",
                                         "file": "f", "ok": True})),
    "a frame without op": run_body(tail=struct.pack("!BBHI", 0xDF, 0, 0, 2) + b"{}",
                                   count=3),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_RUNS))
def test_a_malformed_run_is_refused_whole(name):
    with pytest.raises(ProtocolError):
        unpack_run({"op": "fwd", "req": 1, "run": MALFORMED_RUNS[name]})


def test_a_malformed_forwardable_op_is_refused_in_its_own_slot():
    """Not the run: the owner answers that slot ``ERR_PROTOCOL``."""
    bad = {"op": "open", "req": 2, "context": "hot"}
    origin, client, messages = unpack_run(
        {"op": "fwd", "run": run_body(ops=(OPEN, bad, RELEASE))}
    )
    assert (origin, client) == ("gw", "c1")
    assert messages[0] == OPEN and messages[2] == RELEASE
    assert messages[1]["op"] is None and messages[1]["req"] == 2
    assert "'file'" in messages[1]["_refused"]


def test_the_well_formed_twins_are_accepted():
    assert unpack_run({"op": "fwd", "run": run_body()}) == ("gw", "c1", [OPEN, RELEASE])
    full = (RELEASE,) * FWD_RUN_MAX
    assert len(unpack_run({"op": "fwd", "run": run_body(ops=full)})[2]) == FWD_RUN_MAX
    assert unpack_run({"op": "fwd", "run": run_body(ops=(OPEN,))})[2] == [OPEN]


@pytest.mark.parametrize("run, count", [
    (None, 1), ("text", 1), (b"", 1), (encode_ok_reply(1), 2),
    (encode_ok_reply(1) * 2, 1), (encode_ok_reply(1)[:-1], 1),
    (encode_ok_reply(1) + b"\xdf\x05", 1),
    (b"\x7f" + encode_ok_reply(1)[1:], 1),
], ids=repr)
def test_a_malformed_run_reply_is_refused_whole(run, count):
    with pytest.raises(ProtocolError):
        unpack_run_reply({"op": "fwd_reply", "error": 0, "run": run}, count)


def test_a_malformed_reply_frame_is_marked_for_reading_and_fails_there():
    short_open_reply = struct.pack("!BBHI", 0xDF, 4, 0, 5) + b"\x00" * 5
    long_ok_reply = struct.pack("!BBHI", 0xDF, 5, 0, 6) + b"\x00" * 6
    reply = {"run": short_open_reply + long_ok_reply}
    assert unpack_run_reply(reply, 2)[1] == {0: MARK_BODY, 1: MARK_BODY}
    for frame in (short_open_reply, long_ok_reply):
        with pytest.raises(ProtocolError):
            decode_frames(frame)


# --------------------------------------------------------------------- #
# Against a live owner: one ERR_PROTOCOL, nothing executed, link alive
# --------------------------------------------------------------------- #
def test_a_live_owner_refuses_each_malformed_run_and_keeps_the_link(tmp_path):
    node = ClusterNode("solo", port=0, peers=[], heartbeat_interval=0.5)
    context, out, rst = build_context(str(tmp_path), "hot", **CONTEXTS["hot"])
    node.add_context(context, out, rst)
    node.start()
    link = None
    try:
        link = PeerLink("tester", "solo", *node.address)
        attach = link.call(pack_run("tester", "c1", [{"op": "attach", "context": "hot"}]))
        assert decode_frames(unpack_run_reply(attach, 1)[0][0])[0]["error"] == 0
        name = context.filename_of(1)
        good = pack_run("tester", "c1", [
            {"op": "open", "req": 1, "context": "hot", "file": name},
            {"op": "release", "req": 2, "context": "hot", "file": name},
        ])
        for bad in MALFORMED_RUNS.values():
            reply = link.call({"op": "fwd", "run": bad})
            assert reply["op"] == "fwd_reply" and "run" not in reply
            assert reply["error"] == int(ErrorCode.ERR_PROTOCOL) and reply["detail"]
            frames, marks = unpack_run_reply(link.call(good), 2)  # the link lives
            assert len(frames) == 2 and marks == {}
        snapshot = node.metrics.snapshot()
        assert snapshot["dv.hot.opens"]["value"] == len(MALFORMED_RUNS)
        assert snapshot["dv.hot.releases"]["value"] == len(MALFORMED_RUNS)
        assert snapshot["cluster.fwd_received"]["value"] == 1 + 2 * len(MALFORMED_RUNS)
    finally:
        if link is not None:
            link.close()
        node.stop(drain_timeout=0)
