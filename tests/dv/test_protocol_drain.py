"""``StreamDecoder.drain()`` is ``next_message()`` until ``None``, in one
pass: the same messages on every frame kind, and on a bad stream the same
``ProtocolError`` with the buffer where ``next_message`` leaves it."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ProtocolError
from repro.dv.protocol import (
    CODEC_BINARY,
    CODEC_LEGACY,
    StreamDecoder,
    encode_frame,
    encode_ok_reply,
    encode_open_reply,
    encode_open_request,
    pack_run,
)

TC = "00000000000000ab-00000000000000cd-01"

MESSAGES = [
    {"op": "open", "req": 1, "context": "hot", "file": "hot_out_00000001.sdf"},
    {"op": "release", "req": 2, "context": "hot", "file": "hot_out_00000001.sdf"},
    {"op": "open", "req": 3, "context": "héte", "file": "ünïcode.sdf"},
    {"op": "open", "req": 4, "context": "", "file": ""},
    {"op": "open", "req": 5, "context": "hot", "file": "f", "tc": TC},
    {"op": "release", "req": 6, "context": "hot", "file": "f", "tc": TC},
    {"op": "open", "req": 1 << 40, "context": "hot", "file": "f"},      # JSON
    {"op": "release", "req": 7, "context": "hot", "file": "f", "x": 1},  # JSON
    {"op": "ready", "context": "hot", "file": "f", "ok": True},
    {"op": "ready", "context": "hot", "file": "f", "ok": False, "tc": TC},
    {"op": "reply", "req": 8, "error": 0},
    {"op": "reply", "req": 9, "error": 0, "available": True,
     "state": "on_disk", "wait": 0.0},
    {"op": "reply", "req": 10, "error": 0, "available": False,
     "state": "queued", "wait": 1.5, "tc": TC},
    {"op": "reply", "req": 11, "error": 3, "detail": "no"},
    {"op": "acquire", "req": 12, "context": "hot", "files": ["a", "b"]},
    {"op": "batch", "req": 13, "ops": [{"op": "stats"}]},
    {"op": "stats", "req": 14},
]
FRAMES = [encode_frame(message, CODEC_BINARY) for message in MESSAGES]
# The two packed kinds of the hop: a run of client frames, its reply frames.
MESSAGES += [
    dict(pack_run("n1", "c1", MESSAGES[:8]), req=15),
    {"op": "fwd_reply", "req": 15, "error": 0, "run": FRAMES[12] + FRAMES[10]},
]
FRAMES += [encode_frame(message, CODEC_BINARY) for message in MESSAGES[-2:]]


def one_by_one(decoder):
    out = []
    while (message := decoder.next_message()) is not None:
        out.append(message)
    return out


def both(data: bytes, codec: str = CODEC_BINARY):
    """Feed ``data`` to two decoders; returns what each way of pulling
    yields as ``(messages or error text, bytes left in the buffer)``."""
    outcomes = []
    for pull in (one_by_one, StreamDecoder.drain):
        decoder = StreamDecoder(codec)
        decoder.feed(data)
        try:
            got = pull(decoder)
        except ProtocolError as exc:
            got = f"{type(exc).__name__}: {exc}"
        outcomes.append((got, bytes(decoder._buffer)))
    return outcomes


def test_every_frame_kind_decodes_alike():
    stepwise, drained = both(b"".join(FRAMES))
    assert drained == stepwise == (MESSAGES, b"")


def test_the_reply_fast_paths_are_the_generic_encoders_bytes():
    assert encode_ok_reply(8) == FRAMES[10]
    assert encode_ok_reply("r") == encode_frame(
        {"error": 0, "op": "reply", "req": "r"}, CODEC_BINARY
    )
    assert encode_open_reply(9, True, "on_disk", 0.0, CODEC_BINARY) == FRAMES[11]
    assert encode_open_request(
        1, "hot", "hot_out_00000001.sdf", CODEC_BINARY
    ) == FRAMES[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, len(FRAMES) - 1), max_size=12), st.data())
def test_a_partial_frame_stays_in_the_buffer(picks, data):
    stream = b"".join(FRAMES[i] for i in picks)
    cut = data.draw(st.integers(0, len(stream)))
    stepwise, drained = both(stream[:cut])
    assert drained == stepwise
    # What was cut off completes the stream for a decoder that drained.
    decoder = StreamDecoder(CODEC_BINARY)
    decoder.feed(stream[:cut])
    messages = decoder.drain()
    decoder.feed(stream[cut:])
    assert messages + decoder.drain() == [MESSAGES[i] for i in picks]
    assert not decoder.has_partial()


def _frame(kind: int, payload: bytes, magic: int = 0xDF, length=None) -> bytes:
    size = len(payload) if length is None else length
    return struct.pack("!BBHI", magic, kind, 0, size) + payload


GOOD = FRAMES[0] + FRAMES[1]
BAD_STREAMS = {
    "bad magic": _frame(1, b"", magic=0x7F),
    "oversized": _frame(1, b"", length=(1 << 20) + 1),
    "open shorter than its header": _frame(1, b"\x00\x00\x00"),
    "release with no payload": _frame(2, b""),
    "strings longer than the frame": _frame(1, struct.pack("!IHH", 1, 5, 5) + b"abc"),
    "strings shorter than the frame": _frame(2, struct.pack("!IHH", 1, 1, 1) + b"abcd"),
    "context not utf-8": _frame(1, struct.pack("!IHH", 1, 2, 1) + b"\xff\xfef"),
    "file not utf-8": _frame(1, struct.pack("!IHH", 1, 1, 2) + b"c\xff\xfe"),
    "traced open cut inside its context": _frame(0x81, b"\x00" * 10),
    "traced JSON": _frame(0x80, b"\x00" * 17 + b"{}"),
    "unknown kind": _frame(9, b"abcd"),
    "JSON that is no object": _frame(0, b"[1]"),
    "JSON without op": _frame(0, b'{"req":1}'),
    "JSON not utf-8": _frame(0, b"\xff"),
    "open reply of the wrong size": _frame(4, b"\x00" * 5),
    "ok reply of the wrong size": _frame(5, b"\x00" * 5),
    "unknown file state": _frame(4, struct.pack("!IBBd", 1, 1, 9, 0.0)),
    "run shorter than its req": _frame(6, b"\x00\x00"),
    "run reply with no payload": _frame(7, b""),
}


@pytest.mark.parametrize("name", sorted(BAD_STREAMS))
@pytest.mark.parametrize("tail", [b"", FRAMES[2]], ids=["last", "mid-stream"])
def test_a_bad_frame_fails_alike(name, tail):
    stepwise, drained = both(GOOD + BAD_STREAMS[name] + tail)
    assert isinstance(stepwise[0], str), "next_message accepted the bad frame"
    assert drained == stepwise


def test_the_hello_line_drains_too():
    lines = b'{"op":"hello","req":0}\n\n{"op":"hello","req":1}\n{"op":"he'
    stepwise, drained = both(lines, CODEC_LEGACY)
    assert drained == stepwise
    assert [m["req"] for m in drained[0]] == [0, 1] and drained[1] == b'{"op":"he'
