"""The routing walk against the drain it stands in for.

A connection that routes decodes with ``StreamDecoder.drain(check,
route)``: each stretch of untraced packed ``open``/``release`` frames for
a context another node serves comes back as one :class:`RoutedRun` of
the client's bytes instead of its messages.  Differentially, over random
frame streams fed in random chunks — packed opens and releases over
routed and local contexts, traced packed frames, JSON frames and
malformed frames — every chunk must give:

* what ``drain(checked)`` gives, once each run is decoded, with the runs
  where the daemon's splitter (``DVCore._split``) cuts a routed run out
  of those messages.  The one cut the walk adds is the ``recv``
  boundary: a stretch fed in two chunks is two runs, because each
  chunk's messages are split on their own here.  (A JSON-carried
  ``open``/``release`` for a routed context would join the splitter's
  run but not the walk's, which carries frames unchanged; no client
  sends one, and the streams here hold none.)
* the same ``ProtocolError`` at the same frame, the buffer left where
  ``drain(checked)`` leaves it.
"""

import struct
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.core.errors import ProtocolError
from repro.dv.core import _ROUTED, DVCore
from repro.dv.ops import checked
from repro.dv.protocol import (
    CODEC_BINARY,
    FWD_RUN_MAX,
    RoutedRun,
    StreamDecoder,
    decode_frames,
    encode_binary,
)

TC = "00000000000000ab-00000000000000cd-01"
ROUTED = ("far", "fär2")
CONTEXTS = ROUTED + ("near",)


def routes(context):
    return context in ROUTED


def _frame(kind, payload, magic=0xDF):
    return struct.pack("!BBHI", magic, kind, 0, len(payload)) + payload


def _request(ctx: bytes, name: bytes, req=1, ctx_len=None):
    return _frame(1, struct.pack(
        "!IHH", req, len(ctx) if ctx_len is None else ctx_len, len(name)
    ) + ctx + name)


MALFORMED = {
    "bad magic": b"\x7f" + encode_binary(
        {"op": "open", "req": 1, "context": "far", "file": "f"})[1:],
    "length mismatch": _request(b"far", b"f", ctx_len=2),
    "context not utf-8": _request(b"fa\xff", b"f"),
    "file not utf-8": _request(b"far", b"f\xc3"),
}


def packed(op, req, context, name):
    return {"op": op, "req": req, "context": context, "file": name}


names = st.sampled_from(["f1", "f2", "ü.sdf", ""])
stretches = st.builds(
    lambda op, context, count, name: ("packed", op, context, count, name),
    st.sampled_from(["open", "release"]), st.sampled_from(CONTEXTS),
    st.one_of(st.integers(1, 6), st.just(FWD_RUN_MAX + 3)), names,
)
others = st.one_of(
    st.builds(lambda op, context: ("traced", op, context),
              st.sampled_from(["open", "release"]), st.sampled_from(CONTEXTS)),
    st.builds(lambda message: ("json", message), st.sampled_from([
        {"op": "attach", "req": 1, "context": "far"},
        {"op": "wclose", "req": 2, "context": "far", "file": "f1"},
        {"op": "stats", "req": 3},
        {"op": "open", "req": 1 << 40, "context": "near", "file": "f1"},
        {"op": "open", "req": 4, "context": "far"},  # refused: no file
        {"op": "nonsense", "req": 5},
    ])),
    st.builds(lambda name: ("bad", name), st.sampled_from(sorted(MALFORMED))),
)
streams = st.lists(st.one_of(stretches, stretches, others), max_size=8)


def frames_of(segments):
    frames, req = [], 0
    for segment in segments:
        if segment[0] == "packed":
            _kind, op, context, count, name = segment
            for _ in range(count):
                req += 1
                frames.append(encode_binary(packed(op, req, context, name)))
        elif segment[0] == "traced":
            req += 1
            frames.append(encode_binary(
                dict(packed(segment[1], req, segment[2], "f1"), tc=TC)))
        elif segment[0] == "json":
            frames.append(encode_binary(segment[1]))
        else:
            frames.append(MALFORMED[segment[1]])
    return b"".join(frames)


def expected(messages):
    """``messages`` as the walk must return them: each routed piece of
    the splitter that holds untraced opens and releases only is a run."""
    core = SimpleNamespace(_forwards=routes)
    items, idx = [], 0
    while idx < len(messages):
        count, how = DVCore._split(core, "c1", messages, idx)
        piece = messages[idx:idx + count]
        idx += count
        if how == _ROUTED and all(
            m["op"] in ("open", "release") and "tc" not in m for m in piece
        ):
            items.append(("run", piece[0]["context"], piece))
        else:
            items.extend(piece)
    return items


def as_found(items):
    """The walk's items, each run decoded (and checked for the bytes it
    holds: the client's frames, unchanged)."""
    found = []
    for item in items:
        if type(item) is not RoutedRun:
            found.append(item)
            continue
        messages = decode_frames(item.data)
        assert item.messages is None and item.count == len(messages)
        assert item.opens == sum(m["op"] == "open" for m in messages)
        assert item.data == b"".join(encode_binary(m) for m in messages)
        found.append(("run", item.context, messages))
    return found


def pull(decoder, route=None):
    try:
        return decoder.drain(checked, route), bytes(decoder._buffer)
    except ProtocolError:
        return ProtocolError, bytes(decoder._buffer)


@settings(max_examples=120, deadline=None)
@given(streams, st.data())
@example([("packed", "open", "far", FWD_RUN_MAX + 3, "f1")], None)
@example([("packed", "release", "far", 3, "f1"), ("bad", "file not utf-8")], None)
@example([("packed", "open", "far", 2, "f1"), ("bad", "context not utf-8")], None)
def test_the_walk_is_the_drain_cut_into_runs(segments, data):
    stream = frames_of(segments)
    cuts = [] if data is None else sorted(
        data.draw(st.lists(st.integers(0, len(stream)), max_size=3))
    )
    reference, walk = StreamDecoder(CODEC_BINARY), StreamDecoder(CODEC_BINARY)
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        reference.feed(stream[lo:hi])
        walk.feed(stream[lo:hi])
        want, left = pull(reference)
        got, walk_left = pull(walk, routes)
        assert walk_left == left
        if want is ProtocolError:
            assert got is ProtocolError
            return
        assert got is not ProtocolError
        assert as_found(got) == expected(want)


def test_a_stretch_is_cut_at_the_cap_and_its_context_asked_once():
    asked = []

    def route(context):
        asked.append(context)
        return context == "far"

    ops = [packed("open" if i % 3 else "release", i, "far", f"f{i}")
           for i in range(FWD_RUN_MAX + 44)]
    ops += [packed("open", 900, "near", "f1"), packed("release", 901, "near", "f1")]
    decoder = StreamDecoder(CODEC_BINARY)
    decoder.feed(b"".join(encode_binary(m) for m in ops))
    first, second, *local = decoder.drain(checked, route)
    assert (first.count, second.count) == (FWD_RUN_MAX, 44)
    assert decode_frames(first.data + second.data) == ops[:-2]
    assert first.opens + second.opens == sum(m["op"] == "open" for m in ops[:-2])
    assert local == ops[-2:]
    assert asked == ["far", "near"]
