"""Binary codec: packed round trips, fallback, framing edges, and fuzz.

The binary codec must (a) round-trip every message exactly — packed hot
ops and JSON-fallback alike, (b) reject truncated/oversized/corrupt
frames with ``ProtocolError`` rather than garbage dicts, and (c) survive
arbitrary chunking, because the selector server feeds it whatever
``recv`` returns.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolError
from repro.dv.protocol import (
    _HEADER,
    _MAGIC,
    _MAX_MESSAGE,
    CODEC_BINARY,
    CODEC_LEGACY,
    MessageReader,
    StreamDecoder,
    encode_binary,
    encode_frame,
    encode_message,
    encode_open_reply,
    encode_open_request,
    negotiate_codec,
)


def roundtrip(message, codec=CODEC_BINARY):
    decoder = StreamDecoder(codec)
    decoder.feed(encode_frame(message, codec))
    decoded = decoder.next_message()
    assert decoder.next_message() is None
    return decoded


class TestPackedRoundTrip:
    def test_open(self):
        m = {"op": "open", "req": 7, "context": "cosmo", "file": "a.sdf"}
        assert roundtrip(m) == m

    def test_release(self):
        m = {"op": "release", "req": 4096, "context": "c", "file": "f.sdf"}
        assert roundtrip(m) == m

    def test_ready(self):
        m = {"op": "ready", "context": "c", "file": "f.sdf", "ok": False}
        assert roundtrip(m) == m

    def test_ok_reply(self):
        m = {"op": "reply", "req": 1, "error": 0}
        assert roundtrip(m) == m

    def test_open_reply(self):
        m = {"op": "reply", "req": 9, "error": 0, "available": True,
             "state": "on_disk", "wait": 1.5}
        assert roundtrip(m) == m

    def test_packed_frames_are_smaller_than_legacy(self):
        for m in (
            {"op": "open", "req": 7, "context": "cosmo", "file": "a.sdf"},
            {"op": "reply", "req": 9, "error": 0, "available": True,
             "state": "on_disk", "wait": 0.0},
            {"op": "ready", "context": "cosmo", "file": "a.sdf", "ok": True},
        ):
            assert len(encode_binary(m)) < len(encode_message(m))

    def test_unicode_strings(self):
        m = {"op": "open", "req": 1, "context": "ctx_α", "file": "données.sdf"}
        assert roundtrip(m) == m

    def test_fast_path_encoders_match_generic(self):
        reply = {"op": "reply", "req": 3, "error": 0, "available": False,
                 "state": "queued", "wait": 2.5}
        request = {"op": "open", "req": 3, "context": "c", "file": "f"}
        for codec in (CODEC_BINARY, CODEC_LEGACY):
            assert encode_open_reply(3, False, "queued", 2.5, codec) == \
                encode_frame(reply, codec)
            assert encode_open_request(3, "c", "f", codec) == \
                encode_frame(request, codec)

    def test_fast_path_encoders_fall_back(self):
        # Unpackable req values must still produce decodable frames.
        blob = encode_open_request(None, "c", "f", CODEC_BINARY)
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(blob)
        assert decoder.next_message()["req"] is None


class TestJsonFallback:
    def test_batch_message(self):
        m = {"op": "batch", "ops": [{"op": "open", "context": "c", "file": "f"},
                                    {"op": "release", "context": "c", "file": "f"}]}
        assert roundtrip(m) == m

    def test_error_reply(self):
        m = {"op": "reply", "req": 5, "error": 3, "detail": "nope"}
        assert roundtrip(m) == m

    def test_non_integer_req(self):
        m = {"op": "open", "req": None, "context": "c", "file": "f"}
        assert roundtrip(m) == m

    def test_req_out_of_u32_range(self):
        m = {"op": "open", "req": 1 << 40, "context": "c", "file": "f"}
        assert roundtrip(m) == m

    def test_bool_req_not_packed(self):
        # True == 1 numerically; packing it would decode as int 1.
        m = {"op": "open", "req": True, "context": "c", "file": "f"}
        assert roundtrip(m) == m

    def test_unknown_state_string(self):
        m = {"op": "reply", "req": 1, "error": 0, "available": True,
             "state": "weird", "wait": 0.0}
        assert roundtrip(m) == m

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError):
            encode_binary({"req": 1})


class TestFraming:
    def test_truncated_header_needs_more(self):
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(encode_binary({"op": "reply", "req": 1, "error": 0})[:5])
        assert decoder.next_message() is None
        assert decoder.has_partial()

    def test_truncated_payload_needs_more(self):
        blob = encode_binary({"op": "open", "req": 1, "context": "c", "file": "f"})
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(blob[:-1])
        assert decoder.next_message() is None
        assert decoder.has_partial()
        decoder.feed(blob[-1:])
        assert decoder.next_message()["op"] == "open"

    def test_bad_magic_rejected(self):
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(b"\x00" * _HEADER.size)
        with pytest.raises(ProtocolError):
            decoder.next_message()

    def test_oversized_frame_rejected(self):
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(_HEADER.pack(_MAGIC, 0, 0, _MAX_MESSAGE + 1))
        with pytest.raises(ProtocolError):
            decoder.next_message()

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError):
            encode_binary({"op": "x", "blob": "y" * (_MAX_MESSAGE + 1)})

    def test_unknown_kind_rejected(self):
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(_HEADER.pack(_MAGIC, 250, 0, 0))
        with pytest.raises(ProtocolError):
            decoder.next_message()

    def test_length_mismatch_rejected(self):
        # OPEN frame whose declared string lengths overrun the payload.
        blob = encode_binary({"op": "open", "req": 1, "context": "c", "file": "f"})
        corrupted = bytearray(blob)
        corrupted[_HEADER.size + 4 : _HEADER.size + 6] = (999).to_bytes(2, "big")
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(bytes(corrupted))
        with pytest.raises(ProtocolError):
            decoder.next_message()

    def test_codec_switch_keeps_buffered_bytes(self):
        # Legacy hello followed by binary frames already in the buffer.
        decoder = StreamDecoder(CODEC_LEGACY)
        binary = encode_binary({"op": "open", "req": 1, "context": "c", "file": "f"})
        decoder.feed(encode_message({"op": "hello", "client_id": "x"}) + binary)
        assert decoder.next_message()["op"] == "hello"
        decoder.set_codec(CODEC_BINARY)
        assert decoder.next_message()["op"] == "open"


class TestCanonicalFlag:
    def test_hot_path_preserves_insertion_order(self):
        blob = encode_message({"op": "z", "b": 1, "a": 2})
        assert blob.index(b'"b"') < blob.index(b'"a"')

    def test_canonical_sorts_keys(self):
        blob = encode_message({"op": "z", "b": 1, "a": 2}, canonical=True)
        assert json.loads(blob) == {"op": "z", "b": 1, "a": 2}
        assert blob.index(b'"a"') < blob.index(b'"b"')


class TestNegotiation:
    def test_v2_binary_granted(self):
        assert negotiate_codec({"op": "hello", "vers": 2, "codec": "binary"}) == "binary"

    def test_v1_is_rejected(self):
        with pytest.raises(ProtocolError, match="vers"):
            negotiate_codec({"op": "hello"})
        with pytest.raises(ProtocolError, match="vers"):
            negotiate_codec({"op": "hello", "codec": "binary"})

    def test_unknown_codec_is_rejected(self):
        with pytest.raises(ProtocolError, match="codec"):
            negotiate_codec({"op": "hello", "vers": 2, "codec": "zstd"})
        with pytest.raises(ProtocolError, match="codec"):
            negotiate_codec({"op": "hello", "vers": 2})

    @pytest.mark.parametrize("vers", ["x", "2", 2.0, True, None, float("inf")])
    def test_garbage_vers_is_rejected(self, vers):
        with pytest.raises(ProtocolError, match="vers"):
            negotiate_codec({"op": "hello", "vers": vers, "codec": "binary"})


# --------------------------------------------------------------------- #
# Property / fuzz
# --------------------------------------------------------------------- #

names = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    min_size=0, max_size=80,
)
reqs = st.integers(min_value=0, max_value=(1 << 32) - 1)
json_values = st.recursive(
    st.none() | st.booleans() | reqs
    | st.floats(allow_nan=False, allow_infinity=False) | names,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(names, children, max_size=4),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(req=reqs, context=names, filename=names)
def test_open_release_roundtrip_property(req, context, filename):
    for op in ("open", "release"):
        m = {"op": op, "req": req, "context": context, "file": filename}
        assert roundtrip(m) == m


@settings(max_examples=100, deadline=None)
@given(context=names, filename=names, ok=st.booleans())
def test_ready_roundtrip_property(context, filename, ok):
    m = {"op": "ready", "context": context, "file": filename, "ok": ok}
    assert roundtrip(m) == m


@settings(max_examples=100, deadline=None)
@given(
    req=reqs,
    available=st.booleans(),
    state=st.sampled_from(["on_disk", "simulating", "queued", "failed", "unknown"]),
    wait=st.floats(allow_nan=False, allow_infinity=False),
)
def test_open_reply_roundtrip_property(req, available, state, wait):
    m = {"op": "reply", "req": req, "error": 0, "available": available,
         "state": state, "wait": wait}
    assert roundtrip(m) == m


@settings(max_examples=100, deadline=None)
@given(message=st.dictionaries(names, json_values, max_size=5), op=names)
def test_arbitrary_message_roundtrip_property(message, op):
    message["op"] = op
    assert roundtrip(message) == message


@settings(max_examples=100, deadline=None)
@given(
    messages=st.lists(
        st.tuples(reqs, names, names).map(
            lambda t: {"op": "open", "req": t[0], "context": t[1], "file": t[2]}
        ),
        min_size=1, max_size=8,
    ),
    chunk=st.integers(min_value=1, max_value=17),
)
def test_chunked_stream_property(messages, chunk):
    """Frames survive arbitrary recv-boundary chunking."""
    blob = b"".join(encode_binary(m) for m in messages)
    decoder = StreamDecoder(CODEC_BINARY)
    decoded = []
    for i in range(0, len(blob), chunk):
        decoder.feed(blob[i : i + chunk])
        while True:
            m = decoder.next_message()
            if m is None:
                break
            decoded.append(m)
    assert decoded == messages
    assert not decoder.has_partial()


@settings(max_examples=200, deadline=None)
@given(garbage=st.binary(min_size=0, max_size=200))
def test_garbage_never_crashes_decoder(garbage):
    """Arbitrary bytes produce messages, 'need more', or ProtocolError —
    never any other exception."""
    decoder = StreamDecoder(CODEC_BINARY)
    decoder.feed(garbage)
    try:
        while decoder.next_message() is not None:
            pass
    except ProtocolError:
        pass


def test_reader_eof_mid_binary_frame_raises():
    import socket

    server, client = socket.socketpair()
    try:
        blob = encode_binary({"op": "open", "req": 1, "context": "c", "file": "f"})
        client.sendall(blob[:-2])
        client.shutdown(socket.SHUT_WR)
        reader = MessageReader(server, codec=CODEC_BINARY)
        with pytest.raises(ProtocolError):
            reader.read_message()
    finally:
        server.close()
        client.close()
