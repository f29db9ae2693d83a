"""Traced binary frames: packed trace-context prefix and interop.

A ``tc`` field must never cost correctness: packed hot ops grow a
17-byte prefix behind the ``_KIND_TRACED`` kind bit and round-trip to
the same dict (with ``tc`` restored as its wire string); JSON fallback
and the legacy codec carry ``tc`` as a plain inline key, so untraced and
pre-tracing peers interoperate unchanged.
"""

import pytest

from repro.core.errors import ProtocolError
from repro.dv.protocol import (
    _HEADER,
    _KIND_JSON,
    _KIND_OPEN,
    _KIND_TRACED,
    _MAGIC,
    _TRACE_CTX,
    CODEC_BINARY,
    CODEC_LEGACY,
    StreamDecoder,
    encode_frame,
    encode_open_reply,
    encode_open_request,
    negotiate_trace,
)
from repro.obs.trace import new_trace

TC = "6f2a9c01d4e8b377-1b22c3d4e5f60718-01"


def roundtrip(message, codec=CODEC_BINARY):
    decoder = StreamDecoder(codec)
    decoder.feed(encode_frame(message, codec))
    decoded = decoder.next_message()
    assert decoder.next_message() is None
    return decoded


class TestTracedPackedFrames:
    def test_open_with_tc_roundtrips(self):
        m = {"op": "open", "req": 7, "context": "cosmo", "file": "a.sdf",
             "tc": TC}
        assert roundtrip(m) == m

    def test_release_and_ready_with_tc(self):
        for m in (
            {"op": "release", "req": 4, "context": "c", "file": "f.sdf",
             "tc": TC},
            {"op": "ready", "context": "c", "file": "f.sdf", "ok": True,
             "tc": TC},
        ):
            assert roundtrip(m) == m

    def test_traced_kind_bit_set(self):
        frame = encode_frame(
            {"op": "open", "req": 1, "context": "c", "file": "f", "tc": TC},
            CODEC_BINARY,
        )
        _magic, kind, _res, _length = _HEADER.unpack_from(frame)
        assert kind == _KIND_OPEN | _KIND_TRACED

    def test_traced_frame_is_17_bytes_longer(self):
        base = {"op": "open", "req": 1, "context": "c", "file": "f"}
        plain = encode_frame(base, CODEC_BINARY)
        traced = encode_frame({**base, "tc": TC}, CODEC_BINARY)
        assert len(traced) - len(plain) == _TRACE_CTX.size
        assert _TRACE_CTX.size == 17

    def test_tc_object_accepted(self):
        tc = new_trace()
        m = {"op": "open", "req": 1, "context": "c", "file": "f", "tc": tc}
        decoded = roundtrip(m)
        assert decoded["tc"] == tc.to_wire()

    def test_invalid_tc_degrades_to_untraced_packed_frame(self):
        m = {"op": "open", "req": 1, "context": "c", "file": "f",
             "tc": "garbage"}
        decoded = roundtrip(m)
        # The malformed tc rides the JSON fallback untouched rather than
        # corrupting the packed form.
        assert decoded == m

    def test_fast_path_encoders_match_generic(self):
        assert encode_open_request(3, "c", "f.sdf", CODEC_BINARY, tc=TC) == (
            encode_frame(
                {"op": "open", "req": 3, "context": "c", "file": "f.sdf",
                 "tc": TC},
                CODEC_BINARY,
            )
        )
        assert encode_open_reply(
            3, True, "on_disk", 0.5, CODEC_BINARY, tc=TC
        ) == encode_frame(
            {"op": "reply", "req": 3, "error": 0, "available": True,
             "state": "on_disk", "wait": 0.5, "tc": TC},
            CODEC_BINARY,
        )

    def test_fast_path_without_tc_is_bit_identical_to_pre_tracing(self):
        assert encode_open_request(3, "c", "f", CODEC_BINARY) == encode_frame(
            {"op": "open", "req": 3, "context": "c", "file": "f"},
            CODEC_BINARY,
        )

    def test_truncated_traced_payload_rejected(self):
        frame = _HEADER.pack(_MAGIC, _KIND_OPEN | _KIND_TRACED, 0, 4) + b"xxxx"
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(frame)
        with pytest.raises(ProtocolError):
            decoder.next_message()

    def test_traced_json_kind_rejected(self):
        payload = b"\x00" * 20
        frame = _HEADER.pack(
            _MAGIC, _KIND_JSON | _KIND_TRACED, 0, len(payload)
        ) + payload
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(frame)
        with pytest.raises(ProtocolError):
            decoder.next_message()


class TestJsonAndLegacyInterop:
    def test_json_fallback_keeps_tc_inline(self):
        m = {"op": "batch", "req": 2, "ops": [], "tc": TC}
        frame = encode_frame(m, CODEC_BINARY)
        _magic, kind, _res, _length = _HEADER.unpack_from(frame)
        assert kind == _KIND_JSON  # no traced bit on JSON payloads
        assert roundtrip(m) == m

    def test_legacy_codec_keeps_tc_inline(self):
        m = {"op": "open", "req": 1, "context": "c", "file": "f", "tc": TC}
        assert roundtrip(m, codec=CODEC_LEGACY) == m
        assert b'"tc"' in encode_frame(m, CODEC_LEGACY)


class TestNegotiateTrace:
    def test_v2_with_trace_granted(self):
        assert negotiate_trace({"op": "hello", "vers": 2, "trace": 1})

    def test_v2_without_trace_flag_denied(self):
        assert not negotiate_trace({"op": "hello", "vers": 2})
        assert not negotiate_trace({"op": "hello", "vers": 2, "trace": 0})
