"""Frame-size limits of the stream decoder both ports share (the control
port's frames and the data port's ``chunk`` frames): frames exactly at
the cap decode, anything larger is a clean ``ProtocolError`` (a protocol
violation, never an OOM or a hang), and boundary-fuzzed chunking around
the header/payload split never changes the decoded result."""

import json

import pytest

from repro.core.errors import ProtocolError
from repro.dv.protocol import (
    _HEADER,
    _KIND_CHUNK,
    _MAGIC,
    _MAX_MESSAGE,
    CODEC_BINARY,
    StreamDecoder,
    encode_binary,
    encode_chunk_header,
)


def max_size_json_message() -> dict:
    """A message whose compact-JSON serialization is exactly the cap."""
    overhead = len(json.dumps({"op": "x", "pad": ""}, separators=(",", ":")))
    message = {"op": "x", "pad": "a" * (_MAX_MESSAGE - overhead)}
    encoded = json.dumps(message, separators=(",", ":"))
    assert len(encoded) == _MAX_MESSAGE
    return message


class TestControlPlaneLimits:
    def test_binary_frame_at_max_size_decodes(self):
        message = max_size_json_message()
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(encode_binary(message))
        assert decoder.next_message() == message

    def test_binary_frame_over_max_rejected_by_encoder(self):
        message = max_size_json_message()
        message["pad"] += "a"
        with pytest.raises(ProtocolError, match="maximum size"):
            encode_binary(message)

    def test_binary_header_announcing_oversize_is_protocol_error(self):
        # A malicious header claiming a huge payload must fail on the
        # header alone — before any payload is buffered.
        frame = _HEADER.pack(_MAGIC, 0, 0, _MAX_MESSAGE + 1)
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(frame)
        with pytest.raises(ProtocolError, match="maximum size"):
            decoder.next_message()

    def test_legacy_unterminated_line_over_max_is_protocol_error(self):
        decoder = StreamDecoder()
        decoder.feed(b"x" * (_MAX_MESSAGE + 1))
        with pytest.raises(ProtocolError, match="maximum size"):
            decoder.next_message()

    def test_legacy_buffer_at_max_still_waits_for_newline(self):
        decoder = StreamDecoder()
        decoder.feed(b"x" * _MAX_MESSAGE)
        assert decoder.next_message() is None  # not an error yet

    @pytest.mark.parametrize("split", [1, 7, 8, 9, 100, _MAX_MESSAGE // 2])
    def test_boundary_fuzz_chunking_is_invisible(self, split):
        message = max_size_json_message()
        frame = encode_binary(message)
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(frame[:split])
        assert decoder.next_message() is None
        decoder.feed(frame[split:])
        assert decoder.next_message() == message


def drained(*pieces: bytes) -> list:
    """What ``drain`` yields of ``pieces`` fed one after another, the
    buffer checked empty at the end."""
    decoder = StreamDecoder(CODEC_BINARY)
    messages = []
    for piece in pieces:
        decoder.feed(piece)
        messages += decoder.drain()
    assert not decoder.has_partial()
    return messages


class TestChunkLimits:
    """The data port's file bytes: ``chunk`` frames of the same codec."""

    def test_chunk_at_max_size_decodes(self):
        body = b"z" * _MAX_MESSAGE
        assert drained(encode_chunk_header(_MAX_MESSAGE) + body) == [
            {"op": "chunk", "data": body}]

    @pytest.mark.parametrize("length", [0, _MAX_MESSAGE + 1])
    def test_chunk_length_out_of_range_rejected(self, length):
        with pytest.raises(ProtocolError, match="out of range"):
            encode_chunk_header(length)

    def test_oversized_chunk_announcement_is_protocol_error(self):
        decoder = StreamDecoder(CODEC_BINARY)
        decoder.feed(_HEADER.pack(_MAGIC, _KIND_CHUNK, 0, _MAX_MESSAGE + 1))
        with pytest.raises(ProtocolError, match="maximum size"):
            decoder.drain()

    def test_bad_magic_and_unknown_kind(self):
        for header, problem in ((_HEADER.pack(0xDA, _KIND_CHUNK, 0, 0), "magic"),
                                (_HEADER.pack(_MAGIC, 0x7F, 0, 0), "kind")):
            decoder = StreamDecoder(CODEC_BINARY)
            decoder.feed(header)
            with pytest.raises(ProtocolError, match=problem):
                decoder.drain()

    @pytest.mark.parametrize("split", [1, 7, 8, 9, 20, 4096])
    def test_boundary_fuzz_chunking_is_invisible(self, split):
        stream = (encode_binary({"op": "fetch_start", "size": 5})
                  + encode_chunk_header(5) + b"hello"
                  + encode_binary({"op": "fetch_end", "bytes": 5}))
        assert drained(stream[:split], stream[split:]) == [
            {"op": "fetch_start", "size": 5},
            {"op": "chunk", "data": b"hello"},
            {"op": "fetch_end", "bytes": 5},
        ]
