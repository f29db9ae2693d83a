"""DV wire protocol: framed messages over TCP (paper Fig. 4).

The original SimFS exchanges control messages between DVLib and the DV over
TCP/IP; data moves through the parallel file system.  The reproduction uses
the same split.  A control connection carries two framings, in this order:

``hello`` line
    The client's ``hello`` and the server's reply are one newline-delimited
    JSON line each (``legacy`` below), so the handshake itself needs no
    codec.  The hello must carry ``"vers": 2`` (or later) and
    ``"codec": "binary"``; the reply echoes ``"codec": "binary"``.  Anything
    else is answered with an ``ERR_PROTOCOL`` reply line naming the reason
    and the connection stays un-negotiated — there is no newline-JSON mode
    past the handshake.
``binary`` frames
    Every frame after the hello reply is length-prefixed: a compact 8-byte
    struct header ``(magic, kind, reserved, payload_length)`` followed by
    the payload.  The hot ops — ``open``/``release`` requests, their
    replies, and ``ready`` notifications — are packed as fixed struct
    layouts; every other message is carried as compact (non-sorted) JSON
    under ``KIND_JSON``.  No newline scanning, no key sorting, no escaping
    on the critical path.

Client -> DV requests each carry a ``req`` sequence number; what each op
is — its fields, whether it is forwarded, joins a run, may block — is
:data:`repro.dv.ops.OPS`.  A client keeps many ops in flight by
pipelining their frames: there is no multi-op request.

DV -> client messages: ``reply`` (matched to ``req``) and unsolicited
``ready`` notifications for files the client waits on.

A node's data port (:mod:`repro.data`) speaks the same binary frames,
with no ``hello``: its requests and answers are JSON frames, and the
bytes of a fetched file travel as ``chunk`` frames, a packed kind whose
header (:func:`encode_chunk_header`) is written apart from the body.
``chunk`` is no op of the table, so the control port refuses it.

Peer-to-peer (cluster tier, :mod:`repro.cluster`) — DV daemons exchange
three additional ops over the very same wire:

=============  ===========================================================
``fwd``        gateway forwarding.  Ingress -> owner, a *run* of one
               client's ops, packed (:func:`pack_run`): the ops as the
               client frames they are, ``req`` and all
               (1..``FWD_RUN_MAX``, executed in order) — a lone op is a
               run of one.  Owner -> ingress, without ``req``: ``{"op":
               "fwd", "origin": node_id, "client": client_id, "inner":
               {"op": "ready", ...}}`` routes a ``ready`` back to the
               client's ingress node (:func:`make_fwd`).
``fwd_reply``  the owner's answer to a run: the reply frames the client
               reads, same count, same order (:func:`unpack_run_reply`).
``gossip``     membership heartbeat: carries the sender's peer-table
               view (node ids, addresses, generations, aliveness, ring
               epoch); the receiver merges it and replies with its own
               view under ``view``.
=============  ===========================================================

Trace propagation (:mod:`repro.obs`) rides the same handshake: a
tracing-capable peer adds ``"trace": 1`` to its ``hello`` and the server
echoes it back when it can record spans.  After that, any message may
carry a ``tc`` field — the compact trace-context wire string.  On binary
JSON payloads ``tc`` is just another JSON key.  On
packed binary frames the kind byte gets the ``0x80`` trace bit and the
payload is prefixed with a packed 17-byte ``(trace_id, span_id, flags)``
struct; traced packed kinds are only ever sent once both sides
negotiated tracing, because v2 decoders reject unknown kinds.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from repro.core.errors import ProtocolError
from repro.dv.ops import OPS, checked
from repro.obs.trace import TraceContext, parse_wire as _parse_trace

__all__ = [
    "PROTOCOL_VERSION",
    "CODEC_LEGACY",
    "CODEC_BINARY",
    "SUPPORTED_CODECS",
    "OP_FWD",
    "OP_FWD_REPLY",
    "OP_GOSSIP",
    "FWD_RUN_MAX",
    "MARK_MISS",
    "MARK_BODY",
    "make_fwd",
    "unwrap_fwd",
    "pack_run",
    "unpack_run",
    "unpack_run_reply",
    "decode_frames",
    "encode_message",
    "decode_message",
    "encode_binary",
    "encode_chunk_header",
    "encode_frame",
    "encode_open_reply",
    "encode_ok_reply",
    "encode_open_request",
    "negotiate_codec",
    "negotiate_trace",
    "StreamDecoder",
    "MessageReader",
    "send_message",
]

#: Protocol version this library speaks (and the oldest it accepts): v2
#: is the first with binary frames after the hello line.
PROTOCOL_VERSION = 2

CODEC_LEGACY = "legacy"
CODEC_BINARY = "binary"
SUPPORTED_CODECS = (CODEC_LEGACY, CODEC_BINARY)

_MAX_MESSAGE = 1 << 20  # 1 MiB per frame is far beyond any legal message

#: Cluster-tier op names (peer-to-peer traffic; see module docstring).
OP_FWD = "fwd"
OP_FWD_REPLY = "fwd_reply"
OP_GOSSIP = "gossip"


#: Most ops one ``fwd`` frame may carry: the sender's run cap and the
#: owner's validation bound.
FWD_RUN_MAX = 256


def make_fwd(origin: str, client_id: str, inner: dict[str, Any],
             req: Any = None) -> dict[str, Any]:
    """Wrap ``inner`` — a ``ready`` the owner routes back to a client's
    ingress — in a one-way ``fwd`` (a ``req`` makes it a request)."""
    message: dict[str, Any] = {
        "op": OP_FWD, "origin": origin, "client": client_id, "inner": inner,
    }
    if req is not None:
        message["req"] = req
    return message


def unwrap_fwd(message: dict[str, Any]) -> tuple[str, str, dict[str, Any]]:
    """Validate and split a :func:`make_fwd` frame into (origin, client,
    inner)."""
    origin, client_id, inner = (
        message.get("origin"), message.get("client"), message.get("inner")
    )
    if not isinstance(origin, str) or not isinstance(client_id, str):
        raise ProtocolError("fwd frame needs string 'origin' and 'client'")
    if not isinstance(inner, dict) or "op" not in inner:
        raise ProtocolError("fwd frame needs an 'inner' message with 'op'")
    return origin, client_id, inner

# --------------------------------------------------------------------- #
# Legacy codec: newline-delimited JSON (the hello line and its reply)
# --------------------------------------------------------------------- #


def encode_message(message: dict[str, Any], canonical: bool = False) -> bytes:
    """Serialize one message to a newline-terminated JSON line.

    ``canonical=True`` sorts keys for byte-stable output (golden files,
    checksummed transcripts); the hot path skips the sort.
    """
    if "op" not in message:
        raise ProtocolError("message missing 'op'")
    line = json.dumps(message, separators=(",", ":"), sort_keys=canonical)
    if "\n" in line:
        raise ProtocolError("message payload must not contain newlines")
    return line.encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict[str, Any]:
    """Parse one JSON line into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict) or "op" not in message:
        raise ProtocolError("protocol message must be an object with 'op'")
    return message


# --------------------------------------------------------------------- #
# Binary codec: length-prefixed frames with packed hot-op payloads
# --------------------------------------------------------------------- #

_MAGIC = 0xDF
_HEADER = struct.Struct("!BBHI")  # magic, kind, reserved, payload length

_KIND_JSON = 0        # payload: compact JSON of the whole message
_KIND_OPEN = 1        # !IHH req, len(context), len(file) + strings
_KIND_RELEASE = 2     # same layout as OPEN
_KIND_READY = 3       # !BHH ok, len(context), len(file) + strings
_KIND_OPEN_REPLY = 4  # !IBBd req, available, state index, wait
_KIND_OK_REPLY = 5    # !I   req (empty success reply)
_KIND_RUN = 6         # !I   req + a forwarded run (see pack_run)
_KIND_RUN_REPLY = 7   # !I   req + its reply frames (see unpack_run_reply)
_KIND_CHUNK = 8       # raw file bytes of a data-port fetch (encode_chunk_header)

#: Kind-byte bit marking a packed frame that carries a trace context:
#: the payload is prefixed with ``_TRACE_CTX`` and the remainder decodes
#: as the base kind.  Only sent after tracing was negotiated on hello.
_KIND_TRACED = 0x80
_TRACE_CTX = struct.Struct("!QQB")  # trace_id, span_id, flags

_REQ_STRINGS = struct.Struct("!IHH")
_REQ_FRAME = struct.Struct("!BBHIIHH")  # _HEADER and _REQ_STRINGS in one
_REQ_KINDS = {"open": _KIND_OPEN, "release": _KIND_RELEASE}
_READY_HDR = struct.Struct("!BHH")
_OPEN_REPLY = struct.Struct("!IBBd")
_OK_REPLY = struct.Struct("!I")
_RUN_HDR = struct.Struct("!HHH")  # len(origin), len(client), count

#: What :func:`unpack_run_reply` says of a reply frame that is not a
#: plain success: an ``open`` that missed (the ingress owes the client
#: a ``ready``), or a reply whose body must be read (an error, an
#: answer that carries more than "done").
MARK_MISS, MARK_BODY = 1, 2

#: File states a packed open-reply can carry (index = wire byte).
_STATES = ("on_disk", "simulating", "queued", "failed", "unknown")
_STATE_INDEX = {name: idx for idx, name in enumerate(_STATES)}


def _is_req(value: Any) -> bool:
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and 0 <= value < 1 << 32
    )


def _pack_trace(tc: Any) -> bytes | None:
    """Packed 17-byte trace prefix, or ``None`` when ``tc`` is not a
    trace context (invalid values degrade to untraced, never an error)."""
    if isinstance(tc, str):
        tc = _parse_trace(tc)
    if not isinstance(tc, TraceContext):
        return None
    return _TRACE_CTX.pack(tc.trace_id, tc.span_id, tc.flags)


def encode_binary(message: dict[str, Any]) -> bytes:
    """Serialize one message as a binary frame.

    The hot ops get fixed struct layouts; anything else falls back to a
    JSON payload inside the binary framing.  The packed forms round-trip
    exactly (``decode`` of an ``encode`` reproduces the input dict).

    A ``tc`` trace-context field does not cost a hot op its packed form:
    the frame is packed without it and the kind byte gets the
    ``_KIND_TRACED`` bit with the packed context prefixed to the payload.
    On the JSON fallback ``tc`` simply stays an inline key.
    """
    op = message.get("op")
    if op is None:
        raise ProtocolError("message missing 'op'")
    trace = None
    if "tc" in message:
        trace = _pack_trace(message["tc"])
        if trace is not None:
            body = {k: v for k, v in message.items() if k != "tc"}
            kind, payload = _pack_payload(op, body)
            if kind == _KIND_JSON:
                trace = None  # tc rides inline in the JSON payload
            else:
                kind |= _KIND_TRACED
                payload = trace + payload
    if trace is None:
        kind, payload = _pack_payload(op, message)
    if len(payload) > _MAX_MESSAGE:
        raise ProtocolError("binary frame exceeds maximum size")
    return _HEADER.pack(_MAGIC, kind, 0, len(payload)) + payload


def _pack_payload(op: str, message: dict[str, Any]) -> tuple[int, bytes]:
    n = len(message)
    if op in ("open", "release") and n == 4:
        req = message.get("req")
        context = message.get("context")
        filename = message.get("file")
        if (
            _is_req(req)
            and isinstance(context, str)
            and isinstance(filename, str)
        ):
            ctx = context.encode("utf-8")
            fname = filename.encode("utf-8")
            if len(ctx) < 1 << 16 and len(fname) < 1 << 16:
                kind = _KIND_OPEN if op == "open" else _KIND_RELEASE
                return kind, _REQ_STRINGS.pack(req, len(ctx), len(fname)) + ctx + fname
    elif op == "ready" and n == 4:
        context = message.get("context")
        filename = message.get("file")
        ok = message.get("ok")
        if (
            isinstance(context, str)
            and isinstance(filename, str)
            and isinstance(ok, bool)
        ):
            ctx = context.encode("utf-8")
            fname = filename.encode("utf-8")
            if len(ctx) < 1 << 16 and len(fname) < 1 << 16:
                return _KIND_READY, _READY_HDR.pack(ok, len(ctx), len(fname)) + ctx + fname
    elif op == "reply" and message.get("error") == 0:
        req = message.get("req")
        if n == 3 and _is_req(req):
            return _KIND_OK_REPLY, _OK_REPLY.pack(req)
        if n == 6 and _is_req(req):
            available = message.get("available")
            state = message.get("state")
            wait = message.get("wait")
            if (
                isinstance(available, bool)
                and state in _STATE_INDEX
                and isinstance(wait, float)
            ):
                return _KIND_OPEN_REPLY, _OPEN_REPLY.pack(
                    req, available, _STATE_INDEX[state], wait
                )
    elif (op == OP_FWD and n == 3) or (
        op == OP_FWD_REPLY and n == 4 and message.get("error") == 0
    ):
        req, run = message.get("req"), message.get("run")
        if _is_req(req) and isinstance(run, bytes):
            kind = _KIND_RUN if op == OP_FWD else _KIND_RUN_REPLY
            return kind, _OK_REPLY.pack(req) + run
    blob = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _KIND_JSON, blob


def _unpack_strings(payload: bytes, offset: int, ctx_len: int, fname_len: int
                    ) -> tuple[str, str]:
    end = offset + ctx_len + fname_len
    if end != len(payload):
        raise ProtocolError("binary frame length does not match its payload")
    try:
        context = payload[offset : offset + ctx_len].decode("utf-8")
        filename = payload[offset + ctx_len : end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed binary string: {exc}") from exc
    return context, filename


def _decode_binary_payload(kind: int, payload: bytes) -> dict[str, Any]:
    if kind & _KIND_TRACED:
        base = kind & ~_KIND_TRACED
        if base == _KIND_JSON or len(payload) < _TRACE_CTX.size:
            raise ProtocolError(f"malformed traced binary frame kind {kind}")
        tid, sid, flags = _TRACE_CTX.unpack_from(payload)
        message = _decode_binary_payload(base, payload[_TRACE_CTX.size:])
        message["tc"] = f"{tid:016x}-{sid:016x}-{flags:02x}"
        return message
    if kind == _KIND_JSON:
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed binary JSON payload: {exc}") from exc
        if not isinstance(message, dict) or "op" not in message:
            raise ProtocolError("protocol message must be an object with 'op'")
        return message
    try:
        if kind in (_KIND_OPEN, _KIND_RELEASE):
            req, ctx_len, fname_len = _REQ_STRINGS.unpack_from(payload)
            context, filename = _unpack_strings(
                payload, _REQ_STRINGS.size, ctx_len, fname_len
            )
            op = "open" if kind == _KIND_OPEN else "release"
            return {"op": op, "req": req, "context": context, "file": filename}
        if kind == _KIND_READY:
            ok, ctx_len, fname_len = _READY_HDR.unpack_from(payload)
            context, filename = _unpack_strings(
                payload, _READY_HDR.size, ctx_len, fname_len
            )
            return {"op": "ready", "context": context, "file": filename,
                    "ok": bool(ok)}
        if kind == _KIND_OPEN_REPLY:
            if len(payload) != _OPEN_REPLY.size:
                raise ProtocolError("binary frame length does not match its payload")
            req, available, state_idx, wait = _OPEN_REPLY.unpack(payload)
            if state_idx >= len(_STATES):
                raise ProtocolError(f"unknown file-state index {state_idx}")
            return {"op": "reply", "req": req, "error": 0,
                    "available": bool(available), "state": _STATES[state_idx],
                    "wait": wait}
        if kind == _KIND_OK_REPLY:
            if len(payload) != _OK_REPLY.size:
                raise ProtocolError("binary frame length does not match its payload")
            (req,) = _OK_REPLY.unpack(payload)
            return {"op": "reply", "req": req, "error": 0}
        if kind == _KIND_RUN:  # validated by whoever executes it: unpack_run
            (req,) = _OK_REPLY.unpack_from(payload)
            return {"op": OP_FWD, "req": req, "run": payload[_OK_REPLY.size:]}
        if kind == _KIND_RUN_REPLY:
            (req,) = _OK_REPLY.unpack_from(payload)
            return {"op": OP_FWD_REPLY, "req": req, "error": 0,
                    "run": payload[_OK_REPLY.size:]}
        if kind == _KIND_CHUNK:  # no op of the table: a DV refuses it
            return {"op": "chunk", "data": payload}
    except struct.error as exc:
        raise ProtocolError(f"truncated binary frame: {exc}") from exc
    raise ProtocolError(f"unknown binary frame kind {kind}")


def encode_chunk_header(length: int) -> bytes:
    """Header of a frame of ``length`` file bytes, which follow it apart
    (a data port ``sendfile``s them); it decodes as ``{"op": "chunk",
    "data": <the bytes>}``."""
    if not 0 < length <= _MAX_MESSAGE:
        raise ProtocolError(f"chunk length {length} out of range")
    return _HEADER.pack(_MAGIC, _KIND_CHUNK, 0, length)


def encode_frame(message: dict[str, Any], codec: str = CODEC_LEGACY) -> bytes:
    """Serialize one message with the given codec."""
    if codec == CODEC_BINARY:
        return encode_binary(message)
    if codec == CODEC_LEGACY:
        return encode_message(message)
    raise ProtocolError(f"unknown codec {codec!r}")


def encode_open_reply(
    req: Any, available: bool, state: str, wait: float, codec: str,
    tc: Any = None,
) -> bytes:
    """Fast path for the single hottest server frame: pack an ``open``
    reply straight from the handler result, skipping the intermediate
    message dict (and its field-by-field re-validation) entirely.

    Produces byte-identical output to ``encode_frame`` of the equivalent
    reply dict; anything unpackable falls back to the generic encoder.
    ``tc`` (only for trace-negotiated peers) prefixes the packed trace
    context and sets the traced kind bit; ``tc=None`` output is
    bit-for-bit what pre-tracing builds emitted.
    """
    if codec == CODEC_BINARY and type(req) is int and 0 <= req < 1 << 32:
        state_idx = _STATE_INDEX.get(state)
        if state_idx is not None:
            payload = _OPEN_REPLY.pack(req, available, state_idx, wait)
            kind = _KIND_OPEN_REPLY
            trace = _pack_trace(tc) if tc is not None else None
            if trace is not None:
                kind |= _KIND_TRACED
                payload = trace + payload
            return _HEADER.pack(_MAGIC, kind, 0, len(payload)) + payload
    message = {"op": "reply", "req": req, "error": 0, "available": available,
               "state": state, "wait": wait}
    if tc is not None:
        message["tc"] = tc if isinstance(tc, str) else tc.to_wire()
    return encode_frame(message, codec)


def encode_ok_reply(req: Any) -> bytes:
    """The empty success reply (``release``, ...) packed straight from
    its ``req``: the bytes ``encode_binary`` makes of the reply dict."""
    if type(req) is int and 0 <= req < 1 << 32:  # _is_req, inline
        return _HEADER.pack(
            _MAGIC, _KIND_OK_REPLY, 0, _OK_REPLY.size
        ) + _OK_REPLY.pack(req)
    return encode_binary({"error": 0, "op": "reply", "req": req})


def encode_open_request(req: Any, context: str, filename: str, codec: str,
                        tc: Any = None) -> bytes:
    """Client-side twin of :func:`encode_open_reply`: pack an ``open``
    request straight from its fields (byte-identical to ``encode_frame``
    of the equivalent dict; falls back for unpackable values).  ``tc``
    behaves exactly as in :func:`encode_open_reply`."""
    if codec == CODEC_BINARY and _is_req(req):
        ctx = context.encode("utf-8")
        fname = filename.encode("utf-8")
        if len(ctx) < 1 << 16 and len(fname) < 1 << 16:
            payload = _REQ_STRINGS.pack(req, len(ctx), len(fname)) + ctx + fname
            kind = _KIND_OPEN
            trace = _pack_trace(tc) if tc is not None else None
            if trace is not None:
                kind |= _KIND_TRACED
                payload = trace + payload
            return _HEADER.pack(_MAGIC, kind, 0, len(payload)) + payload
    message = {"op": "open", "req": req, "context": context, "file": filename}
    if tc is not None:
        message["tc"] = tc if isinstance(tc, str) else tc.to_wire()
    return encode_frame(message, codec)


# --------------------------------------------------------------------- #
# Packed runs: the hop carries client frames
# --------------------------------------------------------------------- #


def pack_run(
    origin: str, client_id: str, messages: list[dict[str, Any]]
) -> dict[str, Any]:
    """A run of one client's ops as a ``fwd`` request: ``origin``,
    ``client``, the count, then the ops as the binary client frames they
    are — :func:`encode_binary` of each, its own ``req`` included.  The
    ``fwd_reply`` answers with the reply frames (:func:`unpack_run_reply`)."""
    org, cid = origin.encode("utf-8"), client_id.encode("utf-8")
    try:
        parts = [_RUN_HDR.pack(len(org), len(cid), len(messages)), org, cid]
    except struct.error as exc:
        raise ProtocolError(f"fwd run does not fit its header: {exc}") from exc
    for message in messages:
        try:  # what drain() made of a packed open/release, packed back
            if len(message) != 4 or type(message["req"]) is not int:
                raise KeyError  # like a missing field: the generic encoder
            ctx, fname = message["context"].encode(), message["file"].encode()
            parts += _REQ_FRAME.pack(
                _MAGIC, _REQ_KINDS[message["op"]], 0,
                _REQ_STRINGS.size + len(ctx) + len(fname),
                message["req"], len(ctx), len(fname),
            ), ctx, fname
        except (KeyError, TypeError, AttributeError, struct.error):
            parts.append(encode_binary(message))
    return {"op": OP_FWD, "run": b"".join(parts)}


def unpack_run(message: dict[str, Any]) -> tuple[str, str, list[dict[str, Any]]]:
    """Validate and split a run-carrying ``fwd`` into (origin, client,
    messages).  A bad header, a count that is not 1..``FWD_RUN_MAX`` or
    not the frames held, a partial frame or an op the table does not
    forward refuses the whole run, so nothing of it executes; a
    forwardable op that is malformed becomes its refusal
    (:func:`~repro.dv.ops.checked`), answered in its own slot.  The
    result stays on the message: the event loop asks before the handler
    does."""
    if "_run" not in message:
        run = message["run"]
        try:
            org_len, cid_len, count = _RUN_HDR.unpack_from(run)
            mid = _RUN_HDR.size + org_len
            origin = str(run[_RUN_HDR.size:mid], "utf-8")
            client_id = str(run[mid:mid + cid_len], "utf-8")
        except (TypeError, struct.error, UnicodeDecodeError) as exc:
            raise ProtocolError(f"malformed fwd run header: {exc}") from exc
        # No frames at all when the header was cut short.
        messages = decode_frames(run[mid + cid_len:], _forwarded)
        if len(messages) != count or not 1 <= count <= FWD_RUN_MAX:
            raise ProtocolError(
                f"fwd run says {count} ops, holds {len(messages)} "
                f"(1..{FWD_RUN_MAX} allowed)"
            )
        message["_run"] = origin, client_id, messages
    return message["_run"]


def _forwarded(message: dict[str, Any]) -> dict[str, Any]:
    """A run's op that is not a packed ``open``/``release`` (which are
    forwardable and well-formed by construction), as its owner takes it."""
    op = message["op"]
    if not (isinstance(op, str) and op in OPS and OPS[op].forwardable):
        raise ProtocolError(f"op {op!r} cannot be forwarded")
    return checked(message)


def unpack_run_reply(
    reply: dict[str, Any], count: int
) -> tuple[list[bytes], dict[int, int]]:
    """Validate and split the ``fwd_reply`` to a run of ``count`` ops —
    ``{"run": <per op, in order, the reply frame the owner would have
    written to a directly connected client>}`` — into those frames and
    the ``{slot: MARK_*}`` of the ones that are not plain successes, read
    off their kind bytes.  Anything else, the owner's refusal of the
    whole run included, raises."""
    run = reply.get("run")
    frames, marks, pos = [], {}, 0
    size = len(run) if isinstance(run, bytes) else -1
    while 0 <= pos <= size - _HEADER.size:
        magic, kind, _reserved, length = _HEADER.unpack_from(run, pos)
        if magic != _MAGIC:
            break
        if kind == _KIND_OPEN_REPLY and length == _OPEN_REPLY.size:
            if not run[pos + _HEADER.size + _OK_REPLY.size]:  # available
                marks[len(frames)] = MARK_MISS
        elif kind != _KIND_OK_REPLY or length != _OK_REPLY.size:
            marks[len(frames)] = MARK_BODY  # a malformed one fails to decode
        frames.append(run[pos:pos + _HEADER.size + length])
        pos += _HEADER.size + length
    if pos != size or len(frames) != count:
        raise ProtocolError(f"fwd_reply does not hold {count} whole reply frames")
    return frames, marks


def decode_frames(data: bytes, check=None) -> list[dict[str, Any]]:
    """The messages of a buffer that holds whole binary frames only
    (``check`` as in :meth:`StreamDecoder.drain`)."""
    decoder = StreamDecoder(CODEC_BINARY)
    decoder.feed(data)
    messages = decoder.drain(check)
    if decoder.has_partial():
        raise ProtocolError("partial binary frame")
    return messages


def negotiate_codec(hello: dict[str, Any]) -> str:
    """Validate the wire fields of a ``hello`` message.

    Returns :data:`CODEC_BINARY`, the only codec spoken after the
    handshake.  Raises :class:`ProtocolError` naming the reason unless
    ``vers`` is an integer >= 2 and ``codec`` is ``"binary"`` (a v1 hello
    carries neither); the server turns that into an error reply line.
    """
    vers = hello.get("vers")
    if not isinstance(vers, int) or isinstance(vers, bool) or vers < 2:
        raise ProtocolError(
            f"hello needs an integer 'vers' >= 2, got {vers!r} "
            "(newline-JSON v1 clients are no longer served)"
        )
    if hello.get("codec") != CODEC_BINARY:
        raise ProtocolError(
            f"hello must ask for codec {CODEC_BINARY!r}, "
            f"got {hello.get('codec')!r}"
        )
    return CODEC_BINARY


def negotiate_trace(hello: dict[str, Any]) -> bool:
    """Server-side tracing choice for a ``hello`` that already passed
    :func:`negotiate_codec`: true when the client asks for it
    (``"trace": 1``).  Gates the traced *packed* binary kinds only —
    JSON-carried ``tc`` fields need no negotiation.
    """
    return bool(hello.get("trace"))


# --------------------------------------------------------------------- #
# Incremental decoding
# --------------------------------------------------------------------- #


class StreamDecoder:
    """Incremental, codec-switchable frame decoder over a byte stream.

    Feed raw bytes with :meth:`feed`; pull complete messages with
    :meth:`next_message` (``None`` means more bytes are needed).  The
    buffer survives :meth:`set_codec`, so a connection can switch codecs
    mid-stream at the negotiated point (after the ``hello`` exchange).
    """

    def __init__(self, codec: str = CODEC_LEGACY) -> None:
        if codec not in SUPPORTED_CODECS:
            raise ProtocolError(f"unknown codec {codec!r}")
        self.codec = codec
        self._buffer = bytearray()
        #: Total bytes ever fed (client-side wire accounting).
        self.bytes_fed = 0

    def set_codec(self, codec: str) -> None:
        if codec not in SUPPORTED_CODECS:
            raise ProtocolError(f"unknown codec {codec!r}")
        self.codec = codec

    def feed(self, data: bytes) -> None:
        self._buffer += data
        self.bytes_fed += len(data)

    def has_partial(self) -> bool:
        """True when the buffer holds an incomplete frame (EOF here is a
        mid-message cut, not an orderly close)."""
        if self.codec == CODEC_LEGACY:
            return bool(self._buffer.strip())
        return bool(self._buffer)

    def next_message(self) -> dict[str, Any] | None:
        if self.codec == CODEC_LEGACY:
            return self._next_legacy()
        return self._next_binary()

    def _next_legacy(self) -> dict[str, Any] | None:
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if len(self._buffer) > _MAX_MESSAGE:
                    raise ProtocolError("protocol line exceeds maximum size")
                return None
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if not line.strip():
                continue
            return decode_message(line)

    def drain(self, check=None) -> list[dict[str, Any]]:
        """Every complete message in the buffer, in order: what calling
        :meth:`next_message` until ``None`` returns, in one pass — the
        buffer is walked by offset, its consumed prefix dropped once, and
        the packed ``open``/``release`` requests are unpacked in place.
        A bad frame raises what ``next_message`` raises on it and leaves
        the buffer where that call would; the messages ahead of it are
        lost with the framing (the connection is going down).

        ``check`` (binary frames only) maps every message that is not an
        untraced packed ``open``/``release`` — those are well-formed by
        construction and pay nothing — to what is returned in its place
        (a daemon passes :func:`repro.dv.ops.checked`)."""
        if self.codec == CODEC_LEGACY:
            return list(iter(self._next_legacy, None))
        buf, messages, pos = self._buffer, [], 0
        size, head, strings = len(buf), _HEADER.size, _REQ_STRINGS.size
        try:
            while size - pos >= head:
                magic, kind, _reserved, length = _HEADER.unpack_from(buf, pos)
                if magic != _MAGIC:
                    raise ProtocolError(f"bad binary frame magic 0x{magic:02x}")
                if length > _MAX_MESSAGE:
                    raise ProtocolError("binary frame exceeds maximum size")
                body, end = pos + head, pos + head + length
                if end > size:
                    break
                pos = end  # consumed, whatever the payload turns out to be
                if kind not in (_KIND_OPEN, _KIND_RELEASE) or length < strings:
                    message = _decode_binary_payload(kind, bytes(buf[body:end]))
                    messages.append(message if check is None else check(message))
                    continue
                req, ctx_len, fname_len = _REQ_STRINGS.unpack_from(buf, body)
                mid = body + strings + ctx_len
                if mid + fname_len != end:
                    raise ProtocolError(
                        "binary frame length does not match its payload"
                    )
                messages.append({
                    "op": "open" if kind == _KIND_OPEN else "release",
                    "req": req,
                    "context": buf[body + strings:mid].decode("utf-8"),
                    "file": buf[mid:end].decode("utf-8"),
                })
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed binary string: {exc}") from exc
        finally:
            del buf[:pos]
        return messages

    def _next_binary(self) -> dict[str, Any] | None:
        if len(self._buffer) < _HEADER.size:
            return None
        magic, kind, _reserved, length = _HEADER.unpack_from(self._buffer)
        if magic != _MAGIC:
            raise ProtocolError(f"bad binary frame magic 0x{magic:02x}")
        if length > _MAX_MESSAGE:
            raise ProtocolError("binary frame exceeds maximum size")
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[_HEADER.size : end])
        del self._buffer[:end]
        return _decode_binary_payload(kind, payload)


def send_message(
    sock: socket.socket, message: dict[str, Any], codec: str = CODEC_LEGACY
) -> None:
    """Send one message over a connected (blocking) socket."""
    sock.sendall(encode_frame(message, codec))


class MessageReader:
    """Blocking framed reader over a socket (client side and tests)."""

    def __init__(self, sock: socket.socket, codec: str = CODEC_LEGACY) -> None:
        self._sock = sock
        self._decoder = StreamDecoder(codec)

    def set_codec(self, codec: str) -> None:
        """Switch codecs at the negotiated point; buffered bytes carry over."""
        self._decoder.set_codec(codec)

    @property
    def bytes_read(self) -> int:
        """Total bytes received off the socket so far."""
        return self._decoder.bytes_fed

    def read_message(self) -> dict[str, Any] | None:
        """Read the next message; returns ``None`` on orderly EOF."""
        while True:
            message = self._decoder.next_message()
            if message is not None:
                return message
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._decoder.has_partial():
                    raise ProtocolError("connection closed mid-message")
                return None
            self._decoder.feed(chunk)
