"""Blocking client for the bulk data plane.

``DataClient`` talks to one :class:`~repro.data.server.DataServer`.  It is
deliberately synchronous — analysis clients pull files one (or a few
sockets) at a time; concurrency comes from running many clients, which is
exactly what the bandwidth scheduler arbitrates on the server side.

Downloads land in ``<dest>.part`` and are renamed into place only after
the whole-file SHA-256 announced in ``fetch_start`` matches, so a partial
``.part`` file is always resumable: a re-issued fetch requests
``offset = len(part)`` and the server streams the remainder.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass

from repro.core.errors import (
    DVConnectionLost,
    ErrorCode,
    FileNotInContextError,
    InvalidArgumentError,
    ProtocolError,
    SimFSError,
)
from repro.data.protocol import (
    KIND_CTRL,
    KIND_DATA,
    DataFrameDecoder,
    decode_ctrl,
    encode_ctrl,
)
from repro.util.checksums import file_checksum

__all__ = ["DataClient", "FetchResult", "TransferChecksumError"]

_RECV_SIZE = 256 * 1024


class TransferChecksumError(SimFSError):
    """Downloaded bytes do not hash to the server-announced checksum."""

    code = ErrorCode.ERR_CHECKSUM


@dataclass
class FetchResult:
    """Outcome of one :meth:`DataClient.fetch`."""

    context: str
    filename: str
    path: str
    size: int
    bytes: int            #: bytes transferred by this call (size - resume offset)
    resumed_from: int
    seconds: float
    checksum: str

    @property
    def throughput_mbps(self) -> float:
        return self.bytes / max(self.seconds, 1e-9) / 1e6


def _map_error(result: dict) -> SimFSError:
    code = result.get("code", int(ErrorCode.ERR_PROTOCOL))
    text = result.get("error", "data-plane error")
    if code == int(ErrorCode.ERR_NOT_FOUND):
        return FileNotInContextError(text)
    if code == int(ErrorCode.ERR_INVALID):
        return InvalidArgumentError(text)
    return ProtocolError(text)


class DataClient:
    """One TCP connection to a data port."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host, self.port = host, port
        self._decoder = DataFrameDecoder()
        self._pending: list[tuple[int, int, bytes]] = []
        self._channel = 0
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise DVConnectionLost(
                f"cannot reach data port {host}:{port}: {exc}"
            ) from exc
        self._sock.settimeout(timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> DataClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire helpers ----------------------------------------------------

    def _send(self, message: dict) -> None:
        try:
            self._sock.sendall(encode_ctrl(message))
        except OSError as exc:
            raise DVConnectionLost(f"data connection lost: {exc}") from exc

    def _read_frame(self) -> tuple[int, int, bytes]:
        while True:
            if self._pending:
                return self._pending.pop(0)
            try:
                data = self._sock.recv(_RECV_SIZE)
            except socket.timeout as exc:
                raise DVConnectionLost("data connection timed out") from exc
            except OSError as exc:
                raise DVConnectionLost(f"data connection lost: {exc}") from exc
            if not data:
                raise DVConnectionLost("data connection closed by server")
            self._pending.extend(self._decoder.feed(data))

    # -- public API ------------------------------------------------------

    def ping(self) -> float:
        """Round-trip a control frame; returns latency in seconds."""
        start = time.monotonic()
        self._send({"op": "ping", "channel": 0, "t": start})
        kind, _, payload = self._read_frame()
        if kind != KIND_CTRL or decode_ctrl(payload).get("op") != "pong":
            raise ProtocolError("unexpected reply to data-plane ping")
        return time.monotonic() - start

    def list_files(self, context: str) -> list[str]:
        self._send({"op": "list", "channel": 0, "context": context})
        while True:
            kind, _, payload = self._read_frame()
            if kind != KIND_CTRL:
                raise ProtocolError("unexpected DATA frame during list")
            message = decode_ctrl(payload)
            op = message.get("op")
            if op == "listing":
                return list(message.get("files", []))
            if op == "error":
                raise _map_error(message)

    def fetch(
        self,
        context: str,
        filename: str,
        dest: str,
        *,
        resume: bool = True,
        expected_checksum: str | None = None,
        tc: str | None = None,
    ) -> FetchResult:
        """Pull ``(context, filename)`` into ``dest`` with verification.

        ``tc`` is an optional trace-context wire string
        (:meth:`repro.obs.trace.TraceContext.to_wire`); when given, the
        server records the transfer as a ``data.fetch`` span of that
        trace.  Servers that predate tracing ignore the key.
        """
        part = dest + ".part"
        offset = 0
        if resume and os.path.exists(part):
            offset = os.path.getsize(part)
        try:
            return self._fetch_once(context, filename, dest, part, offset,
                                    expected_checksum, tc)
        except InvalidArgumentError:
            if offset == 0:
                raise
            # Stale .part (source changed size); restart from scratch.
            os.unlink(part)
            return self._fetch_once(context, filename, dest, part, 0,
                                    expected_checksum, tc)

    def _fetch_once(self, context, filename, dest, part, offset,
                    expected_checksum, tc=None) -> FetchResult:
        self._channel = (self._channel % 0xFFFF) + 1
        channel = self._channel
        start = time.monotonic()
        request = {"op": "fetch", "channel": channel, "context": context,
                   "file": filename, "offset": offset}
        if tc is not None:
            request["tc"] = tc
        self._send(request)
        size = None
        checksum = ""
        received = 0
        fh = None
        try:
            while True:
                kind, chan, payload = self._read_frame()
                if kind == KIND_DATA:
                    if chan != channel or fh is None:
                        raise ProtocolError(
                            f"DATA frame on unexpected channel {chan}"
                        )
                    fh.write(payload)
                    received += len(payload)
                    continue
                message = decode_ctrl(payload)
                op = message.get("op")
                if op == "fetch_start":
                    size = int(message["size"])
                    checksum = message.get("checksum", "")
                    os.makedirs(os.path.dirname(part) or ".", exist_ok=True)
                    fh = open(part, "ab")
                    if fh.tell() != offset:
                        fh.truncate(offset)
                elif op == "fetch_end":
                    break
                elif op == "error":
                    raise _map_error(message)
        finally:
            if fh is not None:
                fh.flush()
                fh.close()
        seconds = max(1e-9, time.monotonic() - start)
        actual = os.path.getsize(part)
        if size is None or actual != size:
            raise ProtocolError(
                f"short transfer: have {actual} of {size} bytes"
            )
        digest = file_checksum(part)
        if checksum and digest != checksum:
            os.unlink(part)
            raise TransferChecksumError(
                f"checksum mismatch for {context}/{filename}: "
                f"{digest} != {checksum}"
            )
        if expected_checksum and digest != expected_checksum:
            os.unlink(part)
            raise TransferChecksumError(
                f"checksum mismatch for {context}/{filename}: "
                f"{digest} != {expected_checksum}"
            )
        os.replace(part, dest)
        return FetchResult(
            context=context, filename=filename, path=dest, size=size,
            bytes=received, resumed_from=offset, seconds=seconds,
            checksum=digest,
        )
