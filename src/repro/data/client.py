"""Blocking client for the bulk data plane.

``DataClient`` talks to one :class:`~repro.data.server.DataServer`.  It is
deliberately synchronous — analysis clients pull files one (or a few
sockets) at a time; concurrency comes from running many clients, which is
exactly what the bandwidth scheduler arbitrates on the server side.

It speaks the control port's binary frames (:mod:`repro.dv.protocol`):
one fetch at a time, answered by ``fetch_start``, the file's ``chunk``
frames and ``fetch_end`` (or one ``error`` frame).  An error answer leaves
the connection usable; a fetch that fails mid-stream closes it, since
where the stream stands is then unknown.  A :class:`DataClientPool`
keeps usable connections for the next fetch from the same data port.

A fetch touches each byte once.  The client reads frame headers itself
(:func:`~repro.dv.protocol.frame_header`, the decoder's checks) and
receives into one reused buffer of at most one frame; each slice of a
chunk body goes from that buffer to the running SHA-256 and to the file.

Downloads land in ``<dest>.part`` and are renamed into place only after
the whole-file SHA-256 matches the one announced in ``fetch_start``, so
a partial ``.part`` file is always resumable: a re-issued fetch requests
``offset = len(part)``, hashes that prefix from disk, and the server
streams the remainder.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
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
from repro.dv.protocol import (
    FRAME_HEADER_SIZE,
    KIND_CHUNK,
    decode_payload,
    encode_binary,
    frame_header,
)

__all__ = ["DataClient", "DataClientPool", "FetchResult", "TransferChecksumError"]

#: Receive buffer before the first chunk frame grows it to that frame's
#: size: room for any answer (a bigger one streams through all the same).
_CTRL_BUFFER = 4096


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
        # The stream bytes received and not yet taken: _buf[_pos:_end].
        self._buf = bytearray(_CTRL_BUFFER)
        self._view = memoryview(self._buf)
        self._pos = self._end = 0
        #: Stream bytes received over the connection's life.
        self.received = 0
        self.closed = False
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise DVConnectionLost(
                f"cannot reach data port {host}:{port}: {exc}"
            ) from exc
        self._sock.settimeout(timeout)

    def close(self) -> None:
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def settimeout(self, timeout: float) -> None:
        """Give up on a send or receive that waits ``timeout`` seconds."""
        self._sock.settimeout(timeout)

    def __enter__(self) -> DataClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire helpers ----------------------------------------------------

    def _send(self, message: dict) -> None:
        try:
            self._sock.sendall(encode_binary(message))
        except OSError as exc:
            self.close()
            raise DVConnectionLost(f"data connection lost: {exc}") from exc

    def _recv(self) -> None:
        """Receive more of the stream behind the bytes not yet taken."""
        if self._pos == self._end:
            self._pos = self._end = 0
        elif self._end == len(self._buf):  # full: move the rest to the front
            self._rebase(len(self._buf))
        try:
            n = self._sock.recv_into(self._view[self._end:])
        except socket.timeout as exc:
            raise DVConnectionLost("data connection timed out") from exc
        except OSError as exc:
            raise DVConnectionLost(f"data connection lost: {exc}") from exc
        if not n:
            raise DVConnectionLost("data connection closed by server")
        self._end += n
        self.received += n

    def _reserve(self, body: int) -> None:
        """Grow the buffer to hold a frame of ``body`` bytes: it reaches
        the largest chunk frame the server sends (a whole small file, or
        one full frame of a large one)."""
        if FRAME_HEADER_SIZE + body > len(self._buf):
            self._rebase(FRAME_HEADER_SIZE + body)

    def _rebase(self, size: int) -> None:
        """Move the bytes not yet taken to the front of a buffer of
        ``size`` bytes (a new one if the size changes)."""
        rest = bytes(self._view[self._pos:self._end])
        if size != len(self._buf):
            self._buf = bytearray(size)
            self._view = memoryview(self._buf)
        self._buf[:len(rest)] = rest
        self._pos, self._end = 0, len(rest)

    def _header(self) -> tuple[int, int]:
        """``(kind, length)`` of the next frame."""
        while self._end - self._pos < FRAME_HEADER_SIZE:
            self._recv()
        header = frame_header(self._buf, self._pos)
        self._pos += FRAME_HEADER_SIZE
        return header

    def _stream(self, length: int, *sinks) -> None:
        """Hand the next ``length`` stream bytes to each of ``sinks``, as
        slices of the buffer."""
        while length:
            if self._pos == self._end:
                self._recv()
            n = min(length, self._end - self._pos)
            piece = self._view[self._pos:self._pos + n]
            for sink in sinks:
                sink(piece)
            self._pos += n
            length -= n

    def _message(self, kind: int, length: int) -> dict:
        payload = bytearray()
        self._stream(length, payload.extend)
        return decode_payload(kind, bytes(payload))

    def _read(self) -> dict:
        return self._message(*self._header())

    # -- public API ------------------------------------------------------

    def ping(self) -> float:
        """Round-trip a control frame; returns latency in seconds."""
        start = time.monotonic()
        self._send({"op": "ping", "t": start})
        if self._read()["op"] != "pong":
            raise ProtocolError("unexpected reply to data-plane ping")
        return time.monotonic() - start

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
        start = time.monotonic()
        request = {"op": "fetch", "context": context, "file": filename,
                   "offset": offset}
        if tc is not None:
            request["tc"] = tc
        self._send(request)
        size = None
        checksum = ""
        received = 0
        fh = digest = None
        error = None
        try:
            while True:
                kind, length = self._header()
                if kind == KIND_CHUNK:
                    if fh is None:
                        raise ProtocolError("chunk frame before fetch_start")
                    self._reserve(length)
                    self._stream(length, digest.update, fh.write)
                    received += length
                    continue
                message = self._message(kind, length)
                op = message["op"]
                if op == "fetch_start":
                    size = int(message["size"])
                    checksum = message.get("checksum", "")
                    try:
                        fh = open(part, "ab")
                    except FileNotFoundError:
                        os.makedirs(os.path.dirname(part) or ".", exist_ok=True)
                        fh = open(part, "ab")
                    if fh.tell() != offset:
                        fh.truncate(offset)
                    digest = hashlib.sha256()
                    if offset:  # the prefix a resume keeps, from disk
                        with open(part, "rb") as prefix:
                            digest = hashlib.file_digest(prefix, "sha256")
                elif op == "fetch_end":
                    break
                elif op == "error":
                    error = _map_error(message)
                    break
        except BaseException:
            self.close()  # stopped mid-stream: where it stands is unknown
            raise
        finally:
            if fh is not None:
                fh.close()
        if error is not None:
            raise error  # an answer: the connection serves the next fetch
        seconds = max(1e-9, time.monotonic() - start)
        if size is None or offset + received != size:
            raise ProtocolError(
                f"short transfer: have {offset + received} of {size} bytes"
            )
        actual = digest.hexdigest()
        for wanted in (checksum, expected_checksum):
            if wanted and actual != wanted:
                os.unlink(part)
                raise TransferChecksumError(
                    f"checksum mismatch for {context}/{filename}: "
                    f"{actual} != {wanted}"
                )
        os.replace(part, dest)
        return FetchResult(
            context=context, filename=filename, path=dest, size=size,
            bytes=received, resumed_from=offset, seconds=seconds,
            checksum=actual,
        )


class DataClientPool:
    """Idle :class:`DataClient` connections, per data endpoint.

    :meth:`fetch` takes an idle connection to the endpoint, or dials one,
    and runs one fetch on it: one fetch per connection at a time, so
    threads sharing a pool use a connection each.  A connection that is
    still usable afterwards — the fetch finished, or was answered with an
    error — goes back to the pool; one that failed mid-stream is gone.
    A pooled connection the server closed while it sat idle fails before
    any answer byte arrives: the fetch, a read, is then retried once on
    a fresh connection.  :meth:`close` closes every connection, and the
    ones in use once their fetch returns.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple[str, int], list[DataClient]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def fetch(
        self, host: str, port: int, timeout: float, context: str,
        filename: str, dest: str, **kwargs,
    ) -> FetchResult:
        """:meth:`DataClient.fetch` on a connection to ``host:port``."""
        key = (host, port)
        with self._lock:
            idle = self._idle.get(key)
            client = idle.pop() if idle else None
        while True:
            fresh = client is None
            if fresh:
                client = DataClient(host, port, timeout=timeout)
            else:
                client.settimeout(timeout)
            before = client.received
            try:
                return client.fetch(context, filename, dest, **kwargs)
            except DVConnectionLost:
                if fresh or client.received != before:
                    raise
                client = None  # stale: retried on a fresh connection
            finally:
                if client is not None:
                    self._put(key, client)

    def _put(self, key: tuple[str, int], client: DataClient) -> None:
        """Keep ``client`` for the next fetch, unless it is closed or the
        pool is."""
        if not client.closed:
            with self._lock:
                if not self._closed:
                    self._idle.setdefault(key, []).append(client)
                    return
        client.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for clients in idle.values():
            for client in clients:
                client.close()
