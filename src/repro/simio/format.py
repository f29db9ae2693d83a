"""SDF — a small self-describing array container format.

This stands in for netCDF/HDF5/ADIOS files in the reproduction.  The format
is deliberately simple but real: a magic number, a canonical JSON header
describing named n-dimensional arrays, then the raw little-endian payloads.

Bitwise reproducibility (paper Sec. I: SimFS requires re-simulations to
deliver bitwise-identical output) is a design constraint: the encoder is
fully deterministic — canonical JSON (sorted keys, no whitespace drift), no
timestamps, fixed byte order — so identical arrays always produce identical
files, and ``SIMFS_Bitrep`` can compare whole-file checksums.

Layout::

    bytes 0..3    magic  b"SDF1"
    bytes 4..11   header length H (u64 little-endian)
    bytes 12..12+H  canonical JSON header
    then          concatenated array payloads in header order

Header schema::

    {"attrs": {...}, "vars": {name: {"dtype": "<f8", "shape": [..],
                                     "offset": N, "nbytes": M}, ...}}
"""

from __future__ import annotations

import json
import os
import threading
from typing import TYPE_CHECKING, Any

from repro.core.errors import InvalidArgumentError, SimFSError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["encode", "decode", "write_file", "read_file", "FormatError"]

_MAGIC = b"SDF1"


class FormatError(SimFSError):
    """Raised on malformed SDF containers."""


def _canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode(variables: dict[str, np.ndarray], attrs: dict[str, Any] | None = None) -> bytes:
    """Serialize named arrays (+ JSON-serializable attrs) to SDF bytes.

    Variables are laid out in sorted-name order so the encoding is a pure
    function of its inputs.
    """
    import numpy as np

    if not isinstance(variables, dict):
        raise InvalidArgumentError("variables must be a dict of name -> ndarray")
    header_vars: dict[str, dict[str, Any]] = {}
    payloads: list[bytes] = []
    offset = 0
    for name in sorted(variables):
        arr = np.ascontiguousarray(variables[name])
        # Force little-endian so files are identical across platforms.
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        payload = le.tobytes()
        header_vars[name] = {
            "dtype": le.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(payload),
        }
        payloads.append(payload)
        offset += len(payload)
    header = _canonical_json({"attrs": attrs or {}, "vars": header_vars})
    out = bytearray()
    out += _MAGIC
    out += len(header).to_bytes(8, "little")
    out += header
    for payload in payloads:
        out += payload
    return bytes(out)


def decode(data: bytes) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Parse SDF bytes back into (variables, attrs)."""
    import numpy as np

    if len(data) < 12 or data[:4] != _MAGIC:
        raise FormatError("not an SDF container (bad magic)")
    header_len = int.from_bytes(data[4:12], "little")
    body_start = 12 + header_len
    if body_start > len(data):
        raise FormatError("truncated SDF header")
    try:
        header = json.loads(data[12:body_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt SDF header: {exc}") from exc
    variables: dict[str, np.ndarray] = {}
    for name, meta in header.get("vars", {}).items():
        start = body_start + meta["offset"]
        stop = start + meta["nbytes"]
        if stop > len(data):
            raise FormatError(f"truncated payload for variable {name!r}")
        arr = np.frombuffer(data[start:stop], dtype=np.dtype(meta["dtype"]))
        variables[name] = arr.reshape(meta["shape"]).copy()
    return variables, header.get("attrs", {})


def write_file(
    path: str, variables: dict[str, np.ndarray], attrs: dict[str, Any] | None = None
) -> int:
    """Encode and write an SDF file; returns the byte count written.

    The bytes go to a sibling temp name and are renamed over ``path``: a
    re-simulation rewrites outputs a data server may be streaming, and
    truncating in place would tear that read.  A reader holding the old
    file keeps the complete old bytes, a fresh one sees the complete new
    ones, and a failed write leaves ``path`` as it was.
    """
    blob = encode(variables, attrs)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(blob)


def read_file(path: str) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Read and decode an SDF file."""
    with open(path, "rb") as fh:
        return decode(fh.read())
