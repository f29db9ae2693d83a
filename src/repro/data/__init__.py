"""Bulk data plane: chunked zero-copy context-file transfer.

The control plane (``repro.dv``/``repro.cluster``) coordinates *which*
files exist and when they are ready; this package moves the bytes.  Each
node (or multi-core pool) runs a :class:`DataServer` on its own data port;
clients pull files with :class:`DataClient`, discovering the owning node's
endpoint via the routable ``fetch_info`` control-plane op.  Bandwidth on a
link is arbitrated by :class:`BandwidthScheduler` (token bucket + deficit
round-robin + a strict-priority control lane); the DES mirror is
``repro.des.components.VirtualDataPlane``.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": ("DataClient", "FetchResult", "TransferChecksumError"),
    "protocol": (
        "DEFAULT_CHUNK",
        "KIND_CTRL",
        "KIND_DATA",
        "MAX_FRAME",
        "DataFrameDecoder",
        "decode_ctrl",
        "encode_ctrl",
        "encode_data_header",
    ),
    "scheduler": (
        "PRIO_BULK",
        "PRIO_CONTROL",
        "BandwidthScheduler",
        "TokenBucket",
        "max_min_rates",
    ),
    "server": ("DataServer",),
})
