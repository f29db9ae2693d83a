"""Bulk data plane: chunked zero-copy context-file transfer.

The control plane (``repro.dv``/``repro.cluster``) coordinates *which*
files exist and when they are ready; this package moves the bytes.  Each
node runs a :class:`DataServer` on its own data port;
clients pull files with :class:`DataClient`, discovering the owning node's
endpoint and the context's files via the routable ``fetch_info``
control-plane op.  The port speaks the control port's binary frames, one
fetch at a time per connection; DVLib keeps its connections between
fetches in a :class:`DataClientPool`.  A node serves only the bytes it has: a cluster
node that lacks a file refuses the fetch and names the owner's data
endpoint.  Bandwidth on a link is arbitrated by
:class:`BandwidthScheduler` (token bucket + deficit round-robin).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": ("DataClient", "DataClientPool", "FetchResult", "TransferChecksumError"),
    "scheduler": ("BandwidthScheduler", "TokenBucket"),
    "server": ("DataServer",),
})
