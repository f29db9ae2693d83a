"""DV cluster tier: a consistent-hash ring of cooperating daemons.

The single-daemon DV (:mod:`repro.dv`) owns every context of an
installation; this package spreads contexts across peers:

* :mod:`repro.cluster.ring` — :class:`HashRing`, the deterministic
  ``context_name`` → node mapping every participant computes locally;
* :mod:`repro.cluster.membership` — :class:`PeerTable`, the gossiped
  generation-numbered peer view behind failure detection;
* :mod:`repro.cluster.link` — :class:`PeerLink`, node-to-node RPC over
  the ordinary DV wire protocol (``fwd``/``fwd_reply``/``gossip`` ops);
* :mod:`repro.cluster.router` — :class:`Router`, the ring-routed op
  forwarding, ready routing and waiter replay;
* :mod:`repro.cluster.node` — :class:`ClusterNode`, a DVServer plus
  membership, activation and failover, forwarding through a router;
* :mod:`repro.cluster.replication` — state transfer: the owner→peer
  stream (HA replicas and migration), its fenced store, hot promotion
  and background healing;
* :mod:`repro.cluster.migrate` — :class:`MigrationManager`, live
  context migration over that stream (cutover freeze, pinned placement,
  abort), moved by an operator with ``simfs-ctl migrate``.

A DVLib :class:`~repro.client.dvlib.TcpConnection` given any node's
address learns the ring from that node's hello reply and talks to each
context's owner directly; forwarding is its fallback.

The tier has no virtual-time copy: its failover, migration and scaling
questions are answered by live multi-node tests and benchmarks.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "link": ("DialBackoff", "PeerLink"),
    "membership": ("PeerInfo", "PeerTable"),
    "migrate": ("MigrationManager",),
    "node": ("ClusterNode", "ContextSpec", "parse_peer"),
    "replication": ("ReplicaStore", "ReplicationManager"),
    "ring": ("HashRing",),
    "router": ("Router",),
})
