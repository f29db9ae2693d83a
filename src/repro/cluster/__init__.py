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
  forwarding, ready routing and waiter replay shared with the
  multi-core tier (:mod:`repro.dv.multicore`);
* :mod:`repro.cluster.node` — :class:`ClusterNode`, a DVServer plus
  membership, activation and failover, forwarding through a router;
* :mod:`repro.cluster.replication` — the HA tier: owner→replica state
  streaming with epoch fencing, hot promotion and background healing;
* :mod:`repro.cluster.migrate` — :class:`MigrationManager`, live
  context migration (pre-copy, cutover freeze, pinned placement);
* :mod:`repro.cluster.autoscaler` — the decentralized metrics-driven
  policy deciding when to migrate, grow, or shrink;
* :mod:`repro.cluster.client` — :class:`ClusterConnection`, the
  one-hop cluster-aware DVLib connection.

The DES twin lives in :class:`repro.des.components.VirtualCluster`,
which drives the same :class:`HashRing`/:class:`PeerTable` logic on the
virtual clock for node-count sweeps and failure-schedule experiments.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "autoscaler": (
        "Autoscaler",
        "AutoscalerPolicy",
        "Migrate",
        "NodeLoad",
        "ScaleDown",
        "ScaleUp",
    ),
    "client": ("ClusterConnection",),
    "link": ("DialBackoff", "PeerLink"),
    "membership": ("PeerInfo", "PeerTable"),
    "migrate": ("MigrationManager",),
    "node": ("ClusterNode", "ContextSpec", "parse_peer"),
    "replication": ("ReplicaStore", "ReplicationManager"),
    "ring": ("HashRing",),
    "router": ("Router",),
})
