"""Multi-core single-node DV engine (shared-nothing shard executors).

One supervisor process spawns N shard-executor processes; each executor
runs its own selector event loop (its own GIL) and owns the disjoint set
of context shards a consistent-hash ring assigns to it.  Client
connections land directly on the owning-or-not executor (every executor
listens on its SO_REUSEPORT share of the client port); ops for contexts
owned elsewhere are forwarded over per-pair Unix-socket peer links
speaking the binary wire codec.
"""

from repro.dv.multicore.supervisor import MultiCoreServer

__all__ = ["MultiCoreServer"]
