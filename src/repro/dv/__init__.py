"""The Data Virtualizer: context shards, the routing coordinator, the
real-mode launcher, the wire protocol, and the TCP daemon."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "coordinator": (
        "DVCoordinator",
        "Notification",
        "OpenResult",
        "RunningSim",
        "SimulationExecutor",
    ),
    "launcher": ("ThreadedLauncher",),
    "server": ("DVServer",),
    "shard": ("ContextShard", "JobQueue"),
})
