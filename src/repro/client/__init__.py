"""DVLib client: connections to the DV, the SIMFS_* API, transparent-mode
interception, and the Table I I/O-library bindings."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "api": (
        "SimFSSession",
        "simfs_acquire",
        "simfs_acquire_nb",
        "simfs_bitrep",
        "simfs_finalize",
        "simfs_init",
        "simfs_release",
        "simfs_test",
        "simfs_testsome",
        "simfs_wait",
        "simfs_waitsome",
    ),
    "dvlib": ("DVConnection", "FileInfo", "LocalConnection", "TcpConnection"),
    "transparent": ("ENV_CONTEXT", "VirtualizedHooks", "context_from_env"),
})
