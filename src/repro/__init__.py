"""SimFS: a simulation data virtualizing file system interface.

Reproduction of *SimFS: A Simulation Data Virtualizing File System
Interface* (Di Girolamo, Schmid, Schulthess, Hoefler — IPDPS 2019).

SimFS exposes a virtualized view of a simulation's output: analyses see
every output file, but only a subset is stored.  Accesses to missing files
transparently restart the simulation from the nearest checkpoint; caching
(LRU/LIRS/ARC/BCL/DCL) decides what stays on disk and prefetch agents mask
re-simulation latency for scanning analyses.

Typical entry points
--------------------
* :class:`repro.dv.DVServer` — the Data Virtualizer daemon (real mode).
* :class:`repro.client.SimFSSession` / ``simfs_*`` — the analysis API.
* :class:`repro.client.VirtualizedHooks` — transparent interposition.
* :class:`repro.des.VirtualSimFS` — the virtual-time deployment used by
  the performance experiments.
* :mod:`repro.costs` — the Sec. V cost models.

See README.md for a quickstart and DESIGN.md for the system inventory.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("StorageArea", "make_policy"),
    "client": (
        "LocalConnection",
        "SimFSSession",
        "TcpConnection",
        "VirtualizedHooks",
    ),
    "core": (
        "ContextConfig",
        "ErrorCode",
        "PerformanceModel",
        "SimFSError",
        "SimulationContext",
        "StepGeometry",
    ),
    "des": ("VirtualSimFS", "latency_experiment", "scaling_experiment"),
    "dv": ("DVCoordinator", "DVServer", "ThreadedLauncher"),
    "prefetch": ("PatternDetector", "PrefetchAgent"),
    "simulators": (
        "CosmoDriver",
        "FlashDriver",
        "SimulationDriver",
        "SyntheticDriver",
    ),
    "traces": ("ForwardWorkload", "ecmwf_like_trace", "replay_trace"),
})
__all__.append("__version__")
