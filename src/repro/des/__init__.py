"""Virtual-time mode: deterministic DES engine, the coordinator wired to
it, and the Sec. VI experiment runners (Figs. 16-19)."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "components": ("VirtualAnalysis", "VirtualSimFS"),
    "engine": ("DESEngine",),
    "experiment": (
        "LatencyPoint",
        "ScalingPoint",
        "latency_experiment",
        "scaling_experiment",
    ),
})
