"""Simulator substrates: driver interface, deterministic run loop, and the
three concrete simulators (synthetic, COSMO-like, FLASH-like)."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("ForwardSimulator", "run_simulation"),
    "cosmo": (
        "COSMO_EVAL_CONFIG",
        "COSMO_EVAL_PERF",
        "CosmoDriver",
        "CosmoSimulator",
    ),
    "driver": ("FilePatternNaming", "SimulationDriver", "SimulationJobSpec"),
    "flash": (
        "FLASH_EVAL_CONFIG",
        "FLASH_EVAL_PERF",
        "FlashDriver",
        "FlashSimulator",
    ),
    "pipeline": ("ArchiveCopyDriver", "PipelineDriver"),
    "synthetic": ("SyntheticDriver", "SyntheticSimulator"),
})
