"""Simulator substrates: driver interface, deterministic run loop, and the
three concrete simulators (synthetic, COSMO-like, FLASH-like)."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": (
        "ForwardDriver",
        "ForwardSimulator",
        "run_simulation",
        "simulation_steps",
    ),
    "cosmo": (
        "COSMO_EVAL_CONFIG",
        "COSMO_EVAL_PERF",
        "CosmoDriver",
        "CosmoSimulator",
    ),
    "driver": (
        "FilePatternNaming",
        "SimulationDriver",
        "SimulationJobSpec",
        "SteppedDriver",
    ),
    "flash": (
        "FLASH_EVAL_CONFIG",
        "FLASH_EVAL_PERF",
        "FlashDriver",
        "FlashSimulator",
    ),
    "pipeline": ("ArchiveCopyDriver", "PipelineDriver"),
    "synthetic": ("SyntheticDriver", "SyntheticSimulator"),
})

#: A ``"simulator"`` name (``simfs-dv`` config, ``simfs-ctl initial-run
#: --simulator``) -> its driver class's name, resolved at first use so a
#: process loads only the simulator it runs.
DRIVERS = {
    "cosmo": "CosmoDriver",
    "flash": "FlashDriver",
    "synthetic": "SyntheticDriver",
}


def driver_class(name: str) -> type:
    """The driver class of the simulator called ``name`` in :data:`DRIVERS`."""
    return __getattr__(DRIVERS[name])
