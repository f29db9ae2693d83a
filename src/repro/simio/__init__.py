"""Toy scientific I/O stack: the SDF container format and a hookable
file-handle API standing in for netCDF/HDF5/ADIOS (Table I)."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "api": (
        "DataFile",
        "IOHooks",
        "current_hooks",
        "install_hooks",
        "sio_create",
        "sio_open",
    ),
    "format": ("FormatError", "decode", "encode", "read_file", "write_file"),
})
