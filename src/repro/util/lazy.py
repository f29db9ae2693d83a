"""PEP 562 lazy package exports.

A package ``__init__`` that imports every sub-module makes each importer
pay for all of them: a DVLib client that only wants ``TcpConnection``
would load the simulators (and numpy) on the way.  ``lazy_exports``
keeps a package's public surface — ``pkg.Name``, ``from pkg import
Name``, ``from pkg import *``, ``dir(pkg)`` — and imports the defining
sub-module at the first use of one of its names.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, origins: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package named
    ``package``; ``origins`` maps each sub-module (relative to the
    package) to the public names it defines."""
    where = {name: module for module, names in origins.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value  # later lookups never reach __getattr__
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__, sorted(where)
