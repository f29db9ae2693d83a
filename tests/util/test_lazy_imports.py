"""Import layering: a module loads what it uses.

The package inits export their public names lazily (PEP 562, through
``repro.util.lazy``), so what a process pays at import is what it goes on
to use: a DVLib client never loads the daemon, a daemon never loads numpy
before it simulates.  The import-graph tests run in a fresh interpreter;
the surface tests check that laziness changed nothing a caller can see.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

LAZY_PACKAGES = [
    "repro",
    "repro.cache",
    "repro.client",
    "repro.cluster",
    "repro.data",
    "repro.des",
    "repro.dv",
    "repro.simio",
    "repro.simulators",
]

#: What neither a daemon nor a client may load just by being imported.
HEAVY = {
    "numpy",
    "repro.des",
    "repro.simulators.cosmo",
    "repro.simulators.flash",
    "repro.client.bindings",
    "http.server",
}


def modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter that ran ``statement``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestImportGraph:
    def test_daemon_import_loads_no_simulation_stack(self):
        loaded = modules_after("from repro.cluster import ClusterNode")
        assert "repro.cluster.node" in loaded
        assert not loaded & HEAVY

    def test_client_import_loads_no_daemon(self):
        loaded = modules_after(
            "from repro.client import TcpConnection, SimFSSession"
        )
        assert "repro.client.dvlib" in loaded
        assert not loaded & (
            HEAVY | {"repro.dv.server", "repro.dv.launcher", "repro.cache"}
        )

    def test_ctl_import_loads_no_simulators_or_traces(self):
        loaded = modules_after("import repro.cli")
        assert not loaded & (HEAVY | {"repro.simulators", "repro.traces"})

    def test_bare_package_import_loads_no_subpackage_but_util_and_core(self):
        loaded = modules_after("import repro")
        packages = {
            name for name in loaded
            if name.startswith("repro.") and name.count(".") == 1
        }
        assert packages == {"repro.util", "repro.core"}


class TestPublicSurface:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_names_are_the_defining_modules_objects(self, package):
        pkg = importlib.import_module(package)
        definers: dict[str, list] = {}
        for info in pkgutil.iter_modules(pkg.__path__):
            module = importlib.import_module(f"{package}.{info.name}")
            for name in getattr(module, "__all__", ()):
                definers.setdefault(name, []).append(module)
        listed = dir(pkg)
        for name in pkg.__all__:
            assert name in listed
            value = getattr(pkg, name)
            if name == "__version__":
                continue
            assert any(
                value is getattr(module, name) for module in definers[name]
            ), f"{package}.{name} is not its defining module's object"
            assert pkg.__dict__[name] is value  # cached: resolved once

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(namespace)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_attribute(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})

    def test_submodule_import_through_the_package_still_works(self):
        from repro.simio import format as sdf

        assert sdf is sys.modules["repro.simio.format"]
