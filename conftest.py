"""Repo-level pytest configuration.

Registers the ``timeout`` marker so the live cluster acceptance tests
can declare per-test deadlines without making pytest-timeout a hard
local dependency: CI installs the plugin (and runs with a global
``--timeout``), so a hung promotion fails the job fast; a bare local
environment simply ignores the marker instead of erroring on it.

Hypothesis effort is one switch, ``HYPOTHESIS_PROFILE``:

* ``ci`` (the default) — derandomized: every run tries the same
  examples, so a property test passes or fails alike on every push;
* ``nightly`` — random examples, 50x as many as each test asks for (its
  own ``@settings(max_examples=...)``, else hypothesis' default): the
  flake hunt's search for what the fixed examples miss.
"""

import os

from hypothesis import settings

#: How many times its own examples a test runs under ``nightly``.
NIGHTLY_EFFORT = 50

settings.register_profile("ci", derandomize=True)
settings.register_profile("nightly")
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "ci")
settings.load_profile(PROFILE)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test deadline, enforced when the "
        "pytest-timeout plugin is installed (CI); inert otherwise",
    )


def pytest_collection_modifyitems(config, items):
    """Under ``nightly``, scale every hypothesis test's examples."""
    if PROFILE != "nightly":
        return
    scaled = set()  # a parametrized test's items share one function
    for item in items:
        test = getattr(item, "obj", None)
        # A test in a class is a bound method, which takes no attributes:
        # its settings live on the function underneath.
        test = getattr(test, "__func__", test)
        if getattr(test, "is_hypothesis_test", False) and id(test) not in scaled:
            scaled.add(id(test))
            # A test's own @settings outrank any profile: rescale them.
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * NIGHTLY_EFFORT
            )
