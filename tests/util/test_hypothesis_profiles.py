"""The repo conftest's ``nightly`` hypothesis profile, run in a child
pytest: it must collect a ``@given`` test defined in a class (a bound
method) and run it with 50x its own examples."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT_CONFTEST = Path(__file__).resolve().parents[2] / "conftest.py"

SUITE = '''
from hypothesis import given, settings, strategies as st

CALLS = {"method": 0, "function": 0}


class TestInClass:
    @settings(max_examples=2)
    @given(st.integers())
    def test_method(self, n):
        CALLS["method"] += 1


@settings(max_examples=2)
@given(st.integers())
def test_function(n):
    CALLS["function"] += 1


def test_zz_scaled():
    # Pytest runs a file's tests in order: both have run by now.
    assert CALLS["method"] > 2 and CALLS["function"] > 2, CALLS
'''


def test_nightly_scales_tests_in_classes_and_modules(tmp_path):
    shutil.copy(ROOT_CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "test_suite.py").write_text(SUITE)
    env = dict(os.environ, HYPOTHESIS_PROFILE="nightly")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 passed" in proc.stdout, proc.stdout
