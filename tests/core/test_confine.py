"""``confine``: a plain name costs one ``lstat``, and every name resolves
or is refused exactly as the full ``realpath`` + ``commonpath`` check
decides."""

import os

import pytest

from repro.core.context import confine
from repro.core.errors import FileNotInContextError


def full_check(name, *dirs):
    """The check every name once paid: resolve it, then find a directory
    it lies in."""
    path = os.path.realpath(os.path.join(dirs[0], name))
    for base in map(os.path.realpath, dirs):
        if os.path.commonpath([path, base]) == base:
            return path
    raise FileNotInContextError(f"file {name!r} escapes context directory")


def outcome(fn, name, *dirs):
    try:
        return fn(name, *dirs)
    except (FileNotInContextError, ValueError) as exc:
        return type(exc)


@pytest.fixture
def area(tmp_path):
    out = tmp_path / "out"
    rst = tmp_path / "rst"
    out.mkdir()
    rst.mkdir()
    (out / "step_0001.sdf").write_bytes(b"data")
    (rst / "restart_0.sdf").write_bytes(b"restart")
    (tmp_path / "secret.txt").write_bytes(b"no")
    os.symlink(tmp_path / "secret.txt", out / "out_link.sdf")
    os.symlink(out / "step_0001.sdf", out / "in_link.sdf")
    os.mkdir(out / "sub")
    return os.path.realpath(out), os.path.realpath(rst), tmp_path


NAMES = [
    "step_0001.sdf", "missing.sdf", "sub", "", ".", "..", "../secret.txt",
    "out_link.sdf", "in_link.sdf", "sub/../step_0001.sdf", "sub/../../secret.txt",
    "a\0b", "step\0.sdf",
]


@pytest.mark.parametrize("name", NAMES)
def test_every_name_gets_the_full_checks_answer(area, name):
    out, rst, _ = area
    assert outcome(confine, name, out, rst) == outcome(full_check, name, out, rst)


def test_escapes_are_refused(area):
    out, rst, tmp_path = area
    for name in ("..", "../secret.txt", "out_link.sdf",
                 str(tmp_path / "secret.txt"), "/etc/passwd"):
        with pytest.raises(FileNotInContextError):
            confine(name, out, rst)
    with pytest.raises(ValueError):
        confine("a\0b", out)


def test_plain_names_resolve_to_the_same_path(area):
    out, rst, _ = area
    for name in ("step_0001.sdf", "missing.sdf", "sub"):
        assert confine(name, out) == os.path.realpath(os.path.join(out, name))
    # A symlink inside the area names its target, as before.
    assert confine("in_link.sdf", out) == os.path.join(out, "step_0001.sdf")
    # A path into the second directory is allowed; a plain name is not
    # looked for there.
    assert confine(os.path.join(rst, "restart_0.sdf"), out, rst) == os.path.join(
        rst, "restart_0.sdf")


def test_a_plain_name_costs_one_lstat(area, monkeypatch):
    out, _, _ = area
    calls = []
    real_lstat = os.lstat

    def lstat(path, *args, **kwargs):
        calls.append(path)
        return real_lstat(path, *args, **kwargs)

    monkeypatch.setattr(os, "lstat", lstat)
    monkeypatch.setattr(os.path, "realpath",
                        lambda *a, **k: pytest.fail("resolved in full"))
    assert confine("step_0001.sdf", out) == os.path.join(out, "step_0001.sdf")
    assert calls == [os.path.join(out, "step_0001.sdf")]
