"""The op table (``repro.dv.ops``): what validation says of a message,
what ``register_op`` accepts, and that ARCHITECTURE.md's op table lists
exactly the table's rows."""

import os
import re

import pytest

from repro.core.errors import InvalidArgumentError
from repro.dv.ops import OPS, checked, problem
from repro.dv.server import DVServer

ARCHITECTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "ARCHITECTURE.md"
)


def test_architecture_lists_exactly_the_tables_ops():
    with open(ARCHITECTURE, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n### Ops\n", 1)[1].split("\n### ", 1)[0]
    documented = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(OPS)


@pytest.mark.parametrize("message, detail", [
    ({"op": "open", "context": "c", "file": "f"}, None),
    ({"op": "trace_slow"}, None),                            # optional: absent
    ({"op": "trace_slow", "limit": 3}, None),
    ({"op": "trace_slow", "limit": True}, "'limit' must be int"),  # not a bool
    ({"op": "bitrep", "context": "c", "file": "f", "path": 1}, "'path' must be str"),
    ({"op": "open", "context": "c"}, "needs 'file' (str)"),
    ({"op": "nope"}, "unknown op 'nope'"),
    ({"op": ["open"]}, "unknown op ['open']"),
])
def test_problem_names_what_is_wrong(message, detail):
    found = problem(message)
    if detail is None:
        assert found is None
    else:
        assert detail in found


def test_a_well_formed_op_passes_unchanged_and_a_bad_one_becomes_its_refusal():
    good = {"op": "attach", "req": 4, "context": "c"}
    assert checked(good) is good
    refused = checked({"op": "attach", "req": 5})
    assert refused["op"] is None and refused["req"] == 5
    assert "'context'" in refused["_refused"]


def test_register_op_reads_the_table():
    server = DVServer()
    handler = lambda conn, message: {}  # noqa: E731
    for name in ("hello", "open", "release", "frobnicate"):
        with pytest.raises(InvalidArgumentError, match="cannot be registered"):
            server.register_op(name, handler)
    server.register_op("gossip", handler)
    with pytest.raises(InvalidArgumentError, match="already defined"):
        server.register_op("gossip", handler)
    with pytest.raises(InvalidArgumentError, match="already defined"):
        server.register_op("stats", handler)
    with pytest.raises(TypeError):  # nothing shadows a built-in handler
        server.register_op("stats", handler, replace=True)
