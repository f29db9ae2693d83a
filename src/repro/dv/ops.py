"""The op table: what each op of the DV wire is, in one place.

One row per op a daemon can be sent (paper Sec. III: ``SIMFS_Init`` /
``Acquire`` / ``Release`` / ``Finalize`` and the intercepted
``open``/``close``, plus the service and cluster ops).  A row says

* ``fields`` — name -> type of the fields the op must carry; a name
  ending in ``?`` is optional, but if present it must have the type;
* ``forwardable`` — a client op naming a context, which a cluster
  gateway ships to the context's owner;
* ``runs`` — the op joins a *run*: one client's consecutive ``runs``
  ops for one context execute as one shard call (``handle_run``) or
  cross the cluster hop as one ``fwd`` frame;
* ``where`` — where it executes: on the event loop (``LOOP``) or on a
  worker (``WORKER``: it scans the PFS, hashes a file or snapshots every
  shard).  The loop's ops touch the PFS at most with a ``stat`` or the
  ``unlink`` of an evicted step: a ``release``, ``wclose`` or
  ``finalize`` of a bounded storage area evicts on the loop, and
  ``fetch_info`` naming a ``file`` is one ``stat`` (without one it lists
  the storage area, and the daemon sends it to a worker).

The daemon's run splitter, its event-loop/worker decision, the ops a
``fwd`` may carry, what ``DVServer.register_op`` accepts and the
validation of every message all read this table.  The node rows at the
bottom get their handlers from :class:`~repro.cluster.node.ClusterNode`;
a plain daemon answers them "unknown op".

:func:`checked` is the one validation path: a message that is no
well-formed op becomes its *refusal*, which the daemon answers with
``ERR_PROTOCOL`` for the message's own ``req`` — the connection and, for
a forwarded run, the peer link stay up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["LOOP", "OPS", "Op", "WORKER", "checked", "problem"]

LOOP, WORKER = "loop", "worker"


@dataclass(frozen=True)
class Op:
    """One row of the op table (see the module docstring)."""

    fields: dict[str, type] = field(default_factory=dict)
    forwardable: bool = False
    runs: bool = False
    where: str = LOOP


_CONTEXT = {"context": str}
_FILE = {"context": str, "file": str}

OPS: dict[str, Op] = {
    # Client ops, served by every daemon.
    "hello": Op({"client_id": str, "vers": int, "codec": str, "context?": str}),
    "attach": Op(_CONTEXT, forwardable=True),
    "open": Op(_FILE, forwardable=True, runs=True),
    "release": Op(_FILE, forwardable=True, runs=True),
    "wclose": Op(_FILE, forwardable=True),
    "bitrep": Op({**_FILE, "path?": str}, forwardable=True, where=WORKER),
    "finalize": Op(_CONTEXT, forwardable=True),
    "fetch_info": Op({"context": str, "file?": str}, forwardable=True),
    "stats": Op(where=WORKER),
    "trace": Op({"trace_id": str}, where=WORKER),
    "trace_slow": Op({"limit?": int}, where=WORKER),
    "metrics_text": Op(where=WORKER),
    # Node ops: a ClusterNode registers their handlers.  A ``fwd``'s two
    # shapes — a packed run, a routed ready — are read by
    # ``unpack_run`` / ``unwrap_fwd``.
    "fwd": Op(where=WORKER),
    "gossip": Op(where=WORKER),
    "cluster": Op(where=WORKER),
    "repl": Op({"epoch?": int, "seq?": int}, where=WORKER),
    "ha": Op(where=WORKER),
    "migrate": Op({"context": str, "dest": str}, where=WORKER),
    "load": Op(where=WORKER),
    "rebalance": Op(where=WORKER),
}


def problem(message: dict[str, Any]) -> str | None:
    """What is wrong with ``message`` as an op — its ``op`` is not in
    the table, a field is missing or has the wrong type — or ``None``."""
    op = message.get("op")
    row = OPS.get(op) if isinstance(op, str) else None
    if row is None:
        return f"unknown op {op!r}"
    for key, kind in row.fields.items():
        name = key.rstrip("?")
        if name not in message:
            if name == key:
                return f"op {op!r} needs {name!r} ({kind.__name__})"
            continue
        value = message[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            return (f"op {op!r}: {name!r} must be {kind.__name__}, "
                    f"not {type(value).__name__}")
    return None


def checked(message: dict[str, Any]) -> dict[str, Any]:
    """``message`` if it is a well-formed op, else its refusal: an op of
    ``None`` (which no rule of the table matches, so it runs alone, on
    the event loop, and is forwarded nowhere) with the message's ``req``
    and what is wrong with it."""
    detail = problem(message)
    if detail is None:
        return message
    return {"op": None, "req": message.get("req"), "_refused": detail}
