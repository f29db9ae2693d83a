"""Shared helpers for the figure-regeneration benchmarks.

Every ``bench_figXX`` module computes the corresponding figure's data
series once (inside pytest-benchmark), prints it as an aligned table, and
writes it to ``benchmarks/results/`` so the numbers survive the pytest
output capture.  Each bench's docstring states the paper's expected shape
and its asserts check it.

Performance-trajectory benchmarks additionally persist machine-readable
results: :func:`emit_json` writes a ``BENCH_<name>.json`` file at the
repository root (uploaded as a CI artifact by the ``bench-smoke`` job),
so throughput/latency numbers are comparable across commits, not just
across the two configurations of one run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import socket
import sys
from collections.abc import Sequence
from typing import Any

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def free_port() -> int:
    """An ephemeral TCP port for benchmarks that must bind a known port."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def refuse_owner(host: str, port: int, *_args, **_kwargs):
    """``TcpConnection(owner_dial=...)`` for a client that must stay a
    gateway client: every owner is unreachable to it, so its ops cross
    the forwarding hop."""
    from repro.core.errors import DVConnectionLost

    raise DVConnectionLost(f"owner at {host}:{port} kept out of reach")


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def emit(name: str, title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print the series and persist it under benchmarks/results/."""
    table = f"{title}\n\n{format_table(headers, rows)}\n"
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)


def process_cpu_seconds() -> float:
    """Total CPU seconds consumed by this process *and its reaped
    children* (user + system).  Deltas around a timed section give the
    wall/CPU utilization ratio multi-process benchmarks report — a
    ``workers``-way pool saturating every core shows a ratio near
    ``workers``; 1.0 means single-core-bound.  Child processes count only
    once reaped, so take the closing snapshot after the pool's stop()."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def emit_json(name: str, payload: dict[str, Any],
              env: dict[str, Any] | None = None) -> str:
    """Persist a benchmark's results as ``BENCH_<name>.json`` at the repo
    root; returns the path written.  The payload is wrapped with enough
    environment detail to make cross-commit comparisons honest; ``env``
    merges benchmark-specific facts into that wrapper (worker counts,
    wall/CPU utilization, accelerator presence, ...)."""
    document = {
        "benchmark": name,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "results": payload,
    }
    if env:
        document.update(env)
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def run_once(benchmark, func):
    """Run an expensive figure computation exactly once under
    pytest-benchmark (the numbers of interest are the figure series, not
    the wall time of regenerating them)."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
