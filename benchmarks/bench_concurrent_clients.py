"""Concurrency microbenchmark: multi-client op throughput over TCP.

Eight clients spread over four contexts hammer the daemon with
acquire / bitrep / release cycles on resident steps: workers dispatch
into per-context shards, each serializing only its own traffic, and slow
data-plane work (the bitrep checksum) runs outside any control lock.
(The pre-sharding global-lock emulation this was once compared against is
retired; its final numbers are in ``CHANGES.md``.)

The contexts use a driver whose ``checksum`` adds a small real sleep,
emulating the parallel-file-system read of an output step in the paper's
deployment (the launcher's ``alpha_delay``/``tau_delay`` pacing pattern):
checksumming a multi-GB step is I/O time during which the daemon must
keep serving every other client.

The headline number is the aggregate op throughput.  A second
series measures what pipelining saves: N open+release pairs issued as 2N
sequential RPCs versus DVLib's ``acquire`` + ``release_many``, which
send the N opens, then the N releases, in one write each.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time

from _harness import emit, run_once

from repro.client import SimFSSession, TcpConnection
from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver

NUM_CONTEXTS = 4
NUM_CLIENTS = 8
MEASURE_SECONDS = 2.0
CELLS = 16384
#: emulated PFS read latency for one output-step checksum (see module doc)
CHECKSUM_IO_DELAY = 0.002
PIPELINED_PAIRS = 64


class PacedChecksumDriver(SyntheticDriver):
    """Synthetic driver whose checksum pays an emulated PFS read."""

    def checksum(self, path: str) -> str:
        time.sleep(CHECKSUM_IO_DELAY)
        return super().checksum(path)


def build_server(workdir: str) -> tuple[DVServer, dict[str, SimulationContext]]:
    server = DVServer()
    contexts = {}
    for idx in range(NUM_CONTEXTS):
        name = f"ctx{idx}"
        config = ContextConfig(name=name, delta_d=2, delta_r=8, num_timesteps=32)
        driver = PacedChecksumDriver(
            config.geometry, prefix=name, cells=CELLS, seed=idx + 1
        )
        context = SimulationContext(
            config=config, driver=driver,
            perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
        )
        out = os.path.join(workdir, f"{name}-out")
        rst = os.path.join(workdir, f"{name}-rst")
        os.makedirs(out)
        os.makedirs(rst)
        produced = driver.execute(
            driver.make_job(name, 0, 4, write_restarts=True), out, rst
        )
        for fname in produced:
            context.record_checksum(
                fname, driver.checksum(os.path.join(out, fname))
            )
        server.add_context(context, out, rst)
        contexts[name] = context
    server.start()
    return server, contexts


def run_clients(server: DVServer, contexts: dict[str, SimulationContext]) -> float:
    """8 clients, 2 per context, cycling acquire+bitrep+release on resident
    steps for MEASURE_SECONDS; returns aggregate ops per second."""
    host, port = server.address
    names = sorted(contexts)
    ops = [0] * NUM_CLIENTS
    errors: list[Exception] = []
    start_gate = threading.Event()
    stop_at = [0.0]

    def worker(slot: int) -> None:
        name = names[slot % NUM_CONTEXTS]
        context = contexts[name]
        keys = list(range(1 + slot, 13, NUM_CLIENTS // NUM_CONTEXTS))
        try:
            conn = TcpConnection(
                host, port,
                storage_dirs={name: server.launcher.output_dir(name)},
                restart_dirs={name: server.launcher.restart_dir(name)},
            )
            with conn, SimFSSession(conn, name) as session:
                start_gate.wait()
                idx = 0
                while time.perf_counter() < stop_at[0]:
                    fname = context.filename_of(keys[idx % len(keys)])
                    session.acquire([fname], timeout=30.0)
                    session.bitrep(fname)
                    session.release(fname)
                    ops[slot] += 3
                    idx += 1
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(NUM_CLIENTS)]
    for t in threads:
        t.start()
    time.sleep(0.2)  # let every client finish its handshake
    stop_at[0] = time.perf_counter() + MEASURE_SECONDS
    begin = time.perf_counter()
    start_gate.set()
    for t in threads:
        t.join(timeout=60.0)
    elapsed = time.perf_counter() - begin
    if errors:
        raise errors[0]
    return sum(ops) / elapsed


def measure_throughput() -> list[list]:
    workdir = tempfile.mkdtemp(prefix="bench-dv-sharded-")
    try:
        server, contexts = build_server(workdir)
        try:
            throughput = run_clients(server, contexts)
        finally:
            server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return [["sharded", NUM_CLIENTS, NUM_CONTEXTS, throughput]]


def measure_pipelined_round_trips() -> list[list]:
    """Sequential open/release RPCs versus the same ops pipelined."""
    workdir = tempfile.mkdtemp(prefix="bench-dv-pipelined-")
    rows = []
    try:
        server, contexts = build_server(workdir)
        try:
            name = sorted(contexts)[0]
            context = contexts[name]
            host, port = server.address
            conn = TcpConnection(
                host, port,
                storage_dirs={name: server.launcher.output_dir(name)},
                restart_dirs={name: server.launcher.restart_dir(name)},
            )
            with conn:
                conn.attach(name)
                fname = context.filename_of(1)

                begin = time.perf_counter()
                for _ in range(PIPELINED_PAIRS):
                    conn.open(name, fname)
                    conn.release(name, fname)
                sequential = time.perf_counter() - begin

                files = [fname] * PIPELINED_PAIRS
                begin = time.perf_counter()
                infos = conn.acquire(name, files)
                conn.release_many(name, files)
                pipelined = time.perf_counter() - begin
                assert all(info.available for info in infos)

            rows.append(["sequential", 2 * PIPELINED_PAIRS, sequential * 1e3])
            rows.append(["pipelined", 2 * PIPELINED_PAIRS, pipelined * 1e3])
            rows.append(["speedup", 2 * PIPELINED_PAIRS, sequential / pipelined])
        finally:
            server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rows


def compute() -> tuple[list[list], list[list]]:
    return measure_throughput(), measure_pipelined_round_trips()


def report(throughput_rows: list[list], pipelined_rows: list[list]) -> None:
    emit(
        "concurrent_clients",
        f"Multi-client DV throughput: {NUM_CLIENTS} clients over "
        f"{NUM_CONTEXTS} contexts (acquire+bitrep+release cycles)",
        ["mode", "clients", "contexts", "ops/s"],
        throughput_rows,
    )
    emit(
        "pipelined_round_trips",
        f"Pipelined round-trip savings ({PIPELINED_PAIRS} open+release pairs)",
        ["mode", "ops", "ms"],
        pipelined_rows,
    )


def test_concurrent_client_throughput(benchmark):
    throughput_rows, pipelined_rows = run_once(benchmark, compute)
    report(throughput_rows, pipelined_rows)
    assert throughput_rows[0][-1] > 0
    assert pipelined_rows[-1][-1] > 1.0, "pipelined ops slower than sequential RPCs"


if __name__ == "__main__":
    report(*compute())
