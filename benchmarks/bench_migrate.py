"""Live-migration benchmark: the cost of one cutover.

One series, persisted as ``BENCH_migrate.json`` at the repo root (part
of the perf-trajectory artifact the CI ``bench-smoke`` job uploads):

``live_migrate_seconds``
    Live measurement on a real three-node cluster: a gateway client
    blocks on an open against a loaded context, the context is migrated
    out from under it, and we record the protocol's own freeze window
    (the job-intake pause at cutover), the end-to-end migrate duration
    (pre-copy included), and the client-observed time from cutover to
    its ready.  The waiter moves hot — the client never retries — so
    the ready time is dominated by the deliberate simulation delay, and
    the freeze (the only part clients can notice on the open path) must
    stay in the milliseconds.

Run directly (``python benchmarks/bench_migrate.py [--quick]``) or
under pytest (``pytest benchmarks/bench_migrate.py``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import emit, emit_json, free_port, refuse_owner  # noqa: E402

from repro.client.dvlib import TcpConnection  # noqa: E402
from repro.cluster import ClusterNode  # noqa: E402
from repro.core.context import ContextConfig, SimulationContext  # noqa: E402
from repro.core.perfmodel import PerformanceModel  # noqa: E402
from repro.simulators import SyntheticDriver  # noqa: E402

NODE_IDS = ("n1", "n2", "n3")

FULL = {"trials": 5, "alpha_delay": 1.2}
QUICK = {"trials": 1, "alpha_delay": 0.8}


# --------------------------------------------------------------------- #
# Live: migrate a context out from under a blocked waiter
# --------------------------------------------------------------------- #
def build_context(workdir: str, name: str) -> tuple[SimulationContext, str, str]:
    """A synthetic context with restart files but no outputs (every open
    is a miss that launches a re-simulation)."""
    config = ContextConfig(name=name, delta_d=2, delta_r=8, num_timesteps=32)
    driver = SyntheticDriver(config.geometry, prefix=name, cells=16)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    out = os.path.join(workdir, f"{name}-out")
    rst = os.path.join(workdir, f"{name}-rst")
    os.makedirs(out, exist_ok=True)
    os.makedirs(rst, exist_ok=True)
    produced = driver.execute(
        driver.make_job(name, 0, 4, write_restarts=True), out, rst
    )
    for fname in produced:
        os.unlink(os.path.join(out, fname))
    return context, out, rst


def live_trial(alpha_delay: float) -> dict:
    """One blocked-waiter migration; returns freeze/total/ready times."""
    with tempfile.TemporaryDirectory(prefix="bench-migrate-") as workdir:
        context, out, rst = build_context(workdir, "mig")
        ports = {nid: free_port() for nid in NODE_IDS}
        specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
        nodes = {
            nid: ClusterNode(
                nid, port=ports[nid],
                peers=[s for s in specs if not s.startswith(f"{nid}@")],
                vnodes=32, heartbeat_interval=0.15, suspect_after=2,
            )
            for nid in NODE_IDS
        }
        conn = None
        try:
            for node in nodes.values():
                node.add_context(context, out, rst, alpha_delay=alpha_delay)
            for node in nodes.values():
                node.start()
            with nodes["n1"]._lock:
                owner = nodes["n1"].ring.owner("mig")
            others = [n for n in NODE_IDS if n != owner]
            dest, ingress = others
            host, port = nodes[ingress].address
            conn = TcpConnection(
                host, port, {"mig": out}, {"mig": rst},
                client_id="bench-migrate-client", owner_dial=refuse_owner,
            )
            conn.attach("mig")
            filename = context.filename_of(3)
            info = conn.open("mig", filename)
            assert not info.available, "context unexpectedly warm"
            # The migration must find a registered waiter, not a race.
            shard = nodes[owner].server.coordinator.shard("mig")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with shard.lock:
                    if any(shard.waiters.values()):
                        break
                time.sleep(0.02)
            begin = time.perf_counter()
            result = nodes[owner].migration.migrate("mig", dest)
            assert result["moved_waiters"] >= 1
            assert conn.ready_table.wait("mig", filename, timeout=60.0), \
                "client never unblocked after the migration"
            ready_s = time.perf_counter() - begin
            return {
                "freeze_s": result["freeze_seconds"],
                "migrate_s": result["total_seconds"],
                "ready_s": ready_s,
            }
        finally:
            if conn is not None:
                conn.close()
            for node in nodes.values():
                try:
                    node.stop(drain_timeout=0)
                except Exception:
                    pass


def measure_live(sizing: dict) -> dict:
    samples = [
        live_trial(sizing["alpha_delay"]) for _ in range(sizing["trials"])
    ]
    return {
        key: {
            "median_s": round(
                statistics.median(s[key] for s in samples), 4
            ),
            "max_s": round(max(s[key] for s in samples), 4),
        }
        for key in ("freeze_s", "migrate_s", "ready_s")
    } | {"trials": len(samples)}


def compute(sizing: dict) -> dict:
    return {"live_migrate_seconds": measure_live(sizing), "sizing": sizing}


def report(results: dict) -> None:
    live = results["live_migrate_seconds"]
    emit(
        "migrate",
        "Live cutover cost: freeze, whole migrate, client ready",
        ["series", "median s", "max s"],
        [
            [name, live[key]["median_s"], live[key]["max_s"]]
            for name, key in (
                ("live freeze", "freeze_s"),
                ("live migrate", "migrate_s"),
                ("live ready", "ready_s"),
            )
        ],
    )
    path = emit_json("migrate", results)
    print(f"wrote {path}")


def test_migrate(benchmark):
    from _harness import run_once

    results = run_once(benchmark, lambda: compute(QUICK))
    report(results)
    # The live cutover freeze is a pause, not an outage.
    assert results["live_migrate_seconds"]["freeze_s"]["max_s"] < 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI (one live trial)")
    args = parser.parse_args(argv)
    results = compute(QUICK if args.quick else FULL)
    report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
