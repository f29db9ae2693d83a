"""HA-tier benchmark: client-observed open latency across an owner kill,
replication factor 1 vs 2 vs 3.

One series, persisted as ``BENCH_ha.json`` at the repo root (part of the
perf-trajectory artifact the CI ``bench-smoke`` job uploads):

``live_recovery_seconds``
    Live measurement on a real three-node cluster: a *gateway* client
    (a TcpConnection through a non-owner ingress, the owner kept out of
    its reach — it cannot detect the kill itself) blocks on an open, the
    context's owner is killed, and we time from the kill to the client's
    ready notification.  At factor 1 recovery is cold (the ingress
    replays the waiter against the new owner, which re-simulates from
    scratch); at factor >= 2 the first ring successor promotes its
    replicated waiter table and the client never retries.  In a
    three-node LAN cluster both paths learn of the death by the
    forwarding link dropping, so the medians sit close together: the
    recovery time is the deliberate simulation delay plus milliseconds.
    Few trials (wall time is dominated by that delay), so the stat is
    median and max.

Run directly (``python benchmarks/bench_ha.py [--quick]``) or under
pytest (``pytest benchmarks/bench_ha.py``).
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
FACTORS = (1, 2, 3)

FULL = {"trials": 3, "alpha_delay": 1.2}
QUICK = {"trials": 1, "alpha_delay": 0.8}


# --------------------------------------------------------------------- #
# Live: kill-the-owner recovery latency
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


def live_trial(factor: int, alpha_delay: float) -> float:
    """Seconds from owner kill to the blocked client's ready."""
    with tempfile.TemporaryDirectory(prefix="bench-ha-") as workdir:
        context, out, rst = build_context(workdir, "ha")
        ports = {nid: free_port() for nid in NODE_IDS}
        specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
        nodes = {
            nid: ClusterNode(
                nid, port=ports[nid],
                peers=[s for s in specs if not s.startswith(f"{nid}@")],
                vnodes=32, heartbeat_interval=0.15, suspect_after=2,
                replication_factor=factor, repl_interval=0.05,
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
                chain = nodes["n1"].ring.successors("ha", 3)
            owner = chain[0]
            # Ingress = the last node of the preference chain: never the
            # owner, never the first successor — and at factor 3 it is
            # itself a replica, the guaranteed survivor of the kill.
            host, port = nodes[chain[2]].address
            conn = TcpConnection(
                host, port, {"ha": out}, {"ha": rst},
                client_id="bench-ha-client", owner_dial=refuse_owner,
            )
            conn.attach("ha")
            filename = context.filename_of(3)
            info = conn.open("ha", filename)
            assert not info.available, "context unexpectedly warm"
            if factor > 1:
                # The kill is only a fair HA test once the waiter has
                # reached the replica (one pump tick).
                replica = nodes[chain[1]]
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    entry = replica.repl.store.describe().get("ha")
                    if entry and entry["waiters"] >= 1:
                        break
                    time.sleep(0.02)
            else:
                time.sleep(0.2)  # same settling time, no replica to await
            begin = time.perf_counter()
            nodes[owner].stop(drain_timeout=0)
            assert conn.ready_table.wait("ha", filename, timeout=60.0), \
                "client never unblocked after the owner kill"
            return time.perf_counter() - begin
        finally:
            if conn is not None:
                conn.close()
            for node in nodes.values():
                try:
                    node.stop(drain_timeout=0)
                except Exception:
                    pass


def measure_live(sizing: dict) -> dict:
    series = {}
    for factor in FACTORS:
        samples = [
            live_trial(factor, sizing["alpha_delay"])
            for _ in range(sizing["trials"])
        ]
        series[str(factor)] = {
            "median_s": round(statistics.median(samples), 3),
            "max_s": round(max(samples), 3),
            "trials": len(samples),
        }
    return series


def compute(sizing: dict) -> dict:
    return {"live_recovery_seconds": measure_live(sizing), "sizing": sizing}


def report(results: dict) -> None:
    live = results["live_recovery_seconds"]
    emit(
        "ha_failover",
        "Client-observed open latency across an owner kill, by factor",
        ["factor", "live median s", "live max s", "trials"],
        [
            [f, live[str(f)]["median_s"], live[str(f)]["max_s"],
             live[str(f)]["trials"]]
            for f in FACTORS
        ],
    )
    path = emit_json("ha", results)
    print(f"wrote {path}")


def test_ha_failover(benchmark):
    from _harness import run_once

    results = run_once(benchmark, lambda: compute(QUICK))
    report(results)
    for factor in FACTORS:
        assert results["live_recovery_seconds"][str(factor)]["median_s"] > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI (one live trial per factor)")
    args = parser.parse_args(argv)
    results = compute(QUICK if args.quick else FULL)
    report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
