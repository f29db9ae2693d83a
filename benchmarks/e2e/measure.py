"""One measured run of one workload: set-up, warm-up, timed blocks, checks.

Everything is observed from outside the program: ``/proc`` for daemon CPU,
context switches and memory, the public ``stats`` op for counters, the
clients' own clocks for wall time.  ``Runner.run()`` returns a plain dict
(per-block samples, summaries, failures by kind, check errors) that
``run.py`` prints and stores.
"""

from __future__ import annotations

import os
import time

import daemon
import spec
import stats
import workloads
from repro.client.dvlib import TcpConnection, fetch_stats

_TICK = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------- #
# /proc
# --------------------------------------------------------------------- #
def proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, seconds."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_ctx_switches(pid: int) -> int:
    """Voluntary + involuntary context switches over all threads."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/status", "rb") as fh:
                for line in fh:
                    if line.startswith((b"voluntary_ctxt", b"nonvoluntary_ctxt")):
                        total += int(line.split()[1])
        except FileNotFoundError:
            continue  # the thread ended between listdir and open
    return total


def proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# --------------------------------------------------------------------- #
# stats op
# --------------------------------------------------------------------- #
def counter(snapshot: dict, name: str) -> float:
    return float((snapshot["metrics"].get(name) or {}).get("value", 0.0))


def context_summary(snapshot: dict, context: str) -> dict:
    for summary in snapshot["contexts"]:
        if summary["context"] == context:
            return summary
    return {}


class Probe:
    """Everything sampled at a block boundary."""

    def __init__(self, runner: "Runner", with_ingress: bool) -> None:
        self.cpu = {nid: proc_cpu_s(n.pid) for nid, n in runner.nodes.items()}
        began = time.perf_counter()
        self.owner = fetch_stats("127.0.0.1", runner.owner.port)
        self.stats_op_s = time.perf_counter() - began
        self.ingress = (
            fetch_stats("127.0.0.1", runner.other.port) if with_ingress else None
        )
        self.ctx_switches = (
            {nid: proc_ctx_switches(n.pid) for nid, n in runner.nodes.items()}
            if with_ingress else {}
        )


def wait_converged(nodes: dict, timeout: float = 20.0) -> dict[str, str]:
    """Block until the ring has converged; returns the ownership map.

    Converged means: both nodes list both nodes alive with a known data
    port, agree on who owns what, and each has completed a gossip round of
    its own - so each holds an established link to the other.  (A node
    whose first dial was refused sits in dial back-off; a forwarded op
    arriving then is taken as the peer's death.)
    """
    deadline = time.monotonic() + timeout
    conns = [TcpConnection("127.0.0.1", n.port, {}, {}) for n in nodes.values()]
    try:
        while True:
            replies = [c.call({"op": "cluster"}) for c in conns]
            views = [r["cluster"] for r in replies]
            settled = all(
                len(v["nodes"]) == len(nodes)
                and all(p["alive"] and p["data"] for p in v["nodes"])
                for v in views
            ) and all(
                r["metrics"]["cluster.gossip_rounds"]["value"] >= 1
                for r in replies
            )
            if settled and all(v["contexts"] == views[0]["contexts"] for v in views):
                return dict(views[0]["contexts"])
            if time.monotonic() > deadline:
                raise RuntimeError(f"ring did not converge: {views!r}")
            time.sleep(0.01)
    finally:
        for conn in conns:
            conn.close()


class Runner:
    """Set-up, warm-up and the timed blocks of one workload."""

    def __init__(self, box: daemon.Sandbox, workload: spec.Workload,
                 seed: int, seconds: float) -> None:
        self.box = box
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.fixture_root = os.path.join(box.root, "fixture")
        self.nodes: dict = {}
        self.env: workloads.Env | None = None
        self.load = None
        self.fixture: dict = {}
        self._cpus = os.sched_getaffinity(0)

    # -- lifecycle -------------------------------------------------------
    def build_fixtures(self) -> None:
        os.makedirs(self.fixture_root)
        self.fixture = daemon.build_fixtures(self.fixture_root)

    def set_up(self) -> float:
        """Daemons up, ring converged, clients attached; returns seconds."""
        began = time.perf_counter()
        os.sched_setaffinity(0, self._cpus)
        self.nodes = self.box.spawn_cluster(self.fixture_root, self.workload.pin)
        self.env = workloads.Env(
            self.nodes, wait_converged(self.nodes),
            self.fixture["checksums"], self.box.root)
        if self.workload.pin:
            # Threads start later and inherit it.
            os.sched_setaffinity(0, {daemon.pinned_cpu()})
        self.load = workloads.make(self.workload, self.env, self.seed, self.seconds)
        self.load.connect()
        return time.perf_counter() - began

    def tear_down(self) -> None:
        if self.load is not None:
            self.load.close()
            self.load = None
        if self.nodes:
            self.box.stop_cluster(self.nodes)
            self.nodes = {}
        os.sched_setaffinity(0, self._cpus)

    @property
    def owner(self):
        return self.nodes[self.env.owners[self.workload.context]]

    @property
    def other(self):
        (node,) = [n for n in self.nodes.values() if n is not self.owner]
        return node

    # -- the measured run ------------------------------------------------
    def run(self) -> dict:
        """The untraced run behind every end-to-end metric."""
        self.build_fixtures()
        setups = []
        for attempt in range(spec.SETUP_REPEATS):
            if attempt:
                self.tear_down()
            setups.append(self.set_up())
        try:
            return self._measure(setups)
        finally:
            self.tear_down()

    def _measure(self, setups: list[float]) -> dict:
        load = self.load
        block_s = self.seconds / spec.BLOCKS
        budget = 2.0 * block_s
        load.plan(0)
        warm = load.run_block(budget)          # untimed: caches, lazy set-up
        probes = [Probe(self, with_ingress=True)]
        blocks: list[workloads.Counts] = []
        for index in range(1, spec.BLOCKS + 1):
            load.plan(index)
            blocks.append(load.run_block(budget))
            probes.append(Probe(self, with_ingress=index == spec.BLOCKS))
        rss = sum(proc_hwm_mb(n.pid) for n in self.nodes.values())

        samples = [
            self._block_metrics(block, before, after)
            for block, before, after in zip(blocks, probes, probes[1:])
        ]
        total = workloads.Counts()
        for block in blocks:
            total.merge(block)
            total.wall_s += block.wall_s
        total.check_errors.extend(warm.check_errors)
        self._check(total, probes[0], probes[-1])

        summaries = {
            name: stats.summarize([s[name] for s in samples])
            for name in samples[0]
        }
        summaries["setup_s"] = stats.summarize(setups)
        summaries["daemon_rss_mb"] = stats.summarize([rss])
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "owner": self.owner.node_id,
            "entry": self.env.entry_node(self.workload).node_id,
            "fixture_s": self.fixture["seconds"],
            "summaries": summaries,
            "samples": {name: [s[name] for s in samples] for name in samples[0]},
            "setup_samples": setups,
            "attempted": total.attempted,
            "failed": total.failed,
            "failures": total.failures,
            "check_errors": total.check_errors,
            "truncated_blocks": sum(b.truncated for b in blocks),
            "warmup_wall_s": warm.wall_s,
            "timed_wall_s": total.wall_s,
            "layer_counts": self._layer_counts(total, probes[0], probes[-1]),
        }

    def _block_metrics(self, block, before: Probe, after: Probe) -> dict:
        wall = max(block.wall_s, 1e-9)
        ops = max(block.ops, 1)
        accesses = max(block.accesses, 1)
        context = self.workload.context
        daemon_cpu = sum(after.cpu[n] - before.cpu[n] for n in after.cpu)
        was = context_summary(before.owner, context)
        now = context_summary(after.owner, context)
        outputs = (now.get("total_simulated_outputs", 0)
                   - was.get("total_simulated_outputs", 0))
        restarts = now.get("total_restarts", 0) - was.get("total_restarts", 0)
        return {
            "open_msgs_per_s": block.replies / wall,
            "steps_per_s": block.steps / wall,
            "daemon_cpu_us_per_op": daemon_cpu * 1e6 / ops,
            "client_cpu_us_per_op": block.client_cpu_s * 1e6 / ops,
            "sim_amplification": 1.0 + outputs / accesses,
            "fetch_mb_per_s": block.payload_bytes / 1e6 / wall,
            "resim_outputs_per_access": outputs / accesses,
            "restarts_per_kaccess": restarts * 1000.0 / accesses,
            "failed_share": block.failed / max(block.attempted, 1),
        }

    # -- output checks ---------------------------------------------------
    def _check(self, total, first: Probe, last: Probe) -> None:
        """Checks that abort the run: they compare what the clients did
        with what the daemons say happened."""
        context = self.workload.context
        errors = total.check_errors
        sent_opens = total.opens
        sent_releases = total.releases
        seen_opens = (counter(last.owner, f"dv.{context}.opens")
                      - counter(first.owner, f"dv.{context}.opens"))
        seen_releases = (counter(last.owner, f"dv.{context}.releases")
                         - counter(first.owner, f"dv.{context}.releases"))
        if total.failed == 0:
            if seen_opens != sent_opens:
                errors.append(
                    f"daemon counted {seen_opens:.0f} opens, clients sent {sent_opens}")
            if seen_releases != sent_releases:
                errors.append(
                    f"daemon counted {seen_releases:.0f} releases, "
                    f"clients sent {sent_releases}")
            misses = (counter(last.owner, f"dv.{context}.misses")
                      - counter(first.owner, f"dv.{context}.misses"))
            notified = (counter(last.owner, f"dv.{context}.notifications")
                        - counter(first.owner, f"dv.{context}.notifications"))
            if not misses == notified == total.readies:
                errors.append(
                    f"{misses:.0f} misses, {notified:.0f} notifications sent, "
                    f"{total.readies} ready frames received")
        capacity = spec.CONTEXTS[context]["capacity_steps"]
        if capacity is not None:
            limit = capacity * spec.CONTEXTS[context]["cells"] * 8
            used = context_summary(last.owner, context).get("used_bytes", 0)
            if used > limit:
                errors.append(f"{context} holds {used} bytes, capacity {limit}")

    # -- per-layer counts that fall out of the same run -------------------
    def _layer_counts(self, total, first: Probe, last: Probe) -> dict:
        context = self.workload.context
        ops = max(total.ops, 1)

        def delta(snap_a, snap_b, name):
            return counter(snap_b, name) - counter(snap_a, name)

        owner_id, other_id = self.owner.node_id, self.other.node_id
        misses = delta(first.owner, last.owner, f"dv.{context}.misses")
        opens = delta(first.owner, last.owner, f"dv.{context}.opens")
        killed = delta(first.owner, last.owner, f"dv.{context}.sims_killed")
        launched = delta(first.owner, last.owner, f"dv.{context}.restarts_launched")
        frames = bytes_ = 0.0
        for a, b in ((first.owner, last.owner), (first.ingress, last.ingress)):
            frames += delta(a, b, "wire.frames_recv") + delta(a, b, "wire.frames_sent")
            bytes_ += delta(a, b, "wire.bytes_recv") + delta(a, b, "wire.bytes_sent")
        switches = sum(
            last.ctx_switches[n] - first.ctx_switches[n] for n in last.ctx_switches)
        # ``open`` is dispatched (and timed) where the client entered.
        entry = last.ingress if self.workload.via_gateway else last.owner
        hist = (entry["metrics"].get("op.open.seconds") or {})
        return {
            "server.owner_cpu_us_per_op":
                (last.cpu[owner_id] - first.cpu[owner_id]) * 1e6 / ops,
            "server.ingress_cpu_us_per_op":
                (last.cpu[other_id] - first.cpu[other_id]) * 1e6 / ops,
            "server.frames_per_op": frames / ops,
            "server.bytes_per_op": bytes_ / ops,
            "server.ctx_switches_per_op": switches / ops,
            "server.op_open_p50_us": (hist.get("p50") or 0.0) * 1e6,
            "server.op_open_p99_us": (hist.get("p99") or 0.0) * 1e6,
            "server.stats_op_ms": last.stats_op_s * 1e3,
            "shard.hit_ratio": (opens - misses) / opens if opens else 0.0,
            "shard.sims_killed_share": killed / launched if launched else 0.0,
            "shard.notifications_per_miss":
                delta(first.owner, last.owner, f"dv.{context}.notifications") / misses
                if misses else 0.0,
            "prefetch.miss_share": total.readies / max(total.accesses, 1),
            "client.blocked_share":
                total.blocked_s / max(total.wall_s * workloads.CLIENTS, 1e-9),
            "cluster.fwd_per_op":
                delta(first.ingress, last.ingress, "cluster.fwd_sent") / ops,
            "cluster.ready_routed_per_miss":
                delta(first.owner, last.owner, "cluster.ready_routed") / misses
                if misses else 0.0,
        }
