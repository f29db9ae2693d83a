"""The ``layers`` stage: each layer's public functions called directly.

Inputs are the ones the workloads generate (the ``hot`` open frames, the
``scan`` key sequence of analysis 0, the fixture files), so a layer number
and the end-to-end number it should move describe the same work.  Every
figure is a median over repeats; none is gated.  The stage runs against
the live daemons of a traced run where it needs sockets (``data.*``,
``cluster.link_call_p50_us``, the hop ratios) and in-process otherwise.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import daemon
import measure
import spec
import workloads
from repro.cache.manager import StorageArea
from repro.cluster.link import PeerLink
from repro.cluster.ring import HashRing
from repro.data.client import DataClient
from repro.data.scheduler import BandwidthScheduler
from repro.dv.coordinator import DVCoordinator, RunningSim
from repro.dv.launcher import ThreadedLauncher
from repro.dv.protocol import (
    CODEC_BINARY,
    StreamDecoder,
    encode_frame,
    encode_open_reply,
    encode_open_request,
    make_fwd,
    unwrap_fwd,
)
from repro.prefetch.agent import PrefetchAgent
from repro.util.ema import ExponentialMovingAverage

REPEATS = 7


def per_call_ns(fn, calls: int = 2000) -> float:
    """Median over ``REPEATS`` of the mean time of ``calls`` calls."""
    samples = []
    for _ in range(REPEATS):
        began = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter_ns() - began) / calls)
    return statistics.median(samples)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------- #
def protocol_layer() -> dict:
    fname = "hot_out_00000001.sdf"
    decoder = StreamDecoder(CODEC_BINARY)

    def decode(frame: bytes):
        decoder.feed(frame)
        return decoder.next_message()

    open_frame = encode_open_request(7, "hot", fname, CODEC_BINARY)
    reply_frame = encode_open_reply(7, True, "on_disk", 0.0, CODEC_BINARY)
    ready = {"op": "ready", "context": "scan",
             "file": "scan_out_00000001.sdf", "ok": True}
    inner = {"op": "open", "context": "hot", "file": fname}
    acquire = {"op": "acquire", "req": 7, "context": "scan",
               "files": [f"scan_out_{k:08d}.sdf" for k in (1, 4, 7, 10)]}
    return {
        "protocol.encode_open_ns": per_call_ns(
            lambda: encode_open_request(7, "hot", fname, CODEC_BINARY)),
        "protocol.decode_open_ns": per_call_ns(lambda: decode(open_frame)),
        "protocol.encode_reply_ns": per_call_ns(
            lambda: encode_open_reply(7, True, "on_disk", 0.0, CODEC_BINARY)),
        "protocol.decode_reply_ns": per_call_ns(lambda: decode(reply_frame)),
        "protocol.ready_roundtrip_ns": per_call_ns(
            lambda: decode(encode_frame(ready, CODEC_BINARY))),
        "protocol.fwd_wrap_roundtrip_ns": per_call_ns(
            lambda: unwrap_fwd(decode(encode_frame(
                make_fwd("n1", "client-1", inner, req=7), CODEC_BINARY)))),
        "protocol.json_fallback_roundtrip_ns": per_call_ns(
            lambda: decode(encode_frame(acquire, CODEC_BINARY))),
        "protocol.open_frame_bytes": float(len(open_frame)),
    }


# --------------------------------------------------------------------- #
class _NoopExecutor:
    """Records what the shard asks for; runs nothing."""

    def __init__(self) -> None:
        self.launched: list[int] = []
        self.killed: list[int] = []

    def launch(self, context, sim) -> None:
        self.launched.append(sim.sim_id)

    def kill(self, sim_id: int) -> None:
        self.killed.append(sim_id)


def _coordinator(context_name: str):
    notified: list = []
    coordinator = DVCoordinator(_NoopExecutor(), notify=notified.append)
    context = daemon.build_context(context_name)
    shard = coordinator.register_context(context)
    coordinator.client_connect("bench", context_name)
    return coordinator, shard, context


def shard_layer() -> dict:
    # Hit path: every step of ``hot`` resident, as in hot_open.
    coordinator, shard, context = _coordinator("hot")
    for key in range(1, spec.CONTEXTS["hot"]["steps"] + 1):
        shard.area.insert(key, cost=float(context.geometry.miss_cost(key)))
    names = [context.filename_of(k) for k in range(1, 65)]
    opens, releases, acquires = [], [], []
    now = 0.0
    for _ in range(REPEATS * 4):
        began = time.perf_counter_ns()
        for name in names:
            now += 0.001
            coordinator.handle_open("bench", "hot", name, now)
        mid = time.perf_counter_ns()
        for name in names:
            coordinator.handle_release("bench", "hot", name, now)
        end = time.perf_counter_ns()
        opens.append((mid - began) / len(names))
        releases.append((end - mid) / len(names))
        began = time.perf_counter_ns()
        for first in range(0, len(names), 4):
            coordinator.handle_acquire("bench", "hot", names[first:first + 4], now)
        acquires.append((time.perf_counter_ns() - began) / (len(names) // 4))
        for name in names:
            coordinator.handle_release("bench", "hot", name, now)

    # Miss path and file-closed path: ``scan``, nothing resident; a fresh
    # shard per repeat so every miss is the first in its restart interval.
    misses, closes = [], []
    per = spec.CONTEXTS["scan"]["interval"]
    for repeat in range(REPEATS * 4):
        coordinator, shard, context = _coordinator("scan")
        for slot in range(4):
            name = context.filename_of((repeat * 4 + slot) * per % 1000 + 3)
            began = time.perf_counter_ns()
            coordinator.handle_open("bench", "scan", name, 1.0 + slot)
            misses.append(time.perf_counter_ns() - began)
            began = time.perf_counter_ns()
            coordinator.sim_file_closed("scan", name, 2.0 + slot)
            closes.append(time.perf_counter_ns() - began)
    return {
        "shard.open_hit_ns": _median(opens),
        "shard.release_ns": _median(releases),
        "shard.acquire4_ns": _median(acquires),
        "shard.open_miss_ns": _median(misses),
        "shard.file_closed_ns": _median(closes),
    }


# --------------------------------------------------------------------- #
def cache_and_prefetch_layers(keys: list[int]) -> dict:
    """Replay analysis 0's ``resim_scan`` key sequence against the
    storage area (a miss inserts what its canonical re-simulation would
    produce: the whole restart interval) and the prefetch agent."""
    context = daemon.build_context("scan")
    config = context.config
    access_ns, insert_ns, hit_ratios, evictions = [], [], [], []
    hits: list[bool] = []
    for _ in range(REPEATS):
        area = StorageArea(
            config.replacement_policy, config.max_storage_bytes,
            entry_bytes=config.output_step_bytes)
        hits = []
        spent_access = spent_insert = inserts = 0
        for key in keys:
            began = time.perf_counter_ns()
            hit = area.access(key)
            mid = time.perf_counter_ns()
            spent_access += mid - began
            if not hit:
                for produced in context.geometry.resim_outputs(key):
                    area.insert(
                        produced,
                        cost=float(context.geometry.miss_cost(produced)))
                    inserts += 1
                spent_insert += time.perf_counter_ns() - mid
            hits.append(hit)
        access_ns.append(spent_access / len(keys))
        insert_ns.append(spent_insert / max(inserts, 1))
        hit_ratios.append(sum(hits) / len(keys))
        evictions.append(len(area.evictions))

    observe_ns, launches = [], []
    for _ in range(REPEATS):
        agent = PrefetchAgent(
            config, context.perf,
            ExponentialMovingAverage(config.ema_smoothing,
                                     initial=context.perf.alpha_sim))
        now = 0.0
        began = time.perf_counter_ns()
        for key, hit in zip(keys, hits):
            now += 0.004
            agent.observe_access(key, now, hit, 0.004)
        observe_ns.append((time.perf_counter_ns() - began) / len(keys))
        launches.append(agent.launched_actions * 1000.0 / len(keys))
    return {
        "cache.access_ns": _median(access_ns),
        "cache.insert_evict_ns": _median(insert_ns),
        "cache.replay_hit_ratio": _median(hit_ratios),
        "cache.evictions": float(evictions[0]),
        "prefetch.on_access_ns": _median(observe_ns),
        "prefetch.launches_per_kaccess": _median(launches),
    }


# --------------------------------------------------------------------- #
class _StubCoordinator:
    """What a launcher reports to; stamps each report."""

    def __init__(self) -> None:
        self.outputs: list[float] = []
        self.done = threading.Event()

    def sim_file_closed(self, context_name, filename, now):
        self.outputs.append(time.perf_counter())
        return []

    def sim_completed(self, context_name, sim_id, now) -> None:
        self.done.set()

    def sim_failed(self, context_name, sim_id, now):
        self.done.set()
        return []


def launcher_and_sim_layers(fixture_root: str, scratch: str) -> dict:
    """One restart interval of ``scan`` with pacing 0: through a
    ``ThreadedLauncher`` bound to a stub coordinator, then the driver
    alone."""
    context = daemon.build_context("scan")
    _, restart_dir = daemon.context_dirs(fixture_root, "scan")
    out_dir = os.path.join(scratch, "layers-sim-out")
    os.makedirs(out_dir, exist_ok=True)
    geometry = context.geometry
    first_ms, gap_ms = [], []
    for repeat in range(REPEATS):
        stub = _StubCoordinator()
        launcher = ThreadedLauncher()
        launcher.bind(stub)
        launcher.register_context("scan", context.driver, out_dir, restart_dir)
        start = 3 + repeat
        sim = RunningSim(
            sim_id=repeat + 1, context_name="scan", start_restart=start,
            stop_restart=start + 1, parallelism_level=0, launch_time=0.0,
            is_prefetch=False, owner_client=None,
            planned_keys=list(geometry.outputs_between_restarts(start, start + 1)),
        )
        began = time.perf_counter()
        launcher.launch(context, sim)
        if not stub.done.wait(30.0) or not stub.outputs:
            raise RuntimeError("launcher layer probe: simulation did not finish")
        first_ms.append((stub.outputs[0] - began) * 1e3)
        gaps = [b - a for a, b in zip(stub.outputs, stub.outputs[1:])]
        gap_ms.append(_median(gaps) * 1e3)
        launcher.wait_idle(5.0)

    exec_ms = []
    produced: list[str] = []
    for repeat in range(REPEATS):
        job = context.driver.make_job("scan", 20 + repeat, 21 + repeat)
        began = time.perf_counter()
        produced = context.driver.execute(job, out_dir, restart_dir)
        exec_ms.append((time.perf_counter() - began) * 1e3 / len(produced))
    return {
        "launcher.launch_to_first_output_ms": _median(first_ms),
        "launcher.output_interval_ms": _median(gap_ms),
        "sim.exec_ms_per_output": _median(exec_ms),
        "sim.file_bytes": float(os.path.getsize(os.path.join(out_dir, produced[0]))),
    }


# --------------------------------------------------------------------- #
def cluster_layer(runner) -> dict:
    ring = HashRing(16)
    for node_id in daemon.NODE_IDS:
        ring.add_node(node_id)
    owner = runner.nodes[runner.env.owners["hot"]]
    link = PeerLink("bench", owner.node_id, "127.0.0.1", owner.port)
    try:
        calls = []
        for _ in range(300):
            began = time.perf_counter_ns()
            link.call({"op": "load"})
            calls.append(time.perf_counter_ns() - began)
    finally:
        link.close()

    # The hop itself: the same short pipelined burst at the owner and
    # through the other node, back to back.
    burst = {}
    for workload in spec.WORKLOADS[:2]:
        load = workloads.make(workload, runner.env, runner.seed, 0.5 * spec.BLOCKS)
        load.connect()
        try:
            load.plan(0)
            load.run_block(10.0)
            cpu = sum(measure.proc_cpu_s(n.pid) for n in runner.nodes.values())
            counts = load.run_block(10.0)
            cpu = sum(measure.proc_cpu_s(n.pid) for n in runner.nodes.values()) - cpu
        finally:
            load.close()
        ops = max(counts.ops, 1)
        burst[workload.name] = (ops / max(counts.wall_s, 1e-9), cpu / ops)
    direct, hop = burst["hot_open"], burst["gateway_open"]
    return {
        "cluster.ring_owner_ns": per_call_ns(lambda: ring.owner("scan")),
        "cluster.link_call_p50_us": _median(calls) / 1e3,
        "cluster.hop_throughput_ratio": direct[0] / hop[0],
        "cluster.hop_cpu_ratio": hop[1] / direct[1] if direct[1] else 0.0,
    }


# --------------------------------------------------------------------- #
def data_layer(runner, scratch: str) -> dict:
    owners = runner.env.owners
    scan_node = runner.nodes[owners["scan"]]
    bulk_node = runner.nodes[owners["bulk"]]
    dest = os.path.join(scratch, "layers-data.fetched")

    connects = []
    for _ in range(50):
        began = time.perf_counter_ns()
        DataClient("127.0.0.1", bulk_node.data_port).close()
        connects.append(time.perf_counter_ns() - began)

    small = []
    with DataClient("127.0.0.1", scan_node.data_port) as client:
        for _ in range(50):
            began = time.perf_counter_ns()
            client.fetch("scan", daemon.PROBE_FILE, dest, resume=False)
            small.append(time.perf_counter_ns() - began)

    bulk_file = "bulk_out_00000001.sdf"
    rounds = 25
    before = measure.fetch_stats("127.0.0.1", bulk_node.port)
    server_cpu = measure.proc_cpu_s(bulk_node.pid)
    client_cpu = time.process_time()
    began = time.perf_counter()
    moved = 0
    with DataClient("127.0.0.1", bulk_node.data_port) as client:
        for _ in range(rounds):
            moved += client.fetch("bulk", bulk_file, dest, resume=False).size
    wall = time.perf_counter() - began
    client_cpu = time.process_time() - client_cpu
    server_cpu = measure.proc_cpu_s(bulk_node.pid) - server_cpu
    after = measure.fetch_stats("127.0.0.1", bulk_node.port)
    megabytes = moved / 1e6
    frames = (measure.counter(after, "transfer.frames_sent")
              - measure.counter(before, "transfer.frames_sent"))

    scheduler = BandwidthScheduler(rate=None)
    scheduler.register("a")
    scheduler.register("b")

    def grant_cycle() -> None:
        scheduler.mark_ready("a")
        scheduler.mark_ready("b")
        stream, budget = scheduler.grant(0.0)
        scheduler.charge(stream, budget, 0.0)
        stream, budget = scheduler.grant(0.0)
        scheduler.charge(stream, budget, 0.0)

    return {
        "data.connect_us": _median(connects) / 1e3,
        "data.fetch_small_ms": _median(small) / 1e6,
        "data.stream_mb_per_s": megabytes / wall,
        "data.client_cpu_ms_per_mb": client_cpu * 1e3 / megabytes,
        "data.server_cpu_ms_per_mb": server_cpu * 1e3 / megabytes,
        "data.frames_per_mb": frames / megabytes,
        "data.scheduler_grant_ns": per_call_ns(grant_cycle) / 2,
    }


# --------------------------------------------------------------------- #
def run(runner) -> dict:
    """Every layer; ``runner`` supplies the live daemons and the seed."""
    scan = workloads.ResimScan(
        spec.WORKLOADS[2], runner.env, runner.seed, float(spec.RUN_SECONDS))
    keys = scan.key_sequence(spec.BLOCKS + 1)
    values: dict = {}
    values.update(protocol_layer())
    values.update(shard_layer())
    values.update(cache_and_prefetch_layers(keys))
    values.update(launcher_and_sim_layers(runner.fixture_root, runner.box.root))
    values.update(cluster_layer(runner))
    values.update(data_layer(runner, runner.box.root))
    return values
