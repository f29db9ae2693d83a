"""The benchmark's fixed tables: contexts, workloads, metrics and bounds.

Everything a later PR compares against lives here, so a change to the
benchmark's definition is a change to this file (and is its own PR, see
README.md).  ``BENCHMARK.json`` at the repo root is generated from these
tables by ``run.py --write-manifest``; ``test_e2e_stats.py`` checks the
two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BLOCKS",
    "CONTEXTS",
    "END_TO_END",
    "LEDGER_ONLY",
    "PER_LAYER",
    "RUN_SECONDS",
    "SETUP_REPEATS",
    "WORKLOADS",
    "Metric",
    "Workload",
    "manifest",
]

#: Timed blocks per run (the issue's floor is 5) and set-ups per run.
BLOCKS = 6
SETUP_REPEATS = 3
#: What ``BENCHMARK.json`` tells the driver to pass as ``--seconds``.  The
#: driver makes 4 + 22 x 4 runs inside 3420 s, so one run (fixtures, three
#: set-ups, warm-up block, six timed blocks, checks) must stay near 25 s.
RUN_SECONDS = 12

#: The three contexts every daemon registers (identical topology for all
#: workloads).  ``steps`` output steps with one output per timestep;
#: ``interval`` outputs per restart interval; ``cells`` float64 values per
#: output file; ``capacity_steps`` bounds the storage area (None: all
#: resident); the delays pace the launcher.
CONTEXTS = {
    "hot": {
        "steps": 256, "interval": 8, "cells": 64,
        "capacity_steps": None, "resident": True,
        "alpha_delay": 0.0, "tau_delay": 0.0,
    },
    "scan": {
        "steps": 1024, "interval": 8, "cells": 4096,
        "capacity_steps": 128, "resident": False, "policy": "lru",
        "smax": 4, "ema_smoothing": 0.2,
        "alpha_delay": 0.02, "tau_delay": 0.012,
    },
    "bulk": {
        "steps": 28, "interval": 28, "cells": 524288,
        "capacity_steps": None, "resident": True,
        "alpha_delay": 0.0, "tau_delay": 0.0,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    context: str
    #: True: both clients enter through the node that does NOT own the
    #: context, so every op crosses the cluster forwarding hop.
    via_gateway: bool
    #: Ops per second this workload reached on the reference box; with
    #: ``--seconds`` it sizes the fixed work of one block (resim_scan's
    #: block is sized by its segment lengths, which add up to this).
    nominal_ops_per_s: float
    #: True: both daemons and the load generator are pinned to one core,
    #: so the run is CPU-bound and repeats; on the 2-vCPU reference box
    #: cross-core wake-ups otherwise cost more than the work and make
    #: block rates bimodal.  False: all three float - bulk_fetch's client
    #: alone needs more than one core.
    pin: bool
    why: str


WORKLOADS = (
    Workload(
        "hot_open", "hot", False, 66000.0, True,
        "pipelined open/release hits at the owner: only dv.protocol, "
        "dv.server and the shard/cache hit path work - the control-plane "
        "ceiling",
    ),
    Workload(
        "gateway_open", "hot", True, 4400.0, True,
        "byte-identical traffic entering through the non-owner: the only "
        "difference from hot_open is the cluster fwd/fwd_reply hop, so the "
        "ratio of the two is the hop cost",
    ),
    Workload(
        "resim_scan", "scan", True, 116.0, True,
        "the paper's request path: misses re-simulate under a storage "
        "area of 12.5% of the timeline, with prefetch, eviction, ready "
        "fan-out, small fetches and forwarding all on the blocking path",
    ),
    Workload(
        "bulk_fetch", "bulk", False, 85.0, False,
        "4 MiB resident files pulled at the owner: the data plane and "
        "client-side verification work, control plane and cluster almost "
        "none - a data-plane gain shows here and not on hot_open",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "higher" | "lower"
    bound: float | None  # share of the parent's median it may worsen by
    meaning: str = ""


#: Gated metrics, reported by every workload (the driver requires each
#: end-to-end metric on each workload, and never 0).  An *op* is one
#: answered request frame on hot_open/gateway_open and one fully served
#: output step on resim_scan/bulk_fetch.  A bound is about three times
#: the widest spread (inter-quartile distance / median over ten runs with
#: ten seeds) any workload showed on the shared 2-vCPU reference box,
#: capped at the driver's 0.25: CPU-bound rates and CPU per op moved
#: 4-13 % there (18 % in a batch that caught a slow episode of the host),
#: re-simulation volume 3-5 %, memory 0.4 %, set-up 2-9 %.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "spawn of both daemons -> accepting, ring converged, clients "
           "attached; median of three set-ups, fixtures excluded"),
    Metric("open_msgs_per_s", "1/s", "higher", 0.25,
           "control-plane replies the clients received per second"),
    Metric("steps_per_s", "1/s", "higher", 0.25,
           "open -> (ready) -> (fetch -> verify) -> release cycles "
           "completed per second: the analysis completion rate"),
    Metric("daemon_cpu_us_per_op", "us", "lower", 0.25,
           "utime+stime of both daemon pids from /proc, per op: what a "
           "served op costs the operator"),
    Metric("client_cpu_us_per_op", "us", "lower", 0.25,
           "benchmark-process CPU per op: DVLib + DataClient + sha256 "
           "(the raw load generator on the two open workloads)"),
    Metric("sim_amplification", "ratio", "lower", 0.15,
           "1 + re-simulated outputs per access: the paper's "
           "re-simulation volume V, shifted so it is never 0"),
    Metric("daemon_rss_mb", "MB", "lower", 0.05,
           "sum of VmHWM of both daemon pids at the end of the timed part"),
)

#: The issue's end-to-end metrics that only some workloads define (or that
#: are 0 on a healthy run).  The driver cannot gate them, so they travel
#: with the per-layer metrics; ``run.py --compare`` still applies these
#: bounds on the workloads named here.
LEDGER_ONLY = {
    "fetch_mb_per_s": (0.25, ("resim_scan", "bulk_fetch")),
    "resim_outputs_per_access": (0.25, ("resim_scan",)),
    "restarts_per_kaccess": (0.25, ("resim_scan",)),
    "failed_share": (0.0, ("hot_open", "gateway_open", "resim_scan",
                           "bulk_fetch")),
}


def _layer(prefix: str, rows: str) -> tuple[Metric, ...]:
    out = []
    for row in rows.split():
        name, unit, better = row.split(":")
        out.append(Metric(f"{prefix}{name}", unit, better, None))
    return tuple(out)


#: Ungated diagnostics from the traced run and the ``layers`` stage.  A
#: metric that does not apply to the workload of a run reads 0 there.
PER_LAYER = (
    Metric("fetch_mb_per_s", "MB/s", "higher", None),
    Metric("resim_outputs_per_access", "ratio", "lower", None),
    Metric("restarts_per_kaccess", "1/1000", "lower", None),
    Metric("failed_share", "ratio", "lower", None),
) + _layer("client.", (
    "open_hit_us:us:lower release_us:us:lower acquire4_us:us:lower "
    "ready_wait_p50_ms:ms:lower ready_wait_p90_ms:ms:lower "
    "blocked_share:ratio:lower fetch_info_us:us:lower "
    "open_p50_us:us:lower open_p99_us:us:lower gen_late_max_ms:ms:lower"
)) + _layer("protocol.", (
    "encode_open_ns:ns:lower decode_open_ns:ns:lower "
    "encode_reply_ns:ns:lower decode_reply_ns:ns:lower "
    "ready_roundtrip_ns:ns:lower fwd_wrap_roundtrip_ns:ns:lower "
    "json_fallback_roundtrip_ns:ns:lower open_frame_bytes:B:lower"
)) + _layer("server.", (
    "owner_cpu_us_per_op:us:lower ingress_cpu_us_per_op:us:lower "
    "frames_per_op:count:lower bytes_per_op:B:lower "
    "ctx_switches_per_op:count:lower op_open_p50_us:us:lower "
    "op_open_p99_us:us:lower stats_op_ms:ms:lower"
)) + _layer("shard.", (
    "open_hit_ns:ns:lower release_ns:ns:lower open_miss_ns:ns:lower "
    "file_closed_ns:ns:lower acquire4_ns:ns:lower hit_ratio:ratio:higher "
    "sims_killed_share:ratio:lower notifications_per_miss:ratio:lower"
)) + _layer("cache.", (
    "access_ns:ns:lower insert_evict_ns:ns:lower "
    "replay_hit_ratio:ratio:higher evictions:count:lower"
)) + _layer("prefetch.", (
    "on_access_ns:ns:lower launches_per_kaccess:1/1000:lower "
    "miss_share:ratio:lower"
)) + _layer("launcher.", (
    "launch_to_first_output_ms:ms:lower output_interval_ms:ms:lower"
)) + _layer("sim.", (
    "exec_ms_per_output:ms:lower file_bytes:B:lower"
)) + _layer("cluster.", (
    "hop_throughput_ratio:ratio:lower hop_cpu_ratio:ratio:lower "
    "fwd_per_op:count:lower ready_routed_per_miss:ratio:lower "
    "link_call_p50_us:us:lower ring_owner_ns:ns:lower"
)) + _layer("data.", (
    "connect_us:us:lower fetch_small_ms:ms:lower "
    "stream_mb_per_s:MB/s:higher client_cpu_ms_per_mb:ms:lower "
    "server_cpu_ms_per_mb:ms:lower frames_per_mb:count:lower "
    "scheduler_grant_ns:ns:lower"
)) + _layer("obs.", (
    "trace_overhead_pct:%:lower spans_per_request:count:higher "
    "coverage_share:ratio:higher"
)) + _layer("trace.", (
    "client_self_ms:ms:lower op_open_self_us:us:lower "
    "fwd_self_us:us:lower op_fwd_self_us:us:lower sim_wait_ms:ms:lower "
    "sim_exec_ms:ms:lower data_fetch_ms:ms:lower "
    "unattributed_share:ratio:lower"
))


def manifest() -> dict:
    """The exact document ``BENCHMARK.json`` holds."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
