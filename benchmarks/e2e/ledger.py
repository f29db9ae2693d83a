"""Run modes behind ``run.py``: one driver run, the full ledger, compare."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import threading
import time

import daemon
import measure
import spec
import stats

_WORKLOADS = {w.name: w for w in spec.WORKLOADS}


def _workload(name: str) -> spec.Workload:
    try:
        return _WORKLOADS[name]
    except KeyError:
        sys.exit(f"run.py: unknown workload {name!r}; "
                 f"expected one of {', '.join(_WORKLOADS)}")


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #
def untraced_run(workload: spec.Workload, seed: int, seconds: float) -> dict:
    with daemon.Sandbox() as box:
        return measure.Runner(box, workload, seed, seconds).run()


def traced_run(workload: spec.Workload, seed: int, seconds: float) -> dict:
    import tracing
    with daemon.Sandbox() as box:
        return tracing.TracedRunner(box, workload, seed, seconds).run()


def print_metrics(title: str, table, values: dict, summaries: dict | None = None) -> None:
    print(f"\n== {title}")
    for metric in table:
        if metric.name not in values:
            continue
        line = f"{metric.name:34s} {values[metric.name]:>16.6g} {metric.unit}"
        if summaries and metric.name in summaries:
            s = summaries[metric.name]
            line += (f"   [q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
                     f"  spread {100 * stats.spread(s):.1f}%]")
        print(line)


def print_failures(record: dict) -> None:
    print(f"attempted {record['attempted']}  failed {record['failed']}"
          f"  truncated blocks {record.get('truncated_blocks', 0)}")
    for kind, count in sorted(record["failures"].items()):
        print(f"  failure x{count}: {kind}")
    for error in record["check_errors"]:
        print(f"  CHECK FAILED: {error}")


def driver_run(args) -> int:
    """``--workload W --seed N --seconds S --trace T``: the contract's run."""
    workload = _workload(args.workload)
    if args.trace:
        record = traced_run(workload, args.seed, args.seconds)
        table = spec.PER_LAYER
        values = {m.name: float(record["layers"].get(m.name, 0.0)) for m in table}
        print_metrics(f"{workload.name} per-layer (traced run)", table, values)
    else:
        record = untraced_run(workload, args.seed, args.seconds)
        table = spec.END_TO_END
        values = {m.name: record["summaries"][m.name]["median"] for m in table}
        print_metrics(f"{workload.name} end-to-end", table, values,
                      record["summaries"])
    print_failures(record)
    correct = not record["check_errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in table
        },
    }))
    return 0 if correct else 1


# --------------------------------------------------------------------- #
# The ledger: every workload, untraced then traced, one JSON record
# --------------------------------------------------------------------- #
def calibrate() -> dict:
    """What this box does without any repo code, so numbers from different
    boxes can be told apart from regressions."""
    began = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    loop_ms = (time.perf_counter() - began) * 1e3

    blob = bytes(64 << 20)
    began = time.perf_counter()
    hashlib.sha256(blob).digest()
    sha_mb_s = 64 * 1.048576 / (time.perf_counter() - began)

    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)

    def echo() -> None:
        conn, _ = server.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while data := conn.recv(64):
                conn.sendall(data)

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    rtts = []
    with socket.create_connection(server.getsockname()) as client:
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for _ in range(2000):
            began = time.perf_counter()
            client.sendall(b"x")
            client.recv(64)
            rtts.append(time.perf_counter() - began)
    thread.join(timeout=5.0)
    server.close()
    rtts.sort()
    return {
        "python_loop_ms": loop_ms,
        "sha256_mb_per_s": sha_mb_s,
        "loopback_rtt_us": rtts[len(rtts) // 2] * 1e6,
    }


def environment(seed: int, seconds: float) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=daemon.REPO_ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "traffic": "loopback (127.0.0.1), daemons in their own processes",
        "load_generator": {
            "threads": 2, "control_connections": 2, "window": 32,
            "loop": "closed",
        },
        "calibration": calibrate(),
    }


def full_run(args) -> int:
    """No ``--workload``: the whole ledger."""
    names = args.only or [w.name for w in spec.WORKLOADS]
    selected = [_workload(name) for name in names]
    record = {
        "benchmark": "benchmarks/e2e",
        "env": environment(args.seed, args.seconds),
        "end_to_end": {m.name: {"unit": m.unit, "better": m.better,
                                "bound": m.bound} for m in spec.END_TO_END},
        "ledger_only": {name: {"bound": bound, "workloads": list(where)}
                        for name, (bound, where) in spec.LEDGER_ONLY.items()},
        "workloads": {},
    }
    failed_checks = 0
    for workload in selected:
        entry: dict = {"why": workload.why,
                       "loadavg_before": os.getloadavg()[0]}
        if not args.layers_only:
            run = untraced_run(workload, args.seed, args.seconds)
            entry["run"] = run
            values = {m.name: run["summaries"][m.name]["median"]
                      for m in spec.END_TO_END}
            print_metrics(f"{workload.name} end-to-end", spec.END_TO_END,
                          values, run["summaries"])
            print_failures(run)
            failed_checks += len(run["check_errors"])
        traced = traced_run(workload, args.seed, args.seconds)
        entry["traced"] = traced
        print_metrics(f"{workload.name} per-layer (traced run)",
                      spec.PER_LAYER, traced["layers"])
        print_failures(traced)
        failed_checks += len(traced["check_errors"])
        entry["loadavg_after"] = os.getloadavg()[0]
        record["workloads"][workload.name] = entry
    out = args.out or os.path.join(daemon.OUT_DIR, "ledger.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {out}")
    return 1 if failed_checks else 0


# --------------------------------------------------------------------- #
# Compare two ledgers
# --------------------------------------------------------------------- #
def compare_records(base: dict, new: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) both records hold."""
    rows = []
    tables = [(m.name, m.better, m.bound, None) for m in spec.END_TO_END]
    by_name = {m.name: m for m in spec.PER_LAYER}
    tables += [
        (name, by_name[name].better, bound, where)
        for name, (bound, where) in spec.LEDGER_ONLY.items()
    ]
    for workload in spec.WORKLOADS:
        a = base["workloads"].get(workload.name, {}).get("run")
        b = new["workloads"].get(workload.name, {}).get("run")
        if not a or not b:
            continue
        for name, better, bound, where in tables:
            if where is not None and workload.name not in where:
                continue
            if name not in a["summaries"] or name not in b["summaries"]:
                continue
            row = stats.compare_metric(
                a["summaries"][name], b["summaries"][name], better, bound)
            if name == "failed_share":
                # Zero on a healthy run: any failure on the new side that
                # the base did not have is a regression.
                row["verdict"] = (
                    "regressed" if row["new"] > row["base"] else "unchanged")
            row.update(workload=workload.name, metric=name,
                       base_q=(a["summaries"][name]["q1"], a["summaries"][name]["q3"]),
                       new_q=(b["summaries"][name]["q1"], b["summaries"][name]["q3"]))
            rows.append(row)
    return rows


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        new = json.load(fh)
    rows = compare_records(base, new)
    print(f"base {path_a}\nnew  {path_b}\n")
    def cell(median: float, quartiles: tuple[float, float]) -> str:
        return f"{median:.5g} [{quartiles[0]:.5g}, {quartiles[1]:.5g}]"

    print(f"{'workload':13s} {'metric':25s} {'base median [q1, q3]':32s} "
          f"{'new median [q1, q3]':32s} {'new/base':>8s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:13s} {row['metric']:25s} "
              f"{cell(row['base'], row['base_q']):32s} "
              f"{cell(row['new'], row['new_q']):32s} "
              f"{row['ratio']:8.3f} {100 * row['bound']:5.0f}%  {row['verdict']}")
    print("\nper-layer metrics (no verdicts)")
    for workload in spec.WORKLOADS:
        a = base["workloads"].get(workload.name, {}).get("traced")
        b = new["workloads"].get(workload.name, {}).get("traced")
        if not a or not b:
            continue
        for metric in spec.PER_LAYER:
            va, vb = a["layers"].get(metric.name), b["layers"].get(metric.name)
            if va is None or vb is None or (va == 0 and vb == 0):
                continue
            ratio = f"{vb / va:9.3f}" if va else "      n/a"
            print(f"{workload.name:13s} {metric.name:34s} {va:>14.6g} "
                  f"{vb:>14.6g} {ratio} {metric.unit}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0
