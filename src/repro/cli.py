"""``simfs-ctl``: command-line utilities for SimFS contexts.

Subcommands
-----------
``record-checksums``
    Walk a context output directory and write the reference-checksum map
    backing ``SIMFS_Bitrep`` (paper Sec. III-C2: "a map from filenames to
    checksums that can be updated through a command line utility at the
    time when the first simulation is run").
``initial-run``
    Run the initial simulation of a built-in simulator (synthetic / cosmo /
    flash), producing restart files and the full output.
``replay``
    Replay a generated trace through a replacement policy and print the
    Fig. 5 counters.
``dv-stats``
    Query a running DV daemon's ``stats`` op and print the metrics-plane
    snapshot (same payload as ``simfs-dv --stats``).
``cluster-status``
    Query a cluster node's ``cluster`` op and print its ring/membership
    view (owner per context, peer liveness, epoch) plus the cluster-plane
    metrics (forwarding, gossip, failovers).
``ha-status``
    Query a cluster node's ``ha`` op and print the replication view
    (factor, per-context replica sets with sync state and lag, healing
    queue depth, last promotion) plus the ``repl.*`` metrics.
``migrate``
    Ask a cluster node to live-migrate a context to a destination node
    (forwarded to the current owner automatically) and print the result
    (waiters moved, freeze window, pin version).
``rebalance-status``
    Query a cluster node's ``rebalance`` op and print its placement pins,
    in-flight/incoming migrations and per-context load (waiters, running
    re-simulations, queued jobs), plus the ``migrate.*`` metrics.
``trace``
    Reconstruct one distributed trace by id: any node merges its own
    spans with every reachable peer's and the CLI prints the timeline
    plus a critical-path breakdown.  Unreachable
    peers produce a warning and a partial trace, never a failure.
``trace-slow``
    Print the cluster's slowest retained spans (tail-sampled, so slow
    requests appear even when head sampling skipped them) next to the
    merged migration/promotion decision journal.
``metrics-export``
    Pull the Prometheus text exposition — the queried node's own series,
    or every reachable node's concatenated under ``# node <id>``
    separators.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.steps import StepGeometry
from repro.util.checksums import file_checksum


def _cmd_record_checksums(args: argparse.Namespace) -> int:
    checksums = {}
    for fname in sorted(os.listdir(args.output_dir)):
        if fname.endswith(".sdf"):
            checksums[fname] = file_checksum(os.path.join(args.output_dir, fname))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(checksums, fh, indent=1, sort_keys=True)
    print(f"recorded {len(checksums)} checksums to {args.out}")
    return 0


def _cmd_initial_run(args: argparse.Namespace) -> int:
    from repro.simulators import driver_class

    geometry = StepGeometry(args.delta_d, args.delta_r, args.num_timesteps)
    driver = driver_class(args.simulator)(geometry, prefix=args.prefix)
    os.makedirs(args.output_dir, exist_ok=True)
    os.makedirs(args.restart_dir, exist_ok=True)
    num_restarts = max(1, args.num_timesteps // args.delta_r)
    produced = driver.execute(
        driver.make_job(args.prefix, 0, num_restarts, write_restarts=True),
        args.output_dir,
        args.restart_dir,
    )
    print(f"produced {len(produced)} output steps and "
          f"{num_restarts} restart files")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.traces import (
        TraceSpec,
        concatenated_trace,
        ecmwf_like_trace,
        replay_trace,
    )

    geometry = StepGeometry(args.delta_d, args.delta_r, args.num_timesteps)
    if args.pattern == "ecmwf":
        trace = ecmwf_like_trace(
            geometry.num_output_steps, seed=args.seed, num_accesses=args.accesses
        )
    else:
        spec = TraceSpec(num_output_steps=geometry.num_output_steps)
        trace = concatenated_trace(args.pattern, spec, seed=args.seed)
    result = replay_trace(trace, geometry, args.policy, cache_fraction=args.cache)
    print(json.dumps({
        "pattern": args.pattern,
        "policy": args.policy,
        "accesses": result.accesses,
        "hits": result.hits,
        "restarts": result.restarts,
        "simulated_outputs": result.simulated_outputs,
        "evictions": result.evictions,
    }, indent=1))
    return 0


def _connect_errors():
    from repro.core.errors import SimFSError

    return (SimFSError, OSError)


def _metric_lines(metrics: dict) -> list[str]:
    lines = []
    for name in sorted(metrics):
        series = metrics[name]
        if not isinstance(series, dict):
            continue
        if series.get("type") == "histogram":
            lines.append(
                f"  {name}: count={series.get('count', 0)}"
                f" p50={series.get('p50')} p99={series.get('p99')}"
            )
        else:
            lines.append(f"  {name} = {series.get('value')}")
    return lines


def _cmd_dv_stats(args: argparse.Namespace) -> int:
    from repro.client.dvlib import fetch_stats

    try:
        stats = fetch_stats(args.host, args.port)
    except _connect_errors() as exc:
        # DVConnectionLost already names the endpoint; don't repeat it.
        detail = str(exc) if "cannot reach" in str(exc) else (
            f"cannot reach DV at {args.host}:{args.port}: {exc}")
        print(f"simfs-ctl: {detail}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0
    server = stats.get("server") or {}
    print(f"DV at {args.host}:{args.port}"
          f" mode={server.get('mode', '?')}"
          f" clients={server.get('connected_clients', '?')}")
    for entry in stats.get("contexts") or []:
        fields = ", ".join(
            f"{k}={v}" for k, v in sorted(entry.items()) if k != "context"
        )
        print(f" context {entry.get('context')}: {fields}")
    print(" metrics:")
    for line in _metric_lines(stats.get("metrics") or {}):
        print(line)
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from repro.client.dvlib import TcpConnection

    try:
        with TcpConnection(args.host, args.port, {}, {}) as conn:
            reply = conn.call({"op": "cluster"})
    except _connect_errors() as exc:
        detail = str(exc) if "cannot reach" in str(exc) else (
            f"cannot reach node at {args.host}:{args.port}: {exc}")
        print(f"simfs-ctl: {detail}", file=sys.stderr)
        return 1
    payload = {k: v for k, v in reply.items() if k not in ("op", "req", "error")}
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    view = payload.get("cluster") or {}
    print(f"node {view.get('self')} epoch={view.get('epoch')}"
          f" generation={view.get('generation')}")
    for peer in view.get("nodes") or []:
        state = "alive" if peer.get("alive") else "dead"
        data = peer.get("data") or 0
        extra = f" data_port={data}" if data else ""
        print(f" peer {peer.get('id')} {peer.get('host')}:{peer.get('port')}"
              f" {state}{extra}")
    for name, owner in sorted((view.get("contexts") or {}).items()):
        print(f" context {name} -> {owner}")
    print(" metrics:")
    for line in _metric_lines(payload.get("metrics") or {}):
        print(line)
    return 0


def _cmd_ha_status(args: argparse.Namespace) -> int:
    from repro.client.dvlib import TcpConnection

    try:
        with TcpConnection(args.host, args.port, {}, {}) as conn:
            reply = conn.call({"op": "ha"})
    except _connect_errors() as exc:
        detail = str(exc) if "cannot reach" in str(exc) else (
            f"cannot reach node at {args.host}:{args.port}: {exc}")
        print(f"simfs-ctl: {detail}", file=sys.stderr)
        return 1
    payload = {k: v for k, v in reply.items() if k not in ("op", "req", "error")}
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    view = payload.get("ha") or {}
    print(f"node {view.get('self')} replication_factor={view.get('factor')}"
          f" healing_queue={view.get('healing_queue')}")
    for name, entry in sorted((view.get("contexts") or {}).items()):
        replicas = ", ".join(
            f"{r.get('node')}"
            f"[{'synced' if r.get('synced') else 'catching-up'}"
            f" seq={r.get('seq')} lag={r.get('lag_seconds')}s]"
            for r in entry.get("replicas") or []
        ) or "none"
        role = entry.get("role") or "bystander"
        print(f" context {name} owner={entry.get('owner')}"
              f" role={role} replicas: {replicas}")
    for name, entry in sorted((view.get("replica_of") or {}).items()):
        print(f" replica-of {name} src={entry.get('src')}"
              f" seq={entry.get('seq')} age={entry.get('age_seconds')}s"
              f" waiters={entry.get('waiters')}")
    promo = view.get("last_promotion")
    if promo:
        print(f" last promotion: {promo.get('context')}"
              f" restored_waiters={promo.get('restored_waiters')}"
              f" resumed_sims={promo.get('resumed_sims')}")
    print(" metrics:")
    for line in _metric_lines(payload.get("metrics") or {}):
        print(line)
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.client.dvlib import TcpConnection
    from repro.core.errors import ConnectionLostError, SimFSError

    try:
        with TcpConnection(args.host, args.port, {}, {}) as conn:
            reply = conn.call({
                "op": "migrate", "context": args.context, "dest": args.dest,
            })
    except (ConnectionLostError, OSError) as exc:
        detail = str(exc) if "cannot reach" in str(exc) else (
            f"cannot reach node at {args.host}:{args.port}: {exc}")
        print(f"simfs-ctl: {detail}", file=sys.stderr)
        return 1
    except SimFSError as exc:
        print(f"simfs-ctl: migrate failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        k: v for k, v in reply.items() if k not in ("op", "req", "error")
    }
    result = payload.get("migrate") or {}
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    if result.get("noop"):
        print(f"context {result.get('context')} already on"
              f" {result.get('to')}")
        return 0
    print(f"migrated {result.get('context')}"
          f" {result.get('from')} -> {result.get('to')}"
          f" (pin v{result.get('pin_version')})")
    print(f" waiters moved: {result.get('moved_waiters')}"
          f"  clients moved: {result.get('moved_clients')}"
          f"  sims resumed: {result.get('resumed_sims')}")
    print(f" freeze: {result.get('freeze_seconds')}s"
          f"  total: {result.get('total_seconds')}s"
          f"  pre-copy frames: {result.get('precopy_frames')}")
    return 0


def _cmd_rebalance_status(args: argparse.Namespace) -> int:
    from repro.client.dvlib import TcpConnection

    try:
        with TcpConnection(args.host, args.port, {}, {}) as conn:
            reply = conn.call({"op": "rebalance"})
    except _connect_errors() as exc:
        detail = str(exc) if "cannot reach" in str(exc) else (
            f"cannot reach node at {args.host}:{args.port}: {exc}")
        print(f"simfs-ctl: {detail}", file=sys.stderr)
        return 1
    payload = {k: v for k, v in reply.items() if k not in ("op", "req", "error")}
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    view = payload.get("rebalance") or {}
    print(f"node {view.get('self')} epoch={view.get('epoch')}")
    pins = view.get("pins") or {}
    for name, target in sorted(pins.items()):
        print(f" pin {name} -> {target}")
    if not pins:
        print(" pins: none (pure hash placement)")
    migration = view.get("migration") or {}
    for name in migration.get("migrating") or []:
        print(f" migrating out: {name}")
    for name, entry in sorted((migration.get("incoming") or {}).items()):
        print(f" incoming {name} src={entry.get('src')}"
              f" seq={entry.get('seq')} waiters={entry.get('waiters')}")
    last = migration.get("last_outgoing")
    if last:
        print(f" last outgoing: {last.get('context')} -> {last.get('to')}"
              f" waiters={last.get('moved_waiters')}"
              f" freeze={last.get('freeze_seconds')}s")
    last = migration.get("last_incoming")
    if last:
        print(f" last incoming: {last.get('context')} <- {last.get('from')}"
              f" restored_waiters={last.get('restored_waiters')}"
              f"{' (partial)' if last.get('partial') else ''}")
    for name, depth in sorted((view.get("load") or {}).items()):
        print(f" load {name}: waiters={depth.get('waiters')}"
              f" sims={depth.get('sims')} queued={depth.get('queued')}")
    print(" metrics:")
    for line in _metric_lines(payload.get("metrics") or {}):
        print(line)
    return 0


def _warn_partial(view: dict) -> None:
    """Satellite contract: a fan-out that missed peers still prints what
    it collected — the gaps are named on stderr, the exit stays 0."""
    unreachable = view.get("unreachable") or []
    if unreachable:
        print(
            "simfs-ctl: warning: partial view, unreachable: "
            + ", ".join(str(peer) for peer in unreachable),
            file=sys.stderr,
        )


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of [start, end) intervals."""
    total = 0.0
    edge: float | None = None
    for start, end in sorted(intervals):
        if edge is None or start > edge:
            total += max(0.0, end - start)
            edge = end
        elif end > edge:
            total += end - edge
            edge = end
    return total


def _span_line(span: dict, t0: float) -> str:
    attrs = span.get("attrs") or {}
    extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return (
        f" +{span.get('start', 0.0) - t0:10.6f}s"
        f" {span.get('duration', 0.0):10.6f}s"
        f"  {span.get('name')} @{span.get('node')}"
        + (f"  {extra}" if extra else "")
    )


def _render_trace(view: dict) -> None:
    spans = view.get("spans") or []
    trace_id = view.get("trace_id")
    if not spans:
        print(f"trace {trace_id}: no spans retained "
              "(unsampled, or already rotated out of the span rings)")
        return
    t0 = min(s.get("start", 0.0) for s in spans)
    t1 = max(s.get("end", 0.0) for s in spans)
    wall = max(t1 - t0, 1e-9)
    nodes = ",".join(view.get("nodes") or [])
    print(f"trace {trace_id}: {len(spans)} spans"
          f" nodes=[{nodes}] wall={wall:.6f}s")
    for span in spans:
        print(_span_line(span, t0))
    # Critical-path breakdown: per span name, the wall-clock share its
    # interval union covers (overlapping same-name spans don't double
    # count — queue wait vs. sim wait vs. transfer stay comparable).
    by_name: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        by_name.setdefault(str(span.get("name")), []).append(
            (span.get("start", 0.0), span.get("end", 0.0))
        )
    print(" critical path:")
    shares = sorted(
        ((_union_seconds(ivals), name) for name, ivals in by_name.items()),
        reverse=True,
    )
    for covered, name in shares:
        print(f"  {name}: {covered:.6f}s ({100.0 * covered / wall:.1f}%)")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.client.dvlib import TcpConnection

    try:
        with TcpConnection(args.host, args.port, {}, {}) as conn:
            reply = conn.call({"op": "trace", "trace_id": args.trace_id})
    except _connect_errors() as exc:
        detail = str(exc) if "cannot reach" in str(exc) else (
            f"cannot reach node at {args.host}:{args.port}: {exc}")
        print(f"simfs-ctl: {detail}", file=sys.stderr)
        return 1
    payload = {k: v for k, v in reply.items() if k not in ("op", "req", "error")}
    view = payload.get("trace") or {}
    _warn_partial(view)
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    _render_trace(view)
    return 0


def _cmd_trace_slow(args: argparse.Namespace) -> int:
    from repro.client.dvlib import TcpConnection

    try:
        with TcpConnection(args.host, args.port, {}, {}) as conn:
            reply = conn.call({"op": "trace_slow", "limit": args.limit})
    except _connect_errors() as exc:
        detail = str(exc) if "cannot reach" in str(exc) else (
            f"cannot reach node at {args.host}:{args.port}: {exc}")
        print(f"simfs-ctl: {detail}", file=sys.stderr)
        return 1
    payload = {k: v for k, v in reply.items() if k not in ("op", "req", "error")}
    view = payload.get("slow") or {}
    _warn_partial(view)
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    spans = view.get("spans") or []
    nodes = ",".join(view.get("nodes") or [])
    print(f"slowest {len(spans)} spans nodes=[{nodes}]")
    for span in spans:
        attrs = span.get("attrs") or {}
        extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        print(f" {span.get('duration', 0.0):10.6f}s"
              f"  {span.get('name')} @{span.get('node')}"
              f"  trace={span.get('trace_id')}"
              + (f"  {extra}" if extra else ""))
    journal = view.get("journal") or []
    if journal:
        print(" decision journal:")
        for entry in journal:
            fields = ", ".join(
                f"{k}={v}" for k, v in sorted(entry.items())
                if k not in ("ts", "kind", "node")
            )
            print(f"  [{entry.get('ts')}] {entry.get('kind')}"
                  f" @{entry.get('node')}" + (f": {fields}" if fields else ""))
    return 0


def _cmd_metrics_export(args: argparse.Namespace) -> int:
    from repro.client.dvlib import TcpConnection

    message: dict = {"op": "metrics_text"}
    if args.local:
        message["fanout"] = 0
    try:
        with TcpConnection(args.host, args.port, {}, {}) as conn:
            reply = conn.call(message)
    except _connect_errors() as exc:
        detail = str(exc) if "cannot reach" in str(exc) else (
            f"cannot reach node at {args.host}:{args.port}: {exc}")
        print(f"simfs-ctl: {detail}", file=sys.stderr)
        return 1
    _warn_partial(reply)
    text = reply.get("text") or ""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(text)} bytes to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    # The name table only: no simulator module loads until initial-run.
    from repro.simulators import DRIVERS

    parser = argparse.ArgumentParser(prog="simfs-ctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record-checksums",
                       help="record reference checksums for SIMFS_Bitrep")
    p.add_argument("output_dir")
    p.add_argument("--out", default="checksums.json")
    p.set_defaults(func=_cmd_record_checksums)

    p = sub.add_parser("initial-run", help="run an initial simulation")
    p.add_argument("--simulator", choices=sorted(DRIVERS), default="synthetic")
    p.add_argument("--prefix", default="sim")
    p.add_argument("--delta-d", type=int, dest="delta_d", default=2)
    p.add_argument("--delta-r", type=int, dest="delta_r", default=8)
    p.add_argument("--num-timesteps", type=int, dest="num_timesteps", default=64)
    p.add_argument("--output-dir", dest="output_dir", default="out")
    p.add_argument("--restart-dir", dest="restart_dir", default="restart")
    p.set_defaults(func=_cmd_initial_run)

    p = sub.add_parser("replay", help="replay a trace through the cache model")
    p.add_argument("--pattern",
                   choices=["forward", "backward", "random", "ecmwf"],
                   default="ecmwf")
    p.add_argument("--policy", default="dcl")
    p.add_argument("--cache", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--accesses", type=int, default=20_000)
    p.add_argument("--delta-d", type=int, dest="delta_d", default=5)
    p.add_argument("--delta-r", type=int, dest="delta_r", default=240)
    p.add_argument("--num-timesteps", type=int, dest="num_timesteps",
                   default=4 * 24 * 60)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "dv-stats",
        help="print a running DV daemon's stats: its per-context "
             "summaries and metric series (a cluster node reports its "
             "own; metrics-export collects every node's)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--json", action="store_true",
                   help="emit the raw stats payload as JSON")
    p.set_defaults(func=_cmd_dv_stats)

    p = sub.add_parser("cluster-status",
                       help="print a cluster node's ring/membership view")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--json", action="store_true",
                   help="emit the raw cluster payload as JSON")
    p.set_defaults(func=_cmd_cluster_status)

    p = sub.add_parser("ha-status",
                       help="print a cluster node's replication/HA view")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--json", action="store_true",
                   help="emit the raw HA payload as JSON")
    p.set_defaults(func=_cmd_ha_status)

    p = sub.add_parser("migrate",
                       help="live-migrate a context to another node")
    p.add_argument("context", help="context name to move")
    p.add_argument("dest", help="destination node id")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--json", action="store_true",
                   help="emit the raw migrate payload as JSON")
    p.set_defaults(func=_cmd_migrate)

    p = sub.add_parser("rebalance-status",
                       help="print a cluster node's pins, migrations and load")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--json", action="store_true",
                   help="emit the raw rebalance payload as JSON")
    p.set_defaults(func=_cmd_rebalance_status)

    p = sub.add_parser(
        "trace",
        help="reconstruct one distributed trace (spans merged from every "
             "reachable node) and print its critical-path breakdown",
    )
    p.add_argument("trace_id", help="16-hex-digit trace id (e.g. from a "
                                    "client's last_trace_id or an exemplar)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--json", action="store_true",
                   help="emit the raw trace payload as JSON")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "trace-slow",
        help="print the slowest retained spans (tail-sampled) and the "
             "decision journal across every reachable node",
    )
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--json", action="store_true",
                   help="emit the raw slow-span payload as JSON")
    p.set_defaults(func=_cmd_trace_slow)

    p = sub.add_parser(
        "metrics-export",
        help="pull the Prometheus text exposition (cluster-merged under "
             "# node <id> separators unless --local)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--local", action="store_true",
                   help="only the queried node's own series")
    p.add_argument("--out", default=None,
                   help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_metrics_export)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
