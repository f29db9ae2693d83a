"""The DV daemon's entry point: ``python -m repro.dv.daemon --config
dv.json`` runs a daemon (or a cluster node) from a JSON configuration
file, ``python -m repro.dv.daemon --stats --port PORT`` prints a running
daemon's stats snapshot.  The process runs until SIGINT and exits 0."""

from __future__ import annotations

import argparse
import json
import sys
import threading

from repro.core.context import SimulationContext
from repro.dv.server import DVServer

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Run a DV daemon from a JSON configuration file, or query a running
    daemon with ``--stats``.

    Config schema::

        {"host": "127.0.0.1", "port": 7878,
         "contexts": [
           {"name": "cosmo", "simulator": "cosmo",
            "delta_d": 5, "delta_r": 60, "num_timesteps": 5760,
            "output_dir": "...", "restart_dir": "...",
            "max_storage_bytes": 100000000, "policy": "dcl", "smax": 8,
            "alpha_delay": 0.0, "tau_delay": 0.0}]}

    ``alpha_delay``/``tau_delay`` (seconds) pace re-simulations on the
    performance model's schedule, counted from the launch: output *i* of
    a re-simulation is produced and announced ``alpha_delay + i *
    tau_delay`` after it was launched — so a demo or failover drill has a
    real window in which clients block.  Pacing holds no thread: the
    productions are timers on the node's event loop.

    Multi-daemon quickstart — run the same config (same context catalog,
    dirs on the shared PFS) on every node and name the peers::

        simfs-dv --config dv.json --node-id n1 \\
                 --peers n2@hostB:7878,n3@hostC:7878

    ``node_id``/``peers`` (plus ``vnodes``, ``heartbeat_interval``,
    ``suspect_after``, ``generation``, ``replication_factor``,
    ``repl_interval``, ``anti_entropy_interval``) may also live in the
    config file.  Each node activates only the contexts the
    consistent-hash ring assigns to it and forwards ops for the rest to
    their owners; clients may connect to any node.  With
    ``--replication-factor N`` every context is streamed to its N-1 ring
    successors for hot failover.  Inspect the ring with
    ``simfs-ctl cluster-status`` and the replication state with
    ``simfs-ctl ha-status``.
    """
    from repro.core.context import ContextConfig
    from repro.core.perfmodel import PerformanceModel

    parser = argparse.ArgumentParser(prog="simfs-dv", description=main.__doc__)
    parser.add_argument("--config", help="JSON config path (daemon mode)")
    parser.add_argument(
        "--stats", action="store_true",
        help="print the stats snapshot of a running daemon and exit",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon host for --stats (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7878,
                        help="daemon port for --stats (default 7878)")
    parser.add_argument(
        "--node-id",
        help="run as a cluster node with this id (see also --peers)",
    )
    parser.add_argument(
        "--peers",
        help="comma-separated peer daemons as [id@]host:port; implies "
             "cluster mode (the config file may also set node_id/peers)",
    )
    parser.add_argument(
        "--replication-factor", type=int, default=None, dest="replication_factor",
        help="replicate each context to its N-1 ring successors for hot "
             "failover (cluster mode only; the config file may also set "
             "\"replication_factor\")",
    )
    args = parser.parse_args(argv)

    if args.stats:
        from repro.client.dvlib import fetch_stats

        print(json.dumps(fetch_stats(args.host, args.port), indent=1, sort_keys=True))
        return 0
    if not args.config:
        parser.error("--config is required unless --stats is given")

    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if config.get("mode", "selector") != "selector":
        parser.error(
            f"config \"mode\": {config['mode']!r} is not supported "
            "(the selector front end is the only one)"
        )
    if config.get("workers", 1) not in (1, None):
        parser.error(
            f"config \"workers\": {config['workers']!r} is not supported "
            "(the multi-core engine is retired: run one cluster node per "
            "core instead)"
        )
    from repro.simulators import DRIVERS, driver_class

    for spec in config.get("contexts", []):
        if spec.get("simulator", "synthetic") not in DRIVERS:
            parser.error(
                f"context {spec.get('name')!r}: unknown \"simulator\" "
                f"{spec['simulator']!r} (choose from {', '.join(sorted(DRIVERS))})"
            )

    node_id = args.node_id or config.get("node_id")
    peer_arg = args.peers or config.get("peers")
    peers: list[str] = []
    if isinstance(peer_arg, str):
        peers = [p.strip() for p in peer_arg.split(",") if p.strip()]
    elif isinstance(peer_arg, list):
        peers = [str(p) for p in peer_arg]
    node = None
    if node_id or peers:
        from repro.cluster import ClusterNode

        node = ClusterNode(
            node_id or f"dv-{config.get('port', 7878)}",
            config.get("host", "127.0.0.1"),
            config.get("port", 7878),
            peers=peers,
            vnodes=int(config.get("vnodes", 16)),
            generation=int(config.get("generation", 1)),
            heartbeat_interval=float(config.get("heartbeat_interval", 0.5)),
            suspect_after=int(config.get("suspect_after", 3)),
            data_port=int(config.get("data_port", 0)),
            data_link_rate=config.get("data_link_rate"),
            replication_factor=int(
                args.replication_factor
                if args.replication_factor is not None
                else config.get("replication_factor", 1)
            ),
            repl_interval=float(config.get("repl_interval", 0.1)),
            anti_entropy_interval=float(
                config.get("anti_entropy_interval", 5.0)
            ),
        )
        server = node.server
    else:
        server = DVServer(
            config.get("host", "127.0.0.1"),
            config.get("port", 7878),
        )
    # Standalone data plane (cluster nodes carry their own).
    data_server = None
    if node is None and config.get("data_port") is not None:
        from repro.data.server import DataServer

        data_server = DataServer(
            server.loop,
            config.get("host", "127.0.0.1"),
            int(config["data_port"]),
            link_rate=config.get("data_link_rate"),
            metrics=server.metrics,
            obs=server.obs,
        )
        server.set_data_endpoint(data_server.host, data_server.port)
    for spec in config.get("contexts", []):
        cc = ContextConfig(
            name=spec["name"],
            delta_d=spec["delta_d"],
            delta_r=spec["delta_r"],
            num_timesteps=spec.get("num_timesteps"),
            max_storage_bytes=spec.get("max_storage_bytes"),
            replacement_policy=spec.get("policy", "dcl"),
            smax=spec.get("smax", 8),
        )
        driver = driver_class(spec.get("simulator", "synthetic"))(
            cc.geometry, prefix=spec["name"]
        )
        perf = PerformanceModel(
            tau_sim=spec.get("tau_sim", 1.0), alpha_sim=spec.get("alpha_sim", 0.0)
        )
        context = SimulationContext(config=cc, driver=driver, perf=perf)
        # Optional pacing for the built-in drivers: without it a synthetic
        # re-simulation finishes in milliseconds, which makes blocked
        # waiters (and therefore HA failover demos) impossible to observe
        # on a live daemon.
        delays = {
            "alpha_delay": float(spec.get("alpha_delay", 0.0)),
            "tau_delay": float(spec.get("tau_delay", 0.0)),
        }
        if node is not None:
            node.add_context(
                context, spec["output_dir"], spec["restart_dir"], **delays
            )
        else:
            server.add_context(
                context, spec["output_dir"], spec["restart_dir"], **delays
            )
            if data_server is not None:
                data_server.add_context(spec["name"], spec["output_dir"])
    service = node if node is not None else server
    service.start()
    # Prometheus exporter endpoint (``"metrics_port": 0`` = ephemeral).
    exporter = None
    if config.get("metrics_port") is not None:
        from repro.obs.export import MetricsExporter

        exporter = MetricsExporter(
            server.inspection.exposition, config.get("host", "127.0.0.1"),
            int(config["metrics_port"]),
        )
        exporter.start()
        print(f"simfs-dv metrics exporter on "
              f"{config.get('host', '127.0.0.1')}:{exporter.port}/metrics")
    if data_server is not None:
        data_server.start()
        print(f"simfs-dv data plane on {data_server.host}:{data_server.port}")
    elif node is not None:
        print(f"simfs-dv data plane on {node.data.host}:{node.data.port}")
    host, port = server.address
    if node is not None:
        print(f"simfs-dv cluster node {node.node_id} listening on "
              f"{host}:{port}")
    else:
        print(f"simfs-dv listening on {host}:{port}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        if data_server is not None:
            data_server.stop()
        service.stop()
        if exporter is not None:
            exporter.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
