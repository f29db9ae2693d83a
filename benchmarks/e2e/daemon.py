"""Fixtures and daemons for the e2e benchmark.

Three jobs, all through the repo's public Python API:

* :func:`build_fixtures` runs the initial simulation of every context in
  ``spec.CONTEXTS`` into a sandbox directory, records the SHA-256 of
  every output, and deletes the outputs of contexts that start cold.
* ``python daemon.py --serve ...`` (the ``__main__`` below) is one
  ``ClusterNode`` daemon: selector front end, binary codec, single-process
  engine, replication factor 1, unthrottled data plane, no autoscaler.
* :class:`Sandbox` owns everything a run leaves behind - the scratch
  directory and the daemon processes - and removes it on every exit path.
  Daemons get their own session (process group); they also exit by
  themselves when their stdin closes, so even a SIGKILLed benchmark
  leaves no orphan.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import spec  # noqa: E402

NODE_IDS = ("n1", "n2")
#: A 32 KiB file that is not an output step, so the data-plane probe has
#: something small to pull on every workload (``scan`` starts empty).
PROBE_FILE = "probe_32k.bin"


# --------------------------------------------------------------------- #
# Contexts
# --------------------------------------------------------------------- #
def context_dirs(root: str, name: str) -> tuple[str, str]:
    return os.path.join(root, f"{name}-out"), os.path.join(root, f"{name}-rst")


def build_context(name: str):
    """The ``SimulationContext`` of one benchmark context (same object in
    the fixture builder, the daemons and the layers stage)."""
    from repro.core.context import ContextConfig, SimulationContext
    from repro.core.perfmodel import PerformanceModel
    from repro.simulators import SyntheticDriver

    params = spec.CONTEXTS[name]
    step_bytes = params["cells"] * 8
    capacity = params["capacity_steps"]
    config = ContextConfig(
        name=name,
        delta_d=1,
        delta_r=params["interval"],
        num_timesteps=params["steps"],
        max_storage_bytes=None if capacity is None else capacity * step_bytes,
        replacement_policy=params.get("policy", "dcl"),
        smax=params.get("smax", 8),
        ema_smoothing=params.get("ema_smoothing", 0.5),
        output_step_bytes=step_bytes,
        restart_step_bytes=step_bytes,
    )
    driver = SyntheticDriver(config.geometry, prefix=name, cells=params["cells"])
    # The prefetch agents plan with the same pacing the launcher applies.
    perf = PerformanceModel(
        tau_sim=max(params["tau_delay"], 1e-3),
        alpha_sim=params["alpha_delay"],
    )
    return SimulationContext(config=config, driver=driver, perf=perf)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def build_fixtures(root: str) -> dict:
    """Initial run of every context under ``root``; returns
    ``{"checksums": {context: {file: sha256}}, "seconds": s}``."""
    began = time.perf_counter()
    checksums: dict[str, dict[str, str]] = {}
    for name, params in spec.CONTEXTS.items():
        context = build_context(name)
        out, rst = context_dirs(root, name)
        os.makedirs(out)
        os.makedirs(rst)
        restarts = -(-params["steps"] // params["interval"])
        job = context.driver.make_job(name, 0, restarts, write_restarts=True)
        produced = context.driver.execute(job, out, rst)
        if len(produced) != params["steps"]:
            raise RuntimeError(
                f"initial run of {name!r} produced {len(produced)} outputs, "
                f"expected {params['steps']}"
            )
        checksums[name] = {
            fname: sha256_file(os.path.join(out, fname)) for fname in produced
        }
        if not params["resident"]:
            for fname in produced:
                os.unlink(os.path.join(out, fname))
    scan_out, _ = context_dirs(root, "scan")
    with open(os.path.join(scan_out, PROBE_FILE), "wb") as fh:
        fh.write(bytes(range(256)) * 128)
    # ~150 MB of fixture pages are dirty now; left alone, their writeback
    # lands in the timed part and doubles the kernel time of every file
    # and socket call there (measured: daemon stime 0.65 vs 1.8 ms/step).
    os.sync()
    return {"checksums": checksums, "seconds": time.perf_counter() - began}


# --------------------------------------------------------------------- #
# The daemon process
# --------------------------------------------------------------------- #
def serve(args: argparse.Namespace) -> int:
    if args.cpu is not None:
        # Before any thread exists, so every thread inherits it.
        os.sched_setaffinity(0, {args.cpu})
    from repro.cluster import ClusterNode

    node = ClusterNode(
        args.node_id, "127.0.0.1", args.port,
        peers=[args.peer],
        heartbeat_interval=0.5,
        mode="selector",
        engine_workers=None,
        data_link_rate=None,
        replication_factor=1,
        autoscale_policy=None,
    )
    for name, params in spec.CONTEXTS.items():
        out, rst = context_dirs(args.root, name)
        node.add_context(
            build_context(name), out, rst,
            alpha_delay=params["alpha_delay"], tau_delay=params["tau_delay"],
        )
    node.start()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(json.dumps({
        "node": args.node_id, "pid": os.getpid(),
        "port": node.address[1], "data_port": node.data.port,
    }), flush=True)
    try:
        # The parent holds our stdin; EOF means it is gone (or done).
        sys.stdin.buffer.read()
    finally:
        node.stop(drain_timeout=0)
    return 0


# --------------------------------------------------------------------- #
# Spawner / reaper (benchmark side)
# --------------------------------------------------------------------- #
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def pinned_cpu() -> int:
    """The one core a pinned run uses: the last this process may use (the
    first tends to take the box's interrupts)."""
    return max(os.sched_getaffinity(0))


class Node:
    """One spawned daemon: its process and the endpoints it announced."""

    def __init__(self, node_id: str, proc: subprocess.Popen, port: int) -> None:
        self.node_id = node_id
        self.proc = proc
        self.port = port
        self.data_port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid


class Sandbox:
    """Scratch directory plus every daemon started in it."""

    def __init__(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        _sweep_stale(OUT_DIR)
        self.root = os.path.join(OUT_DIR, f"run-{os.getpid()}")
        os.makedirs(self.root)
        self._nodes: list[Node] = []

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def spawn_cluster(self, fixture_root: str, pin: bool,
                      timeout: float = 60.0) -> dict[str, Node]:
        """Start both daemons and wait until each printed its endpoints.
        ``pin`` confines both to ``pinned_cpu()``.  A daemon that dies
        before announcing itself (its port was taken between ``free_port``
        and ``bind``) is retried with fresh ports."""
        for _ in range(2):
            try:
                return self._spawn_once(fixture_root, pin, timeout)
            except DaemonDied:
                pass
        return self._spawn_once(fixture_root, pin, timeout)

    def _spawn_once(self, fixture_root: str, pin: bool,
                    timeout: float) -> dict[str, Node]:
        ports = {nid: free_port() for nid in NODE_IDS}
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        nodes = {}
        for nid in NODE_IDS:
            (peer,) = [o for o in NODE_IDS if o != nid]
            command = [
                sys.executable, os.path.abspath(__file__), "--serve",
                "--node-id", nid, "--port", str(ports[nid]),
                "--peer", f"{peer}@127.0.0.1:{ports[peer]}",
                "--root", fixture_root,
            ]
            if pin:
                command += ["--cpu", str(pinned_cpu())]
            proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                env=env, start_new_session=True,
            )
            node = Node(nid, proc, ports[nid])
            self._nodes.append(node)
            nodes[nid] = node
        deadline = time.monotonic() + timeout
        try:
            for node in nodes.values():
                line = _read_line(node.proc, deadline)
                node.data_port = int(json.loads(line)["data_port"])
        except DaemonDied:
            self.stop_cluster(nodes)
            raise
        return nodes

    def stop_cluster(self, nodes: dict[str, Node]) -> None:
        for node in nodes.values():
            _reap(node.proc)
            if node in self._nodes:
                self._nodes.remove(node)

    def close(self) -> None:
        for node in list(self._nodes):
            _reap(node.proc)
        self._nodes.clear()
        shutil.rmtree(self.root, ignore_errors=True)


class DaemonDied(RuntimeError):
    """A daemon exited before it announced its endpoints."""


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    import select

    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("daemon did not come up in time")
        ready, _, _ = select.select([proc.stdout], [], [], min(remaining, 0.5))
        if ready:
            line = proc.stdout.readline()
            if line:
                return line
        if proc.poll() is not None:
            raise DaemonDied(f"daemon exited with code {proc.returncode}")


def _reap(proc: subprocess.Popen) -> None:
    """Stop one daemon and wait until it has ended: close its stdin (its
    own clean path), then TERM, then KILL its whole process group."""
    if proc.poll() is None:
        try:
            proc.stdin.close()
        except OSError:
            pass
        for sig, grace in ((None, 3.0), (signal.SIGTERM, 3.0), (signal.SIGKILL, 10.0)):
            if sig is not None:
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    pass
            try:
                proc.wait(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                continue
    for stream in (proc.stdin, proc.stdout):
        try:
            stream.close()
        except OSError:
            pass


def _sweep_stale(out_dir: str) -> None:
    """Remove ``run-<pid>`` directories whose benchmark process is gone
    (a SIGKILL is the one exit path ``Sandbox.close`` cannot see)."""
    for entry in os.listdir(out_dir):
        if not entry.startswith("run-"):
            continue
        try:
            os.kill(int(entry[4:]), 0)
        except (ValueError, ProcessLookupError):
            shutil.rmtree(os.path.join(out_dir, entry), ignore_errors=True)
        except PermissionError:
            pass


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", action="store_true", required=True)
    parser.add_argument("--node-id", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--peer", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--cpu", type=int, default=None)
    sys.exit(serve(parser.parse_args()))
