"""The four closed-loop workloads.

Each workload is a class with the same small surface, driven by
``measure.Runner``:

``connect()``      open its (at most two) control connections and attach
``plan(block)``    build the block's fixed request lists from the seed
``run_block()``    execute them on two threads; returns a ``Counts``
``close()``        drop the connections

``hot_open``/``gateway_open`` use a protocol-level client built on
``encode_open_request``/``StreamDecoder`` (DVLib cannot pipeline);
``resim_scan``/``bulk_fetch`` are DVLib analyses (``TcpConnection`` +
``SimFSSession``, one thread each).  Every op runs under try/except: a
failure is tallied by kind and never aborts the run, while a wrong
output (checksum, reply accounting) is recorded as a check error that
does.
"""

from __future__ import annotations

import os
import random
import re
import socket
import threading
import time
from dataclasses import dataclass, field

import daemon
import spec
from repro.client.api import SimFSSession
from repro.client.dvlib import TcpConnection
from repro.dv.protocol import (
    CODEC_BINARY,
    CODEC_LEGACY,
    PROTOCOL_VERSION,
    StreamDecoder,
    encode_frame,
    encode_open_request,
)
from repro.obs.trace import new_trace
from repro.traces.patterns import backward_trace, forward_trace

WINDOW = 32          # requests in flight per raw connection
CLIENTS = 2          # connections == load-generator threads (= nproc)
OP_TIMEOUT = 30.0    # an op without an answer for this long has failed

_FILE_RE = re.compile(r"\w+_out_\d+\.sdf")


@dataclass
class Counts:
    """What one block (or one traced pass) did, summed over clients."""

    ops: int = 0            # ops that completed and count toward rates
    attempted: int = 0
    replies: int = 0        # control-plane replies received
    steps: int = 0          # open -> ... -> release cycles completed
    accesses: int = 0       # output steps asked for (opens + acquired files)
    opens: int = 0          # open requests + files named in acquires
    releases: int = 0       # release requests + files in release batches
    readies: int = 0        # ready notifications received
    payload_bytes: int = 0  # verified fetched bytes
    blocked_s: float = 0.0  # time spent waiting for ready notifications
    wall_s: float = 0.0
    client_cpu_s: float = 0.0
    truncated: bool = False
    failures: dict[str, int] = field(default_factory=dict)
    check_errors: list[str] = field(default_factory=list)

    def fail(self, exc: BaseException | str, ops: int = 1) -> None:
        text = exc if isinstance(exc, str) else f"{type(exc).__name__}: {exc}"
        kind = _FILE_RE.sub("<file>", text)[:160]
        self.failures[kind] = self.failures.get(kind, 0) + ops

    def merge(self, other: "Counts") -> None:
        for name in ("ops", "attempted", "replies", "steps", "accesses",
                     "opens", "releases", "readies",
                     "payload_bytes", "blocked_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.truncated |= other.truncated
        for kind, n in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n
        self.check_errors.extend(other.check_errors)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Env:
    """The running cluster as a workload sees it."""

    def __init__(self, nodes: dict, owners: dict[str, str], checksums: dict,
                 scratch: str) -> None:
        self.nodes = nodes
        self.owners = owners
        self.checksums = checksums
        self.scratch = scratch

    def entry_node(self, workload: spec.Workload):
        """Owner of the workload's context, or the other node when the
        workload enters through the gateway."""
        owner = self.owners[workload.context]
        if not workload.via_gateway:
            return self.nodes[owner]
        (other,) = [n for n in self.nodes if n != owner]
        return self.nodes[other]


# --------------------------------------------------------------------- #
# hot_open / gateway_open: protocol-level pipelined client
# --------------------------------------------------------------------- #
class RawConn:
    """One negotiated binary-codec connection, no reply matching thread."""

    def __init__(self, port: int, client_id: str, context: str,
                 trace: bool = False) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(OP_TIMEOUT)
        self.decoder = StreamDecoder(CODEC_LEGACY)
        hello = {"op": "hello", "req": 0, "client_id": client_id,
                 "context": context, "vers": PROTOCOL_VERSION,
                 "codec": CODEC_BINARY}
        if trace:
            hello["trace"] = 1
        self.sock.sendall(encode_frame(hello, CODEC_LEGACY))
        reply = self.read()
        if reply.get("error") or reply.get("codec") != CODEC_BINARY:
            raise RuntimeError(f"hello rejected: {reply!r}")
        self.traced = bool(reply.get("trace"))
        self.cluster = reply.get("cluster") or {}
        self.decoder.set_codec(CODEC_BINARY)

    def read(self) -> dict:
        """Next message (blocking)."""
        while True:
            message = self.decoder.next_message()
            if message is not None:
                return message
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed by server")
            self.decoder.feed(chunk)

    def call(self, message: dict) -> dict:
        """One sequential request/reply (stats, trace pulls, traced ops)."""
        self.sock.sendall(encode_frame(message, CODEC_BINARY))
        while True:
            reply = self.read()
            if reply.get("op") == "reply" and reply.get("req") == message["req"]:
                return reply

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def pipeline(conn: RawConn, frames: list[bytes], is_open: list[bool],
             deadline: float, counts: Counts) -> None:
    """Keep ``WINDOW`` of ``frames`` in flight until all are answered.

    Frame ``i`` carries ``req == i + 1``.  Every reply must name a request
    that is in flight exactly once; an open must come back available.
    Past ``deadline`` nothing new is sent (the block is truncated).
    """
    total = len(frames)
    state = bytearray(total + 1)          # 0 unsent, 1 in flight, 2 answered
    sent = min(WINDOW, total)
    for req in range(1, sent + 1):
        state[req] = 1
    counts.attempted += sent
    sock, decoder = conn.sock, conn.decoder
    answered = 0
    try:
        sock.sendall(b"".join(frames[:sent]))
        while answered < sent:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed by server")
            decoder.feed(chunk)
            got = 0
            while True:
                message = decoder.next_message()
                if message is None:
                    break
                if message.get("op") != "reply":
                    continue
                req = message.get("req")
                if not isinstance(req, int) or not 0 < req <= total or state[req] != 1:
                    counts.check_errors.append(
                        f"reply for req {req!r} that is not in flight"
                    )
                    continue
                state[req] = 2
                got += 1
                if message.get("error"):
                    counts.fail(f"reply error {message['error']}: "
                                f"{message.get('detail', '')}")
                elif is_open[req - 1] and not message.get("available"):
                    counts.fail("open of a resident file not available")
                else:
                    counts.ops += 1
            answered += got
            counts.replies += got
            if sent < total:
                if time.monotonic() > deadline:
                    counts.truncated = True
                    total = sent
                    continue
                upto = min(total, sent + got)
                for req in range(sent + 1, upto + 1):
                    state[req] = 1
                counts.attempted += upto - sent
                sock.sendall(b"".join(frames[sent:upto]))
                sent = upto
    except OSError as exc:
        # The connection is gone: everything unanswered has failed.
        counts.fail(exc, ops=sent - answered)
        raise


class PipelinedOpens:
    """Alternating packed open/release over the resident files of ``hot``,
    ``WINDOW`` in flight on each of two raw connections."""

    def __init__(self, workload: spec.Workload, env: Env, seed: int,
                 seconds: float) -> None:
        self.workload = workload
        self.env = env
        self.seed = seed
        self.context = workload.context
        self.files = sorted(env.checksums[self.context])
        per_conn = workload.nominal_ops_per_s * seconds / spec.BLOCKS / CLIENTS
        self.pairs = max(WINDOW, int(per_conn) // 2)
        self.conns: list[RawConn] = []
        self.plans: list[tuple[list[bytes], list[bool]]] = []

    def connect(self, trace: bool = False) -> None:
        node = self.env.entry_node(self.workload)
        self.conns = [
            RawConn(node.port, f"{self.workload.name}-{i}-{os.getpid()}",
                    self.context, trace=trace)
            for i in range(CLIENTS)
        ]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []

    def file_order(self, client: int) -> list[str]:
        rng = random.Random(f"{self.seed}/{self.workload.context}/{client}")
        order = list(self.files)
        rng.shuffle(order)
        return order

    def frames(self, client: int, pairs: int,
               traced: bool = False) -> tuple[list[bytes], list[bool]]:
        """``pairs`` open/release pairs of one client, pre-encoded: frame
        ``i`` carries ``req == i + 1``; with ``traced`` each frame starts a
        trace of its own."""
        order = self.file_order(client)
        frames, is_open = [], []
        for pair in range(pairs):
            fname = order[pair % len(order)]
            req = 2 * pair + 1
            frames.append(encode_open_request(
                req, self.context, fname, CODEC_BINARY,
                tc=new_trace().to_wire() if traced else None))
            release = {"op": "release", "req": req + 1,
                       "context": self.context, "file": fname}
            if traced:
                release["tc"] = new_trace().to_wire()
            frames.append(encode_frame(release, CODEC_BINARY))
            is_open += [True, False]
        return frames, is_open

    def plan(self, block: int, traced: bool = False) -> None:
        """Same request list every block (rebuilt only to add traces)."""
        if traced or not self.plans:
            self.plans = [
                self.frames(client, self.pairs, traced)
                for client in range(CLIENTS)
            ]

    def run_block(self, budget_s: float) -> Counts:
        deadline = time.monotonic() + budget_s
        return run_clients([
            (lambda counts, c=c, p=p: pipeline(c, p[0], p[1], deadline, counts))
            for c, p in zip(self.conns, self.plans)
        ], after=self._account)

    @staticmethod
    def _account(counts: Counts) -> None:
        # Requests alternate open/release, so answered frames split evenly.
        counts.steps = counts.ops // 2
        counts.opens = counts.accesses = (counts.replies + 1) // 2
        counts.releases = counts.replies // 2


def run_clients(bodies: list, after=None) -> Counts:
    """Run one callable per client thread between two barriers; the wall
    time is barrier to last finish."""
    parts = [Counts() for _ in bodies]
    gate = threading.Barrier(len(bodies) + 1)

    def guarded(body, counts: Counts) -> None:
        gate.wait()
        try:
            body(counts)
        except Exception as exc:  # boundary: tallied, never aborts the run
            if not counts.failures:
                counts.fail(exc)

    threads = [
        threading.Thread(target=guarded, args=(body, part), daemon=True)
        for body, part in zip(bodies, parts)
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    began, cpu_began = time.perf_counter(), time.process_time()
    for thread in threads:
        thread.join()
    total = Counts(wall_s=time.perf_counter() - began,
                   client_cpu_s=time.process_time() - cpu_began)
    for part in parts:
        total.merge(part)
    if after is not None:
        after(total)
    return total


# --------------------------------------------------------------------- #
# resim_scan / bulk_fetch: DVLib analyses
# --------------------------------------------------------------------- #
class Analysis:
    """One analysis: a ``TcpConnection`` + ``SimFSSession`` and the
    per-step protocol ``open -> wait ready -> fetch -> sha256 -> release``."""

    def __init__(self, index: int, port: int, workload: spec.Workload,
                 env: Env, trace: bool) -> None:
        self.context = workload.context
        self.checksums = env.checksums[self.context]
        self.dest = os.path.join(env.scratch, f"{workload.name}-{index}.fetched")
        self.conn = TcpConnection(
            "127.0.0.1", port, {}, {},
            client_id=f"{workload.name}-{index}-{os.getpid()}",
            trace=1.0 if trace else False,
        )
        self.session = SimFSSession(self.conn, self.context)
        self.tracer = None        # harness span sink, set for the traced pass
        self.current_access = 0
        self._readies = 0
        self.conn.ready_table.add_watcher(self._on_ready)
        self._frames_seen = self.conn.wire_stats()["frames_recv"]

    def _on_ready(self, context: str, filename: str, ok: bool) -> None:
        self._readies += 1

    def take_frames(self) -> tuple[int, int]:
        """``(replies, readies)`` received since the last call, from the
        connection's own wire counters."""
        frames = self.conn.wire_stats()["frames_recv"]
        readies, self._readies = self._readies, 0
        replies = frames - self._frames_seen - readies
        self._frames_seen = frames
        return replies, readies

    def close(self) -> None:
        self.conn.close()

    def _call(self, name: str, access: int, fn, *args, **kwargs):
        """The one place client calls go through: untraced it is a plain
        call, traced it records a harness span around the call, with the
        trace id of the last request the call sent."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        self.current_access = access
        self.conn.last_trace_id = None
        began = time.time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.add(name, began, time.time(), access,
                            self.conn.last_trace_id)

    def _fetch_verified(self, fname: str, access: int, counts: Counts) -> None:
        result = self._call(
            "client.fetch", access, self.conn.fetch_file,
            self.context, fname, self.dest, resume=False, timeout=OP_TIMEOUT,
        )
        digest = self._call("client.verify", access, daemon.sha256_file,
                            self.dest)
        if digest != self.checksums[fname]:
            counts.check_errors.append(
                f"sha256 of fetched {fname} differs from the initial run"
            )
            raise ValueError("checksum mismatch")
        counts.payload_bytes += result.size

    def step(self, fname: str, access: int, counts: Counts) -> None:
        counts.attempted += 1
        held = False
        try:
            counts.opens += 1
            counts.accesses += 1
            info = self._call("client.open", access, self.conn.open,
                              self.context, fname)
            if not info.available:
                began = time.perf_counter()
                ok = self._call(
                    "client.ready_wait", access, self.conn.ready_table.wait,
                    self.context, fname, OP_TIMEOUT,
                )
                counts.blocked_s += time.perf_counter() - began
                if not ok:
                    raise RuntimeError("re-simulation failed")
            held = True
            self._fetch_verified(fname, access, counts)
            held = False
            counts.releases += 1
            self._call("client.release", access, self.conn.release,
                       self.context, fname)
        except Exception as exc:  # boundary: one failed op, run continues
            counts.fail(exc)
            if held:
                self._release_quietly([fname], counts)
            return
        counts.ops += 1
        counts.steps += 1

    def window(self, fnames: list[str], access: int, counts: Counts) -> None:
        """A strided window: blocking ``acquire`` of all files (the
        JSON-in-binary frame), fetch + verify each, one ``release_many``
        (a ``batch`` frame)."""
        n = len(fnames)
        counts.attempted += n
        held = False
        try:
            counts.opens += n
            counts.accesses += n
            began = time.perf_counter()
            status = self._call("client.acquire", access, self.session.acquire,
                                fnames, OP_TIMEOUT)
            counts.blocked_s += time.perf_counter() - began
            held = True
            if not status.ok:
                raise RuntimeError(f"acquire failed with code {status.error}")
            for fname in fnames:
                self._fetch_verified(fname, access, counts)
            held = False
            counts.releases += n
            self._call("client.release_many", access,
                       self.session.release_many, fnames)
        except Exception as exc:
            counts.fail(exc, ops=n)
            if held:
                self._release_quietly(fnames, counts)
            return
        counts.ops += n
        counts.steps += n

    def _release_quietly(self, fnames: list[str], counts: Counts) -> None:
        """A failed op must not leave its pin behind."""
        for fname in fnames:
            try:
                counts.releases += 1
                self.conn.release(self.context, fname)
            except Exception:
                counts.releases -= 1


class Analyses:
    """Two DVLib analyses walking per-block plans (shared by both DVLib
    workloads; subclasses only say what a block's plan is)."""

    def __init__(self, workload: spec.Workload, env: Env, seed: int,
                 seconds: float) -> None:
        self.workload = workload
        self.env = env
        self.seed = seed
        self.context = workload.context
        self.scale = seconds / spec.RUN_SECONDS
        self.clients: list[Analysis] = []
        self.plans: list[list] = []
        self._access = 0

    def connect(self, trace: bool = False) -> None:
        node = self.env.entry_node(self.workload)
        self.clients = [
            Analysis(i, node.port, self.workload, self.env, trace)
            for i in range(CLIENTS)
        ]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []

    def name_of(self, key: int) -> str:
        return f"{self.context}_out_{key:08d}.sdf"

    def run_block(self, budget_s: float) -> Counts:
        deadline = time.monotonic() + budget_s
        bodies = []
        for client, plan in zip(self.clients, self.plans):
            base = self._access
            self._access += len(plan)
            bodies.append(
                lambda counts, c=client, p=plan, b=base:
                    self._walk(c, p, b, deadline, counts)
            )
        return run_clients(bodies, after=self._collect_frames)

    def _collect_frames(self, counts: Counts) -> None:
        for client in self.clients:
            replies, readies = client.take_frames()
            counts.replies += replies
            counts.readies += readies

    def _walk(self, client: Analysis, plan: list, access: int,
              deadline: float, counts: Counts) -> None:
        for item in plan:
            if time.monotonic() > deadline:
                counts.truncated = True
                return
            names = [self.name_of(key) for key in item]
            if len(names) == 1:
                client.step(names[0], access, counts)
            else:
                client.window(names, access, counts)
            access += 1


class ResimScan(Analyses):
    """Forward, backward, stride-3 and random-jump segments over a
    timeline whose outputs were all deleted, under a storage area of
    12.5% of it.

    The timeline holds two slots, each large enough for one analysis'
    block; the two analyses swap slots every block.  Inside a slot every
    segment has its own region, with ``GAP`` untouched restart intervals
    wherever a prefetcher may run past the segment's end.  A region is
    therefore revisited only after a whole block of other outputs (several
    times the storage area) was produced: every segment starts cold,
    whatever the seed, and no re-simulation rewrites a file that is still
    resident (the program writes outputs in place, so that would tear a
    concurrent fetch).  The seed picks where on the timeline the slots
    lie and the order of the jumps.
    """

    #: Accesses per analysis per block at the reference ``--seconds``.
    FORWARD, BACKWARD, WINDOWS, JUMPS = 48, 48, 4, 4
    STRIDE, WINDOW_FILES = 3, 4
    GAP = 8

    def __init__(self, *args) -> None:
        super().__init__(*args)
        params = spec.CONTEXTS[self.context]
        self.steps = params["steps"]
        self.per = params["interval"]
        per = self.per
        self.fwd = self._sized(self.FORWARD, per)
        self.bwd = self._sized(self.BACKWARD, per)
        self.windows = self._sized(self.WINDOWS, 2)
        self.span = self.STRIDE * self.WINDOW_FILES
        self.strided_intervals = -(-self.windows * self.span // per)
        self.jumps = self._sized(self.JUMPS, 1)
        # Ascending layout of one slot:
        #   gap | backward | forward | gap | strided | gap | jumps
        self.slot = (3 * self.GAP + (self.bwd + self.fwd) // per
                     + self.strided_intervals + self.jumps)
        spare = self.steps // per - CLIENTS * self.slot
        if spare < 0:
            raise ValueError(
                f"--seconds too large: two slots of {self.slot} restart "
                f"intervals do not fit the {self.steps // per} of 'scan'")
        self.base = random.Random(f"{self.seed}/scan/base").randint(0, spare)

    def _sized(self, count: int, unit: int) -> int:
        return max(unit, int(round(count * self.scale / unit)) * unit)

    def plan(self, block: int) -> None:
        per = self.per
        key = lambda interval: interval * per + 1  # noqa: E731
        self.plans = []
        for client in range(CLIENTS):
            rng = random.Random(f"{self.seed}/scan/{client}/{block}")
            at = self.base + ((client + block) % CLIENTS) * self.slot + self.GAP
            plan: list[list[int]] = []
            bwd_top = key(at) + self.bwd - 1
            at += self.bwd // per
            plan += [[k] for k in forward_trace(key(at), self.fwd, self.steps)]
            plan += [[k] for k in backward_trace(bwd_top, self.bwd, self.steps)]
            at += self.fwd // per + self.GAP
            strided = forward_trace(
                key(at), self.windows * self.span, self.steps)[::self.STRIDE]
            plan += [
                strided[i:i + self.WINDOW_FILES]
                for i in range(0, len(strided), self.WINDOW_FILES)
            ]
            at += self.strided_intervals + self.GAP
            # Same multiset of in-interval offsets for every seed, so the
            # sum of the jumps' waits does not depend on it.
            targets = [
                key(at + j) + (1 + (2 * j) % per) for j in range(self.jumps)
            ]
            rng.shuffle(targets)
            plan += [[k] for k in targets]
            self.plans.append(plan)

    def key_sequence(self, blocks: int) -> list[int]:
        """The keys analysis 0 asks for over ``blocks`` blocks (the input
        of the cache and prefetch layer replays)."""
        saved = self.plans
        keys: list[int] = []
        for block in range(blocks):
            self.plan(block)
            keys += [k for item in self.plans[0] for k in item]
        self.plans = saved
        return keys


class BulkFetch(Analyses):
    """``open`` (always a hit) -> ``fetch_file`` -> sha256 -> ``release``
    over the resident 4 MiB files, in a seeded order per analysis."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        keys = list(range(1, spec.CONTEXTS[self.context]["steps"] + 1))
        self._orders = []
        for client in range(CLIENTS):
            order = list(keys)
            random.Random(f"{self.seed}/bulk/{client}").shuffle(order)
            self._orders.append(order)
        per_client = self.workload.nominal_ops_per_s * spec.RUN_SECONDS
        self.files_per_block = max(
            1, int(per_client * self.scale / spec.BLOCKS / CLIENTS))

    def plan(self, block: int) -> None:
        self.plans = []
        for order in self._orders:
            first = block * self.files_per_block
            self.plans.append([
                [order[(first + i) % len(order)]]
                for i in range(self.files_per_block)
            ])


def make(workload: spec.Workload, env: Env, seed: int, seconds: float):
    if workload.name in ("hot_open", "gateway_open"):
        return PipelinedOpens(workload, env, seed, seconds)
    if workload.name == "resim_scan":
        return ResimScan(workload, env, seed, seconds)
    return BulkFetch(workload, env, seed, seconds)


__all__ = ["Analyses", "BulkFetch", "Counts", "Env", "PipelinedOpens",
           "RawConn", "ResimScan", "make", "pipeline", "run_clients"]
