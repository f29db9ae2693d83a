"""The traced run: per-layer numbers for one workload.

End-to-end numbers come from ``measure.Runner`` with tracing off.  This
run uses the same daemons and the same traffic to produce everything in
``spec.PER_LAYER``:

1. an untraced block, with counters and ``/proc`` sampled around it;
2. on the two open workloads, an open-loop phase (fixed arrival rate,
   latency from each request's due time, generator lateness reported);
3. the same block again on connections opened with ``trace=1.0``: the
   difference of the two rates is what tracing costs;
4. a traced pass of at most 256 accesses, every client call wrapped in a
   harness span, the program's own spans pulled through the public
   ``trace`` op every 64 accesses (both nodes keep 2048 spans) and
   stitched under the harness span whose request started them;
5. the ``layers`` stage (layers.py).

Harness and program both stamp spans with ``time.time()`` on one host, so
their intervals compare directly.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import statistics
import time

import daemon
import layers
import measure
import spec
import stats
import workloads
from repro.client.dvlib import TcpConnection
from repro.obs.trace import new_trace

PASS_ACCESSES = 256     # traced pass: at most this many accesses in all
PULL_EVERY = 64         # accesses between two pulls of the program's spans
OPEN_LOOP_BLOCKS = 20
OPEN_LOOP_RATE = {"hot_open": 10000.0, "gateway_open": 1000.0}


def depth_of(name: str) -> int:
    """Nesting depth of a span by the layer that records it (a deeper
    span is a child of any shallower span it overlaps)."""
    if name.startswith("client."):
        return 1
    return {
        "fwd": 3, "op.fwd": 4, "sim.wait": 5, "sim.run": 5,
        "ready.fanout": 5, "sim.exec": 6, "data.fetch": 7,
    }.get(name, 2)            # op.<op> and op.queue at the entry node


class Tracer:
    """Harness spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float, access: int,
            trace_id: str | None) -> None:
        self.spans.append({
            "id": f"h{next(self._ids)}", "parent": f"a{access}",
            "name": name, "node": "client", "start": start, "end": end,
            "access": access, "trace_id": trace_id,
        })


def pull_spans(port: int, harness: list[dict]) -> tuple[list[dict], int]:
    """Fetch the program's spans of every trace the given harness spans
    started (through the entry node: the cluster ``trace`` op merges both
    nodes).  Returns the spans, parented to their harness span, and the
    number of traces asked for."""
    pulled: list[dict] = []
    wanted = [s for s in harness if s["trace_id"]]
    with TcpConnection("127.0.0.1", port, {}, {}) as conn:
        for span in wanted:
            reply = conn.call({"op": "trace", "trace_id": span["trace_id"]})
            for item in reply["trace"]["spans"]:
                pulled.append({
                    "id": item["span_id"], "parent": span["id"],
                    "name": item["name"], "node": item["node"],
                    "start": item["start"], "end": item["end"],
                    "access": span["access"], "trace_id": span["trace_id"],
                })
    return pulled, len(wanted)


# --------------------------------------------------------------------- #
# Traced passes
# --------------------------------------------------------------------- #
def dvlib_pass(load, port: int, tracer: Tracer) -> tuple[list[dict], int]:
    """One block plan of the two analyses, ``PULL_EVERY`` accesses at a
    time, pulling the program's spans in between."""
    load.plan(3)
    per_client = PULL_EVERY // workloads.CLIENTS
    limit = PASS_ACCESSES // workloads.CLIENTS
    plans = [plan[:limit] for plan in load.plans]
    program: list[dict] = []
    traces = 0
    seen = 0
    for first in range(0, max(len(p) for p in plans), per_client):
        load.plans = [plan[first:first + per_client] for plan in plans]
        load.run_block(60.0)
        spans, asked = pull_spans(port, tracer.spans[seen:])
        seen = len(tracer.spans)
        program += spans
        traces += asked
    return program, traces


def raw_pass(load, port: int, tracer: Tracer) -> tuple[list[dict], int]:
    """Sequential traced open/release pairs on one raw connection."""
    conn = load.conns[0]
    order = load.file_order(0)
    program: list[dict] = []
    traces = 0
    seen = 0
    req = 1 << 20
    for access in range(PASS_ACCESSES // 2):
        fname = order[access % len(order)]
        for op in ("open", "release"):
            tc = new_trace()
            req += 1
            message = {"op": op, "req": req, "context": load.context,
                       "file": fname, "tc": tc.to_wire()}
            began = time.time()
            reply = conn.call(message)
            tracer.add(f"client.{op}", began, time.time(), access,
                       f"{tc.trace_id:016x}")
            if reply.get("error"):
                raise RuntimeError(f"traced {op} failed: {reply!r}")
        if (access + 1) % (PULL_EVERY // 2) == 0:
            spans, asked = pull_spans(port, tracer.spans[seen:])
            seen = len(tracer.spans)
            program += spans
            traces += asked
    return program, traces


def trace_metrics(harness: list[dict], program: list[dict], traces: int) -> dict:
    """Self time per layer over the sampled accesses."""
    by_access: dict[int, list[dict]] = {}
    for span in harness + program:
        by_access.setdefault(span["access"], []).append(span)
    totals: dict[str | None, float] = {}
    wall = 0.0
    for spans in by_access.values():
        mine = [s for s in spans if s["node"] == "client"]
        window = (min(s["start"] for s in mine), max(s["end"] for s in mine))
        wall += window[1] - window[0]
        shares = stats.attribute(window, [
            (depth_of(s["name"]), s["name"], s["start"], s["end"]) for s in spans
        ])
        for name, seconds in shares.items():
            totals[name] = totals.get(name, 0.0) + seconds
    n = max(len(by_access), 1)
    client_self = sum(v for k, v in totals.items() if k and k.startswith("client."))
    unattributed = totals.get(None, 0.0) / wall if wall else 0.0

    def per_access(name: str, scale: float) -> float:
        return totals.get(name, 0.0) * scale / n

    return {
        "obs.spans_per_request": len(program) / traces if traces else 0.0,
        "obs.coverage_share": 1.0 - unattributed,
        "trace.client_self_ms": client_self * 1e3 / n,
        "trace.op_open_self_us": per_access("op.open", 1e6),
        "trace.fwd_self_us": per_access("fwd", 1e6),
        "trace.op_fwd_self_us": per_access("op.fwd", 1e6),
        "trace.sim_wait_ms": per_access("sim.wait", 1e3),
        "trace.sim_exec_ms": per_access("sim.exec", 1e3),
        "trace.data_fetch_ms": per_access("data.fetch", 1e3),
        "trace.unattributed_share": unattributed,
    }


def client_metrics(harness: list[dict]) -> dict:
    """Client-layer latencies straight from the harness spans."""
    durations: dict[str, list[float]] = {}
    for span in harness:
        durations.setdefault(span["name"], []).append(span["end"] - span["start"])
    missed = {s["access"] for s in harness if s["name"] == "client.ready_wait"}
    hits = [
        s["end"] - s["start"] for s in harness
        if s["name"] == "client.open" and s["access"] not in missed
    ]

    def median(values: list[float], scale: float) -> float:
        return statistics.median(values) * scale if values else 0.0

    waits = sorted(durations.get("client.ready_wait", []))
    return {
        "client.open_hit_us": median(hits, 1e6),
        "client.release_us": median(durations.get("client.release", []), 1e6),
        "client.acquire4_us": median(durations.get("client.acquire", []), 1e6),
        "client.fetch_info_us": median(durations.get("client.fetch_info", []), 1e6),
        "client.ready_wait_p50_ms": stats.percentile(waits, 50) * 1e3 if waits else 0.0,
        "client.ready_wait_p90_ms": stats.percentile(waits, 90) * 1e3 if waits else 0.0,
    }


# --------------------------------------------------------------------- #
# Open-loop diagnostic (hot_open, gateway_open)
# --------------------------------------------------------------------- #
def open_loop(load, rate: float, seconds: float) -> dict:
    """Requests leave on a fixed schedule whatever the replies do; each is
    timed from the moment it was *due*, so a stall is charged to every
    request it delays.  Two connections, one thread each."""
    block_s = seconds / OPEN_LOOP_BLOCKS
    per_conn = int(rate * seconds / workloads.CLIENTS) // 2 * 2
    interval = workloads.CLIENTS / rate
    results = [None] * workloads.CLIENTS

    def body(index: int, counts: workloads.Counts) -> None:
        conn = load.conns[index]
        frames, _ = load.frames(index, per_conn // 2)
        sock, decoder = conn.sock, conn.decoder
        latencies = [0.0] * per_conn
        late_max = 0.0
        sent = got = 0
        start = time.perf_counter() + 0.01 + index * interval / workloads.CLIENTS
        while got < per_conn:
            timeout = workloads.OP_TIMEOUT
            if sent < per_conn:
                now = time.perf_counter()
                due = min(per_conn, int((now - start) / interval) + 1) if now >= start else 0
                if due > sent:
                    late_max = max(late_max, now - (start + sent * interval))
                    sock.sendall(b"".join(frames[sent:due]))
                    sent = due
                if sent < per_conn:
                    timeout = max(0.0, start + sent * interval - time.perf_counter())
            readable, _, _ = select.select([sock], [], [], timeout)
            if not readable:
                if sent >= per_conn:
                    raise TimeoutError("open-loop replies timed out")
                continue
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed by server")
            arrived = time.perf_counter()
            decoder.feed(chunk)
            while (message := decoder.next_message()) is not None:
                req = message.get("req")
                if message.get("op") == "reply" and isinstance(req, int):
                    latencies[req - 1] = arrived - (start + (req - 1) * interval)
                    got += 1
        results[index] = (latencies, late_max, start)

    counts = workloads.run_clients([
        (lambda c, i=i: body(i, c)) for i in range(workloads.CLIENTS)
    ])
    if counts.failures:
        raise RuntimeError(f"open-loop phase failed: {counts.failures}")
    # Open requests only (even positions), grouped into blocks by due time.
    p50s, tails = [], []
    pct = 50.0
    for block in range(OPEN_LOOP_BLOCKS):
        sample = []
        for latencies, _late, _start in results:
            lo = int(block * block_s / interval) // 2 * 2
            hi = int((block + 1) * block_s / interval) // 2 * 2
            sample += latencies[lo:hi:2]
        if not sample:
            continue
        p50s.append(stats.percentile(sorted(sample), 50))
        pct, tail = stats.highest_percentile(sample)
        tails.append(tail)
    return {
        "client.open_p50_us": statistics.median(p50s) * 1e6,
        "client.open_p99_us": statistics.median(tails) * 1e6,
        "client.gen_late_max_ms": max(r[1] for r in results) * 1e3,
        "open_loop": {
            "rate_per_s": rate, "blocks": len(p50s),
            "tail_percentile": pct, "requests": per_conn * workloads.CLIENTS,
        },
    }


# --------------------------------------------------------------------- #
class TracedRunner(measure.Runner):
    """``--trace 1``: everything in ``spec.PER_LAYER`` for one workload."""

    def run(self) -> dict:
        self.build_fixtures()
        self.set_up()
        try:
            return self._measure_layers()
        finally:
            self.tear_down()

    def _measure_layers(self) -> dict:
        load = self.load
        block_s = self.seconds / spec.BLOCKS
        budget = 2.0 * block_s
        port = self.env.entry_node(self.workload).port
        values = {m.name: 0.0 for m in spec.PER_LAYER}
        extra: dict = {}

        load.plan(0)
        warm = load.run_block(budget)
        before = measure.Probe(self, with_ingress=True)
        load.plan(1)
        plain = load.run_block(budget)
        after = measure.Probe(self, with_ingress=True)
        sample = self._block_metrics(plain, before, after)
        for name in ("fetch_mb_per_s", "resim_outputs_per_access",
                     "restarts_per_kaccess", "failed_share"):
            values[name] = sample[name]
        values.update(self._layer_counts(plain, before, after))

        rate = OPEN_LOOP_RATE.get(self.workload.name)
        if rate is not None:
            result = open_loop(load, rate, self.seconds / 2)
            extra["open_loop"] = result.pop("open_loop")
            values.update(result)

        # The same block with tracing negotiated on every connection.
        load.close()
        load.connect(trace=True)
        traced = self._traced_block(load, budget)
        plain_rate = plain.ops / max(plain.wall_s, 1e-9)
        traced_rate = traced.ops / max(traced.wall_s, 1e-9)
        values["obs.trace_overhead_pct"] = (
            100.0 * (plain_rate - traced_rate) / plain_rate if plain_rate else 0.0)

        tracer = Tracer()
        if isinstance(load, workloads.Analyses):
            for client in load.clients:
                client.tracer = tracer
                _time_fetch_info(client, tracer)
            program, traces = dvlib_pass(load, port, tracer)
        else:
            program, traces = raw_pass(load, port, tracer)
        values.update(trace_metrics(tracer.spans, program, traces))
        values.update(client_metrics(tracer.spans))
        self._write_spans(tracer.spans + program)

        load.close()
        values.update(layers.run(self))

        total = workloads.Counts()
        for block in (warm, plain, traced):
            total.merge(block)
        self._check(plain, before, after)
        total.check_errors.extend(plain.check_errors)
        return {
            "workload": self.workload.name, "seed": self.seed,
            "seconds": self.seconds, "layers": values, "extra": extra,
            "attempted": total.attempted, "failed": total.failed,
            "failures": total.failures,
            "check_errors": sorted(set(total.check_errors)),
            "spans": len(tracer.spans) + len(program),
        }

    def _traced_block(self, load, budget: float):
        """Block 1 again, every request carrying a trace of its own."""
        if isinstance(load, workloads.PipelinedOpens):
            load.plan(1, traced=True)
        else:
            load.plan(1)        # DVLib traces by itself (trace=1.0)
        return load.run_block(budget)

    def _write_spans(self, spans: list[dict]) -> None:
        path = os.path.join(daemon.OUT_DIR, f"spans-{self.workload.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


def _time_fetch_info(client, tracer: Tracer) -> None:
    """``fetch_file`` asks ``fetch_info`` first; time that public call on
    its own by shadowing the bound method on this one connection."""
    conn = client.conn
    inner = conn.fetch_info

    def timed(context, filename=None):
        began = time.time()
        try:
            return inner(context, filename)
        finally:
            tracer.add("client.fetch_info", began, time.time(),
                       client.current_access, conn.last_trace_id)

    conn.fetch_info = timed
