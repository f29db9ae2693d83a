"""Metrics-driven elasticity: when to migrate, grow, or shrink.

The policy half (:class:`AutoscalerPolicy`) is pure and deterministic —
a list of per-node load samples in, a list of decisions out — so the
exact same object drives both the live cluster and the DES scale
scenarios (policy changes are validated in virtual time before they
touch a deployment, and a live incident can be replayed in the DES).

The driver half (:class:`Autoscaler`) is deliberately **decentralized**,
after NEXUSAI's Demand Scaling: every node runs its own sampler and only
ever executes migrations whose *source is itself*.  A saturated node
sheds load without asking a coordinator; the placement pins it creates
converge through gossip.  Since every node feeds the same policy the
same samples (modulo sampling skew), the per-node views agree on which
single node should act — and the migration protocol rejects a stale
loser anyway (only the current owner can move a context).  ``ScaleUp`` /
``ScaleDown`` decisions are surfaced as metrics and status hints for the
operator (or the DES, which can actually add and drain nodes); a live
node cannot conjure hardware.

Load is scored from the shard control plane: a context's score is its
blocked-waiter count plus running re-simulations plus queued jobs, and a
node's score is the sum over its contexts.  A node is *saturated* when
its score exceeds ``high`` or its ``op.open.seconds`` p99 exceeds the
SLO; migration picks the hottest context on the hottest saturated node
and moves it to the coldest peer when the peer can absorb it without
saturating — otherwise it escalates to a scale-up (no thrashing: a
post-decision cooldown holds further action while the cluster absorbs
the move).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.errors import DVConnectionLost, SimFSError

__all__ = [
    "NodeLoad",
    "Migrate",
    "ScaleUp",
    "ScaleDown",
    "AutoscalerPolicy",
    "Autoscaler",
]


@dataclass(frozen=True)
class NodeLoad:
    """One node's load sample: per-context scores plus open-latency p99."""

    node_id: str
    contexts: dict[str, float] = field(default_factory=dict)
    p99_open_s: float | None = None

    @property
    def score(self) -> float:
        return float(sum(self.contexts.values()))

    @staticmethod
    def from_sample(sample: dict) -> "NodeLoad":
        """Build from a ``load`` op reply (``ClusterNode.local_load``)."""
        contexts: dict[str, float] = {}
        for name, depth in (sample.get("contexts") or {}).items():
            contexts[str(name)] = (
                float(depth.get("waiters", 0))
                + float(depth.get("sims", 0))
                + float(depth.get("queued", 0))
            )
        p99 = sample.get("p99_open_s")
        return NodeLoad(
            str(sample.get("node")),
            contexts,
            None if p99 is None else float(p99),
        )


@dataclass(frozen=True)
class Migrate:
    context: str
    src: str
    dest: str


@dataclass(frozen=True)
class ScaleUp:
    count: int = 1


@dataclass(frozen=True)
class ScaleDown:
    node_id: str


class AutoscalerPolicy:
    """Deterministic decision function over a set of load samples.

    Ties break lexicographically by node/context id, so every node (and
    every DES run) derives the same decision from the same samples.
    Stateful only in its cooldown counter — construct one per driver.
    """

    def __init__(
        self,
        high: float = 8.0,
        low: float = 1.0,
        slo_p99_s: float | None = None,
        cooldown_ticks: int = 3,
        min_nodes: int = 1,
    ) -> None:
        self.high = high
        self.low = low
        self.slo_p99_s = slo_p99_s
        self.cooldown_ticks = cooldown_ticks
        self.min_nodes = min_nodes
        self._cooldown = 0

    def saturated(self, load: NodeLoad) -> bool:
        if load.score > self.high:
            return True
        return (
            self.slo_p99_s is not None
            and load.p99_open_s is not None
            and load.p99_open_s > self.slo_p99_s
        )

    def decide(self, loads: list[NodeLoad]) -> list:
        """One tick: at most one decision, then a cooldown."""
        if self._cooldown > 0:
            self._cooldown -= 1
            return []
        if not loads:
            return []
        hot = [load for load in loads if self.saturated(load)]
        if hot:
            cold = [load for load in loads if not self.saturated(load)]
            if not cold:
                # Nowhere to shed to: the cluster itself is too small.
                self._cooldown = self.cooldown_ticks
                return [ScaleUp(1)]
            src = max(hot, key=lambda load: (load.score, load.node_id))
            dest = min(cold, key=lambda load: (load.score, load.node_id))
            movable = [
                (score, name)
                for name, score in src.contexts.items()
                if score > 0
            ]
            if not movable:
                # Saturated by latency alone with nothing queued to move
                # (e.g. cold-cache thrash) — not a migration's problem.
                return []
            score, name = max(movable)
            if dest.score + score > self.high:
                # Even the coldest peer would saturate taking it.  A fresh
                # node could host it — unless the context alone exceeds
                # the mark, where more hardware cannot split the load.
                if score <= self.high:
                    self._cooldown = self.cooldown_ticks
                    return [ScaleUp(1)]
                return []
            self._cooldown = self.cooldown_ticks
            return [Migrate(name, src.node_id, dest.node_id)]
        if (
            len(loads) > self.min_nodes
            and all(load.score < self.low for load in loads)
        ):
            victim = min(loads, key=lambda load: (load.score, load.node_id))
            headroom = sum(
                max(0.0, self.high - load.score)
                for load in loads
                if load is not victim
            )
            if headroom >= victim.score:
                self._cooldown = self.cooldown_ticks
                return [ScaleDown(victim.node_id)]
        return []


class Autoscaler:
    """Per-node sampling loop driving :class:`AutoscalerPolicy` live.

    Executes only migrations sourced at its own node; scale hints are
    counted and surfaced through ``rebalance-status``.
    """

    def __init__(self, node, policy: AutoscalerPolicy,
                 interval: float = 2.0) -> None:
        self.node = node
        self.policy = policy
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._last_decisions: list[dict] = []
        self._last_tick_at: float | None = None
        metrics = node.metrics
        self._m_ticks = metrics.counter("autoscale.ticks")
        self._m_migrates = metrics.counter("autoscale.migrations")
        self._m_up = metrics.counter("autoscale.scale_up_hints")
        self._m_down = metrics.counter("autoscale.scale_down_hints")
        self._m_errors = metrics.counter("autoscale.errors")

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"autoscaler-{self.node.node_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:
                self._m_errors.inc()

    def sample(self) -> list[NodeLoad]:
        """This node's load plus every live peer's (best effort: an
        unreachable peer is simply absent from the sample — membership
        will deal with it)."""
        loads = [NodeLoad.from_sample(self.node.local_load())]
        with self.node._lock:
            peers = list(self.node.table.alive_peers())
        for peer in peers:
            try:
                reply = self.node.router.link(peer.node_id).call(
                    {"op": "load"}, timeout=self.node.rpc_timeout
                )
            except (DVConnectionLost, SimFSError, OSError):
                continue
            sample = reply.get("load")
            if isinstance(sample, dict):
                loads.append(NodeLoad.from_sample(sample))
        return loads

    def tick(self) -> list:
        """One sample/decide/act round; returns the policy decisions."""
        self._m_ticks.inc()
        decisions = self.policy.decide(self.sample())
        record: list[dict] = []
        for decision in decisions:
            if isinstance(decision, Migrate):
                entry = {
                    "action": "migrate", "context": decision.context,
                    "src": decision.src, "dest": decision.dest,
                }
                if decision.src == self.node.node_id:
                    try:
                        self.node.migration.migrate(
                            decision.context, decision.dest
                        )
                        entry["executed"] = True
                        self._m_migrates.inc()
                    except (SimFSError, OSError) as exc:
                        entry["executed"] = False
                        entry["detail"] = str(exc)
                        self._m_errors.inc()
                else:
                    entry["executed"] = False  # that node acts, not us
                record.append(entry)
            elif isinstance(decision, ScaleUp):
                self._m_up.inc()
                record.append({"action": "scale_up", "count": decision.count})
            elif isinstance(decision, ScaleDown):
                self._m_down.inc()
                record.append(
                    {"action": "scale_down", "node": decision.node_id}
                )
        # Every decision lands in the node's structured journal too, so
        # `simfs-ctl trace-slow` shows *why* a context moved next to the
        # latency spans of the move itself.
        obs = self.node.server.obs
        for entry in record:
            obs.journal("autoscale", decision=dict(entry))
        with self._lock:
            self._last_decisions = record
            self._last_tick_at = time.time()
        return decisions

    def describe(self) -> dict:
        with self._lock:
            return {
                "interval": self.interval,
                "high": self.policy.high,
                "low": self.policy.low,
                "slo_p99_s": self.policy.slo_p99_s,
                "last_decisions": list(self._last_decisions),
                "last_tick_at": self._last_tick_at,
            }
