"""The inspection ops — ``trace``, ``trace_slow``, ``metrics_text`` — of
one daemon, cluster node or not.

A node answers from its own recorder and registry and, unless the query
says ``"fanout": 0``, merges what every peer answers to the same query
with fan-out off.  A peer that cannot be reached is listed in
``unreachable``, never fatal (``simfs-ctl`` prints the partial view
with a warning).  ``Inspection.peers`` is the node's fan-out:
``peers(query)`` yields ``(peer_id, reply or None)`` for every other
node.  A plain daemon has no peers (``None``), so it answers like a node
asked not to fan out.
"""

from __future__ import annotations

from repro.core.errors import InvalidArgumentError
from repro.obs.export import render_prometheus

__all__ = ["Inspection"]


class Inspection:
    """Handlers ``(conn, message) -> payload`` of the three inspection
    ops over one node's span recorder and metrics registry."""

    def __init__(self, obs, metrics) -> None:
        self.obs = obs
        self.metrics = metrics
        #: The cluster fan-out (see the module docstring); ``None`` when
        #: there are no peers.
        self.peers = None

    def exposition(self) -> str:
        """Prometheus text of this node's metrics plane (``/metrics``)."""
        return render_prometheus(self.metrics.snapshot(), self.obs.exemplars())

    def _gather(self, message: dict, query: dict, key: str | None = None):
        """Ask every peer ``query`` with fan-out off, unless ``message``
        turns fan-out off or there are no peers.  Returns ``(answers,
        nodes, unreachable)``: per peer that answered ``(peer_id,
        payload)`` — the reply's ``key`` entry, or the reply itself —
        or ``None`` when nobody was asked."""
        answers, nodes, unreachable = None, [self.obs.node], []
        if self.peers is not None and message.get("fanout", 1):
            answers = []
            for peer_id, reply in self.peers(dict(query, fanout=0)):
                if reply is None:
                    unreachable.append(peer_id)
                    continue
                payload = (reply.get(key) or {}) if key else reply
                answers.append((peer_id, payload))
                nodes.extend(payload.get("nodes") or (peer_id,))
                unreachable.extend(payload.get("unreachable") or ())
        return answers, sorted(set(nodes)), sorted(set(unreachable))

    def trace(self, conn, message: dict) -> dict:
        """One trace's spans from every reachable node, deduplicated by
        span id and sorted by start time."""
        trace_id = message["trace_id"]
        if not trace_id:
            raise InvalidArgumentError("trace requires a non-empty 'trace_id'")
        spans = {span["span_id"]: span for span in self.obs.trace(trace_id)}
        answers, nodes, unreachable = self._gather(
            message, {"op": "trace", "trace_id": trace_id}, "trace"
        )
        for _peer_id, payload in answers or ():
            for span in payload.get("spans") or ():
                spans.setdefault(span.get("span_id"), span)
        return {"trace": {
            "trace_id": trace_id.lower(),
            "spans": sorted(
                spans.values(),
                key=lambda s: (s.get("start", 0.0), s.get("end", 0.0)),
            ),
            "nodes": nodes,
            "unreachable": unreachable,
        }}

    def trace_slow(self, conn, message: dict) -> dict:
        """The slowest spans and the decision journals of every reachable
        node; ``limit`` (at least 1) bounds both."""
        limit = max(1, message.get("limit", 20))
        spans = self.obs.slow(limit)
        journal = self.obs.journal_entries(limit=limit)
        answers, nodes, unreachable = self._gather(
            message, {"op": "trace_slow", "limit": limit}, "slow"
        )
        for _peer_id, payload in answers or ():
            spans.extend(payload.get("spans") or ())
            journal.extend(payload.get("journal") or ())
        spans.sort(key=lambda s: s.get("duration", 0.0), reverse=True)
        journal.sort(key=lambda e: e.get("ts", 0.0))
        return {"slow": {
            "spans": spans[:limit],
            "journal": journal[-limit:],
            "nodes": nodes,
            "unreachable": unreachable,
        }}

    def metrics_text(self, conn, message: dict) -> dict:
        """This node's exposition; fanned out, every reachable node's,
        each under a ``# node <id>`` line, for ``simfs-ctl
        metrics-export`` (a scraper wanting one node's series reads that
        node's ``/metrics``)."""
        text = self.exposition()
        answers, nodes, unreachable = self._gather(
            message, {"op": "metrics_text"}
        )
        if answers is not None:
            text = "\n".join([f"# node {self.obs.node}\n{text}"] + [
                f"# node {peer_id}\n{payload.get('text') or ''}"
                for peer_id, payload in answers
            ])
        return {"text": text, "nodes": nodes, "unreachable": unreachable}
