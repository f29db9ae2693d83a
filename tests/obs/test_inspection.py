"""The inspection ops of a plain daemon: one implementation with a
cluster node's (``repro.obs.inspection``), fan-out off."""

from repro.dv.server import DVServer


def test_trace_slow_clamps_its_limit_like_a_node():
    """``limit`` bounds the spans and the journal alike, and is at least
    1 — a daemon once answered ``"limit": 0`` with every journal entry."""
    server = DVServer()
    now = server.obs.now()
    for idx in range(3):
        server.obs.record("sim.wait", None, now - 5.0 - idx, now)
        server.obs.journal("migrate.cutover", dest=f"n{idx}")
    for limit, kept in ((0, 1), (2, 2), (9, 3)):
        reply = server._answer(None, {"op": "trace_slow", "limit": limit})
        view = reply["slow"]
        assert len(view["spans"]) == kept and len(view["journal"]) == kept
        assert [e["dest"] for e in view["journal"]] == ["n0", "n1", "n2"][3 - kept:]
        assert view["nodes"] == ["dv"] and view["unreachable"] == []
