"""Live tests for the multi-core shard-executor pool.

Each test spawns a real :class:`MultiCoreServer` — a supervisor plus N
forked executor processes behind a shared listening port — and drives it
over the real TCP wire with DVLib.  Covered here:

* basic serve + the merged metrics plane (``exec.<i>.`` labels),
* cross-executor forwarding when a client lands on a non-owner,
* graceful stop: pipelined ``batch`` traffic during ``stop(drain)``
  loses no replies and fails cleanly afterwards,
* kill -9 of an executor mid-wait: detection, shard reassignment,
  waiter replay, and restart-on-crash incarnation bumps.
"""

import os
import threading
import time

import pytest

from repro.core.errors import ConnectionLostError
from tests.multicore.conftest import build_pool, make_context, out_name


class TestPoolServe:
    @pytest.mark.parametrize("accept", ["fdpass", None])
    def test_retired_accept_modes_rejected(self, accept):
        from repro.core.errors import InvalidArgumentError
        from repro.dv.multicore import MultiCoreServer

        with pytest.raises(InvalidArgumentError):
            MultiCoreServer(workers=2, accept=accept)

    def test_serves_and_merges_stats(self, tmp_path):
        harness = build_pool(tmp_path, names=("ctxa", "ctxb"), workers=2)
        try:
            conn = harness.connect("mc-basic")
            for name in ("ctxa", "ctxb"):
                conn.attach(name)
                conn.wait_ready(name, out_name(name), timeout=30)
                assert os.path.exists(
                    os.path.join(harness.storage_dirs[name], out_name(name))
                )

            stats = conn.stats()
            server = stats["server"]
            assert server["mode"] == "multiproc"
            assert server["workers"] == 2
            assert sorted(server["executors"]) == ["exec.0", "exec.1"]
            for info in server["executors"].values():
                assert info["alive"] is True
                assert info["incarnation"] == 1

            metrics = stats["metrics"]
            # Pool-merged series sit at bare names; per-executor copies
            # are labelled with their executor prefix (dv-stats contract).
            assert "sup.executors_alive" in metrics
            assert metrics["sup.executors_alive"]["value"] == 2
            assert any(k.startswith("exec.0.") for k in metrics)
            assert any(k.startswith("exec.1.") for k in metrics)

            # Per-op service time histograms expose percentiles.
            op_hists = [
                v for k, v in metrics.items()
                if k.startswith("op.") and k.endswith(".seconds")
            ]
            assert op_hists, sorted(metrics)
            assert all("p50" in h and "p95" in h and "p99" in h
                       for h in op_hists)

            # Every context reports which executor owns it.
            executors = {c["context"]: c["executor"] for c in stats["contexts"]}
            assert set(executors) == {"ctxa", "ctxb"}
            for name, exec_id in executors.items():
                assert exec_id == harness.owner_of(name)

            for name in ("ctxa", "ctxb"):
                conn.finalize(name)
            conn.close()
        finally:
            harness.pool.stop(drain_timeout=2.0)

    def test_forwarded_open_crosses_executors(self, tmp_path):
        harness = build_pool(tmp_path, names=("ctxa",), workers=2)
        try:
            owner = harness.owner_of("ctxa")
            ingress = harness.other_than(owner)
            conn = harness.connect_to(ingress, "mc-fwd")
            conn.attach("ctxa")
            conn.wait_ready("ctxa", out_name("ctxa"), timeout=30)

            metrics = conn.stats()["metrics"]
            assert metrics["mc.fwd_sent"]["value"] >= 1
            assert metrics["mc.fwd_received"]["value"] >= 1
            assert metrics["mc.ready_routed"]["value"] >= 1
            conn.finalize("ctxa")
            conn.close()
        finally:
            harness.pool.stop(drain_timeout=2.0)


class TestGracefulStop:
    def test_drain_completes_inflight_batches(self, tmp_path):
        """Satellite stress: pipelined ``batch`` frames racing
        ``stop(drain_timeout)`` either complete with a full reply set or
        fail with a clean connection-lost error — never a partial or
        silently dropped reply."""
        harness = build_pool(
            tmp_path, names=("ctxa",), workers=2, alpha_delay=0.05
        )
        owner = harness.owner_of("ctxa")
        conn = harness.connect_to(owner, "mc-drain")
        conn.attach("ctxa")

        completed, lost, broken = [], [], []
        stop_pumping = threading.Event()

        def pump(slot):
            serial = 0
            while not stop_pumping.is_set():
                ops = [
                    {"op": "open", "context": "ctxa",
                     "file": out_name("ctxa", 2 * ((slot * 97 + serial + i) % 17 + 1))}
                    for i in range(6)
                ]
                serial += len(ops)
                try:
                    replies = conn.batch(ops)
                except ConnectionLostError:
                    lost.append(slot)
                    return
                if len(replies) != len(ops) or not all(
                    isinstance(r, dict) for r in replies
                ):
                    broken.append((slot, replies))
                    return

                completed.append(len(replies))

        pumps = [threading.Thread(target=pump, args=(i,)) for i in range(3)]
        for t in pumps:
            t.start()
        time.sleep(0.4)
        harness.pool.stop(drain_timeout=10.0)
        stop_pumping.set()
        for t in pumps:
            t.join(timeout=30)
            assert not t.is_alive()

        assert not broken, broken
        assert completed, "no batch completed before the drain"
        # Post-drain the connection is gone: a fresh op must fail with
        # the connection-lost error, not hang or return garbage.
        with pytest.raises(ConnectionLostError):
            conn.batch([{"op": "open", "context": "ctxa",
                         "file": out_name("ctxa")}])
        conn.close()


class TestFailover:
    def test_kill9_mid_wait_replays_and_restarts(self, tmp_path):
        """Acceptance: SIGKILL one executor while a forwarded wait is
        pending on it.  The supervisor must detect the death, reassign
        the shard, replay the waiter, and respawn the executor with a
        bumped incarnation — the client's wait_ready just succeeds."""
        harness = build_pool(
            tmp_path, names=("ctxa",), workers=2, alpha_delay=1.5
        )
        try:
            owner = harness.owner_of("ctxa")
            survivor = harness.other_than(owner)
            victim_pid = harness.pid_of(owner)
            conn = harness.connect_to(survivor, "mc-kill")
            conn.attach("ctxa")

            failures = []

            def waiter():
                try:
                    conn.wait_ready("ctxa", out_name("ctxa"), timeout=60)
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    failures.append(exc)

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.6)  # wait registered + forwarded, sim still delayed
            os.kill(victim_pid, 9)

            thread.join(timeout=60)
            assert not thread.is_alive(), "waiter never released"
            assert not failures, failures
            assert os.path.exists(
                os.path.join(harness.storage_dirs["ctxa"], out_name("ctxa"))
            )

            stats = conn.stats()
            info = stats["server"]["executors"][owner]
            assert info["incarnation"] == 2
            assert info["alive"] is True
            assert info["pid"] != victim_pid
            assert stats["metrics"]["sup.executor_restarts"]["value"] >= 1
            conn.close()
        finally:
            harness.pool.stop(drain_timeout=2.0)

    def test_kill9_without_restart_reassigns_shards(self, tmp_path):
        """With restart disabled the dead executor's contexts move to the
        survivors permanently; new opens are served there."""
        harness = build_pool(
            tmp_path, names=("ctxa", "ctxb"), workers=2,
            restart_crashed=False,
        )
        try:
            owner = harness.owner_of("ctxa")
            survivor = harness.other_than(owner)
            conn = harness.connect_to(survivor, "mc-norestart")
            os.kill(harness.pid_of(owner), 9)

            deadline = time.monotonic() + 10
            while harness.owner_of("ctxa") != survivor:
                assert time.monotonic() < deadline, "ring never reassigned"
                time.sleep(0.05)

            conn.attach("ctxa")
            conn.wait_ready("ctxa", out_name("ctxa"), timeout=30)

            stats = conn.stats()
            assert stats["server"]["executors"][owner]["alive"] is False
            assert stats["metrics"]["sup.executors_alive"]["value"] == 1
            conn.finalize("ctxa")
            conn.close()
        finally:
            harness.pool.stop(drain_timeout=2.0)
