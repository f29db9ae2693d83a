"""DES live migration: the virtual mirror of the migrate protocol.

Waiter capture + placement pin + warm restore + delayed replay, run on
the virtual clock: no waiter is lost, an in-flight re-simulation resumes
on the destination, and the handed-off cache keeps a migrated client's
re-reads hits.
"""

import pytest

from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import InvalidArgumentError
from repro.core.perfmodel import PerformanceModel
from repro.des.components import VirtualCluster
from repro.simulators import SyntheticDriver


def build_context(name, num_timesteps=64, tau_sim=5.0, alpha_sim=30.0):
    config = ContextConfig(
        name=name, delta_d=2, delta_r=8, num_timesteps=num_timesteps
    )
    driver = SyntheticDriver(config.geometry, prefix=name)
    return SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=tau_sim, alpha_sim=alpha_sim),
    )


class TestMigrateContext:
    def test_hot_migration_loses_no_waiters(self):
        """Migrating a context with blocked waiters mid-run: every wait
        resolves on the destination, nothing falls back to a retry."""
        cluster = VirtualCluster(node_ids=("a", "b"))
        context = build_context("hot")
        cluster.add_context(context)
        src = cluster.owner_of("hot")
        dest = "b" if src == "a" else "a"
        analysis = cluster.add_analysis(
            context, keys=list(range(1, 13)), tau_cli=1.0
        )
        # Freeze the world mid-analysis, while a restart is in flight and
        # the client is blocked on it, then migrate under the waiter.
        cluster.run(until=10.0)
        shard = cluster.nodes[src].coordinator.shard("hot")
        with shard.lock:
            blocked = sum(len(w) for w in shard.waiters.values())
        assert blocked >= 1
        moved = cluster.migrate_context("hot", dest, freeze=0.05)
        assert moved == blocked
        cluster.run()
        stats = cluster.stats()
        assert analysis.done
        assert stats["migrations"] == 1
        assert stats["migrated_waiters"] == moved
        # The restart that was in flight at cutover resumed on the
        # destination rather than starting over.
        assert stats["resumed_sims"] >= 1
        assert stats["pins"] == {"hot": dest}
        assert cluster.owner_of("hot") == dest
        assert stats["replication"]["lost_waiters"] == 0
        assert stats["failovers"] == 0

    def test_migration_keeps_the_cache_warm(self):
        """The storage-manifest handoff: keys resident at the source are
        hits on the destination, so a migrated client's re-reads don't
        re-simulate."""
        cluster = VirtualCluster(node_ids=("a", "b"))
        context = build_context("warm")
        cluster.add_context(context)
        src = cluster.owner_of("warm")
        dest = "b" if src == "a" else "a"
        first = cluster.add_analysis(
            context, keys=[1, 2, 3, 4], tau_cli=0.1
        )
        cluster.run()
        assert first.done and first.miss_count > 0
        cluster.migrate_context("warm", dest)
        second = cluster.add_analysis(
            context, keys=[1, 2, 3, 4], tau_cli=0.1,
            start_at=cluster.engine.now(),
        )
        cluster.run()
        assert second.done
        assert second.miss_count == 0  # served from the handed-off cache

    def test_migrate_to_self_and_bad_targets(self):
        cluster = VirtualCluster(node_ids=("a", "b"))
        context = build_context("ctx")
        cluster.add_context(context)
        src = cluster.owner_of("ctx")
        assert cluster.migrate_context("ctx", src) == 0
        with pytest.raises(InvalidArgumentError):
            cluster.migrate_context("ghost", src)
        with pytest.raises(InvalidArgumentError):
            cluster.migrate_context("ctx", "nope")

