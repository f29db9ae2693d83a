"""Unit tests for the sharded control plane: job queue ordering, shard
isolation, and the routing coordinator's aggregates."""

import threading

import pytest

from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import ContextError
from repro.core.perfmodel import PerformanceModel
from repro.dv.coordinator import DVCoordinator
from repro.dv.shard import JobQueue, RunningSim
from repro.simulators import SyntheticDriver


def make_sim(sim_id, is_prefetch=False):
    return RunningSim(
        sim_id=sim_id,
        context_name="ctx",
        start_restart=0,
        stop_restart=1,
        parallelism_level=1,
        launch_time=0.0,
        is_prefetch=is_prefetch,
        owner_client="a1",
        planned_keys=[sim_id],
    )


class TestJobQueue:
    def test_demand_drains_before_prefetch(self):
        queue = JobQueue()
        queue.push(make_sim(1, is_prefetch=True))
        queue.push(make_sim(2, is_prefetch=False))
        queue.push(make_sim(3, is_prefetch=True))
        queue.push(make_sim(4, is_prefetch=False))
        assert [queue.pop().sim_id for _ in range(4)] == [2, 4, 1, 3]

    def test_fifo_within_class(self):
        queue = JobQueue()
        for sim_id in (5, 6, 7):
            queue.push(make_sim(sim_id))
        assert [queue.pop().sim_id for _ in range(3)] == [5, 6, 7]

    def test_len_and_bool(self):
        queue = JobQueue()
        assert not queue and len(queue) == 0
        queue.push(make_sim(1))
        assert queue and len(queue) == 1

    def test_iteration_in_service_order(self):
        queue = JobQueue()
        queue.push(make_sim(1, is_prefetch=True))
        queue.push(make_sim(2))
        assert [sim.sim_id for sim in queue] == [2, 1]

    def test_prune_killed(self):
        queue = JobQueue()
        live, dead = make_sim(1), make_sim(2)
        dead.killed = True
        queue.push(live)
        queue.push(dead)
        queue.prune_killed()
        assert [sim.sim_id for sim in queue] == [1]


def make_coordinator(names=("alpha", "beta")):
    class FakeExecutor:
        def __init__(self):
            self.launched = []

        def launch(self, context, sim):
            self.launched.append(sim)

        def kill(self, sim_id):
            pass

    executor = FakeExecutor()
    dv = DVCoordinator(executor)
    contexts = {}
    for name in names:
        config = ContextConfig(name=name, delta_d=1, delta_r=4, num_timesteps=64)
        driver = SyntheticDriver(config.geometry, prefix=name, cells=8)
        context = SimulationContext(
            config=config, driver=driver,
            perf=PerformanceModel(tau_sim=1.0, alpha_sim=0.0),
        )
        dv.register_context(context)
        dv.client_connect("a1", name)
        contexts[name] = context
    return dv, contexts, executor


class TestShardIsolation:
    def test_each_context_gets_its_own_lock(self):
        dv, _, _ = make_coordinator()
        assert dv.shard("alpha").lock is not dv.shard("beta").lock

    def test_unknown_context_raises(self):
        dv, _, _ = make_coordinator()
        with pytest.raises(ContextError):
            dv.shard("gamma")

    def test_get_state_is_the_shard(self):
        dv, _, _ = make_coordinator()
        assert dv.get_state("alpha") is dv.shard("alpha")

    def test_op_on_one_shard_proceeds_while_other_lock_is_held(self):
        dv, contexts, _ = make_coordinator()
        done = threading.Event()

        def beta_open():
            dv.handle_open("a1", "beta", contexts["beta"].filename_of(1), 0.0)
            done.set()

        with dv.shard("alpha").lock:  # a stuck alpha op must not stall beta
            thread = threading.Thread(target=beta_open)
            thread.start()
            assert done.wait(timeout=5.0), "beta op blocked behind alpha's lock"
            thread.join()

    def test_sim_ids_unique_across_shards(self):
        dv, contexts, executor = make_coordinator()
        dv.handle_open("a1", "alpha", contexts["alpha"].filename_of(2), 0.0)
        dv.handle_open("a1", "beta", contexts["beta"].filename_of(2), 0.0)
        ids = [sim.sim_id for sim in executor.launched]
        assert len(ids) == len(set(ids)) == 2


class TestAggregates:
    def test_counters_sum_over_shards(self):
        dv, contexts, _ = make_coordinator()
        for name, context in contexts.items():
            dv.handle_open("a1", name, context.filename_of(2), 0.0)
            for key in (1, 2, 3, 4):
                dv.sim_file_closed(name, context.filename_of(key), 1.0)
        assert dv.total_restarts == 2
        assert dv.total_simulated_outputs == 8

    def test_stats_snapshot_shape(self):
        dv, contexts, _ = make_coordinator()
        dv.handle_open("a1", "alpha", contexts["alpha"].filename_of(2), 0.0)
        snapshot = dv.stats_snapshot()
        assert [c["context"] for c in snapshot["contexts"]] == ["alpha", "beta"]
        assert snapshot["totals"]["restarts"] == 1
        alpha = snapshot["contexts"][0]
        assert alpha["clients"] == 1
        assert alpha["running_sims"] == 1
        # The metrics plane recorded the miss.
        assert snapshot["metrics"]["dv.alpha.misses"]["value"] == 1
        assert snapshot["metrics"]["dv.alpha.opens"]["value"] == 1


class TestKillUselessPrefetches:
    """The Sec. IV-C kill rule, called on every broken pattern."""

    def make_shard(self):
        dv, _, executor = make_coordinator(names=("ctx",))
        executor.killed = []
        executor.kill = executor.killed.append
        return dv.shard("ctx")

    def test_kills_only_this_clients_unwaited_prefetches(self):
        shard = self.make_shard()
        orphan_running = make_sim(1, is_prefetch=True)
        orphan_queued = make_sim(2, is_prefetch=True)
        awaited = make_sim(3, is_prefetch=True)
        demand = make_sim(4)
        foreign = make_sim(5, is_prefetch=True)
        foreign.owner_client = "a2"
        for sim in (orphan_running, awaited, demand, foreign):
            shard.sims[sim.sim_id] = sim
        shard.pending_jobs.push(orphan_queued)
        for sim in (orphan_running, orphan_queued, awaited):
            shard.in_flight[sim.sim_id] = sim.sim_id
        shard.waiters[3] = {"a2"}  # someone blocks on the awaited sim's key

        shard._kill_useless_prefetches("a1")

        assert orphan_running.killed and orphan_queued.killed
        assert not (awaited.killed or demand.killed or foreign.killed)
        assert sorted(shard.sims) == [3, 4, 5]
        assert len(shard.pending_jobs) == 0
        assert shard._executor.killed == [1]  # the queued one never ran
        assert shard.in_flight == {3: 3}
        assert shard.total_killed_sims == 2

    def test_idle_shard_returns_before_scanning(self):
        shard = self.make_shard()

        class EmptyQueue:
            def __bool__(self):
                return False

        # Anything beyond the emptiness test (iterating sorts the heap,
        # prune_killed rebuilds it) would raise on this stand-in.
        shard.pending_jobs = EmptyQueue()
        shard._kill_useless_prefetches("a1")
        assert shard.total_killed_sims == 0
