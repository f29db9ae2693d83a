"""run ≡ ops: ``ContextShard.handle_run`` leaves exactly what the same ops
leave through ``handle_open`` / ``handle_release`` one by one — replies,
reference counts, ``open_files``, the waiter table, the launched
simulations, the agent's state and every ``dv.*`` / ``cache.*`` counter.
"""

from hypothesis import given, settings, strategies as st

from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import (
    FileNotInContextError,
    InvalidArgumentError,
    SimFSError,
)
from repro.core.perfmodel import PerformanceModel
from repro.dv.coordinator import DVCoordinator
from repro.simulators import SyntheticDriver

STEPS, RESIDENT = 48, range(1, 25)


class RecordingExecutor:
    def __init__(self):
        self.events = []

    def launch(self, context, sim):
        self.events.append((
            "launch", sim.sim_id, sim.start_restart, sim.stop_restart,
            sim.parallelism_level, sim.is_prefetch, sim.owner_client,
            tuple(sim.planned_keys),
        ))

    def kill(self, sim_id):
        self.events.append(("kill", sim_id))


def build():
    """A coordinator with one shard: steps 1..24 resident, 25..48 not
    (an open of those misses and launches), two clients attached."""
    executor = RecordingExecutor()
    dv = DVCoordinator(executor)
    config = ContextConfig(
        name="ctx", delta_d=1, delta_r=4, num_timesteps=STEPS, smax=2,
    )
    context = SimulationContext(
        config=config,
        driver=SyntheticDriver(config.geometry, prefix="ctx", cells=4),
        perf=PerformanceModel(tau_sim=0.01, alpha_sim=0.05),
    )
    shard = dv.register_context(context)
    for key in RESIDENT:
        shard.area.insert(key, cost=1.0)
    for client in ("c1", "c2"):
        shard.client_connect(client)
    return dv, shard, executor, context


def observable(dv, shard, executor):
    detectors = {
        cid: (
            agent.detector._last_key, agent.detector._last_delta,
            agent.detector.confirmed, agent.detector.tau_cli, agent.level,
            agent._frontier, agent._ramp_s, sorted(agent.prefetched_keys),
            agent.launched_actions,
        )
        for cid, agent in shard.agents.items()
    }
    counters = {
        name: entry.get("value", entry.get("count"))
        for name, entry in dv.metrics.snapshot().items()
        if name.startswith(("dv.", "cache."))
    }
    return {
        "refcounts": {k: shard.area.refcount(k) for k in shard.area.keys()},
        "open_files": {c: list(keys) for c, keys in shard.open_files.items()},
        "waiters": {k: sorted(v) for k, v in shard.waiters.items()},
        "in_flight": dict(shard.in_flight),
        "queued": [sim.sim_id for sim in shard.pending_jobs],
        "executor": list(executor.events),
        "last_served": dict(shard.last_served),
        "agents": detectors,
        "counters": counters,
    }


def shape(result):
    """A result or error, comparable across the two shards."""
    if isinstance(result, SimFSError):
        return (type(result).__name__, int(result.code), str(result))
    return result


#: The op kinds of the issue: what the file name is decides hit / miss /
#: unknown file / another context's naming; whether it is held decides the
#: release.
NAMES = st.one_of(
    st.integers(1, 24).map(lambda k: ("key", k)),            # a hit
    st.integers(25, STEPS).map(lambda k: ("key", k)),        # a miss
    st.just(("name", "ctx_out_99999999.sdf")),               # beyond the run
    st.just(("name", "other_out_00000003.sdf")),             # not our naming
    st.just(("name", "ctx_restart_00000001.sdf")),           # not an output
)
OPS = st.tuples(st.booleans(), NAMES, st.sampled_from(["c1", "c1", "c2", "ghost"]))
RUNS = st.lists(st.lists(OPS, min_size=1, max_size=12), min_size=1, max_size=6)


@settings(max_examples=120, deadline=None)
@given(RUNS)
def test_a_run_leaves_what_its_ops_leave(runs):
    ran, stepped = build(), build()
    filename = lambda ctx, name: (  # noqa: E731
        ctx.filename_of(name[1]) if name[0] == "key" else name[1]
    )
    for number, run in enumerate(runs):
        now = 10.0 + number
        # One handle_run per client stretch, as the server cuts them.
        replies_run, replies_ops = [], []
        start = 0
        while start < len(run):
            client = run[start][2]
            end = start
            while end < len(run) and run[end][2] == client:
                end += 1
            stretch = run[start:end]
            stamps = []
            replies_run += ran[1].handle_run(
                client,
                [(is_open, filename(ran[3], name), None)
                 for is_open, name, _client in stretch],
                now, stamps,
            )
            assert len(stamps) in (0, len(stretch))  # 0: not attached
            assert stamps == sorted(stamps)
            start = end
        for is_open, name, client in run:
            shard, fname = stepped[1], filename(stepped[3], name)
            try:
                if is_open:
                    replies_ops.append(shard.handle_open(client, fname, now))
                else:
                    replies_ops.append(shard.handle_release(client, fname, now))
            except SimFSError as exc:
                replies_ops.append(exc)
        assert [shape(r) for r in replies_run] == [shape(r) for r in replies_ops]
        assert observable(*ran[:3]) == observable(*stepped[:3])


def test_a_failed_op_does_not_stop_the_ones_behind_it():
    dv, shard, executor, context = build()
    name = context.filename_of
    results = shard.handle_run("c1", [
        (True, name(1), None),
        (False, name(2), None),                    # not held
        (True, "other_out_00000003.sdf", None),    # not this context's
        (True, name(30), None),                    # a miss
        (False, name(1), None),
    ], 1.0)
    assert results[0].available and results[4] is None
    assert isinstance(results[1], InvalidArgumentError)
    assert isinstance(results[2], FileNotInContextError)
    assert not results[3].available and results[3].estimated_wait > 0
    assert shard.area.refcount(1) == 0 and shard.open_files["c1"] == []
    assert shard.waiters == {30: {"c1"}}
    snapshot = dv.metrics.snapshot()
    assert snapshot["dv.ctx.opens"]["value"] == 2
    assert snapshot["dv.ctx.hits"]["value"] == 1
    assert snapshot["dv.ctx.misses"]["value"] == 1
    assert snapshot["dv.ctx.releases"]["value"] == 1


def test_a_client_that_is_not_attached_fails_every_op_alike():
    _dv, shard, executor, context = build()
    results = shard.handle_run(
        "ghost", [(True, context.filename_of(1), None)] * 3, 1.0
    )
    assert len(results) == 3
    assert all(isinstance(r, InvalidArgumentError) for r in results)
    assert "not attached" in str(results[0]) and executor.events == []


def test_acquire_asks_for_every_file_and_raises_the_first_failure():
    _dv, shard, _executor, context = build()
    name = context.filename_of
    try:
        shard.handle_acquire("c1", [name(1), "nope.sdf", name(2)], 1.0)
    except FileNotInContextError as exc:
        assert "nope.sdf" in str(exc)
    else:
        raise AssertionError("the bad name did not raise")
    assert shard.open_files["c1"] == [1, 2]
