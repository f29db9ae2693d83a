"""The agent's decisions are pinned: a golden recorded before the planner
calls moved behind the frontier test must replay identically.

Each scenario feeds one agent a ``resim_scan``-shaped trace (a forward
run, a backward run, stride-3 windows, shuffled jumps - built from
:mod:`repro.traces.patterns` the way ``benchmarks/e2e`` lays a slot out)
against a small model of the storage area: a miss makes its canonical job
resident, a launch makes its extent resident, the oldest steps beyond the
capacity are evicted (which is what produces pollution).  Only what the
DV acts on is recorded: launch extents, ``pattern_broken``, ``pollution``.

``python tests/prefetch/test_agent_golden.py`` rewrites the fixture from
whatever ``repro`` is on the path; it was recorded at the parent of the
change that moved the planner calls.
"""

import json
import os
import random

import pytest

from repro.core.context import ContextConfig
from repro.core.perfmodel import PerformanceModel, ScalingModel
from repro.prefetch import PrefetchAgent
from repro.traces.patterns import backward_trace, forward_trace
from repro.util.ema import ExponentialMovingAverage

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "agent_decisions.json")

STEPS, PER, GAP = 1024, 8, 8

#: name -> (alpha, tau_sim, seconds between accesses, levels, ramp, capacity)
SCENARIOS = {
    "scan_fast_analysis": (0.02, 0.012, 0.004, (1,), True, 128),
    "slow_analysis": (0.2, 0.012, 0.05, (1,), True, 128),
    "no_latency_levels_no_ramp": (0.0, 0.012, 0.004, (1, 2, 4), False, 64),
    "area_smaller_than_a_batch": (0.02, 0.012, 0.004, (1,), True, 16),
}


def scan_trace(seed: int, blocks: int = 3) -> list[int]:
    key = lambda interval: interval * PER + 1  # noqa: E731
    keys: list[int] = []
    for block in range(blocks):
        rng = random.Random(f"{seed}/{block}")
        at = (block % 2) * 40 + GAP
        bwd_top = key(at) + 48 - 1
        at += 48 // PER
        keys += forward_trace(key(at), 48, STEPS)
        keys += backward_trace(bwd_top, 48, STEPS)
        at += 48 // PER + GAP
        keys += forward_trace(key(at), 8 * 12, STEPS)[::3]
        at += 12 + GAP
        jumps = [key(at + j) + (1 + (2 * j) % PER) for j in range(12)]
        rng.shuffle(jumps)
        keys += jumps
    return keys


def replay(name: str) -> dict:
    alpha, tau_sim, dt, levels, ramp, capacity = SCENARIOS[name]
    config = ContextConfig(
        name="scan", delta_d=1, delta_r=PER, num_timesteps=STEPS, smax=4,
        ema_smoothing=0.2, prefetch_ramp_doubling=ramp,
    )
    perf = PerformanceModel(
        tau_sim=tau_sim, alpha_sim=alpha, nodes_per_level=levels,
        scaling=ScalingModel(serial_fraction=0.0),
    )
    agent = PrefetchAgent(
        config, perf, ExponentialMovingAverage(0.2, initial=alpha)
    )
    geometry = config.geometry
    resident: dict[int, None] = {}  # insertion-ordered: oldest evicted first

    def produce(start: int, stop: int) -> None:
        for out in geometry.outputs_between_restarts(start, stop):
            resident.pop(out, None)
            resident[out] = None
        while len(resident) > capacity:
            del resident[next(iter(resident))]

    decisions = []
    now = 0.0
    keys = scan_trace(7)
    for idx, key in enumerate(keys):
        now += dt
        hit = key in resident
        decision = agent.observe_access(key, now, hit, dt)
        if decision.pollution:
            agent.reset()
        if not hit:
            start, stop = geometry.resim_job_extent(key)
            produce(start, stop)
            agent.note_demand_job(start, stop)
        launches = [
            [a.start_restart, a.stop_restart, a.parallelism_level]
            for a in decision.launch
        ]
        for start, stop, _level in launches:
            produce(start, stop)
        if launches or decision.pattern_broken or decision.pollution:
            decisions.append(
                [idx, launches, decision.pattern_broken, decision.pollution]
            )
    return {
        "accesses": len(keys),
        "launched_actions": agent.launched_actions,
        "decisions": decisions,
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_decisions_replay_the_golden(name):
    with open(FIXTURE) as fh:
        golden = json.load(fh)[name]
    assert replay(name) == golden


def test_the_golden_covers_every_outcome():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    decisions = [d for scenario in golden.values() for d in scenario["decisions"]]
    assert any(d[1] for d in decisions), "no launch recorded"
    assert any(len(d[1]) > 1 for d in decisions), "no multi-job batch recorded"
    assert any(d[2] for d in decisions), "no pattern_broken recorded"
    assert any(d[3] for d in decisions), "no pollution recorded"
    assert len({d[1][0][2] for d in decisions if d[1]}) > 1, "one level only"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump({name: replay(name) for name in sorted(SCENARIOS)}, fh,
                  separators=(",", ":"))
        fh.write("\n")
