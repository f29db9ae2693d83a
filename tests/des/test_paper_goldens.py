"""Exact goldens for the virtual-time results behind the paper figures.

The DES of one daemon is the reproduction's anchor: these values were
captured before the DES was last edited and must not move.  Fig. 13 runs
at reduced scale (16 analyses of 150 steps instead of 40 of 600).  The
prefetch ablation (noisy-queue rows included) and Figs. 16-19 run in the
shape of their ``benchmarks/bench_*.py`` at full scale, which costs
milliseconds.  A strided, partly-resident scan pins the simulated-output
and kill counts too: a re-simulation that re-announces an output which
was resident at its launch, or a launch that draws its queueing delay
more than once, moves them.
"""

import random

import pytest

from repro.core.context import SimulationContext
from repro.costs import overlap_sweep
from repro.des import VirtualSimFS, latency_experiment, scaling_experiment
from repro.simulators import (
    COSMO_EVAL_CONFIG,
    COSMO_EVAL_PERF,
    FLASH_EVAL_CONFIG,
    FLASH_EVAL_PERF,
    SyntheticDriver,
)

#: (prefetch, doubling ramp) -> (running_time, total_restarts), COSMO
#: rates, m=288, smax=8.
ABLATION = {
    (False, False): (1178.4, 24),
    (True, False): (214.0999999999997, 28),
    (True, True): (764.4000000000003, 25),
}

#: EMA smoothing -> (running_time, total_restarts), prefetch on (direct
#: s_opt) under a batch queue adding |N(0, 20 s)| to each restart
#: (``random.Random(7)``), COSMO rates, m=288, smax=8.
NOISY_QUEUE = {
    0.1: (253.72717338120364, 32),
    0.5: (242.78247838371377, 21),
    1.0: (242.78247838371377, 22),
}

#: Keys ``((i * 37) % 288) + 1`` for i < 400, prefetch on, COSMO rates,
#: smax=8: (running_time, total_restarts, total_simulated_outputs,
#: total_killed_sims).
STRIDED = (530.2000000000088, 200, 970, 199)

#: (smax, direction) -> (running_time, misses, restarts); the full
#: forward re-simulation takes ``T_SINGLE``.
FIG16 = {
    (2, "forward"): (178.2, 57, 8),
    (2, "backward"): (197.39999999999992, 5, 6),
    (4, "forward"): (129.2, 39, 10),
    (4, "backward"): (149.89999999999986, 3, 6),
    (8, "forward"): (84.99999999999972, 23, 10),
    (8, "backward"): (104.19999999999966, 2, 6),
    (16, "forward"): (84.99999999999972, 23, 18),
    (16, "backward"): (104.19999999999966, 2, 6),
}
FIG18 = {
    (2, "forward"): (1925.3999999999999, 140, 12),
    (2, "backward"): (1724.7999999999977, 9, 10),
    (4, "forward"): (1120.1999999999998, 81, 11),
    (4, "backward"): (1438.099999999998, 5, 10),
    (8, "forward"): (833.2, 59, 18),
    (8, "backward"): (865.500000000001, 3, 10),
    (16, "forward"): (562.2000000000037, 39, 18),
    (16, "backward"): (592.2000000000041, 2, 10),
}
T_SINGLE = {"fig16": 229.0, "fig18": 2807.0}

#: (alpha_sim, m) -> running_time at smax=8.
FIG17 = {
    (0.0, 72): 73.99999999999972,
    (100.0, 72): 316.6000000000006,
    (200.0, 72): 586.2,
    (300.0, 72): 786.2,
    (450.0, 72): 1086.1999999999998,
    (600.0, 72): 1386.1999999999998,
    (0.0, 288): 212.1999999999997,
    (100.0, 288): 338.2000000000055,
    (200.0, 288): 642.6000000000047,
    (300.0, 288): 947.0000000000039,
    (450.0, 288): 1386.199999999989,
    (600.0, 288): 1825.3999999999933,
    (0.0, 1152): 765.0000000000013,
    (100.0, 1152): 1188.8999999999967,
    (200.0, 1152): 1452.9999999999955,
    (300.0, 1152): 1996.9999999999955,
    (450.0, 1152): 1472.5999999999103,
    (600.0, 1152): 1911.7999999999147,
}
FIG19 = {
    (0.0, 200): 826.2,
    (100.0, 200): 1014.2,
    (200.0, 200): 1216.1999999999998,
    (400.0, 200): 1402.199999999987,
    (600.0, 200): 2080.199999999989,
    (0.0, 400): 1638.3999999999999,
    (100.0, 400): 1439.399999999997,
    (200.0, 400): 1740.6999999999975,
    (400.0, 400): 2350.199999999998,
    (600.0, 400): 2100.1999999999707,
    (0.0, 600): 2186.4999999999977,
    (100.0, 600): 1861.399999999997,
    (200.0, 600): 2262.6999999999975,
    (400.0, 600): 2422.1999999999834,
    (600.0, 600): 3512.199999999996,
}

#: (overlap, restart hours, cache fraction) -> (on-disk $, in-situ $,
#: SimFS $, re-simulated outputs).
FIG13 = {
    (0.0, 4.0, 0.25): (83538.06999999999, 86734.15, 40369.8, 2567),
    (0.25, 4.0, 0.25): (83538.06999999999, 86734.15, 40369.8, 2567),
    (0.5, 4.0, 0.25): (83538.06999999999, 86734.15, 40369.8, 2567),
    (0.75, 4.0, 0.25): (83538.06999999999, 86734.15, 40369.8, 2567),
    (1.0, 4.0, 0.25): (83538.06999999999, 86734.15, 69231.35, 27664),
    (0.0, 4.0, 0.5): (83538.06999999999, 86734.15, 58798.92, 2567),
    (0.25, 4.0, 0.5): (83538.06999999999, 86734.15, 58798.92, 2567),
    (0.5, 4.0, 0.5): (83538.06999999999, 86734.15, 58798.92, 2567),
    (0.75, 4.0, 0.5): (83538.06999999999, 86734.15, 58798.92, 2567),
    (1.0, 4.0, 0.5): (83538.06999999999, 86734.15, 87660.47, 27664),
    (0.0, 8.0, 0.25): (83538.06999999999, 86734.15, 36252.84, 2999),
    (0.25, 8.0, 0.25): (83538.06999999999, 86734.15, 36252.84, 2999),
    (0.5, 8.0, 0.25): (83538.06999999999, 86734.15, 36309.189999999995, 3048),
    (0.75, 8.0, 0.25): (83538.06999999999, 86734.15, 36322.99, 3060),
    (1.0, 8.0, 0.25): (83538.06999999999, 86734.15, 89264.39, 49096),
    (0.0, 8.0, 0.5): (83538.06999999999, 86734.15, 54681.96, 2999),
    (0.25, 8.0, 0.5): (83538.06999999999, 86734.15, 54681.96, 2999),
    (0.5, 8.0, 0.5): (83538.06999999999, 86734.15, 54644.01, 2966),
    (0.75, 8.0, 0.5): (83538.06999999999, 86734.15, 54644.01, 2966),
    (1.0, 8.0, 0.5): (83538.06999999999, 86734.15, 106084.66, 47697),
    (0.0, 16.0, 0.25): (83538.06999999999, 86734.15, 34461.78, 3425),
    (0.25, 16.0, 0.25): (83538.06999999999, 86734.15, 34461.78, 3425),
    (0.5, 16.0, 0.25): (83538.06999999999, 86734.15, 34461.78, 3425),
    (0.75, 16.0, 0.25): (83538.06999999999, 86734.15, 34554.93, 3506),
    (1.0, 16.0, 0.25): (83538.06999999999, 86734.15, 144559.33, 99162),
    (0.0, 16.0, 0.5): (83538.06999999999, 86734.15, 52787.399999999994, 3335),
    (0.25, 16.0, 0.5): (83538.06999999999, 86734.15, 52787.399999999994, 3335),
    (0.5, 16.0, 0.5): (83538.06999999999, 86734.15, 52787.399999999994, 3335),
    (0.75, 16.0, 0.5): (83538.06999999999, 86734.15, 52787.399999999994, 3335),
    (1.0, 16.0, 0.5): (83538.06999999999, 86734.15, 162148.94999999998, 98432),
}


def run_cosmo(keys, queue_delay=None, **overrides):
    """One analysis over ``keys`` on the COSMO evaluation context at
    smax=8: the analysis and its ``VirtualSimFS``, run to the end."""
    config = COSMO_EVAL_CONFIG.with_overrides(smax=8, **overrides)
    driver = SyntheticDriver(config.geometry, prefix=config.name, cells=4)
    context = SimulationContext(config=config, driver=driver,
                                perf=COSMO_EVAL_PERF)
    simfs = VirtualSimFS(queue_delay=queue_delay)
    simfs.add_context(context)
    analysis = simfs.add_analysis(context, keys, tau_cli=0.1)
    simfs.run()
    assert analysis.done
    return analysis, simfs


@pytest.mark.parametrize("prefetch, ramp", list(ABLATION),
                         ids=["no-prefetch", "direct-s_opt", "doubling-ramp"])
def test_prefetch_ablation_is_exact(prefetch, ramp):
    analysis, simfs = run_cosmo(
        list(range(1, 289)), prefetch_enabled=prefetch,
        prefetch_ramp_doubling=ramp, ema_smoothing=0.5,
    )
    got = (analysis.running_time, simfs.coordinator.total_restarts)
    assert got == ABLATION[(prefetch, ramp)]


@pytest.mark.parametrize("ema", list(NOISY_QUEUE))
def test_noisy_queue_ablation_is_exact(ema):
    rng = random.Random(7)
    analysis, simfs = run_cosmo(
        list(range(1, 289)), queue_delay=lambda: abs(rng.gauss(0.0, 20.0)),
        prefetch_enabled=True, prefetch_ramp_doubling=False,
        ema_smoothing=ema,
    )
    got = (analysis.running_time, simfs.coordinator.total_restarts)
    assert got == NOISY_QUEUE[ema]


def test_partly_resident_scan_is_exact():
    analysis, simfs = run_cosmo(
        [((i * 37) % 288) + 1 for i in range(400)], prefetch_enabled=True,
    )
    shard = simfs.coordinator.shard(COSMO_EVAL_CONFIG.name)
    got = (analysis.running_time, simfs.coordinator.total_restarts,
           shard.total_simulated_outputs, shard.total_killed_sims)
    assert got == STRIDED


@pytest.mark.parametrize("fig, config, perf, m, golden", [
    ("fig16", COSMO_EVAL_CONFIG, COSMO_EVAL_PERF, 72, FIG16),
    ("fig18", FLASH_EVAL_CONFIG, FLASH_EVAL_PERF, 200, FIG18),
], ids=["fig16", "fig18"])
def test_scaling_figures_are_exact(fig, config, perf, m, golden):
    points = scaling_experiment(config, perf, m=m, smax_values=(2, 4, 8, 16),
                                tau_cli=0.1)
    assert {p.full_forward_time for p in points} == {T_SINGLE[fig]}
    assert {
        (p.smax, p.direction): (p.running_time, p.misses, p.restarts)
        for p in points
    } == golden


@pytest.mark.parametrize("config, perf, alphas, ms, golden", [
    (COSMO_EVAL_CONFIG, COSMO_EVAL_PERF, (0.0, 100.0, 200.0, 300.0, 450.0, 600.0),
     (72, 288, 1152), FIG17),
    (FLASH_EVAL_CONFIG, FLASH_EVAL_PERF, (0.0, 100.0, 200.0, 400.0, 600.0),
     (200, 400, 600), FIG19),
], ids=["fig17", "fig19"])
def test_latency_figures_are_exact(config, perf, alphas, ms, golden):
    points = latency_experiment(config, perf, alpha_values=alphas, m_values=ms,
                                smax=8, tau_cli=0.1)
    assert {(p.alpha_sim, p.m): p.running_time for p in points} == golden


def test_fig13_rows_are_exact():
    rows = overlap_sweep(
        overlaps=(0.0, 0.25, 0.5, 0.75, 1.0),
        restart_hours_list=(4.0, 8.0, 16.0),
        cache_fractions=(0.25, 0.5),
        months=24.0,
        num_analyses=16,
        analysis_length=150,
    )
    got = {
        (r.overlap, r.restart_hours, r.cache_fraction):
            (r.on_disk, r.in_situ, r.simfs, r.resim_outputs)
        for r in rows
    }
    assert got == FIG13
