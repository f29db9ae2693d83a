"""Exact goldens for the virtual-time results behind the paper figures.

The DES of one daemon is the reproduction's anchor: these values were
captured before the DES was last edited and must not move.  Fig. 13 runs
at reduced scale (16 analyses of 150 steps instead of 40 of 600); the
prefetch ablation runs in ``benchmarks/bench_ablation_prefetch.py``'s
shape at full scale, which costs milliseconds.
"""

import pytest

from repro.core.context import SimulationContext
from repro.costs import overlap_sweep
from repro.des import VirtualSimFS
from repro.simulators import COSMO_EVAL_CONFIG, COSMO_EVAL_PERF, SyntheticDriver

#: (prefetch, doubling ramp) -> (running_time, total_restarts), COSMO
#: rates, m=288, smax=8.
ABLATION = {
    (False, False): (1178.4, 24),
    (True, False): (214.0999999999997, 28),
    (True, True): (764.4000000000003, 25),
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


@pytest.mark.parametrize("prefetch, ramp", list(ABLATION),
                         ids=["no-prefetch", "direct-s_opt", "doubling-ramp"])
def test_prefetch_ablation_is_exact(prefetch, ramp):
    config = COSMO_EVAL_CONFIG.with_overrides(
        prefetch_enabled=prefetch, prefetch_ramp_doubling=ramp,
        ema_smoothing=0.5, smax=8,
    )
    driver = SyntheticDriver(config.geometry, prefix=config.name, cells=4)
    context = SimulationContext(config=config, driver=driver,
                                perf=COSMO_EVAL_PERF)
    simfs = VirtualSimFS()
    simfs.add_context(context)
    analysis = simfs.add_analysis(context, list(range(1, 289)), tau_cli=0.1)
    simfs.run()
    assert analysis.done
    got = (analysis.running_time, simfs.coordinator.total_restarts)
    assert got == ABLATION[(prefetch, ramp)]


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
