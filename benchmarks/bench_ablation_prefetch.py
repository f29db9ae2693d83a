"""Ablations of the prefetching design choices (paper Sec. IV-B, IV-C).

* **ramp vs. direct s_opt** — Sec. IV-B1b offers a doubling ramp to avoid
  over-prefetching; the ablation measures what it costs a steady forward
  scan and what it saves in launched simulations.
* **prefetching off** — the Fig. 7 baseline: every restart latency is paid.
* **EMA smoothing sweep** — Sec. IV-C1c tracks restart latencies with an
  exponential moving average; under noisy batch queueing the smoothing
  factor trades stability against reactivity.
"""

import random

from _harness import emit, run_once

from repro.core.context import SimulationContext
from repro.des import VirtualSimFS
from repro.simulators import COSMO_EVAL_CONFIG, COSMO_EVAL_PERF, SyntheticDriver


def run_variant(prefetch, ramp, ema=0.5, queue_sigma=0.0, seed=0, m=288):
    config = COSMO_EVAL_CONFIG.with_overrides(
        prefetch_enabled=prefetch,
        prefetch_ramp_doubling=ramp,
        ema_smoothing=ema,
        smax=8,
    )
    driver = SyntheticDriver(config.geometry, prefix=config.name, cells=4)
    context = SimulationContext(
        config=config, driver=driver, perf=COSMO_EVAL_PERF
    )
    rng = random.Random(seed)
    delay = (lambda: abs(rng.gauss(0.0, queue_sigma))) if queue_sigma else None
    simfs = VirtualSimFS(queue_delay=delay)
    simfs.add_context(context)
    analysis = simfs.add_analysis(context, list(range(1, m + 1)), tau_cli=0.1)
    simfs.run()
    assert analysis.done
    return analysis.running_time, simfs.coordinator.total_restarts


def compute():
    rows = []
    none_t, none_r = run_variant(prefetch=False, ramp=False)
    rows.append(("no prefetch", none_t, none_r))
    direct_t, direct_r = run_variant(prefetch=True, ramp=False)
    rows.append(("direct s_opt (paper default)", direct_t, direct_r))
    ramp_t, ramp_r = run_variant(prefetch=True, ramp=True)
    rows.append(("doubling ramp", ramp_t, ramp_r))
    ema_rows = []
    for ema in (0.1, 0.5, 1.0):
        t, r = run_variant(prefetch=True, ramp=False, ema=ema,
                           queue_sigma=20.0, seed=7)
        ema_rows.append((f"EMA {ema} (noisy queue)", t, r))
    return rows, ema_rows


def test_ablation_prefetch(benchmark):
    rows, ema_rows = run_once(benchmark, compute)
    emit(
        "ablation_prefetch",
        "Ablation: prefetch strategy variants (COSMO rates, m=288, smax=8)",
        ["variant", "analysis time (s)", "restarts"],
        rows + ema_rows,
    )
    by = {name: (t, r) for name, t, r in rows}
    none_t, _ = by["no prefetch"]
    direct_t, direct_r = by["direct s_opt (paper default)"]
    ramp_t, ramp_r = by["doubling ramp"]
    # Prefetching beats no-prefetch; the ramp trades some time for fewer
    # (or equal) launched simulations.
    assert direct_t < none_t
    assert ramp_t < none_t
    assert ramp_r <= direct_r
    assert direct_t <= ramp_t + 1e-6
