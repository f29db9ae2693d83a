"""Fig. 5 — Cache replacement scheme comparison.

Paper setup: a 4-day simulation with an output step every 5 minutes and a
restart every 4 hours (1152 steps, 48 per restart interval), cache = 25 %
of the data volume.  Traces: concatenations of 50 forward / backward /
random scans of 100-400 steps each, plus an ECMWF-archive-like trace
(synthetic here: ``repro.traces.ecmwf``).  Bars = simulated output steps; dots =
restarts.

Expected shape: little difference between schemes on scan patterns (LIRS
worse on backward); the cost-aware schemes — DCL in particular — minimize
restarts/simulated steps on the ECMWF and random traces.
"""

import statistics

from _harness import emit, run_once

from repro.core.steps import StepGeometry
from repro.traces import TraceSpec, concatenated_trace, ecmwf_like_trace, replay_trace

GEO = StepGeometry(delta_d=5, delta_r=240, num_timesteps=4 * 24 * 60)
POLICIES = ("arc", "bcl", "dcl", "lirs", "lru")
PATTERNS = ("forward", "backward", "random", "ecmwf")
REPEATS = 5  # the paper repeats 100x; 5 keeps the bench quick
SPEC = TraceSpec(num_output_steps=GEO.num_output_steps, num_traces=25)


def make_trace(pattern: str, seed: int) -> list[int]:
    if pattern == "ecmwf":
        return ecmwf_like_trace(GEO.num_output_steps, seed=seed,
                                num_accesses=12_000)
    return concatenated_trace(pattern, SPEC, seed=seed)


def compute():
    rows = []
    for pattern in PATTERNS:
        for policy in POLICIES:
            outputs, restarts = [], []
            for rep in range(REPEATS):
                trace = make_trace(pattern, seed=100 * rep + 7)
                result = replay_trace(trace, GEO, policy, cache_fraction=0.25)
                outputs.append(result.simulated_outputs)
                restarts.append(result.restarts)
            rows.append(
                (pattern, policy,
                 statistics.median(outputs), statistics.median(restarts))
            )
    return rows


def test_fig05_cache_schemes(benchmark):
    rows = run_once(benchmark, compute)
    emit(
        "fig05_cache_schemes",
        "Fig. 5: simulated output steps / restarts by replacement scheme "
        "and access pattern (cache 25%, median of "
        f"{REPEATS} trace seeds)",
        ["pattern", "scheme", "simulated outputs", "restarts"],
        rows,
    )
    by = {(p, s): (o, r) for p, s, o, r in rows}
    # Random: DCL (the paper's pick) is the best or within 10% of it.
    best_random = min(by[("random", s)][0] for s in POLICIES)
    assert by[("random", "dcl")][0] <= 1.10 * best_random
    # ECMWF-like: the cost-aware DCL beats the recency-based LRU and its
    # eager sibling BCL.  (On the *synthetic* archive trace the
    # frequency-based ARC/LIRS can do even better than DCL because the
    # Zipf skew is stronger than the real trace's.)
    assert by[("ecmwf", "dcl")][0] <= by[("ecmwf", "lru")][0]
    assert by[("ecmwf", "dcl")][0] <= by[("ecmwf", "bcl")][0]
    # Scan patterns: schemes are close to each other (except LIRS on
    # backward, which the paper singles out as the outlier).
    fwd = [by[("forward", s)][0] for s in POLICIES]
    assert max(fwd) <= 1.5 * min(fwd)
    assert by[("backward", "lirs")][0] >= max(
        by[("backward", s)][0] for s in ("lru", "arc", "bcl", "dcl")
    )
