"""Synthetic ECMWF-like archive access trace.

The paper replays a real trace of the ECMWF ECFS archival system
(Grawinkel et al., FAST'15): all successful accesses from January 2012 to
May 2014, touching 874 distinct files 659,989 times.  The real trace is not
redistributable, so the reproduction generates a synthetic trace matching
its published aggregate characteristics:

* a fixed population of distinct files (874 by default) mapped onto the
  simulation timeline,
* a heavy-tailed (Zipf) file-popularity distribution — archival workloads
  re-access a small hot set very frequently,
* temporal burstiness: runs of accesses stay within a small neighbourhood
  (analysts read consecutive forecast steps) before jumping to another
  region.

What Fig. 5 needs from this trace is the *regime* — strongly skewed re-use
with mixed locality — which separates cost-aware eviction (BCL/DCL) from
purely recency-based schemes.  The substitution shows in one place: the
synthetic Zipf skew is stronger than the real archive's, so on this trace
the frequency-based ARC and LIRS can beat DCL, which still beats LRU and
BCL (``benchmarks/bench_fig05_cache_schemes.py``).
"""

from __future__ import annotations

import random

from repro.core.errors import InvalidArgumentError

__all__ = ["ECMWF_FILES", "ECMWF_ACCESSES", "ecmwf_like_trace"]

#: Published aggregate statistics of the paper's ECMWF trace.
ECMWF_FILES = 874
ECMWF_ACCESSES = 659_989


def ecmwf_like_trace(
    num_output_steps: int,
    seed: int,
    num_files: int = ECMWF_FILES,
    num_accesses: int = 20_000,
    zipf_s: float = 1.1,
    burst_mean: int = 8,
    burst_span: int = 4,
) -> list[int]:
    """Generate a synthetic archive-access trace over the timeline.

    Parameters
    ----------
    num_output_steps:
        Timeline length; the distinct-file population is mapped uniformly
        onto it.
    num_accesses:
        Trace length.  The default (20k) keeps experiment runtime sane while
        preserving the distribution; pass ``ECMWF_ACCESSES`` for full scale.
    zipf_s:
        Zipf exponent of the popularity distribution.
    burst_mean / burst_span:
        Geometric mean length of bursts and the neighbourhood radius (in
        population rank) a burst wanders over.
    """
    if num_files < 1 or num_accesses < 1:
        raise InvalidArgumentError("num_files and num_accesses must be >= 1")
    if num_files > num_output_steps:
        num_files = num_output_steps
    if zipf_s <= 0:
        raise InvalidArgumentError(f"zipf_s must be > 0, got {zipf_s}")

    rng = random.Random(seed)
    # Population: num_files distinct steps spread over the timeline, in a
    # shuffled order so popularity rank is independent of position.
    population = rng.sample(range(1, num_output_steps + 1), num_files)
    # Zipf CDF over ranks.
    weights = [1.0 / (rank**zipf_s) for rank in range(1, num_files + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)

    def draw_rank() -> int:
        u = rng.random()
        lo, hi = 0, num_files - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    trace: list[int] = []
    while len(trace) < num_accesses:
        anchor = draw_rank()
        burst_len = 1 + min(
            int(rng.expovariate(1.0 / burst_mean)), num_accesses - len(trace) - 1
        )
        for _ in range(burst_len):
            rank = anchor + rng.randint(-burst_span, burst_span)
            rank = min(max(rank, 0), num_files - 1)
            trace.append(population[rank])
    return trace[:num_accesses]
