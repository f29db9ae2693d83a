"""Pure statistics for the benchmark: block summaries, the percentile
rule, span self time and the compare verdicts.  No sockets, no repo
imports - ``test_e2e_stats.py`` covers every function here.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "attribute",
    "compare_metric",
    "highest_percentile",
    "percentile",
    "spread",
    "summarize",
]


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's block values
    (quartiles as ``statistics.quantiles(n=4)`` gives them, which is what
    the driver uses for its spread)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summarize() needs at least one value")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    return abs(summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile() of no samples")
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1]


#: Candidate tail percentiles, highest first, as (percentile, one sample
#: in this many lies beyond it).
_TAILS = ((99.99, 10000), (99.9, 1000), (99.0, 100), (95.0, 20),
          (90.0, 10), (75.0, 4))


def highest_percentile(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """``(pct, value)`` for the highest percentile that still has at least
    ``beyond`` samples above it; falls back to the median when even p75
    has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for pct, one_in in _TAILS:
        if n // one_in >= beyond:
            return pct, percentile(ordered, pct)
    return 50.0, percentile(ordered, 50.0)


def attribute(
    window: tuple[float, float], spans: list[tuple[int, str, float, float]]
) -> dict[str | None, float]:
    """Split ``window`` among overlapping spans by self time.

    ``spans`` are ``(depth, name, start, end)``; a deeper span is a child
    of every shallower span it overlaps.  A span's self time is its
    duration (inside the window) minus the part that deeper spans cover,
    so at each instant the deepest active span is charged - children may
    overlap each other and may stick out of their parents.  Time with no
    span at all is returned under ``None``.  The values sum to the
    window's length.
    """
    lo, hi = window
    clipped = [
        (depth, name, max(lo, start), min(hi, end))
        for depth, name, start, end in spans
        if min(hi, end) > max(lo, start)
    ]
    cuts = sorted({lo, hi, *(s[2] for s in clipped), *(s[3] for s in clipped)})
    out: dict[str | None, float] = {}
    for a, b in zip(cuts, cuts[1:]):
        active = [s for s in clipped if s[2] <= a and s[3] >= b]
        name = max(active, key=lambda s: s[0])[1] if active else None
        out[name] = out.get(name, 0.0) + (b - a)
    return out


def compare_metric(
    base: dict, new: dict, better: str, bound: float
) -> dict:
    """Verdict for one (workload, end-to-end metric) pair.

    ``base``/``new`` are :func:`summarize` outputs.  ``ratio`` is
    new median / base median.  ``unresolved`` when either side's own
    spread is wider than the bound (the change cannot be told from
    noise); otherwise ``regressed`` / ``improved`` when the new median is
    worse / better than the base by more than the bound, else
    ``unchanged``.  The bound comes from the spread between whole runs,
    which one run's blocks cannot see, so it is the threshold both ways.
    """
    b, n = base["median"], new["median"]
    ratio = n / b if b else float("inf") if n else 1.0
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    noise = max(spread(base), spread(new))
    eps = 1e-9          # a change of exactly the bound is not beyond it
    if noise > bound + eps:
        verdict = "unresolved"
    elif worse_by > bound + eps:
        verdict = "regressed"
    elif -worse_by > bound + eps:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "base": b, "new": n, "ratio": ratio, "bound": bound,
        "base_spread": spread(base), "new_spread": spread(new),
        "verdict": verdict,
    }
