"""Thread-safe metrics plane for the DV service.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

* :class:`Counter` — monotonically increasing totals (ops served, cache
  hits, re-simulations launched);
* :class:`Gauge` — instantaneous values (running simulations, resident
  bytes, connected clients);
* :class:`Histogram` — distributions over fixed bucket bounds (op service
  times, estimated waits).

Every DV deployment carries one registry: the TCP daemon exposes it
through the ``stats`` protocol op (and ``simfs-dv --stats``), the DES
front end through :meth:`repro.des.components.VirtualSimFS.stats`.
Instruments are cheap enough to update on the data path — one small lock
per instrument, no allocation after creation — so shards, the cache
manager and the launcher all record into the same plane.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Sequence

from repro.core.errors import InvalidArgumentError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 600.0
)


class Counter:
    """Monotonic counter."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidArgumentError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Instantaneous value that can move both ways."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are upper bounds; observations beyond the last bound land
    in an implicit overflow bucket.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise InvalidArgumentError(f"histogram {name!r} needs >= 1 bucket")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` — ``count`` times, as that many observations
        of it would, with one update."""
        idx = bisect_right(self.bounds, value)
        with self._lock:
            self._bucket_counts[idx] += count
            self._count += count
            self._sum += value * count
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record each of ``values`` as its own observation — each in its
        own bucket, with the count, sum, min and max that one
        :meth:`observe` per value leaves — under one lock acquisition."""
        if not values:
            return
        bounds, counts = self.bounds, self._bucket_counts
        lo, hi = min(values), max(values)
        with self._lock:
            total = self._sum  # added in order: the sum observe() leaves
            for value in values:
                counts[bisect_right(bounds, value)] += 1
                total += value
            self._sum = total
            self._count += len(values)
            if self._min is None or lo < self._min:
                self._min = lo
            if self._max is None or hi > self._max:
                self._max = hi

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self._bucket_counts)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        snap = {
            "type": "histogram",
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "buckets": {
                **{str(b): c for b, c in zip(self.bounds, counts)},
                "+inf": counts[-1],
            },
        }
        snap.update(
            _bucket_percentiles(self.bounds, counts, count, lo, hi)
        )
        return snap


def _bucket_percentiles(
    bounds: Sequence[float],
    counts: Sequence[int],
    count: int,
    lo: float | None,
    hi: float | None,
    quantiles: Sequence[float] = (0.5, 0.95, 0.99),
) -> dict[str, float | None]:
    """Estimate quantiles from fixed-bucket counts.

    Linear interpolation inside the covering bucket; the first bucket's
    lower edge is the observed minimum (0 if unknown) and the overflow
    bucket is pinned to the observed maximum.  Estimates are clamped to
    the observed ``[min, max]`` so they never leave the data's range.
    """
    keys = ["p" + str(int(q * 100)) for q in quantiles]
    if count <= 0:
        return dict.fromkeys(keys)
    out: dict[str, float | None] = {}
    for key, q in zip(keys, quantiles):
        rank = q * count
        cum = 0.0
        value = hi if hi is not None else bounds[-1]
        for idx, n in enumerate(counts):
            if n <= 0:
                continue
            if cum + n >= rank:
                if idx == 0:
                    lower = lo if lo is not None else 0.0
                else:
                    lower = bounds[idx - 1]
                if idx < len(bounds):
                    upper = bounds[idx]
                else:  # overflow bucket
                    upper = hi if hi is not None else bounds[-1]
                frac = (rank - cum) / n
                value = lower + (upper - lower) * max(0.0, min(1.0, frac))
                break
            cum += n
        if lo is not None:
            value = max(value, lo)
        if hi is not None:
            value = min(value, hi)
        out[key] = value
    return out


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same name return the same instrument, so independent
    subsystems (a shard, the cache manager, the launcher) can share series
    without plumbing instrument objects around.  Requesting an existing
    name as a different instrument type is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, lambda: Histogram(name, help, buckets)
        )

    def _get_or_create(self, cls, name: str, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise InvalidArgumentError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def alias(self, name: str, metric: Counter | Gauge | Histogram) -> None:
        """Export ``metric`` under ``name`` too: one instrument, counted
        once, that two subsystems name their own way (``snapshot`` and
        the exposition list it under both names; ``prune`` drops each
        name by its own prefix).  ``name`` may already be ``metric``'s
        alias, never another instrument."""
        with self._lock:
            existing = self._metrics.setdefault(name, metric)
        if existing is not metric:
            raise InvalidArgumentError(f"metric {name!r} is already registered")

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def prune(self, prefix: str) -> int:
        """Drop every series whose name starts with ``prefix``.

        Called on context unregister so per-context series (``dv.<ctx>.*``,
        ``cache.<ctx>.*``) don't accumulate across register/unregister
        churn.  Returns the number of series removed.  ``prefix`` must be
        non-empty — pruning everything is never what a caller wants.
        """
        if not prefix:
            raise InvalidArgumentError("prune() requires a non-empty prefix")
        with self._lock:
            doomed = [name for name in self._metrics if name.startswith(prefix)]
            for name in doomed:
                del self._metrics[name]
        return len(doomed)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self, prefix: str = "") -> dict[str, dict]:
        """JSON-serializable view of every instrument (the ``stats`` op).

        ``prefix`` restricts the view to one subsystem's series (e.g.
        ``"cluster."`` for the cluster plane's forwarding/gossip counters).
        """
        with self._lock:
            metrics = dict(self._metrics)
        return {
            name: metric.snapshot()
            for name, metric in sorted(metrics.items())
            if name.startswith(prefix)
        }
