"""Storage-area manager: bounded cache of output steps (paper Sec. III-A).

Each simulation context owns a *storage area* (a file-system directory in
real mode) with a maximum size.  The manager tracks resident output steps,
their sizes and reference counters, delegates victim selection to the
configured replacement policy, and calls back into the owner to delete the
actual files.  An output step can be evicted only while its reference
counter is zero; if every resident entry is referenced the area is allowed
to overflow temporarily (the alternative — blocking the producing
simulation — would deadlock it against the analyses holding the
references).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.base import ReplacementPolicy, make_policy
from repro.core.errors import InvalidArgumentError

if TYPE_CHECKING:
    from repro.metrics import MetricsRegistry

__all__ = ["StorageArea", "EvictionRecord"]


@dataclass(frozen=True)
class EvictionRecord:
    """One eviction event, for tests and experiment bookkeeping."""

    key: int
    size_bytes: int


class StorageArea:
    """Bounded, reference-counted cache of output steps.

    Parameters
    ----------
    policy:
        Replacement policy instance, or a policy name (``lru`` etc.) that is
        instantiated with ``capacity_bytes // entry_bytes`` entries.
    capacity_bytes:
        Maximum total size; ``None`` disables eviction entirely.
    entry_bytes:
        Nominal output-step size used to size entry-count-based policies and
        as the default for :meth:`insert`.
    on_evict:
        Callback ``(key) -> None`` invoked after an entry is chosen for
        eviction and before it is dropped from the books; real mode deletes
        the file here.
    metrics / metrics_prefix:
        Optional metrics registry; when given, the area records
        ``{prefix}.evictions`` / ``.overflows`` counters and a
        ``{prefix}.used_bytes`` gauge.  Hits and misses are the caller's
        to count (see :meth:`access`).
    """

    def __init__(
        self,
        policy: ReplacementPolicy | str,
        capacity_bytes: int | None,
        entry_bytes: int = 1,
        on_evict: Callable[[int], None] | None = None,
        metrics: "MetricsRegistry | None" = None,
        metrics_prefix: str = "cache",
    ) -> None:
        if entry_bytes <= 0:
            raise InvalidArgumentError(f"entry_bytes must be > 0, got {entry_bytes}")
        if capacity_bytes is not None and capacity_bytes < entry_bytes:
            raise InvalidArgumentError(
                f"capacity ({capacity_bytes} B) below one entry ({entry_bytes} B)"
            )
        if isinstance(policy, str):
            cap_entries = (
                max(1, capacity_bytes // entry_bytes)
                if capacity_bytes is not None
                else 1 << 30
            )
            policy = make_policy(policy, cap_entries)
        self.policy = policy
        self.capacity_bytes = capacity_bytes
        self.entry_bytes = entry_bytes
        self._on_evict = on_evict
        self._sizes: dict[int, int] = {}
        self._refcounts: dict[int, int] = {}
        self._used = 0
        self.evictions: list[EvictionRecord] = []
        self.overflow_events = 0
        if metrics is not None:
            self._m_evictions = metrics.counter(f"{metrics_prefix}.evictions")
            self._m_overflows = metrics.counter(f"{metrics_prefix}.overflows")
            self._m_used = metrics.gauge(f"{metrics_prefix}.used_bytes")
        else:
            self._m_evictions = self._m_overflows = self._m_used = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, key: int) -> bool:
        return key in self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def keys(self) -> Iterator[int]:
        return iter(list(self._sizes))

    @property
    def used_bytes(self) -> int:
        """Total size of resident entries."""
        return self._used

    def refcount(self, key: int) -> int:
        return self._refcounts.get(key, 0)

    # ------------------------------------------------------------------ #
    # Access / insert / evict
    # ------------------------------------------------------------------ #
    def access(self, key: int) -> bool:
        """Record an analysis access; returns True on a hit.

        The area counts no metric here: a caller that serves many accesses
        at once adds them to its ``hits``/``misses`` counters in one update
        (a context shard does, once per run, under ``cache.<ctx>.*``)."""
        hit = self.policy.record_access(key)
        if hit and key not in self._sizes:
            raise AssertionError(
                f"policy/manager residency disagreement on key {key}"
            )
        return hit

    def insert(
        self,
        key: int,
        cost: float = 0.0,
        size_bytes: int | None = None,
        pinned: bool = False,
    ) -> None:
        """Make ``key`` resident (idempotent), evicting to make room.

        With ``pinned=True`` the entry is reference-counted *before* the
        eviction pass runs, so an analysis already waiting on the file can
        never see it evicted between production and notification.
        """
        size = self.entry_bytes if size_bytes is None else size_bytes
        if size <= 0:
            raise InvalidArgumentError(f"size_bytes must be > 0, got {size}")
        if key in self._sizes:
            self._used += size - self._sizes[key]
            self._sizes[key] = size
        else:
            self._sizes[key] = size
            self._used += size
            self.policy.record_insert(key, cost)
        if pinned:
            self.pin(key)
        self.evict_until_fits()
        if self._m_used is not None:
            self._m_used.set(self._used)

    def remove(self, key: int) -> None:
        """Drop an entry without counting it as a policy eviction
        (e.g. the owner deleted the file out-of-band)."""
        size = self._sizes.pop(key, None)
        if size is None:
            return
        self._used -= size
        self._refcounts.pop(key, None)
        self.policy.record_evict(key)
        if self._m_used is not None:
            self._m_used.set(self._used)

    def pin(self, key: int) -> None:
        """Increment the reference counter of a resident entry."""
        if key not in self._sizes:
            raise InvalidArgumentError(f"cannot pin non-resident key {key}")
        count = self._refcounts.get(key, 0)
        self._refcounts[key] = count + 1
        if count == 0:
            # 0 -> 1 transition: let the policy take the entry out of its
            # victim-candidate structure (O(1) selection under pinning).
            self.policy.record_pin(key)

    def unpin(self, key: int) -> None:
        """Decrement the reference counter (released by ``SIMFS_Release``)."""
        count = self._refcounts.get(key, 0)
        if count <= 0:
            raise InvalidArgumentError(f"unpin of key {key} with refcount 0")
        if count == 1:
            self._refcounts.pop(key)
            self.policy.record_unpin(key)
        else:
            self._refcounts[key] = count - 1

    def evict_until_fits(self) -> list[EvictionRecord]:
        """Evict victims until within capacity; returns what was evicted."""
        if self.capacity_bytes is None:
            return []
        freed: list[EvictionRecord] = []
        while self._used > self.capacity_bytes:
            victim = self.policy.victim(self._is_evictable)
            if victim is None:
                self.overflow_events += 1
                if self._m_overflows is not None:
                    self._m_overflows.inc()
                break
            freed.append(self._evict(victim))
        if self._m_used is not None:
            self._m_used.set(self._used)
        return freed

    # ------------------------------------------------------------------ #
    def _is_evictable(self, key: int) -> bool:
        return key in self._sizes and self._refcounts.get(key, 0) == 0

    def _evict(self, key: int) -> EvictionRecord:
        size = self._sizes.pop(key)
        self._used -= size
        record = EvictionRecord(key=key, size_bytes=size)
        self.evictions.append(record)
        if self._m_evictions is not None:
            self._m_evictions.inc()
        if self._on_evict is not None:
            self._on_evict(key)
        self.policy.record_evict(key)
        return record
