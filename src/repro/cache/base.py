"""Replacement-policy interface and bookkeeping (paper Sec. III-D).

Caching simulation data differs from hardware caches in two ways the
interface reflects:

* a miss triggers a *re-simulation* whose cost is proportional to the missed
  step's distance from its previous restart step — policies receive that
  ``cost`` when an entry is inserted, and cost-aware schemes (BCL/DCL) use it;
* entries referenced by running analyses are *pinned* (reference counter > 0)
  and must not be evicted — victim selection takes an ``is_evictable``
  predicate supplied by the storage-area manager.

The cache is fully associative (Sec. III-D: SimFS operates on a milliseconds
time-frame, so conflict misses are designed out).
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.core.errors import InvalidArgumentError

__all__ = ["CacheStats", "ReplacementPolicy", "make_policy"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters kept by every policy."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class ReplacementPolicy(abc.ABC):
    """Abstract replacement policy over integer entry keys.

    The storage-area manager drives the policy with four events:

    ``record_access(key)``
        An analysis accessed ``key``.  Called for **every** access, resident
        or not — schemes with ghost lists (ARC, LIRS) and DCL's deferred
        depreciation need to see misses too.  Returns True on a resident hit.
    ``record_insert(key, cost)``
        ``key`` became resident (produced by a re-simulation or the initial
        run) with the given miss cost in output steps.
    ``record_evict(key)``
        The manager removed ``key`` from disk.
    ``victim(is_evictable)``
        Choose a resident entry to evict among those for which
        ``is_evictable(key)`` is True (i.e. reference counter zero), or
        return ``None`` if no entry may be evicted.  ``is_evictable`` is
        pure — it reads state and changes none — so a policy may call it
        on any subset of the entries, in any order, any number of times:
        only on the entries its choice depends on.

    Two optional events let policies track pinning themselves instead of
    rediscovering it through ``is_evictable`` scans:

    ``record_pin(key)`` / ``record_unpin(key)``
        The entry's reference counter left / returned to zero.  The
        storage-area manager reports only the 0↔1 transitions.  Default
        implementations are no-ops, so policies driven without a manager
        (unit tests, trace replays) keep working — ``is_evictable``
        remains the authority during victim selection either way.
    """

    name: str = "base"

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries < 1:
            raise InvalidArgumentError(
                f"capacity must be >= 1 entry, got {capacity_entries}"
            )
        self.capacity_entries = capacity_entries
        self.stats = CacheStats()

    # -- events -------------------------------------------------------- #
    @abc.abstractmethod
    def record_access(self, key: int) -> bool:
        """Record an access; returns True if ``key`` was resident (hit)."""

    @abc.abstractmethod
    def record_insert(self, key: int, cost: float = 0.0) -> None:
        """Record that ``key`` became resident with re-simulation ``cost``."""

    @abc.abstractmethod
    def record_evict(self, key: int) -> None:
        """Record that the manager evicted ``key``."""

    @abc.abstractmethod
    def victim(self, is_evictable: Callable[[int], bool]) -> int | None:
        """Pick an evictable resident entry, or ``None``."""

    def record_pin(self, key: int) -> None:
        """Optional: ``key``'s reference counter just left zero."""

    def record_unpin(self, key: int) -> None:
        """Optional: ``key``'s reference counter just returned to zero."""

    # -- introspection -------------------------------------------------- #
    @abc.abstractmethod
    def resident(self) -> Iterator[int]:
        """Iterate over resident keys (order unspecified)."""

    @abc.abstractmethod
    def is_resident(self, key: int) -> bool:
        """True if ``key`` is currently resident."""

    def __contains__(self, key: int) -> bool:
        return self.is_resident(key)

    def __len__(self) -> int:
        return sum(1 for _ in self.resident())


def make_policy(name: str, capacity_entries: int) -> ReplacementPolicy:
    """Instantiate a policy by its configuration name.

    Valid names: ``lru``, ``lirs``, ``arc``, ``bcl``, ``dcl``.
    """
    from repro.cache.arc import ARCPolicy
    from repro.cache.cost_aware import BCLPolicy, DCLPolicy
    from repro.cache.lirs import LIRSPolicy
    from repro.cache.lru import LRUPolicy

    registry: dict[str, type[ReplacementPolicy]] = {
        "lru": LRUPolicy,
        "lirs": LIRSPolicy,
        "arc": ARCPolicy,
        "bcl": BCLPolicy,
        "dcl": DCLPolicy,
    }
    try:
        cls = registry[name.lower()]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown replacement policy {name!r}; expected one of {sorted(registry)}"
        ) from None
    return cls(capacity_entries)
