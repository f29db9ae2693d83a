"""Cost-sensitive LRU variants BCL and DCL (paper Sec. III-D, after
Jeong & Dubois, *Cache replacement algorithms with nonuniform miss costs*).

Both schemes keep an LRU recency list but refuse to evict the LRU entry when
a more recent entry with **lower miss cost** exists; the victim is then the
least-recent entry cheaper than the LRU.  To stop a costly but rarely used
entry from pushing out an endless stream of cheap, hot entries, the LRU's
cost is *depreciated* whenever it is spared:

* **BCL** depreciates immediately, each time the LRU is bypassed.
* **DCL** depreciates lazily: only when a cheap entry that was evicted in
  place of the LRU is accessed again *before* the LRU itself is accessed —
  i.e. only when sparing the LRU is proven to have been the wrong call.

In SimFS the miss cost of an output step is its distance (in output steps)
from the closest previous restart step (``StepGeometry.miss_cost``).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.cache.base import ReplacementPolicy

__all__ = ["BCLPolicy", "DCLPolicy"]


@dataclass
class _Entry:
    cost: float          #: full miss cost, restored on every access
    dep_cost: float      #: current (possibly depreciated) cost


class _CostSensitiveLRU(ReplacementPolicy):
    """Shared machinery of BCL and DCL."""

    def __init__(self, capacity_entries: int) -> None:
        super().__init__(capacity_entries)
        self._order: OrderedDict[int, _Entry] = OrderedDict()  # LRU -> MRU

    # ------------------------------------------------------------------ #
    def record_access(self, key: int) -> bool:
        entry = self._order.get(key)
        if entry is not None:
            self._order.move_to_end(key)
            entry.dep_cost = entry.cost  # accesses restore the full cost
            self._on_resident_access(key)
            self.stats.hits += 1
            return True
        self._on_miss_access(key)
        self.stats.misses += 1
        return False

    def record_insert(self, key: int, cost: float = 0.0) -> None:
        self._order[key] = _Entry(cost=float(cost), dep_cost=float(cost))
        self._order.move_to_end(key)
        self.stats.insertions += 1

    def record_evict(self, key: int) -> None:
        self._order.pop(key, None)
        self.stats.evictions += 1

    def victim(self, is_evictable: Callable[[int], bool]) -> int | None:
        lru_key = next((k for k in self._order if is_evictable(k)), None)
        if lru_key is None:
            return None
        lru_cost = self._order[lru_key].dep_cost
        for key, entry in self._order.items():
            if key == lru_key or not is_evictable(key):
                continue
            if entry.dep_cost < lru_cost:
                # Spare the LRU; evict the least-recent cheaper entry.
                self._on_lru_spared(lru_key, key, entry.dep_cost)
                return key
        return lru_key

    def resident(self) -> Iterator[int]:
        return iter(self._order)

    def is_resident(self, key: int) -> bool:
        return key in self._order

    def depreciated_cost(self, key: int) -> float:
        """Current effective cost of a resident entry (for tests/debug)."""
        return self._order[key].dep_cost

    # -- scheme-specific hooks ------------------------------------------ #
    def _on_lru_spared(self, lru_key: int, victim_key: int, victim_cost: float) -> None:
        raise NotImplementedError

    def _on_resident_access(self, key: int) -> None:
        pass

    def _on_miss_access(self, key: int) -> None:
        pass


class BCLPolicy(_CostSensitiveLRU):
    """Basic Cost-sensitive LRU: depreciate the LRU as soon as it is spared."""

    name = "bcl"

    def _on_lru_spared(self, lru_key: int, victim_key: int, victim_cost: float) -> None:
        entry = self._order[lru_key]
        entry.dep_cost = max(0.0, entry.dep_cost - victim_cost)


class DCLPolicy(_CostSensitiveLRU):
    """Dynamic Cost-sensitive LRU: depreciate only when sparing the LRU is
    proven wrong, i.e. an entry evicted in its place is re-accessed before
    the LRU itself.

    Each spared LRU leaves a *pending charge*: the victim evicted in its
    place maps to (protected key, victim's cost).  A victim holds at most
    one charge (a later sparing re-charges it), and a reverse index maps
    each protected key to its victims, so a hit drops the charges against
    the accessed key in time proportional to their number, not to every
    charge pending.
    """

    name = "dcl"

    def __init__(self, capacity_entries: int) -> None:
        super().__init__(capacity_entries)
        # evicted cheap key -> (protected LRU key, cost charged if re-accessed)
        self._pending: dict[int, tuple[int, float]] = {}
        # protected LRU key -> the victims whose charges name it
        self._charged: dict[int, set[int]] = {}

    def _on_lru_spared(self, lru_key: int, victim_key: int, victim_cost: float) -> None:
        previous = self._pending.get(victim_key)
        if previous is not None:
            self._uncharge(previous[0], victim_key)
        self._pending[victim_key] = (lru_key, victim_cost)
        self._charged.setdefault(lru_key, set()).add(victim_key)

    def _on_resident_access(self, key: int) -> None:
        # The protected LRU was accessed: sparing it paid off; drop the
        # pending depreciations charged against it.
        victims = self._charged.pop(key, None)
        if victims:
            for victim in victims:
                del self._pending[victim]

    def _on_miss_access(self, key: int) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        protected, cost = pending
        self._uncharge(protected, key)
        entry = self._order.get(protected)
        if entry is not None:
            entry.dep_cost = max(0.0, entry.dep_cost - cost)

    def _uncharge(self, protected: int, victim: int) -> None:
        victims = self._charged[protected]
        victims.discard(victim)
        if not victims:
            del self._charged[protected]
