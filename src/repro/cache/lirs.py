"""LIRS — Low Inter-reference Recency Set replacement (paper Sec. III-D,
after Jiang & Zhang, SIGMETRICS'02).

LIRS partitions resident entries into a *LIR* set (low inter-reference
recency: hot) and a *HIR* set (high inter-reference recency: cold).  It keeps

* stack ``S`` — a recency stack holding LIR entries, resident HIR entries
  and a bounded number of non-resident "ghost" HIR entries, and
* queue ``Q`` — the FIFO of resident HIR entries, which supplies victims.

A HIR entry re-accessed while still on ``S`` has small reuse distance and is
promoted to LIR, demoting the stack-bottom LIR.  Eviction normally takes the
front of ``Q``; the storage-area manager may skip pinned entries.

The paper observes (Fig. 5) that LIRS underperforms on backward scans: the
ghost-stack promotion logic prioritizes evicting exactly the entries a
backward trajectory is about to access.  Reproducing that behaviour is the
point of including it.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterator

from repro.cache.base import ReplacementPolicy

__all__ = ["LIRSPolicy"]

_LIR = "LIR"
_HIR = "HIR"


class LIRSPolicy(ReplacementPolicy):
    """LIRS with a 5 % HIR target and ghosts bounded to 2x capacity."""

    name = "lirs"

    def __init__(self, capacity_entries: int) -> None:
        super().__init__(capacity_entries)
        self._hir_target = max(1, round(0.05 * capacity_entries))
        self._lir_target = max(1, capacity_entries - self._hir_target)
        self._stack: OrderedDict[int, None] = OrderedDict()  # bottom -> top
        self._queue: OrderedDict[int, None] = OrderedDict()  # front -> back
        self._state: dict[int, str] = {}     # key -> _LIR | _HIR (if known)
        self._resident: set[int] = set()
        self._ghost_bound = 2 * capacity_entries + 16
        # Keys the manager reported as pinned (refcount > 0).  LIRS victim
        # selection must still walk Q (and fall back to S) in order — the
        # LRU-style O(1) evictable list does not transfer because victims
        # come from two structures with promotion between them — but the
        # set lets the walk skip pinned entries without a callback per key.
        self._pinned: set[int] = set()

    # ------------------------------------------------------------------ #
    def record_access(self, key: int) -> bool:
        resident = key in self._resident
        if resident:
            self.stats.hits += 1
            if self._state.get(key) == _LIR:
                self._stack.move_to_end(key)
                self._prune()
            else:  # resident HIR
                if key in self._stack:
                    # Small reuse distance: promote to LIR.
                    self._stack.move_to_end(key)
                    self._queue.pop(key, None)
                    self._state[key] = _LIR
                    self._demote_excess_lir()
                    self._prune()
                else:
                    # Large reuse distance: stays HIR, refresh both orders.
                    self._stack[key] = None
                    self._queue.move_to_end(key)
            self._bound_ghosts()
            return True
        # Miss: leave a recency trace so a quick re-access promotes to LIR.
        self.stats.misses += 1
        self._stack[key] = None
        self._stack.move_to_end(key)
        self._state.setdefault(key, _HIR)
        self._bound_ghosts()
        return False

    def record_insert(self, key: int, cost: float = 0.0) -> None:
        self.stats.insertions += 1
        if key in self._resident:
            return
        self._resident.add(key)
        if self._lir_count() < self._lir_target:
            # LIR set not yet full: new residents become LIR directly
            # (classic LIRS cold-start fill; without it, demand-window
            # inserts leave a huge FIFO HIR queue that thrashes scans).
            self._state[key] = _LIR
            self._stack[key] = None
            self._stack.move_to_end(key)
            return
        if key in self._stack and self._state.get(key) == _HIR:
            # Ghost hit: promote, demote the bottom LIR.
            self._state[key] = _LIR
            self._stack.move_to_end(key)
            self._demote_excess_lir(force_one=True)
        else:
            self._state[key] = _HIR
            self._queue[key] = None
            self._queue.move_to_end(key)
        self._prune()
        self._bound_ghosts()

    def record_pin(self, key: int) -> None:
        self._pinned.add(key)

    def record_unpin(self, key: int) -> None:
        self._pinned.discard(key)

    def record_evict(self, key: int) -> None:
        self.stats.evictions += 1
        self._pinned.discard(key)
        self._resident.discard(key)
        self._queue.pop(key, None)
        if self._state.get(key) == _LIR:
            # Forced LIR eviction (pinning): drop from the stack entirely.
            self._stack.pop(key, None)
            self._state.pop(key, None)
            self._prune()
        # HIR entries keep their ghost trace in S (that is LIRS's memory).

    def victim(self, is_evictable: Callable[[int], bool]) -> int | None:
        for key in self._queue:  # front of Q first
            if key not in self._pinned and is_evictable(key):
                return key
        # No evictable resident HIR: fall back to the coldest LIR entry.
        for key in self._stack:  # bottom first
            if (
                key in self._resident
                and key not in self._pinned
                and self._state.get(key) == _LIR
                and is_evictable(key)
            ):
                return key
        return None

    def resident(self) -> Iterator[int]:
        return iter(set(self._resident))

    def is_resident(self, key: int) -> bool:
        return key in self._resident

    # -- introspection used by tests ------------------------------------ #
    def is_lir(self, key: int) -> bool:
        return key in self._resident and self._state.get(key) == _LIR

    def _lir_count(self) -> int:
        return sum(
            1 for k in self._resident if self._state.get(k) == _LIR
        )

    # ------------------------------------------------------------------ #
    def _demote_excess_lir(self, force_one: bool = False) -> None:
        """Demote stack-bottom LIR entries to HIR while over the LIR target."""
        demote = self._lir_count() - self._lir_target
        if force_one:
            demote = max(demote, 1)
        while demote > 0:
            bottom = next(iter(self._stack), None)
            if bottom is None:
                break
            if self._state.get(bottom) == _LIR and bottom in self._resident:
                self._stack.pop(bottom)
                self._state[bottom] = _HIR
                self._queue[bottom] = None
                self._queue.move_to_end(bottom)
                demote -= 1
                self._prune()
            else:
                self._stack.pop(bottom)

    def _prune(self) -> None:
        """Pop non-LIR entries off the stack bottom (LIRS stack pruning)."""
        while self._stack:
            bottom = next(iter(self._stack))
            if self._state.get(bottom) == _LIR and bottom in self._resident:
                break
            self._stack.pop(bottom)

    def _bound_ghosts(self) -> None:
        """Drop oldest ghosts when the stack outgrows its bound."""
        excess = len(self._stack) - self._ghost_bound
        if excess <= 0:
            return
        for key in list(self._stack):
            if excess <= 0:
                break
            if key not in self._resident:
                self._stack.pop(key)
                self._state.pop(key, None)
                excess -= 1
        self._prune()
