"""DCL's indexed pending charges decide exactly what the unindexed
original did.

``ReferenceDCL`` is DCL as it was before its pending charges got a
reverse index: a hit rebuilt the whole pending map.  Two storage areas,
one per policy, are driven through the same steps — accesses, inserts,
pins, unpins — under capacity pressure, and after every step they must
have evicted the same keys, depreciated every resident key alike and
hold the same pending charges.
"""

from hypothesis import given, settings, strategies as st

from repro.cache import DCLPolicy, StorageArea
from repro.cache.cost_aware import _CostSensitiveLRU

KEYS = 10
CAPACITY = 4


class ReferenceDCL(_CostSensitiveLRU):
    """DCL with an unindexed pending map: O(pending) per hit."""

    name = "dcl-reference"

    def __init__(self, capacity_entries: int) -> None:
        super().__init__(capacity_entries)
        self._pending: dict[int, tuple[int, float]] = {}

    def _on_lru_spared(self, lru_key, victim_key, victim_cost):
        self._pending[victim_key] = (lru_key, victim_cost)

    def _on_resident_access(self, key):
        self._pending = {
            victim: (protected, cost)
            for victim, (protected, cost) in self._pending.items()
            if protected != key
        }

    def _on_miss_access(self, key):
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        protected, cost = pending
        entry = self._order.get(protected)
        if entry is not None:
            entry.dep_cost = max(0.0, entry.dep_cost - cost)


def cost_of(key: int) -> float:
    """Distance to the previous restart of a ``delta_r = 5`` timeline."""
    return float(key % 5)


steps = st.lists(
    st.tuples(
        st.sampled_from(["access", "access", "insert", "pin", "unpin"]),
        st.integers(0, KEYS - 1),
    ),
    min_size=20,
    max_size=120,
)


@settings(max_examples=200)
@given(steps)
def test_indexed_dcl_decides_as_the_reference(plan):
    areas = [
        StorageArea(policy(CAPACITY), capacity_bytes=CAPACITY, entry_bytes=1)
        for policy in (DCLPolicy, ReferenceDCL)
    ]
    for op, key in plan:
        for area in areas:
            if op == "access":
                # A miss is re-simulated: the step lands, as a shard's does.
                if not area.access(key):
                    area.insert(key, cost=cost_of(key))
            elif op == "insert":  # produced without an access: a prefetch
                area.insert(key, cost=cost_of(key))
            elif op == "pin":
                if key in area:
                    area.pin(key)
            elif area.refcount(key):
                area.unpin(key)
                area.evict_until_fits()
        ours, theirs = areas
        assert ours.evictions == theirs.evictions
        assert list(ours.policy.resident()) == list(theirs.policy.resident())
        assert {
            key: ours.policy.depreciated_cost(key) for key in ours.policy.resident()
        } == {
            key: theirs.policy.depreciated_cost(key)
            for key in theirs.policy.resident()
        }
        assert ours.policy._pending == theirs.policy._pending


def test_a_charge_moves_is_dropped_and_is_paid():
    """What the index must follow, step by step: a victim re-charged
    against another LRU while its first charge is pending, a charge
    dropped by a hit on its protected key, and one paid by a miss on its
    victim."""
    area = StorageArea(DCLPolicy(3), capacity_bytes=3, entry_bytes=1)
    policy = area.policy
    for key, cost in ((10, 4.0), (1, 1.0), (2, 5.0), (3, 5.0)):
        area.insert(key, cost=cost)
    assert [r.key for r in area.evictions] == [1]  # LRU 10 spared
    assert policy._pending == {1: (10, 1.0)}
    area.pin(10)
    area.insert(1, cost=1.0)  # back without an access; LRU 2 spares it
    assert [r.key for r in area.evictions] == [1, 1]
    assert policy._pending == {1: (2, 1.0)}  # re-charged against 2
    area.unpin(10)
    assert area.access(10)  # nothing is charged against 10 any more
    assert policy._pending == {1: (2, 1.0)}
    assert area.access(2)  # sparing 2 paid off: its charge is dropped
    assert policy._pending == {}
    area.insert(5, cost=0.5)  # LRU 3 spared, the cheaper 10 evicted
    assert policy._pending == {10: (3, 4.0)}
    assert not area.access(10)  # sparing 3 was wrong: it pays
    assert policy._pending == {} and policy.depreciated_cost(3) == 1.0
