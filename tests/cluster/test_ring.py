"""Unit tests for the consistent-hash ring."""

import random
from collections import Counter

import pytest

from repro.cluster.ring import HashRing
from repro.core.errors import InvalidArgumentError

NAMES = [f"context-{i}" for i in range(200)]


def build(nodes=("n1", "n2", "n3"), vnodes=64):
    ring = HashRing(vnodes)
    for node in nodes:
        ring.add_node(node)
    return ring


class TestOwnership:
    def test_empty_ring_owns_nothing(self):
        assert HashRing().owner("anything") is None

    def test_single_node_owns_everything(self):
        ring = build(nodes=("solo",))
        assert all(ring.owner(name) == "solo" for name in NAMES)

    def test_deterministic_across_instances(self):
        # Two independently built rings (any insertion order) agree on
        # every owner — the property clients and daemons rely on.
        a = build(nodes=("n1", "n2", "n3"))
        b = build(nodes=("n3", "n1", "n2"))
        assert a.assignment(NAMES) == b.assignment(NAMES)

    def test_virtual_nodes_spread_the_load(self):
        ring = build(vnodes=64)
        shares = Counter(ring.assignment(NAMES).values())
        assert set(shares) == {"n1", "n2", "n3"}
        # No node should own a wildly disproportionate share.
        assert max(shares.values()) < 2.5 * (len(NAMES) / 3)

    def test_removal_moves_only_the_dead_nodes_contexts(self):
        ring = build()
        before = ring.assignment(NAMES)
        ring.remove_node("n2")
        after = ring.assignment(NAMES)
        moved = [name for name in NAMES if before[name] != after[name]]
        assert moved, "n2 owned something"
        assert all(before[name] == "n2" for name in moved)
        assert all(after[name] != "n2" for name in NAMES)

    def test_rejoin_restores_previous_assignment(self):
        ring = build()
        before = ring.assignment(NAMES)
        ring.remove_node("n2")
        ring.add_node("n2")
        assert ring.assignment(NAMES) == before


class TestMembershipBookkeeping:
    def test_epoch_increments_on_every_change(self):
        ring = HashRing()
        assert ring.epoch == 0
        ring.add_node("a")
        ring.add_node("b")
        assert ring.epoch == 2
        ring.remove_node("a")
        assert ring.epoch == 3

    def test_duplicate_add_and_missing_remove_are_noops(self):
        ring = build()
        epoch = ring.epoch
        assert not ring.add_node("n1")
        assert not ring.remove_node("ghost")
        assert ring.epoch == epoch

    def test_contains_len_nodes(self):
        ring = build()
        assert "n1" in ring and "ghost" not in ring
        assert len(ring) == 3
        assert ring.nodes() == ["n1", "n2", "n3"]

    def test_vnodes_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            HashRing(vnodes=0)


def ids(count):
    return [f"n{i}" for i in range(1, count + 1)]


class TestChurn:
    """Placement across node counts and failure schedules: every node and
    client computes the owner from the ring alone, so these properties are
    what keeps the cluster's answers the same whatever its size."""

    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_every_node_gets_a_near_fair_share(self, count):
        shares = Counter(build(nodes=ids(count)).assignment(NAMES).values())
        assert sorted(shares) == ids(count)
        assert max(shares.values()) < 2.5 * len(NAMES) / count, shares

    @pytest.mark.parametrize("count", [2, 3, 4, 6])
    def test_cascading_deaths_end_on_the_survivor(self, count):
        ring = build(nodes=ids(count))
        for victim in ids(count)[:-1]:
            before = ring.assignment(NAMES)
            ring.remove_node(victim)
            after = ring.assignment(NAMES)
            assert all(
                before[name] == victim
                for name in NAMES if before[name] != after[name]
            )
        assert set(ring.assignment(NAMES).values()) == {ids(count)[-1]}

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_a_join_takes_contexts_only_for_itself(self, count):
        ring = build(nodes=ids(count))
        before = ring.assignment(NAMES)
        ring.add_node("joiner")
        after = ring.assignment(NAMES)
        moved = [name for name in NAMES if before[name] != after[name]]
        assert moved
        assert all(after[name] == "joiner" for name in moved)

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_a_death_closes_the_gap_in_every_preference_list(self, factor):
        """Whichever node dies, each context's new preference list is its
        old one without the dead node, topped up by the next successor:
        the first replica becomes the owner and healing adds exactly one
        new replica."""
        for victim in ids(5):
            ring = build(nodes=ids(5))
            before = {name: ring.successors(name, factor + 1) for name in NAMES}
            ring.remove_node(victim)
            for name in NAMES:
                expected = [n for n in before[name] if n != victim][:factor]
                assert ring.successors(name, factor) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_membership_history_does_not_move_placement(self, seed):
        """Nodes that saw different joins, deaths and rejoins agree with a
        freshly built ring on every owner and preference list once their
        memberships match."""
        rng = random.Random(seed)
        churned = build(nodes=ids(6))
        for _ in range(30):
            node = rng.choice(ids(6))
            if node in churned and len(churned) > 1:
                churned.remove_node(node)
            else:
                churned.add_node(node)
        fresh = build(nodes=churned.nodes()[::-1])
        assert churned.assignment(NAMES) == fresh.assignment(NAMES)
        assert all(
            churned.successors(name, 3) == fresh.successors(name, 3)
            for name in NAMES
        )
