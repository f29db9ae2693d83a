"""Unit tests for the gossip peer table (pure state machine)."""

import pytest

from repro.cluster.membership import PeerTable


def make_table(suspect_after=3):
    table = PeerTable("n1", "hostA", 1001, suspect_after=suspect_after)
    table.upsert("n2", "hostB", 1002)
    table.upsert("n3", "hostC", 1003)
    return table


class TestMergeRules:
    def test_unknown_node_is_added(self):
        table = make_table()
        changed = table.merge_view([
            {"id": "n4", "host": "hostD", "port": 1004, "gen": 1, "alive": True}
        ])
        assert changed
        assert table.get("n4").host == "hostD"

    def test_higher_generation_wins(self):
        table = make_table()
        table.get("n2").alive = False
        changed = table.merge_view([
            {"id": "n2", "host": "hostB2", "port": 2002, "gen": 5, "alive": True}
        ])
        assert changed
        peer = table.get("n2")
        assert peer.alive and peer.generation == 5 and peer.port == 2002

    def test_death_rumor_sticks_at_equal_generation(self):
        table = make_table()
        assert table.merge_view([{"id": "n2", "gen": 1, "alive": False}])
        assert not table.get("n2").alive
        # The alive rumor at the same generation does NOT resurrect.
        assert not table.merge_view([{"id": "n2", "gen": 1, "alive": True}])
        assert not table.get("n2").alive

    def test_nobody_outranks_a_node_about_itself(self):
        table = make_table()
        assert not table.merge_view([{"id": "n1", "gen": 99, "alive": False}])
        assert table.get("n1").alive

    def test_stale_generation_is_ignored(self):
        table = make_table()
        table.get("n2").generation = 4
        assert not table.merge_view([{"id": "n2", "gen": 2, "alive": False}])
        assert table.get("n2").alive


class TestLiveness:
    def test_suspect_threshold(self):
        table = make_table(suspect_after=3)
        assert not table.heartbeat_missed("n2")
        assert not table.heartbeat_missed("n2")
        assert table.heartbeat_missed("n2")  # third strike
        assert not table.get("n2").alive
        # Further misses on a dead peer report nothing new.
        assert not table.heartbeat_missed("n2")

    @pytest.mark.parametrize("suspect_after", [1, 2, 3, 5])
    def test_death_is_declared_on_exactly_the_nth_consecutive_miss(
        self, suspect_after
    ):
        """Detection takes ``suspect_after`` heartbeat intervals: the knob
        that sets how long a silent owner's waiters wait."""
        table = make_table(suspect_after=suspect_after)
        verdicts = [
            table.heartbeat_missed("n2") for _ in range(suspect_after + 2)
        ]
        assert verdicts == [False] * (suspect_after - 1) + [True, False, False]
        assert table.alive_ids() == ["n1", "n3"]

    def test_heartbeat_ok_resets_the_count(self):
        table = make_table(suspect_after=2)
        assert not table.heartbeat_missed("n2")
        table.heartbeat_ok("n2", now=10.0)
        assert not table.heartbeat_missed("n2")  # count restarted
        assert table.get("n2").alive

    def test_link_failed_kills_immediately(self):
        table = make_table()
        assert table.link_failed("n3")
        assert not table.get("n3").alive
        assert not table.link_failed("n3")  # already dead
        assert not table.link_failed("n1")  # never self

    def test_mark_alive_after_direct_contact(self):
        table = make_table()
        table.link_failed("n2")
        assert table.mark_alive("n2", now=5.0)
        peer = table.get("n2")
        assert peer.alive and peer.missed == 0

    def test_alive_ids_and_peers(self):
        table = make_table()
        table.link_failed("n3")
        assert table.alive_ids() == ["n1", "n2"]
        assert [p.node_id for p in table.alive_peers()] == ["n2"]

    def test_view_round_trips_through_merge(self):
        a = make_table()
        a.link_failed("n3")
        b = PeerTable("n9", "hostX", 9009)
        assert b.merge_view(a.view())
        assert b.alive_ids() == ["n1", "n2", "n9"]
        assert not b.get("n3").alive


class TestMergeViewEdgeCases:
    """The corners failover correctness hangs on: generation ties, death
    rumors racing resurrections, flapping peers, and merges racing
    upserts from another thread."""

    def test_generation_tie_alive_rumor_cannot_resurrect(self):
        """Equal generation: dead beats alive, in both merge orders."""
        table = make_table()
        assert table.merge_view([{"id": "n2", "gen": 1, "alive": False}])
        # An alive rumor at the same generation arrives late (a peer with
        # a stale view gossips back): the death verdict must stick.
        assert not table.merge_view([{"id": "n2", "gen": 1, "alive": True}])
        assert not table.get("n2").alive
        # And the reverse order: alive first (no-op), then the death.
        fresh = make_table()
        assert not fresh.merge_view([{"id": "n3", "gen": 1, "alive": True}])
        assert fresh.merge_view([{"id": "n3", "gen": 1, "alive": False}])
        assert not fresh.get("n3").alive

    def test_generation_tie_never_updates_address(self):
        """Only a strictly newer generation may rebind host:port — an
        equal-generation rumor carrying a different address is noise."""
        table = make_table()
        table.merge_view([
            {"id": "n2", "gen": 1, "alive": True,
             "host": "evil", "port": 6666},
        ])
        peer = table.get("n2")
        assert (peer.host, peer.port) == ("hostB", 1002)

    def test_death_rumor_loses_to_newer_generation_resurrection(self):
        """A restarted peer (gen+1) must come back even when the death
        rumor about its previous life arrives *after* its rebirth."""
        table = make_table()
        # Ring-neutral (n2 was already alive), so merge_view says False,
        # but the generation must advance.
        assert not table.merge_view([{"id": "n2", "gen": 2, "alive": True}])
        assert table.get("n2").generation == 2
        # Late death rumor about generation 1: stale, ignored.
        assert not table.merge_view([{"id": "n2", "gen": 1, "alive": False}])
        peer = table.get("n2")
        assert peer.alive and peer.generation == 2

    def test_newer_generation_death_beats_older_alive(self):
        """Rumors about a life we have not even seen alive yet: a gen-3
        death outranks the gen-2 entry we hold."""
        table = make_table()
        table.merge_view([{"id": "n2", "gen": 2, "alive": True}])
        assert table.merge_view([{"id": "n2", "gen": 3, "alive": False}])
        assert not table.get("n2").alive
        # ...and the same-generation alive echo cannot undo it.
        assert not table.merge_view([{"id": "n2", "gen": 3, "alive": True}])
        assert not table.get("n2").alive

    def test_flapping_peer_crosses_suspect_threshold_only_when_consecutive(self):
        """Misses interleaved with successes never kill; only a full run
        of suspect_after consecutive misses does."""
        table = make_table(suspect_after=3)
        for _ in range(5):
            assert not table.heartbeat_missed("n2")
            assert not table.heartbeat_missed("n2")
            table.heartbeat_ok("n2")  # flap back before the third miss
            assert table.get("n2").alive
        assert not table.heartbeat_missed("n2")
        assert not table.heartbeat_missed("n2")
        assert table.heartbeat_missed("n2")  # third consecutive: dead
        assert not table.get("n2").alive
        # Once dead, further misses are no-ops (no double verdicts).
        assert not table.heartbeat_missed("n2")

    def test_flapping_peer_resurrected_by_contact_needs_full_run_again(self):
        table = make_table(suspect_after=2)
        table.heartbeat_missed("n2")
        table.heartbeat_missed("n2")
        assert not table.get("n2").alive
        assert table.mark_alive("n2")
        # The miss counter was reset by the resurrection: one more miss
        # alone must not re-kill it.
        assert not table.heartbeat_missed("n2")
        assert table.get("n2").alive
        assert table.heartbeat_missed("n2")
        assert not table.get("n2").alive

    def test_merge_under_concurrent_upsert(self):
        """Gossip merges race seed upserts on the live node (both run on
        worker threads).  The table itself is only mutated under the
        node's lock, but the *logical* race — merge of a view mentioning
        a node that an upsert just added with different details — must
        converge: the higher generation wins regardless of order."""
        import itertools

        merge_entry = {"id": "n9", "gen": 3, "alive": False,
                       "host": "hostM", "port": 9999}
        for first, second in itertools.permutations(("merge", "upsert")):
            table = make_table()
            for action in (first, second):
                if action == "merge":
                    table.merge_view([dict(merge_entry)])
                else:
                    table.upsert("n9", "hostU", 9001, generation=2)
            peer = table.get("n9")
            assert peer.generation == 3
            assert not peer.alive
            assert (peer.host, peer.port) == ("hostM", 9999)

    def test_merge_under_interleaved_upsert_threads(self):
        """Hammer merge_view and upsert from two threads (each call under
        a lock, interleaving arbitrary): the table must end consistent —
        every peer present, the max generation retained, no exception."""
        import threading

        table = make_table()
        lock = threading.Lock()
        errors = []

        def merger():
            try:
                for gen in range(1, 200):
                    with lock:
                        table.merge_view(
                            [{"id": "nX", "gen": gen, "alive": gen % 3 != 0}]
                        )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def upserter():
            try:
                for gen in range(1, 200):
                    with lock:
                        table.upsert("nX", "hostX", 7777, generation=gen)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=merger),
                   threading.Thread(target=upserter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert table.get("nX").generation == 199
