"""Interval partitioning, the EquivalenceMap, and campaign collapsing."""

import pytest

from repro.prune import EquivalenceMap, IntervalClaim, partition_events
from repro.prune.defuse import KIND_DEAD, KIND_LIVE, KIND_TAIL, WireClasses
from repro.util.bits import set_bits


def _spans(intervals):
    return [(i.start, i.end, i.kind) for i in intervals]


class TestPartition:
    def test_hold_run_ending_in_kill_is_dead(self):
        assert _spans(partition_events("d", "w", "hhk")) == [(0, 2, KIND_DEAD)]

    def test_hold_run_ending_in_escape_is_live(self):
        intervals = partition_events("d", "w", "hhe")
        assert _spans(intervals) == [(0, 2, KIND_LIVE)]
        assert intervals[0].representative == 2

    def test_trailing_holds_become_a_tail(self):
        intervals = partition_events("d", "w", "ehh")
        assert _spans(intervals) == [(0, 0, KIND_LIVE), (1, 2, KIND_TAIL)]
        assert intervals[1].representative == 2

    def test_mixed_string(self):
        assert _spans(partition_events("d", "w", "khhehkhh")) == [
            (0, 0, KIND_DEAD),
            (1, 3, KIND_LIVE),
            (4, 5, KIND_DEAD),
            (6, 7, KIND_TAIL),
        ]

    def test_events_slice_is_the_evidence(self):
        intervals = partition_events("d", "w", "hhkhe")
        assert [i.events for i in intervals] == ["hhk", "he"]

    def test_empty_string(self):
        assert partition_events("d", "w", "") == []

    def test_dead_interval_has_no_representative(self):
        (interval,) = partition_events("d", "w", "k")
        assert interval.representative is None
        assert interval.num_points == 1
        assert interval.covers(0) and not interval.covers(1)


class TestWireClasses:
    def test_interval_of_finds_the_covering_interval(self):
        classes = WireClasses("d", "w", "khhehh")
        assert classes.interval_of(0).kind == KIND_DEAD
        for cycle in (1, 2, 3):
            assert classes.interval_of(cycle).kind == KIND_LIVE
        for cycle in (4, 5):
            assert classes.interval_of(cycle).kind == KIND_TAIL
        assert all(
            classes.interval_of(c).covers(c) for c in range(classes.num_cycles)
        )

    def test_interval_of_rejects_out_of_range(self):
        classes = WireClasses("d", "w", "khh")
        with pytest.raises(IndexError):
            classes.interval_of(3)
        with pytest.raises(IndexError):
            classes.interval_of(-1)

    def test_pruned_vector_spares_representatives(self):
        classes = WireClasses("d", "w", "khhehh")
        with_followers = classes.pruned_vector()
        # dead@0, live followers 1-2 (rep 3), tail follower 4 (rep 5)
        assert with_followers == 0b010111
        dead_only = classes.pruned_vector(include_followers=False)
        assert dead_only == 0b000001


class TestEquivalenceMapAccounting:
    def test_fixture_totals_are_consistent(self, emap, netlist, golden):
        assert emap.num_points == len(netlist.dffs) * golden.cycles
        assert (
            emap.num_pruned_points
            == emap.num_dead_points + emap.num_follower_points
        )
        # Representatives + pruned + dead-representative double counting:
        # every point is exactly one of dead / follower / representative.
        assert (
            emap.num_dead_points
            + emap.num_follower_points
            + emap.num_representatives
            == emap.num_points
        )

    def test_pruned_vector_matches_claims(self, emap):
        for dff, classes in emap.wires.items():
            vec = emap.pruned_vector(dff)
            reps = [
                claim.representative
                for claim in classes.intervals
                if claim.kind != KIND_DEAD
            ]
            every = (1 << emap.golden_cycles) - 1
            assert set_bits(every & ~vec) == sorted(reps)

    def test_round_trip_through_json(self, emap, tmp_path):
        path = tmp_path / "map.json"
        emap.save(path)
        loaded = EquivalenceMap.load(path)
        assert loaded.design == emap.design
        assert loaded.workload == emap.workload
        assert loaded.netlist_hash == emap.netlist_hash
        assert loaded.golden_cycles == emap.golden_cycles
        assert {n: c.events for n, c in loaded.wires.items()} == {
            n: c.events for n, c in emap.wires.items()
        }
        assert [c.to_dict() for c in loaded.claims()] == [
            c.to_dict() for c in emap.claims()
        ]

    def test_unknown_version_rejected(self, emap):
        doc = emap.to_dict()
        doc["version"] = 999
        with pytest.raises(ValueError, match="version"):
            EquivalenceMap.from_dict(doc)


class TestCollapse:
    def test_dead_points_need_no_injection(self, emap):
        plan = emap.collapse([("rdead", 3), ("rdead", 7)])
        assert plan.dead == [0, 1]
        assert plan.executed == []
        assert plan.num_injected == 0
        assert plan.num_annotated == 2

    def test_first_listed_member_represents_its_interval(self, emap):
        # rhold is one big tail interval: every later point follows the
        # first one the caller listed.
        plan = emap.collapse([("rhold", 9), ("rhold", 2), ("rhold", 14)])
        assert plan.executed == [0]
        assert plan.follows == {1: 0, 2: 0}

    def test_duplicates_fold_onto_the_first_copy(self, emap):
        plan = emap.collapse([("rk", 5), ("rk", 5)])
        # rk escapes every cycle: singleton intervals, so the duplicate
        # point is its interval's second listed member.
        assert plan.executed == [0]
        assert plan.follows == {1: 0}

    def test_claims_cover_every_index(self, emap):
        points = [("ra", 2), ("rb", 11), ("rdead", 0), ("rhold", 5)]
        plan = emap.collapse(points)
        assert sorted(plan.claims) == [0, 1, 2, 3]
        for index, (dff, cycle) in enumerate(points):
            assert plan.claims[index].dff == dff
            assert plan.claims[index].covers(cycle)
        assert sorted(plan.dead + list(plan.follows) + plan.executed) == [
            0, 1, 2, 3,
        ]

    def test_summary_counts(self, emap):
        plan = emap.collapse([("rdead", 1), ("rhold", 0), ("rhold", 1)])
        assert "3 point(s)" in plan.summary()
        assert "1 injected" in plan.summary()
        assert "1 proven benign" in plan.summary()

    def test_annotation_plan_bridges_to_the_runner(self, emap):
        from repro.fi.runner import AnnotationPlan

        plan = emap.collapse([("rdead", 1), ("rhold", 0), ("rhold", 1)])
        annotation = plan.annotation_plan()
        assert isinstance(annotation, AnnotationPlan)
        assert annotation.dead == (0,)
        assert annotation.follows == {2: 1}
        assert annotation.source == "defuse"
        annotation.validate(3)


class TestIntervalClaimDescribe:
    def test_describe_is_human_readable(self):
        claim = IntervalClaim("pc_b3", "pc_b3_q", 10, 17, KIND_DEAD, "h" * 7 + "k")
        assert claim.describe() == "pc_b3[10..17] dead"
