"""Tests for trace replay, fault-space accounting, and top-N selection."""

import numpy as np
import pytest

from repro.core.faultspace import FaultSpace
from repro.core.mate import Mate
from repro.core.replay import replay_mates
from repro.core.selection import evaluate_subset, rate_mates, select_top_n
from repro.trace import Trace


@pytest.fixture()
def trace():
    # Wires: s0, s1, f1, f2 over 8 cycles.
    matrix = np.array(
        [
            # s0 s1 f1 f2
            [1, 0, 0, 0],
            [1, 1, 0, 1],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 0],
            [1, 1, 1, 1],
            [0, 0, 0, 0],
            [1, 0, 1, 0],
        ],
        dtype=np.uint8,
    )
    return Trace.from_matrix(["s0", "s1", "f1", "f2"], matrix)


@pytest.fixture()
def mates():
    return [
        Mate([("s0", 1)], ["f1"]),            # triggers cycles 0,1,4,5,7 (5x)
        Mate([("s1", 1)], ["f1", "f2"]),      # triggers cycles 1,2,5 (3x)
        Mate([("s0", 0), ("s1", 0)], ["f2"]),  # triggers cycles 3,6 (2x)
        Mate([("s0", 1), ("s1", 1)], ["f2"]),  # triggers cycles 1,5 (2x)
    ]


class TestReplay:
    def test_trigger_counts(self, trace, mates):
        replay = replay_mates(mates, trace, ["f1", "f2"])
        assert replay.trigger_counts.tolist() == [5, 3, 2, 2]

    def test_effective_indices(self, trace, mates):
        never = Mate([("s0", 1), ("s1", 1), ("f1", 1), ("f2", 1)], ["f1"])
        replay = replay_mates([*mates, never], trace, ["f1", "f2"])
        # The added mate triggers only at cycle 5 where all four wires are 1.
        assert replay.trigger_counts[-1] == 1
        replay2 = replay_mates(
            [Mate([("s0", 1), ("s1", 1), ("f2", 0)], ["f1"])], trace, ["f1"]
        )
        assert replay2.effective_indices() == []

    def test_masked_pairs_union_not_sum(self, trace, mates):
        replay = replay_mates(mates, trace, ["f1", "f2"])
        # f1: mates 0 and 1 trigger cycles {0,1,4,5,7} | {1,2,5} = 6 cycles.
        # f2: mates 1,2,3: {1,2,5} | {3,6} | {1,5} = 5 cycles.
        assert replay.masked_pairs() == 6 + 5
        assert replay.masked_fraction() == pytest.approx(11 / 16)

    def test_subset_evaluation(self, trace, mates):
        replay = replay_mates(mates, trace, ["f1", "f2"])
        assert replay.masked_fraction([0]) == pytest.approx(5 / 16)
        assert evaluate_subset(replay, [0, 2]) == pytest.approx((5 + 2) / 16)

    def test_fault_wire_restriction(self, trace, mates):
        replay = replay_mates(mates, trace, ["f2"])
        # Only f2 counts now.
        assert replay.masked_pairs() == 5
        assert replay.fault_space_size == 8

    def test_empty_literals_always_triggered(self, trace):
        replay = replay_mates([Mate([], ["f1"])], trace, ["f1"])
        assert replay.masked_fraction() == 1.0

    def test_benign_grid(self, trace, mates):
        replay = replay_mates(mates, trace, ["f1", "f2"])
        grid = replay.benign_grid()
        assert grid.shape == (2, 8)
        assert grid[0].tolist() == [1, 1, 1, 0, 1, 1, 0, 1]

    def test_average_inputs_over_effective(self, trace, mates):
        replay = replay_mates(mates, trace, ["f1", "f2"])
        mean, _ = replay.average_inputs()
        assert mean == pytest.approx((1 + 1 + 2 + 2) / 4)


class TestSelection:
    def test_rating_prefers_big_maskers(self, trace, mates):
        replay = replay_mates(mates, trace, ["f1", "f2"])
        hits = rate_mates(replay)
        # Mate 0 masks 5 pairs; mate 1 masks (f1: cycle 2 new) + f2 3 = 6 total
        # pairs but f1 cycles 1,5 already credited to mate 0? Mate 1 total
        # masked pairs = 3 cycles x 2 wires = 6 > mate 0's 5, so mate 1 is
        # processed FIRST and gets full credit 6.
        assert hits[1] == 6
        assert hits[0] == 3  # f1 cycles {0,4,7} remain after mate 1
        assert hits.sum() == replay.masked_pairs()

    def test_top_n_monotone(self, trace, mates):
        replay = replay_mates(mates, trace, ["f1", "f2"])
        fractions = [
            replay.masked_fraction(select_top_n(replay, n)) for n in (1, 2, 3, 4)
        ]
        assert fractions == sorted(fractions)
        assert fractions[-1] == replay.masked_fraction()

    def test_top_n_excludes_untriggered(self, trace):
        mates = [
            Mate([("s0", 1)], ["f1"]),
            Mate([("s0", 1), ("s0", 1), ("f1", 1), ("f2", 1), ("s1", 1)], ["f1"]),
        ]
        replay = replay_mates(mates, trace, ["f1"])
        top = select_top_n(replay, 5)
        assert 0 in top


class TestFaultSpace:
    def test_marking(self):
        space = FaultSpace(["a", "b"], 4)
        assert space.size == 8
        space.mark_benign("a", 2)
        assert space.is_benign("a", 2)
        assert not space.is_benign("b", 2)
        assert space.num_benign == 1
        assert space.num_remaining == 7

    def test_mark_cycles_vector(self):
        space = FaultSpace(["a"], 4)
        space.mark_benign_cycles("a", np.array([1, 0, 1, 0]))
        assert space.benign_fraction == pytest.approx(0.5)

    def test_remaining_points(self):
        space = FaultSpace(["a", "b"], 2)
        space.mark_benign("a", 0)
        assert space.remaining_points() == [("a", 1), ("b", 0), ("b", 1)]

    def test_render_grid(self):
        space = FaultSpace(["wire_a"], 3)
        space.mark_benign("wire_a", 1)
        art = space.render_grid()
        assert "●" in art and "○" in art

    def test_empty_space(self):
        space = FaultSpace([], 0)
        assert space.benign_fraction == 0.0
