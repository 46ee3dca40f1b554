"""Invariants of the (flip-flop × cycle) fault-space accounting."""

import pytest

from repro.core.faultspace import FaultSpace


@pytest.fixture
def space():
    return FaultSpace(["q0", "q1", "q2"], 5)


class TestInvariants:
    def test_size_is_benign_plus_remaining(self, space):
        assert space.size == space.num_benign + space.num_remaining
        space.mark_benign("q0", 1)
        space.mark_benign_cycles("q1", 0b01101)
        assert space.size == space.num_benign + space.num_remaining
        assert space.num_benign == 4

    def test_mark_benign_is_idempotent(self, space):
        space.mark_benign("q2", 3)
        before = space.num_benign
        space.mark_benign("q2", 3)
        space.mark_benign("q2", 3, layer="mate")
        assert space.num_benign == before
        assert space.layer_benign("mate") == 1

    def test_remaining_points_excludes_marked(self, space):
        space.mark_benign("q0", 0)
        points = space.remaining_points()
        assert ("q0", 0) not in points
        assert len(points) == space.num_remaining

    def test_unknown_wire_raises(self, space):
        with pytest.raises(KeyError):
            space.mark_benign("nope", 0)


class TestCycleVectors:
    def test_short_vector_is_zero_padded(self, space):
        space.mark_benign_cycles("q0", 0b11)
        assert space.is_benign("q0", 0) and space.is_benign("q0", 1)
        assert not space.is_benign("q0", 4)
        assert space.num_benign == 2

    def test_vector_bit_c_is_cycle_c(self, space):
        space.mark_benign_cycles("q1", 0b01010)
        assert space.is_benign("q1", 1) and space.is_benign("q1", 3)
        assert space.num_benign == 2

    def test_full_horizon_vector_is_accepted(self, space):
        space.mark_benign_cycles("q0", (1 << space.num_cycles) - 1)
        assert space.num_benign == space.num_cycles
        assert space.size == space.num_benign + space.num_remaining

    def test_long_vector_is_rejected(self, space):
        # A vector from a longer run (e.g. a free-running trace against the
        # halting golden run) belongs to a different fault space.
        with pytest.raises(ValueError):
            space.mark_benign_cycles("q0", 1 << space.num_cycles)
        with pytest.raises(ValueError):
            space.mark_benign_cycles("q0", (1 << 50) - 1, layer="mate")
        assert space.num_benign == 0
        assert space.layers == ()

    def test_negative_vector_is_rejected(self, space):
        with pytest.raises(ValueError):
            space.mark_benign_cycles("q0", -1)

    def test_out_of_range_cycle_raises(self, space):
        with pytest.raises(IndexError):
            space.mark_benign("q0", space.num_cycles)
        with pytest.raises(IndexError):
            space.is_benign("q0", -1)


class TestEmptySpace:
    def test_zero_cycles(self):
        space = FaultSpace(["q0"], 0)
        assert space.size == 0
        assert space.num_remaining == 0
        assert space.benign_fraction == 0.0
        assert space.remaining_points() == []
        space.mark_benign_cycles("q0", 0)
        assert space.num_benign == 0

    def test_zero_wires(self):
        space = FaultSpace([], 10)
        assert space.size == 0
        assert space.remaining_points() == []
        assert space.render_grid()  # header renders without wires

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            FaultSpace(["q0"], -1)


class TestLayers:
    def test_layers_track_attribution(self, space):
        space.mark_benign_cycles("q0", 0b00011, layer="mate")
        space.mark_benign_cycles("q0", 0b00110, layer="defuse")
        assert space.layers == ("defuse", "mate")
        assert space.layer_benign("mate") == 2
        assert space.layer_benign("defuse") == 2
        assert space.layer_overlap("mate", "defuse") == 1
        assert space.num_benign == 3  # union

    def test_pruned_by_names_layers(self, space):
        space.mark_benign("q1", 2, layer="mate")
        space.mark_benign("q1", 2, layer="defuse")
        space.mark_benign("q1", 3, layer="defuse")
        assert space.pruned_by("q1", 2) == ("defuse", "mate")
        assert space.pruned_by("q1", 3) == ("defuse",)
        assert space.pruned_by("q1", 0) == ()

    def test_attribution_adds_overlap_for_two_layers(self, space):
        space.mark_benign("q0", 0, layer="mate")
        space.mark_benign("q0", 0, layer="defuse")
        space.mark_benign("q2", 4, layer="defuse")
        assert space.attribution() == {"mate": 1, "defuse": 2, "both": 1}

    def test_attribution_without_layers_is_empty(self, space):
        space.mark_benign("q0", 0)  # unattributed
        assert space.attribution() == {}
        assert space.layer_benign("mate") == 0
        assert space.layer_overlap("mate", "defuse") == 0

    def test_unattributed_marks_count_only_in_union(self, space):
        space.mark_benign("q0", 0)
        space.mark_benign("q0", 1, layer="mate")
        assert space.num_benign == 2
        assert space.attribution() == {"mate": 1}
