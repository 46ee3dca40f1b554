"""Tests for the Trace container."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace import Trace


@pytest.fixture()
def trace():
    matrix = np.array(
        [
            [0, 1, 0],
            [1, 1, 0],
            [1, 0, 1],
        ],
        dtype=np.uint8,
    )
    return Trace.from_matrix(["x", "y", "z"], matrix)


class TestConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trace.from_matrix(["a"], np.zeros((2, 2), dtype=np.uint8))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_matrix(["a"], np.array([[2]], dtype=np.uint8))

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            Trace.from_matrix(["a"], np.zeros(3, dtype=np.uint8))

    def test_vector_count_mismatch(self):
        with pytest.raises(ValueError):
            Trace(["a", "b"], [0], 1)

    def test_vector_beyond_cycles_rejected(self):
        with pytest.raises(ValueError):
            Trace(["a"], [0b100], 2)


class TestAccess:
    def test_vector_bit_per_cycle(self, trace):
        assert trace.vector("x") == 0b110
        assert trace.vector("z") == 0b100
        assert trace == Trace(["x", "y", "z"], [0b110, 0b011, 0b100], 3)

    def test_cycle_outside_trace(self, trace):
        with pytest.raises(IndexError):
            trace.value(3, "x")

    def test_value(self, trace):
        assert trace.value(0, "y") == 1
        assert trace.value(2, "x") == 1

    def test_unknown_wire(self, trace):
        with pytest.raises(KeyError):
            trace.vector("nope")

    def test_cycle_values(self, trace):
        assert trace.cycle_values(1) == {"x": 1, "y": 1, "z": 0}

    def test_columns_order(self, trace):
        sub = trace.columns(["z", "x"])
        assert sub.tolist() == [[0, 0], [0, 1], [1, 1]]

    def test_word_lsb_first(self, trace):
        assert trace.word(1, ["x", "y", "z"]) == 0b011

    def test_contains(self, trace):
        assert "x" in trace
        assert "q" not in trace

    def test_slice_cycles(self, trace):
        part = trace.slice_cycles(1, 3)
        assert part.num_cycles == 2
        assert part.value(0, "x") == 1
        assert part.vector("y") == 0b01

    def test_equality(self, trace):
        matrix = trace.columns(trace.wire_names)
        clone = Trace.from_matrix(trace.wire_names, matrix)
        assert clone == trace
        different = Trace.from_matrix(trace.wire_names, np.zeros_like(matrix))
        assert different != trace


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=20),
    st.randoms(),
)
def test_word_roundtrip_property(width, cycles, rng):
    names = [f"w{i}" for i in range(width)]
    matrix = np.array(
        [[rng.randint(0, 1) for _ in range(width)] for _ in range(cycles)],
        dtype=np.uint8,
    )
    trace = Trace.from_matrix(names, matrix)
    for cycle in range(cycles):
        word = trace.word(cycle, names)
        assert [(word >> i) & 1 for i in range(width)] == matrix[cycle].tolist()
