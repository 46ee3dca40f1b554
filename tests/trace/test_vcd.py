"""Tests for the VCD writer/parser."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import Trace, parse_vcd, write_vcd
from repro.trace.vcd import _id_code


class TestIdCodes:
    def test_distinct(self):
        codes = {_id_code(i) for i in range(500)}
        assert len(codes) == 500

    def test_printable(self):
        for i in (0, 93, 94, 94 * 94):
            assert all(33 <= ord(ch) <= 126 for ch in _id_code(i))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _id_code(-1)


def _random_trace(rng, wires, cycles):
    matrix = np.array(
        [[rng.randint(0, 1) for _ in range(wires)] for _ in range(cycles)],
        dtype=np.uint8,
    )
    return Trace.from_matrix([f"wire_{i}" for i in range(wires)], matrix)


class TestRoundtrip:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=32),
        st.randoms(),
    )
    def test_random_traces(self, wires, cycles, rng):
        trace = _random_trace(rng, wires, cycles)
        assert parse_vcd(write_vcd(trace)) == trace

    def test_empty_trace(self):
        trace = Trace.from_matrix(["a"], np.zeros((0, 1), dtype=np.uint8))
        parsed = parse_vcd(write_vcd(trace))
        assert parsed.num_cycles == 0
        assert parsed.wire_names == ("a",)

    def test_constant_wire_only_dumped_once(self):
        matrix = np.array([[1], [1], [1]], dtype=np.uint8)
        text = write_vcd(Trace.from_matrix(["const_wire"], matrix))
        # After the initial dump there must be no further changes.
        body = text.split("$enddefinitions $end")[1]
        assert body.count("1!") == 1


class TestParserEdges:
    def test_header_metadata_preserved(self):
        trace = Trace.from_matrix(["sig"], np.array([[1]], dtype=np.uint8))
        text = write_vcd(trace, module="cpu", timescale="10ps")
        assert "$scope module cpu $end" in text
        assert "$timescale 10ps $end" in text
        assert parse_vcd(text) == trace

    def test_dangling_final_changes_sampled(self):
        text = (
            "$var wire 1 ! a $end\n"
            "$enddefinitions $end\n"
            "#0\n0!\n#1\n1!\n"
        )
        parsed = parse_vcd(text)
        assert parsed.columns(["a"]).tolist() == [[0], [1]]

    def test_unsupported_vector_var_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            parse_vcd("$var wire 8 ! bus $end\n$enddefinitions $end\n#0\n")

    def test_x_value_rejected(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#0\nx!\n#1\n"
        with pytest.raises(ValueError, match="unsupported value"):
            parse_vcd(text)

    def test_undeclared_code_rejected(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#0\n1?\n#1\n"
        with pytest.raises(ValueError, match="undeclared"):
            parse_vcd(text)

    def test_never_dumped_wire_rejected(self):
        text = (
            "$var wire 1 ! a $end\n$var wire 1 \" b $end\n"
            "$enddefinitions $end\n#0\n1!\n#1\n"
        )
        with pytest.raises(ValueError, match="never dumped"):
            parse_vcd(text)
