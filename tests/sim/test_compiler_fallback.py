"""Tests for compiler details: SOP fallback, word packing, trace layout."""

from repro.cells import BoolFunc, Cell, Library
from repro.netlist import Netlist
from repro.sim import CompiledNetlist
from repro.cells.expressions import TEMPLATES


def sop_fallback_library():
    """INV/BUF/DFF plus ONEHOT3, a cell no hand-written template covers."""
    lib = Library("custom")
    for name in ("INV", "BUF"):
        expr = "1 ^ A" if name == "INV" else "A"
        lib.add(Cell(name, ("A",), "Y", BoolFunc.from_expression(("A",), expr)))
    # A 3-input "exactly one hot" cell: no template exists for it.
    lib.add(Cell(
        "ONEHOT3", ("A", "B", "C"), "Y",
        BoolFunc.from_callable(
            ("A", "B", "C"), lambda a, b, c: int(a + b + c == 1)
        ),
    ))
    lib.add(Cell("DFF", ("D",), "Q", None, sequential=True))
    return lib


def sop_fallback_netlist():
    """One ONEHOT3 gate over three inputs, simulated via tabulated SOP."""
    n = Netlist("t", sop_fallback_library())
    for w in ("a", "b", "c"):
        n.add_input(w)
    n.add_gate("g", "ONEHOT3", {"A": "a", "B": "b", "C": "c"}, "y")
    n.add_output("y")
    return n


class TestSopFallback:
    """Cells without a hand-written template simulate via tabulated SOP."""

    def test_custom_cell_not_in_templates(self):
        assert "ONEHOT3" not in TEMPLATES

    def test_fallback_matches_truth_table(self):
        compiled = CompiledNetlist(sop_fallback_netlist())
        for row in range(8):
            inputs = [(row >> i) & 1 for i in range(3)]
            _, outputs, _ = compiled.step([], inputs)
            assert outputs[0] == int(sum(inputs) == 1), f"row {row}"


class TestWordPacking:
    def test_pack_unpack_roundtrip(self, avr_sim):
        words = {"instr_in": 0xBEEF, "dmem_rdata": 0x5A, "pin_in": 0x81}
        bits = avr_sim.pack_inputs(words)
        by_wire = dict(zip(avr_sim.compiled.input_wires, bits))
        assert by_wire["instr_in_b0"] == 1
        assert by_wire["instr_in_b15"] == 1
        assert by_wire["dmem_rdata_b1"] == 1

    def test_unknown_words_default_zero(self, avr_sim):
        bits = avr_sim.pack_inputs({})
        assert all(b == 0 for b in bits)

    def test_unpack_outputs(self, avr_sim):
        outputs = tuple([1] * len(avr_sim.compiled.output_wires))
        words = avr_sim.unpack_outputs(outputs)
        assert words["dmem_we"] == 1
        assert words["dmem_addr"] == 0xFFFF


class TestTraceLayout:
    def test_constants_first(self, avr_sim):
        wires = avr_sim.compiled.trace_wires
        assert wires[0] == "1'b0"
        assert wires[1] == "1'b1"

    def test_every_gate_output_traced(self, avr_sim):
        traced = set(avr_sim.compiled.trace_wires)
        for gate in avr_sim.netlist.gates.values():
            assert gate.output in traced

    def test_every_ff_q_traced(self, avr_sim):
        traced = set(avr_sim.compiled.trace_wires)
        for dff in avr_sim.netlist.dffs.values():
            assert dff.q in traced
