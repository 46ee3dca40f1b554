"""Differential test: the compiled word-level step against the bit level.

``Simulator.run`` calls only ``CompiledNetlist.word_step``, and so does
the reference every campaign is checked against (``record_trace=True``
from cycle 0). This test checks that step independently: on seeded
random (state, input words) pairs it must agree with the bit-level
``CompiledNetlist.step`` wrapped in ``pack_inputs``/``unpack_outputs``,
and the generated register readers must agree with assembling each word
bit by bit through ``bit_name``. The word-level step returns no wire
values; the recorded trace is compared with the bit-level step's rows in
``tests/sim/test_trace_derivation.py``.
"""

import random

import pytest

from repro.cells import nangate15_library
from repro.eval.example_circuit import figure1_netlist
from repro.netlist import Netlist
from repro.sim import Simulator
from repro.sim.simulator import RecordingStateView
from repro.synth.lower import bit_name
from tests.sim.test_compiler_fallback import sop_fallback_netlist

PAIRS = 500


@pytest.fixture(params=["avr", "msp430", "figure1", "sop-fallback"])
def sim(request, avr_sim, msp430_sim):
    if request.param == "avr":
        return avr_sim
    if request.param == "msp430":
        return msp430_sim
    if request.param == "figure1":
        return Simulator(figure1_netlist())
    return Simulator(sop_fallback_netlist())


def _random_words(rng, widths):
    """Input words with bits above the width set and some words missing."""
    words = {}
    for word, width in widths.items():
        if rng.random() < 0.9:
            words[word] = rng.getrandbits(width + 2)
    if rng.random() < 0.1:
        words["no_such_input"] = rng.getrandbits(8)
    return words


def _reference_read_reg(sim, state, name):
    width = sim.reg_widths[name]
    value, present = 0, set()
    for bit in range(width):
        dff_name = bit_name(name, bit, width)
        index = sim.dff_index.get(dff_name)
        if index is not None:
            present.add(dff_name)
            value |= state[index] << bit
    return value, present


def test_word_step_matches_bit_step(sim):
    rng = random.Random(2018)
    compiled = sim.compiled
    for pair in range(PAIRS):
        state = [rng.getrandbits(1) for _ in range(compiled.num_state_bits)]
        words = _random_words(rng, sim.input_widths)

        expected_next, outputs, _ = compiled.step(
            list(state), sim.pack_inputs(words)
        )
        expected_words = sim.unpack_outputs(outputs)

        next_state, out_words = compiled.word_step(list(state), words)
        assert next_state == expected_next, f"pair {pair}: next state"
        assert out_words == expected_words, f"pair {pair}: output words"


def test_read_reg_matches_bit_name_loop(sim):
    rng = random.Random(2018)
    for _ in range(PAIRS // 10):
        state = [rng.getrandbits(1) for _ in range(sim.compiled.num_state_bits)]
        view = sim.view(state)
        for name in sim.reg_widths:
            value, present = _reference_read_reg(sim, state, name)
            assert view.read_reg(name) == value, name
            sink = set()
            recording = RecordingStateView(
                state, sim.dff_index, sim.registers, sink
            )
            assert recording.read_reg(name) == value, name
            assert sink == present, name


def _partial_register_netlist():
    """Registers ``r`` (bits 1 and 3 optimized away), scalar ``s`` and
    ``gone`` (every bit optimized away), as synthesis would describe them."""
    n = Netlist("partial", nangate15_library())
    n.add_input("d")
    n.add_dff("r_b0", d="d", q="r_q0")
    n.add_dff("r_b2", d="r_q0", q="r_q2")
    n.add_dff("s", d="r_q2", q="s_q")
    n.add_gate("g", "BUF", {"A": "s_q"}, "y")
    n.add_output("y")
    n.attributes["reg_widths"] = {"r": 4, "s": 1, "gone": 3}
    return n


def test_read_reg_with_bits_optimized_away():
    sim = Simulator(_partial_register_netlist())
    assert sim.registers["r"][1] == ("r_b0", "r_b2")
    assert sim.registers["gone"][1] == ()
    for bits in range(8):
        state = [(bits >> i) & 1 for i in range(3)]
        for name in sim.reg_widths:
            value, present = _reference_read_reg(sim, state, name)
            assert sim.view(state).read_reg(name) == value, (name, bits)
            sink = set()
            recording = RecordingStateView(
                state, sim.dff_index, sim.registers, sink
            )
            assert recording.read_reg(name) == value, (name, bits)
            assert sink == present, (name, bits)


def test_unknown_register_raises(sim):
    state = sim.compiled.initial_state()
    with pytest.raises(KeyError, match="no_such_register"):
        sim.view(state).read_reg("no_such_register")
    recording = RecordingStateView(state, sim.dff_index, sim.registers, set())
    with pytest.raises(KeyError, match="no_such_register"):
        recording.read_reg("no_such_register")
