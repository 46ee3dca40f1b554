"""Differential tests: the bit-parallel lane step against the scalar steps.

``Simulator.run_lanes`` packs one fault-injected run per bit of a Python
int. Its compiled ``lane_step`` shares the gate code of ``word_step`` but
renders the constant one as the lane mask and ``MUX2`` bitwise. These
tests check, on seeded random lane words, that every cell template in
lane form computes the scalar template in every lane, that ``lane_step``
on independent states packed into lanes matches ``word_step`` lane by
lane (next state, lane 0's output words, and exactly which lanes'
outputs diverge), and that the generated lane register readers agree
with the scalar readers.
"""

import random
import re

import pytest

from repro.cells.nangate15 import nangate15_library
from repro.eval.example_circuit import figure1_netlist
from repro.netlist import Netlist
from repro.sim import CompiledNetlist, Simulator
from repro.cells.expressions import LANE_TEMPLATES, TEMPLATES, lane_function
from repro.sim.simulator import LaneStateView
from tests.sim.test_compiler_fallback import (
    sop_fallback_library,
    sop_fallback_netlist,
)
from tests.sim.test_word_step import _partial_register_netlist, _random_words

PAIRS = 500
#: Lanes per packed state: lane 0 plus independent lanes.
WIDTH = 16


@pytest.fixture(params=["avr", "msp430", "figure1", "sop-fallback"])
def sim(request, avr_sim, msp430_sim):
    if request.param == "avr":
        return avr_sim
    if request.param == "msp430":
        return msp430_sim
    if request.param == "figure1":
        return Simulator(figure1_netlist())
    return Simulator(sop_fallback_netlist())


def _pack(lanes):
    """Lane vectors of per-lane bit lists: bit k of word i is lanes[k][i]."""
    return [
        sum(bits[i] << lane for lane, bits in enumerate(lanes))
        for i in range(len(lanes[0]))
    ] if lanes[0] else []


def _lane_states(rng, bits):
    """WIDTH states; some lanes copy lane 0 or differ from it in one bit."""
    golden = [rng.getrandbits(1) for _ in range(bits)]
    lanes = [golden]
    for _ in range(WIDTH - 1):
        kind = rng.random()
        state = list(golden)
        if kind < 0.25:
            pass
        elif kind < 0.6 and bits:
            state[rng.randrange(bits)] ^= 1
        else:
            state = [rng.getrandbits(1) for _ in range(bits)]
        lanes.append(state)
    return lanes


@pytest.mark.parametrize("cell", sorted(TEMPLATES))
def test_lane_template_matches_scalar_in_every_lane(cell):
    rng = random.Random(2018)
    mask = (1 << WIDTH) - 1
    pins = sorted(set(re.findall(r"{(\w+)}", TEMPLATES[cell])) - {"one"})
    names = {pin: pin for pin in pins}
    scalar = TEMPLATES[cell].format(one="1", **names)
    lane = LANE_TEMPLATES[cell].format(one="m", **names)
    for _ in range(50):
        words = {pin: rng.getrandbits(WIDTH) for pin in pins}
        got = eval(lane, {"m": mask, **words})
        assert got & ~mask == 0, f"{cell}: bits outside the lane mask"
        for k in range(WIDTH):
            bits = {pin: (word >> k) & 1 for pin, word in words.items()}
            assert (got >> k) & 1 == eval(scalar, bits), f"{cell}, lane {k}"


def test_mux2_is_bitwise_only_in_the_lane_step():
    assert "if" in TEMPLATES["MUX2"]
    assert "if" not in LANE_TEMPLATES["MUX2"]


@pytest.mark.parametrize(
    "library", [nangate15_library(), sop_fallback_library()],
    ids=["nangate15", "sop-fallback"],
)
def test_lane_function_matches_the_truth_table(library):
    # The callable the def-use analysis evaluates cycle vectors with: every
    # combinational cell, templated or SOP, against its BoolFunc table.
    rng = random.Random(2018)
    mask = (1 << WIDTH) - 1
    for cell in library:
        if cell.sequential:
            continue
        function = lane_function(cell)
        for _ in range(20):
            words = [rng.getrandbits(WIDTH) for _ in cell.inputs]
            got = function(mask, *words)
            assert got & ~mask == 0, f"{cell.name}: bits outside the mask"
            for k in range(WIDTH):
                assignment = {
                    pin: (word >> k) & 1 for pin, word in zip(cell.inputs, words)
                }
                assert (got >> k) & 1 == cell.evaluate(assignment), (
                    f"{cell.name}, lane {k}"
                )


def _sop_state_netlist():
    """The SOP-fallback cells fed from flip-flops, so lanes can differ."""
    n = Netlist("sop-state", sop_fallback_library())
    for w in ("a", "b", "c"):
        n.add_input(w)
        n.add_dff(f"{w}_ff", d=w, q=f"{w}_q")
    n.add_gate("g", "ONEHOT3", {"A": "a_q", "B": "b_q", "C": "c_q"}, "y")
    n.add_gate("i", "INV", {"A": "y"}, "ny")
    n.add_gate("f", "BUF", {"A": "ny"}, "z")
    n.add_output("y")
    n.add_output("z")
    return n


def test_sop_fallback_cells_in_every_lane():
    compiled = CompiledNetlist(_sop_state_netlist())
    assert compiled.dff_names == ["a_ff", "b_ff", "c_ff"]
    # Lane k holds the row k of ONEHOT3's truth table: all eight at once.
    lanes = [[(k >> i) & 1 for i in range(3)] for k in range(8)]
    _, out_words, diverged = compiled.lane_step(_pack(lanes), {}, 0xFF)
    for k, (a, b, c) in enumerate(lanes):
        differs = (diverged >> k) & 1
        expected = int(a + b + c == 1)
        assert out_words["y"] ^ differs == expected, f"row {k}: y"
        assert out_words["z"] ^ differs == 1 - expected, f"row {k}: z"


def test_lane_step_matches_word_step_per_lane(sim):
    rng = random.Random(2018)
    compiled = sim.compiled
    mask = (1 << WIDTH) - 1
    for pair in range(PAIRS):
        lanes = _lane_states(rng, compiled.num_state_bits)
        words = _random_words(rng, sim.input_widths)
        expected = [compiled.word_step(list(s), words) for s in lanes]

        next_state, out_words, diverged = compiled.lane_step(
            _pack(lanes), words, mask
        )
        golden = expected[0][1]
        assert next_state == _pack([n for n, _ in expected]), f"pair {pair}: state"
        assert out_words == golden, f"pair {pair}: lane 0's output words"
        differ = sum(
            1 << lane for lane, (_, out) in enumerate(expected) if out != golden
        )
        assert diverged == differ, f"pair {pair}: diverged lanes"


def test_lane_step_is_lazy():
    compiled = CompiledNetlist(figure1_netlist())
    assert "lane_step" not in compiled.__dict__
    compiled.lane_step  # noqa: B018 - compile on first access
    assert "lane_step" in compiled.__dict__


def _check_lane_readers(sim):
    rng = random.Random(2018)
    mask = (1 << WIDTH) - 1
    for _ in range(PAIRS // 10):
        lanes = _lane_states(rng, sim.compiled.num_state_bits)
        packed = _pack(lanes)
        view = LaneStateView(packed, sim.dff_index, sim.lane_registers)
        assert set(sim.lane_registers) == set(sim.registers)
        for name, (reader, _) in sim.registers.items():
            values = [reader(state) for state in lanes]
            value, diverged = sim.lane_registers[name](packed)
            assert value == values[0], name
            differ = sum(1 << k for k, v in enumerate(values) if v != values[0])
            assert diverged & mask == differ, name
            view.diverged = 0
            assert view.read_reg(name) == values[0], name
            assert view.diverged & mask == differ, name
        for dff_name, index in sim.dff_index.items():
            view.diverged = 0
            assert view.read_ff(dff_name) == lanes[0][index], dff_name
            differ = sum(
                1 << k for k, state in enumerate(lanes)
                if state[index] != lanes[0][index]
            )
            assert view.diverged & mask == differ, dff_name


def test_lane_register_readers_match_scalar_readers(sim):
    _check_lane_readers(sim)


def test_lane_readers_with_bits_optimized_away():
    _check_lane_readers(Simulator(_partial_register_netlist()))


def test_lane_view_unknown_register_raises(sim):
    state = [0] * sim.compiled.num_state_bits
    view = LaneStateView(state, sim.dff_index, sim.lane_registers)
    with pytest.raises(KeyError, match="no_such_register"):
        view.read_reg("no_such_register")
