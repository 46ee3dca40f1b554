"""Differential test: recorded golden traces against bit-level rows.

``Simulator.run(record_trace=True)`` is the trace every analysis reads.
The reference here is built independently: the same testbench drives the
bit-level ``CompiledNetlist.step`` through ``pack_inputs`` /
``unpack_outputs``, and each cycle's returned row (every traced wire, in
trace order) is packed column by column into cycle vectors with numpy.
The two must agree wire for wire on 8500-cycle avr-fib and msp430-fib
traces and on a netlist of cells simulated through the tabulated-SOP
fallback. Both cores' vectors are also pinned to a digest, and the
committed ``.repro_cache`` trace files must equal a freshly recorded
trace. Broken candidates (``CONST1`` dropped, an input bit taken from
the wrong word position) must be caught.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.eval import context
from repro.netlist.netlist import CONST1
from repro.sim import Simulator, TableTestbench
from repro.trace import Trace
from tests.prune.test_events_reference import _sop_netlist

CYCLES = context.TRACE_CYCLES

#: sha256 (first 16 hex digits) of ``"wire=<hex vector>"`` lines in trace
#: order, as built from the bit-level rows. A synthesis or program change
#: moves these on purpose.
ROW_DIGESTS = {"avr-fib": "99acbb6191401c07", "msp430-fib": "c9a07efb04d70064"}


def _vectors(trace):
    """One int per traced wire, in trace order: bit ``c`` is cycle ``c``."""
    return [trace.vector(wire) for wire in trace.wire_names]


def _row_vectors(simulator, testbench, cycles):
    """(wire names, cycle vectors, cycles run) of up to ``cycles``
    bit-level steps, halting as ``Simulator.run`` does."""
    compiled = simulator.compiled
    state = compiled.initial_state()
    rows = []
    for cycle in range(cycles):
        words = testbench.drive(cycle, simulator.view(state))
        state, outputs, row = compiled.step(state, simulator.pack_inputs(words))
        rows.append(bytes(row))
        if testbench.observe(cycle, simulator.unpack_outputs(outputs)):
            break
    wires = len(compiled.trace_wires)
    matrix = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), wires)
    packed = np.packbits(matrix, axis=0, bitorder="little")
    vectors = [int.from_bytes(column.tobytes(), "little") for column in packed.T]
    return compiled.trace_wires, vectors, len(rows)


def _digest(wires, vectors):
    blob = "\n".join(f"{wire}={vector:x}" for wire, vector in zip(wires, vectors))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Case:
    """A recorded trace and the row-built reference of the same run."""

    def __init__(self, simulator, make_testbench, cycles):
        self.simulator = simulator
        self.trace = simulator.run(make_testbench(), max_cycles=cycles).trace
        self.wires, self.vectors, self.cycles = _row_vectors(
            simulator, make_testbench(), cycles
        )


def _build_case(name, request):
    if name == "sop":
        rng = random.Random(23)
        simulator = Simulator(_sop_netlist())
        rows = [
            {wire: rng.getrandbits(1) for wire in "abc" if rng.random() < 0.9}
            for _ in range(300)
        ]
        return Case(simulator, lambda: TableTestbench(rows), len(rows))
    core = name.split("-")[0]
    simulator = request.getfixturevalue(f"{core}_sim")
    return Case(simulator, lambda: context.make_system(core, "fib"), CYCLES)


@pytest.fixture(scope="module")
def cases(request):
    """``cases(name)``: the named comparison case, built once per module."""
    built = {}

    def get(name):
        if name not in built:
            built[name] = _build_case(name, request)
        return built[name]

    return get


def first_difference(trace, wires, vectors):
    """None, or a message naming the first wire where ``trace`` differs
    from the reference vectors."""
    if tuple(trace.wire_names) != tuple(wires):
        return "wire order differs"
    for wire, got, want in zip(wires, _vectors(trace), vectors):
        if got != want:
            cycle = ((got ^ want) & -(got ^ want)).bit_length() - 1
            return f"{wire}: first differs in cycle {cycle}"
    return None


@pytest.mark.parametrize("name", ["avr-fib", "msp430-fib", "sop"])
def test_recorded_trace_equals_row_trace(cases, name):
    case = cases(name)
    assert case.trace.num_cycles == case.cycles
    assert first_difference(case.trace, case.wires, case.vectors) is None


@pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
def test_row_trace_digest(cases, name):
    case = cases(name)
    assert case.trace.num_cycles == CYCLES
    assert _digest(case.wires, case.vectors) == ROW_DIGESTS[name]


@pytest.mark.parametrize("core", ["avr", "msp430"])
def test_cached_trace_equals_recorded(cases, core):
    cached = context.get_trace(core, "fib")
    case = cases(f"{core}-fib")
    assert cached == case.trace
    assert first_difference(cached, case.wires, case.vectors) is None


@pytest.mark.parametrize("name", ["avr-fib", "sop"])
def test_dropped_const1_is_caught(cases, name):
    case = cases(name)
    trace = case.trace
    vectors = [
        0 if wire == CONST1 else vector
        for wire, vector in zip(trace.wire_names, _vectors(trace))
    ]
    broken = Trace(trace.wire_names, vectors, trace.num_cycles)
    assert first_difference(broken, case.wires, case.vectors) is not None


@pytest.mark.parametrize("name", ["avr-fib", "msp430-fib"])
def test_wrong_input_bit_is_caught(cases, name, monkeypatch):
    case = cases(name)
    compiled = case.simulator.compiled
    # Every input wire of a multi-bit word reads the next bit up. The word
    # step was generated at compile time, so only the derivation sees it.
    widths = compiled.input_widths
    broken_order = [
        (position, word, (bit + 1) % widths[word])
        for position, word, bit in compiled.input_order
    ]
    monkeypatch.setattr(compiled, "input_order", broken_order)
    core = name.split("-")[0]
    broken = case.simulator.run(context.make_system(core, "fib"), max_cycles=CYCLES)
    assert first_difference(broken.trace, case.wires, case.vectors) is not None
