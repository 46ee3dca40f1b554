"""Differential test: bit-parallel def-use events against scalar simulation.

:class:`repro.prune.access.EventClassifier` evaluates each flip-flop's
fault over every golden cycle at once, as Python-int cycle vectors. The
reference here is deliberately naive: for one point (flip-flop, cycle) it
takes that cycle's golden state and inputs from the trace, flips the Q bit
and runs the bit-level ``CompiledNetlist.step`` once with and once without
the flip. A difference on another flip-flop's next state or on an output,
or a testbench read of the flip-flop that cycle, is an escape; otherwise a
difference on its own next state is a hold, and anything else a kill.

The comparison runs exhaustively on the sequential fixture and on a small
netlist of cells simulated through the tabulated-SOP fallback, and on
seeded points of avr-fib and msp430-fib. Broken candidates (the own D role
counted as an escape, the read channel dropped) must be caught. The event
strings of both cores are also pinned to a digest of the maps the previous
numpy evaluator produced.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.fi.targets import avr_target, msp430_target
from repro.netlist import Netlist
from repro.prune import EquivalenceMap
from repro.prune.access import EVENT_ESCAPE, EVENT_HOLD, EVENT_KILL, EventClassifier
from repro.sim import CompiledNetlist
from repro.trace.trace import Trace
from tests.sim.test_compiler_fallback import sop_fallback_library

#: Seeded points compared per core.
CORE_POINTS = 2000

#: sha256 (first 16 hex digits) of ``"dff:events"`` lines sorted by
#: flip-flop name, as built by the numpy truth-table evaluator this
#: replaced. A synthesis or program change moves these on purpose.
PARENT_DIGESTS = {"avr-fib": "0bbc0f753bfa66f1", "msp430-fib": "fed743c6f0fc2014"}


def _sop_netlist():
    """Flip-flops around cells with no hand-written template (ONEHOT3):
    x and y feed each other, t toggles, h holds itself, o is an output."""
    n = Netlist("sop-seq", sop_fallback_library())
    for wire in ("a", "b", "c"):
        n.add_input(wire)
    n.add_gate("gx", "ONEHOT3", {"A": "a", "B": "x_q", "C": "y_q"}, "x_d")
    n.add_gate("gy", "ONEHOT3", {"A": "x_q", "B": "b", "C": "c"}, "y_d")
    n.add_gate("gt", "INV", {"A": "t_q"}, "t_d")
    n.add_gate("gh", "BUF", {"A": "h_q"}, "h_d")
    n.add_gate("go", "ONEHOT3", {"A": "x_q", "B": "t_q", "C": "c"}, "o_n")
    n.add_gate("gi", "INV", {"A": "o_n"}, "o")
    for name in ("x", "y", "t", "h"):
        n.add_dff(name, d=f"{name}_d", q=f"{name}_q", init=int(name == "h"))
    n.add_output("o")
    return n


def _random_trace(compiled, cycles, rng):
    """Trace of ``cycles`` steps from reset under random inputs."""
    state = compiled.initial_state()
    rows = []
    for _ in range(cycles):
        inputs = [rng.getrandbits(1) for _ in compiled.input_wires]
        state, _, row = compiled.step(state, inputs)
        rows.append(row)
    return Trace.from_matrix(compiled.trace_wires, np.array(rows, dtype=np.uint8))


class Case:
    """A netlist, its golden trace and reads, and the points to compare."""

    def __init__(self, compiled, trace, reads, points):
        self.netlist = compiled.netlist
        self.compiled = compiled
        self.trace = trace
        self.reads = reads
        self.points = points
        self._golden: dict[int, tuple] = {}

    def reference(self, dff_name: str, cycle: int) -> str:
        """The scalar-step event of one point."""
        compiled, trace = self.compiled, self.trace
        state = [trace.value(cycle, d.q) for d in compiled.dffs]
        inputs = [trace.value(cycle, w) for w in compiled.input_wires]
        if cycle not in self._golden:
            self._golden[cycle] = compiled.step(state, inputs)[:2]
        golden_next, golden_out = self._golden[cycle]
        own = compiled.dff_names.index(dff_name)
        state[own] ^= 1
        next_state, outputs, _ = compiled.step(state, inputs)
        escaped = (
            outputs != golden_out
            or any(
                got != want
                for index, (got, want) in enumerate(zip(next_state, golden_next))
                if index != own
            )
            or (self.reads is not None and dff_name in self.reads[cycle])
        )
        if escaped:
            return EVENT_ESCAPE
        return EVENT_HOLD if next_state[own] != golden_next[own] else EVENT_KILL


def first_disagreement(case, events_of):
    """None, or a message naming the first point where ``events_of(dff)``
    disagrees with the scalar reference."""
    strings: dict[str, str] = {}
    for dff_name, cycle in case.points:
        if dff_name not in strings:
            strings[dff_name] = events_of(dff_name)
        got = strings[dff_name][cycle]
        expected = case.reference(dff_name, cycle)
        if got != expected:
            return f"({dff_name}, cycle {cycle}): {got!r}, reference {expected!r}"
    return None


def _every_point(netlist, cycles):
    return [(name, cycle) for name in netlist.dffs for cycle in range(cycles)]


def _golden(target):
    result = target.simulator.run(
        target.make_testbench(),
        max_cycles=50_000,
        record_trace=True,
        record_reads=True,
    )
    assert result.halted
    return result


def _build_case(name, request):
    if name == "fixture":
        target = request.getfixturevalue("target")
        golden = request.getfixturevalue("golden")
        compiled = target.simulator.compiled
        points = _every_point(compiled.netlist, golden.cycles)
        return Case(compiled, golden.trace, golden.reads, points)
    if name == "sop":
        rng = random.Random(15)
        compiled = CompiledNetlist(_sop_netlist())
        trace = _random_trace(compiled, 40, rng)
        reads = [
            frozenset(n for n in compiled.dff_names if rng.random() < 0.2)
            for _ in range(trace.num_cycles)
        ]
        points = _every_point(compiled.netlist, trace.num_cycles)
        return Case(compiled, trace, reads, points)
    factory, sim = {
        "avr-fib": (avr_target, "avr_sim"),
        "msp430-fib": (msp430_target, "msp430_sim"),
    }[name]
    simulator = request.getfixturevalue(sim)
    golden = _golden(factory("fib", simulator))
    rng = random.Random(f"events/{name}")
    names = sorted(simulator.netlist.dffs)
    points = [
        (rng.choice(names), rng.randrange(golden.cycles))
        for _ in range(CORE_POINTS)
    ]
    return Case(simulator.compiled, golden.trace, golden.reads, points)


@pytest.fixture(scope="module")
def cases(request):
    """``cases(name)``: the named comparison case, built once per module."""
    built = {}

    def get(name):
        if name not in built:
            built[name] = _build_case(name, request)
        return built[name]

    return get


ALL_CASES = ["fixture", "sop", "avr-fib", "msp430-fib"]


@pytest.mark.parametrize("name", ALL_CASES)
def test_events_match_the_scalar_step(cases, name):
    case = cases(name)
    classifier = EventClassifier(case.netlist, case.trace, case.reads)
    assert first_disagreement(case, classifier.events) is None


@pytest.mark.parametrize("name", ALL_CASES)
def test_own_d_as_escape_is_caught(cases, name):
    case = cases(name)
    broken = EventClassifier(case.netlist, case.trace, case.reads)
    # Every D role becomes an output role: holds turn into escapes.
    broken._roles = {
        column: [None] * len(roles) for column, roles in broken._roles.items()
    }
    assert first_disagreement(case, broken.events) is not None


@pytest.mark.parametrize("name", ["sop", "avr-fib", "msp430-fib"])
def test_dropped_reads_are_caught(cases, name):
    # Not on the fixture: it only reads rk, which escapes through an
    # output in every cycle anyway.
    case = cases(name)
    broken = EventClassifier(case.netlist, case.trace, None)
    assert first_disagreement(case, broken.events) is not None


@pytest.mark.parametrize("name", sorted(PARENT_DIGESTS))
def test_maps_equal_the_numpy_evaluators(cases, name):
    case = cases(name)
    emap = EquivalenceMap.build(case.netlist, case.trace, case.reads)
    assert emap.golden_cycles == case.trace.num_cycles
    blob = "\n".join(f"{dff}:{emap.wires[dff].events}" for dff in sorted(emap.wires))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert digest == PARENT_DIGESTS[name]
