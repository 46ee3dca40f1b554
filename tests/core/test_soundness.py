"""The central correctness property of the whole approach.

For arbitrary synchronous circuits: whenever any discovered MATE triggers in
a simulated cycle, flipping the covered flip-flop must leave every cycle
endpoint (next state and primary outputs) unchanged — checked against the
exact duplicated-circuit simulation of ``repro.core.verify``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import find_mates, replay_mates, verify_mate_on_trace
from repro.core.verify import exact_masked_cycles, masked_within_one_cycle
from repro.rtl import RtlCircuit, mux
from repro.sim import Simulator, TableTestbench
from repro.synth import synthesize
from repro.util.bits import set_bits


def _random_circuit(seed: int) -> RtlCircuit:
    """A small random synchronous datapath (deterministic per seed)."""
    import random

    rng = random.Random(seed)
    c = RtlCircuit(f"rand{seed}")
    a = c.input("a", 4)
    b = c.input("b", 4)
    sel = c.input("sel", 1)
    r0 = c.reg("r0", 4, init=rng.randrange(16))
    r1 = c.reg("r1", 4, init=rng.randrange(16))
    r2 = c.reg("r2", 2, init=rng.randrange(4))

    pool = [a, b, r0, r1, a & r0, b | r1, a ^ r1, (r0 + b).trunc(4),
            mux(sel, r0, b), (r1 - a).trunc(4)]
    pick = lambda: pool[rng.randrange(len(pool))]  # noqa: E731

    r0.next = mux(sel, pick(), pick())
    r1.next = mux(r2[0], pick(), pick())
    r2.next = (r2 + mux(sel, a[0:1], b[3:4]).zext(2))[0:2]
    c.output("out0", pick() ^ pick())
    c.output("out1", mux(r2[1], pick(), pick())[0:2])
    return c


def _random_rows(seed: int, cycles: int) -> list[dict]:
    import random

    rng = random.Random(seed + 1000)
    return [
        {"a": rng.randrange(16), "b": rng.randrange(16), "sel": rng.randrange(2)}
        for _ in range(cycles)
    ]


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mates_never_claim_a_propagating_fault_benign(seed):
    circuit = _random_circuit(seed)
    netlist = synthesize(circuit)
    search = find_mates(netlist)
    mates = search.mate_set().mates()
    if not mates:
        return

    sim = Simulator(netlist)
    rows = _random_rows(seed, 24)
    result = sim.run(TableTestbench(rows), max_cycles=len(rows))
    for mate in mates:
        violations = verify_mate_on_trace(sim.compiled, result.trace, mate)
        assert violations == [], f"unsound MATE {mate} on seed {seed}: {violations}"


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_replay_agrees_with_literal_evaluation(seed):
    """Vectorized replay == literal-by-literal evaluation per cycle."""
    circuit = _random_circuit(seed)
    netlist = synthesize(circuit)
    mates = find_mates(netlist).mate_set().mates()
    if not mates:
        return
    sim = Simulator(netlist)
    rows = _random_rows(seed, 16)
    trace = sim.run(TableTestbench(rows), max_cycles=len(rows)).trace
    fault_wires = [dff.q for dff in netlist.dffs.values()]
    replay = replay_mates(mates, trace, fault_wires)
    for index, mate in enumerate(mates):
        triggered = replay.trigger_vectors[index]
        for cycle in range(trace.num_cycles):
            expected = mate.holds(trace.cycle_values(cycle))
            assert bool(triggered >> cycle & 1) == expected


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mate_coverage_is_subset_of_exact_masking(seed):
    """MATE-pruned (ff, cycle) points ⊆ exactly-masked points (sufficiency,
    Sec. 2: 'sufficient, but not complete')."""
    circuit = _random_circuit(seed)
    netlist = synthesize(circuit)
    mates = find_mates(netlist).mate_set().mates()
    if not mates:
        return
    sim = Simulator(netlist)
    rows = _random_rows(seed, 12)
    trace = sim.run(TableTestbench(rows), max_cycles=len(rows)).trace
    fault_wires = [dff.q for dff in netlist.dffs.values()]
    replay = replay_mates(mates, trace, fault_wires)
    dff_of = {dff.q: dff.name for dff in netlist.dffs.values()}
    for wire in fault_wires:
        exact = set(exact_masked_cycles(sim.compiled, trace, dff_of[wire]))
        assert set(set_bits(replay.masked_vector(wire))) <= exact


def test_masked_within_one_cycle_direct():
    """Hand-checked case: a FF output ANDed with 0 is always masked."""
    c = RtlCircuit("gated")
    en = c.input("en", 1)
    r = c.reg("r", 1)
    r.next = en
    c.output("y", r & en)
    netlist = synthesize(c)
    sim = Simulator(netlist)
    # en=0: the AND masks r; r's next value is en (independent of r).
    assert masked_within_one_cycle(sim.compiled, [0], [0], "r")
    # en=1: flipping r changes y.
    assert not masked_within_one_cycle(sim.compiled, [0], [1], "r")
