"""Exact ground truth for intra-cycle masking (paper Sec. 4, first paragraph).

The most precise check for "is this fault benign within one cycle" is to
duplicate the circuit, feed it the flipped flip-flop value, and compare all
cycle endpoints — the construction the paper describes (and rejects as too
expensive *per input in hardware*, which is exactly why MATEs exist).
In software we use it for three things:

- property tests proving every discovered MATE sound (no false "benign");
- the precise upper bound on intra-cycle maskable faults;
- ground truth for the fault-injection campaigns in :mod:`repro.fi`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.mate import Mate
from repro.core.replay import trigger_vector
from repro.sim.compiler import CompiledNetlist
from repro.trace.trace import Trace


def masked_within_one_cycle(
    compiled: CompiledNetlist,
    state: Sequence[int],
    inputs: Sequence[int],
    dff_name: str,
) -> bool:
    """Exact check: does flipping ``dff_name`` leave all endpoints unchanged?

    Endpoints are the next state (all DFF D values) and the primary outputs,
    with the faulted flip-flop's *own* next value compared as well — if the
    flip carries over into the next cycle the fault survives.
    """
    index = compiled.dff_names.index(dff_name)
    golden_next, golden_out, _ = compiled.step(list(state), list(inputs))
    faulty_state = list(state)
    faulty_state[index] ^= 1
    faulty_next, faulty_out, _ = compiled.step(faulty_state, list(inputs))
    return golden_next == faulty_next and golden_out == faulty_out


def state_and_inputs_at(
    compiled: CompiledNetlist, trace: Trace, cycle: int
) -> tuple[list[int], list[int]]:
    """Reconstruct the (state, inputs) the circuit saw in a trace cycle."""
    state = [trace.value(cycle, dff.q) for dff in compiled.dffs]
    inputs = [trace.value(cycle, wire) for wire in compiled.input_wires]
    return state, inputs


def _set_bits(vector: int) -> list[int]:
    """Positions of the set bits of ``vector``, ascending."""
    bits = f"{vector:b}"[::-1]
    return [position for position, bit in enumerate(bits) if bit == "1"]


def verify_mate_on_trace(
    compiled: CompiledNetlist,
    trace: Trace,
    mate: Mate,
    cycles: Sequence[int] | None = None,
) -> list[tuple[str, int]]:
    """Check a MATE's soundness against exact simulation.

    For every cycle in which the MATE triggers (restricted to ``cycles`` if
    given) and every fault wire it covers, the exact masking check must
    agree that the fault is benign. Returns the list of violating
    ``(dff_name, cycle)`` pairs — an empty list means the MATE is sound on
    this trace.
    """
    dff_by_q = {dff.q: dff.name for dff in compiled.dffs}
    violations: list[tuple[str, int]] = []
    triggered = trigger_vector(mate, trace)
    if cycles is None:
        cycle_range = _set_bits(triggered)
    else:
        cycle_range = [c for c in cycles if (triggered >> c) & 1]
    for cycle in cycle_range:
        state, inputs = state_and_inputs_at(compiled, trace, cycle)
        for fault_wire in sorted(mate.fault_wires):
            dff_name = dff_by_q.get(fault_wire)
            if dff_name is None:
                raise ValueError(f"fault wire {fault_wire!r} is not a DFF output")
            if not masked_within_one_cycle(compiled, state, inputs, dff_name):
                violations.append((dff_name, cycle))
    return violations


def exact_masked_cycles(
    compiled: CompiledNetlist,
    trace: Trace,
    dff_name: str,
    cycles: Sequence[int] | None = None,
) -> list[int]:
    """Cycles in which an SEU on ``dff_name`` is masked within one cycle.

    This is the *precise* per-flip-flop MATE of Sec. 4 (duplicated fault
    cone), evaluated in software — the upper bound any heuristic MATE set
    can reach.
    """
    masked: list[int] = []
    cycle_range = range(trace.num_cycles) if cycles is None else cycles
    for cycle in cycle_range:
        state, inputs = state_and_inputs_at(compiled, trace, cycle)
        if masked_within_one_cycle(compiled, state, inputs, dff_name):
            masked.append(cycle)
    return masked
