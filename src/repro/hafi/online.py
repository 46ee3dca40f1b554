"""Online fault-space pruning, as a HAFI platform would run it (Fig. 1b).

The MATE set is "synthesized into" the emulated design: every cycle, each
MATE's conjunction is evaluated against the live wire values, and triggered
MATEs remove their covered (flip-flop, cycle) points from the fault list.
This module simulates exactly that flow cycle by cycle — without requiring
a pre-recorded trace, which is the paper's argument for *online* pruning
(indeterminism, long-running programs, multi-FPGA coarse injection
commands).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.faultspace import FaultSpace
from repro.core.mate import Mate
from repro.netlist.netlist import Netlist
from repro.obs import counter, gauge, span
from repro.sim.simulator import Simulator
from repro.sim.testbench import Testbench


@dataclass
class OnlinePruningRun:
    """Outcome of an online-pruned emulation run."""

    fault_space: FaultSpace
    cycles: int
    #: Per-MATE trigger counts (index-aligned with the MATE list).
    trigger_counts: list[int]

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the fault space pruned during the run."""
        return self.fault_space.benign_fraction

    def fault_list(self) -> list[tuple[str, int]]:
        """The remaining injection commands after online pruning."""
        return self.fault_space.remaining_points()


def simulate_online_pruning(
    netlist: Netlist,
    mates: Sequence[Mate],
    testbench: Testbench,
    cycles: int,
    simulator: Simulator | None = None,
) -> OnlinePruningRun:
    """Emulate ``cycles`` of the workload with in-circuit MATE evaluation.

    The per-cycle evaluation consumes each wire row of the bit-level step
    as it is produced — no trace is stored, mirroring a real HAFI platform
    where MATE outputs feed the fault-list filter directly. Exactly
    ``cycles`` cycles run; a testbench halt does not stop the emulation.
    """
    simulator = simulator or Simulator(netlist)
    compiled = simulator.compiled
    dff_of_wire = {dff.q: name for name, dff in netlist.dffs.items()}

    # Pre-resolve each MATE's literal columns in the wire-row layout.
    column = {wire: i for i, wire in enumerate(compiled.trace_wires)}
    mate_checks: list[list[tuple[int, int]]] = []
    mate_targets: list[list[str]] = []
    for index, mate in enumerate(mates):
        for wire, _ in mate.literals:
            if wire not in column:
                raise ValueError(
                    f"MATE #{index} references wire {wire!r} which does not "
                    f"exist in netlist {netlist.name!r} — the MATE set was "
                    "likely computed from a differently-synthesized netlist"
                )
        mate_checks.append([(column[w], v) for w, v in mate.literals])
        mate_targets.append(
            [dff_of_wire[w] for w in mate.fault_wires if w in dff_of_wire]
        )

    space = FaultSpace(
        [name for name in netlist.dffs], cycles
    )
    trigger_counts = [0] * len(mates)

    state = compiled.initial_state()
    step = compiled.step

    with span(
        "hafi/online-pruning", netlist=netlist.name, cycles=cycles, mates=len(mates)
    ) as run_span:
        for cycle in range(cycles):
            in_words = testbench.drive(cycle, simulator.view(state))
            state, outputs, row = step(state, simulator.pack_inputs(in_words))
            for index, checks in enumerate(mate_checks):
                if all(row[col] == val for col, val in checks):
                    trigger_counts[index] += 1
                    for dff_name in mate_targets[index]:
                        space.mark_benign(dff_name, cycle)
            testbench.observe(cycle, simulator.unpack_outputs(outputs))

    counter("hafi.cycles.emulated").inc(cycles)
    counter("hafi.mate.evaluations").inc(cycles * len(mates))
    counter("hafi.mate.triggers").inc(sum(trigger_counts))
    counter("hafi.points.pruned").inc(space.num_benign)
    if cycles:
        # Per-cycle cost of evaluating the whole MATE set in the emulation.
        gauge("hafi.seconds_per_cycle").set(run_span.elapsed / cycles)

    return OnlinePruningRun(
        fault_space=space, cycles=cycles, trigger_counts=trigger_counts
    )
