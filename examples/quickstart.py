#!/usr/bin/env python3
"""Quickstart: MATEs on the paper's Figure-1 example circuit.

Builds the five-gate example circuit from the paper, computes the fault
cone of input ``d``, runs the MATE search for all five fault sites, replays
an 8-cycle stimulus, and prints the pruned fault-space grid of Figure 1b.

Run with::

    python examples/quickstart.py
"""

from repro.core import FaultSpace, compute_fault_cone, find_mates, replay_mates
from repro.eval.example_circuit import (
    FIGURE1_FAULT_WIRES,
    figure1_netlist,
    figure1_testbench_rows,
)
from repro.sim import Simulator, TableTestbench


def main() -> None:
    netlist = figure1_netlist()
    print(f"example circuit: {netlist}")

    # --- Figure 1a: the fault cone of input d -------------------------
    cone = compute_fault_cone(netlist, "d")
    print(f"\nfault cone of 'd': wires={sorted(cone.cone_wires)}")
    print(f"  gates touched : {sorted(g.name for g in cone.cone_gates)}")
    print(f"  border wires  : {sorted(cone.border_wires)}")

    # --- MATE search ---------------------------------------------------
    search = find_mates(netlist, faulty_wires={w: w for w in FIGURE1_FAULT_WIRES})
    print("\nMATE search:")
    for result in search.wire_results:
        if result.status == "unmaskable":
            print(f"  {result.wire}: unmaskable (a path no gate can mask)")
        else:
            terms = [
                " & ".join(w if v else f"!{w}" for w, v in m.literals)
                for m in result.mates
            ]
            print(f"  {result.wire}: {', '.join(terms)}")

    # --- Figure 1b: replay a stimulus and prune the fault space --------
    rows = figure1_testbench_rows()
    trace = Simulator(netlist).run(TableTestbench(rows), max_cycles=len(rows)).trace
    mates = search.mate_set().mates()
    replay = replay_mates(mates, trace, list(FIGURE1_FAULT_WIRES))

    space = FaultSpace(list(FIGURE1_FAULT_WIRES), len(rows))
    for wire in FIGURE1_FAULT_WIRES:
        space.mark_benign_cycles(wire, replay.masked_vector(wire))
    print("\nfault space after pruning (● inject, ○ benign):")
    print(space.render_grid())
    print(
        f"\n{space.num_benign} of {space.size} injection points pruned "
        f"({100 * space.benign_fraction:.0f}%)"
    )


if __name__ == "__main__":
    main()
