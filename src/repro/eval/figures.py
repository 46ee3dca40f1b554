"""Figure 1 — the example fault cone (1a) and the pruned fault-space grid (1b)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cone import compute_fault_cone
from repro.core.faultspace import FaultSpace
from repro.core.replay import replay_mates
from repro.core.search import find_mates
from repro.eval.example_circuit import (
    FIGURE1_FAULT_WIRES,
    figure1_netlist,
    figure1_testbench_rows,
)
from repro.sim.simulator import Simulator
from repro.sim.testbench import TableTestbench


@dataclass
class Figure1:
    """Both halves of the paper's Figure 1."""

    cone_report: str
    mates_report: str
    grid: FaultSpace

    def format(self) -> str:
        """Render as text (grid uses filled/empty dots like the paper)."""
        return "\n".join(
            [
                "Figure 1a: fault cone of input d in the example circuit",
                self.cone_report,
                "",
                "Discovered MATEs:",
                self.mates_report,
                "",
                "Figure 1b: fault-space pruning over an 8-cycle stimulus",
                "(● possibly-effective injection point, ○ pruned as benign)",
                self.grid.render_grid(),
                "",
                f"pruned: {self.grid.num_benign}/{self.grid.size} points "
                f"({100 * self.grid.benign_fraction:.1f}%)",
            ]
        )


def build_figure1() -> Figure1:
    """Reproduce both halves of Figure 1 on the paper's example circuit."""
    netlist = figure1_netlist()
    cone = compute_fault_cone(netlist, "d")
    cone_report = (
        f"  cone wires : {sorted(cone.cone_wires)}\n"
        f"  cone gates : {sorted(g.name for g in cone.cone_gates)}\n"
        f"  border     : {sorted(cone.border_wires)}\n"
        f"  endpoints  : {sorted(cone.endpoint_wires)}"
    )

    search = find_mates(netlist, faulty_wires={w: w for w in FIGURE1_FAULT_WIRES})
    mate_lines = []
    for result in search.wire_results:
        if result.status == "unmaskable":
            mate_lines.append(f"  {result.wire}: unmaskable")
            continue
        terms = [
            " & ".join(w if v else f"!{w}" for w, v in mate.literals)
            for mate in result.mates
        ]
        mate_lines.append(f"  {result.wire}: {', '.join(terms) or '(none)'}")

    rows = figure1_testbench_rows()
    trace = Simulator(netlist).run(TableTestbench(rows), max_cycles=len(rows)).trace
    assert trace is not None
    mates = search.mate_set().mates()
    replay = replay_mates(mates, trace, list(FIGURE1_FAULT_WIRES))
    grid = FaultSpace(list(FIGURE1_FAULT_WIRES), len(rows))
    for wire in FIGURE1_FAULT_WIRES:
        grid.mark_benign_cycles(wire, replay.masked_vector(wire))

    return Figure1(
        cone_report=cone_report,
        mates_report="\n".join(mate_lines),
        grid=grid,
    )
