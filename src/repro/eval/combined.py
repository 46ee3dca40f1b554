"""Cross-layer combination experiment (paper Sec. 6.3's vision).

The paper argues for combining HAFI flip-flop-level pruning (MATEs) with
def-use pruning taking over for architectural state. This experiment
quantifies exactly that on our cores, over each named target's halting
golden run:

- MATEs prune intra-cycle-masked faults (strong on pipeline/FSM state);
- the gate-level def-use layer (:mod:`repro.prune`) proves points dead:
  the flipped bit is overwritten before anything reads it (strong on the
  register files, exactly where MATEs are weak, Sec. 6.3);
- the union is the combined campaign fault-list reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.faultspace import FaultSpace
from repro.eval import context
from repro.fi.targets import NAMED_TARGETS
from repro.prune import get_analysis, get_mate_vectors
from repro.prune.accounting import LAYER_DEFUSE, LAYER_MATE


@dataclass
class CombinedRow:
    """One (core, program) row of the cross-layer experiment."""

    core: str
    program: str
    fault_space: int
    mate_benign: int
    defuse_benign: int
    combined_benign: int

    @property
    def mate_fraction(self) -> float:
        """Fault-space share pruned by MATEs alone."""
        return self.mate_benign / self.fault_space

    @property
    def defuse_fraction(self) -> float:
        """Fault-space share pruned by def-use alone."""
        return self.defuse_benign / self.fault_space

    @property
    def combined_fraction(self) -> float:
        """Fault-space share pruned by the union."""
        return self.combined_benign / self.fault_space


@dataclass
class CombinedReport:
    """The assembled cross-layer pruning comparison."""

    rows: list[CombinedRow]

    def format(self) -> str:
        """Render as aligned text."""
        lines = [
            "Cross-layer pruning: MATEs (intra-cycle) + def-use (inter-cycle)",
            "",
            f"{'core/program':<16s}{'MATEs':>10s}{'def-use':>10s}{'combined':>10s}",
            "-" * 46,
        ]
        for row in self.rows:
            lines.append(
                f"{row.core + '/' + row.program:<16s}"
                f"{100 * row.mate_fraction:9.2f}%"
                f"{100 * row.defuse_fraction:9.2f}%"
                f"{100 * row.combined_fraction:9.2f}%"
            )
        return "\n".join(lines)


def build_combined(targets=NAMED_TARGETS) -> CombinedReport:
    """MATE vs def-use vs combined benign fractions over each golden run."""
    rows = []
    for target in targets:
        core, _, program = target.partition("-")
        equivalence_map = get_analysis(target).map
        mate_vectors = get_mate_vectors(target)
        space = FaultSpace(list(mate_vectors), equivalence_map.golden_cycles)
        for wire, vector in mate_vectors.items():
            space.mark_benign_cycles(wire, vector, layer=LAYER_MATE)
        for name, dff in context.get_netlist(core).dffs.items():
            dead = equivalence_map.pruned_vector(name, include_followers=False)
            space.mark_benign_cycles(dff.q, dead, layer=LAYER_DEFUSE)
        rows.append(
            CombinedRow(
                core=core,
                program=program,
                fault_space=space.size,
                mate_benign=space.layer_benign(LAYER_MATE),
                defuse_benign=space.layer_benign(LAYER_DEFUSE),
                combined_benign=space.num_benign,
            )
        )
    return CombinedReport(rows)
