"""Cross-layer pruning accounting over one fault space.

Folds the gate-level MATE layer, the architecture-level def-use layer, and
the binary-level static dataflow layer into one layered
:class:`~repro.core.faultspace.FaultSpace` and reduces it to the headline
numbers of the `eval prune` table: points total, pruned per layer,
cross-layer overlaps, and representatives still to inject.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.faultspace import FaultSpace
from repro.netlist.netlist import Netlist
from repro.prune.defuse import EquivalenceMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prune.dataflow import StaticPruneMap

#: Layer names used consistently across journal details, store, and eval.
LAYER_MATE = "mate"
LAYER_DEFUSE = "defuse"
LAYER_STATIC = "static"


def build_layered_space(
    netlist: Netlist,
    golden_cycles: int,
    equivalence_map: EquivalenceMap | None = None,
    mate_vectors: Mapping[str, int] | None = None,
    static_map: StaticPruneMap | None = None,
) -> FaultSpace:
    """A FaultSpace with per-layer attribution for one design/workload.

    ``mate_vectors`` maps fault (Q) wires to their MATE-benign cycle
    vectors over the same golden run (see
    :func:`~repro.prune.analyze.get_mate_vectors`); the def-use layer
    marks dead points *and* followers — everything a collapsed campaign
    skips; the static layer marks the trace-independent register-dead
    points of :class:`~repro.prune.dataflow.StaticPruneMap`.
    """
    fault_wires = [dff.q for dff in netlist.dffs.values()]
    space = FaultSpace(fault_wires, golden_cycles)
    if mate_vectors is not None:
        for wire in fault_wires:
            vector = mate_vectors.get(wire)
            if vector is not None:
                space.mark_benign_cycles(wire, vector, layer=LAYER_MATE)
    if equivalence_map is not None:
        for dff_name, dff in netlist.dffs.items():
            space.mark_benign_cycles(
                dff.q,
                equivalence_map.pruned_vector(dff_name),
                layer=LAYER_DEFUSE,
            )
    if static_map is not None:
        for dff_name, dff in netlist.dffs.items():
            vector = static_map.pruned_vector(dff_name)
            if vector:
                space.mark_benign_cycles(dff.q, vector, layer=LAYER_STATIC)
    return space


@dataclass(frozen=True)
class PruneAccounting:
    """Headline pruning numbers for one (design, workload) pair."""

    target: str
    num_wires: int
    golden_cycles: int
    space_points: int
    mate_pruned: int
    defuse_pruned: int
    both: int
    dead_points: int
    collapsed_points: int
    representatives: int
    static_pruned: int = 0
    static_mate: int = 0
    static_defuse: int = 0
    all_layers: int = 0

    @property
    def union(self) -> int:
        """Points pruned by at least one layer (inclusion-exclusion)."""
        return (
            self.mate_pruned
            + self.defuse_pruned
            + self.static_pruned
            - self.both
            - self.static_mate
            - self.static_defuse
            + self.all_layers
        )

    @property
    def remaining(self) -> int:
        """Points a cross-layer campaign still has to inject."""
        return self.space_points - self.union

    @property
    def defuse_fraction(self) -> float:
        return self.defuse_pruned / self.space_points if self.space_points else 0.0

    @property
    def static_fraction(self) -> float:
        return self.static_pruned / self.space_points if self.space_points else 0.0

    @property
    def union_fraction(self) -> float:
        return self.union / self.space_points if self.space_points else 0.0

    def layers(self) -> dict[str, int]:
        """Layer attribution dict (journal/store metadata form)."""
        counts = {LAYER_DEFUSE: self.defuse_pruned}
        if self.mate_pruned:
            counts[LAYER_MATE] = self.mate_pruned
            counts["both"] = self.both
        if self.static_pruned:
            counts[LAYER_STATIC] = self.static_pruned
            counts[f"{LAYER_DEFUSE}&{LAYER_STATIC}"] = self.static_defuse
            if self.mate_pruned:
                counts[f"{LAYER_MATE}&{LAYER_STATIC}"] = self.static_mate
                counts["all"] = self.all_layers
        return counts


def account(
    target_name: str,
    netlist: Netlist,
    equivalence_map: EquivalenceMap,
    mate_vectors: Mapping[str, int] | None = None,
    static_map: StaticPruneMap | None = None,
) -> PruneAccounting:
    """Reduce the layered space for one target to its accounting row."""
    golden_cycles = equivalence_map.golden_cycles
    space = build_layered_space(
        netlist,
        golden_cycles,
        equivalence_map=equivalence_map,
        mate_vectors=mate_vectors,
        static_map=static_map,
    )
    return PruneAccounting(
        target=target_name,
        num_wires=len(netlist.dffs),
        golden_cycles=golden_cycles,
        space_points=space.size,
        mate_pruned=space.layer_benign(LAYER_MATE),
        defuse_pruned=space.layer_benign(LAYER_DEFUSE),
        both=space.layer_overlap(LAYER_MATE, LAYER_DEFUSE),
        dead_points=equivalence_map.num_dead_points,
        collapsed_points=equivalence_map.num_follower_points,
        representatives=equivalence_map.num_representatives,
        static_pruned=space.layer_benign(LAYER_STATIC),
        static_mate=space.layer_overlap(LAYER_MATE, LAYER_STATIC),
        static_defuse=space.layer_overlap(LAYER_DEFUSE, LAYER_STATIC),
        all_layers=space.attribution().get("all", 0)
        if static_map is not None and mate_vectors is not None
        else 0,
    )
