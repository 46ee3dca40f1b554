"""Vectorized MATE replay over recorded traces (paper Sec. 5.3, step 1).

For every cycle of a trace we compute which MATEs trigger; a triggered MATE
marks the (fault wire, cycle) points of all its covered fault wires as
benign. A MATE's trigger vector is the AND of its literals' cycle vectors
(complemented for a 0 literal), so all cycles are evaluated at once. A
fault wire's benign cycles are the OR of its MATEs' trigger vectors.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.core.mate import Mate
from repro.obs import counter, span
from repro.trace.trace import Trace


class ReplayResult:
    """Per-cycle trigger information for a MATE list on one trace."""

    def __init__(
        self,
        mates: Sequence[Mate],
        fault_wires: Sequence[str],
        num_cycles: int,
        trigger_vectors: Sequence[int],
    ) -> None:
        self.mates = list(mates)
        #: The fault-space wires considered (defines the denominator).
        self.fault_wires = list(fault_wires)
        self.num_cycles = num_cycles
        #: Per-MATE cycle vector of the cycles in which it triggers.
        self.trigger_vectors = list(trigger_vectors)
        #: Per-MATE number of cycles in which it triggers.
        self.trigger_counts = [vector.bit_count() for vector in self.trigger_vectors]
        self._fault_wire_set = set(fault_wires)
        # Mates covering each fault wire (precomputed index lists).
        self.mates_of_fault: dict[str, list[int]] = {w: [] for w in fault_wires}
        for index, mate in enumerate(self.mates):
            for wire in mate.fault_wires:
                if wire in self._fault_wire_set:
                    self.mates_of_fault[wire].append(index)

    # ------------------------------------------------------------------
    @property
    def num_mates(self) -> int:
        """Number of replayed MATEs."""
        return len(self.mates)

    @property
    def fault_space_size(self) -> int:
        """Denominator of the masked percentage: wires x cycles."""
        return len(self.fault_wires) * self.num_cycles

    def effective_indices(self, subset: Sequence[int] | None = None) -> list[int]:
        """Mates that trigger in at least one cycle (paper: "#Effective")."""
        indices = range(self.num_mates) if subset is None else subset
        return [i for i in indices if self.trigger_counts[i] > 0]

    def masked_pairs_per_mate(self) -> list[int]:
        """Total (fault wire, cycle) pairs each MATE masks on this trace."""
        return [
            count * len(mate.fault_wires & self._fault_wire_set)
            for mate, count in zip(self.mates, self.trigger_counts)
        ]

    def masked_vector(
        self, fault_wire: str, subset: Sequence[int] | None = None
    ) -> int:
        """Benign-cycle vector for one fault wire."""
        allowed = None if subset is None else set(subset)
        vector = 0
        for index in self.mates_of_fault.get(fault_wire, ()):
            if allowed is None or index in allowed:
                vector |= self.trigger_vectors[index]
        return vector

    def masked_pairs(self, subset: Sequence[int] | None = None) -> int:
        """Number of distinct benign (fault wire, cycle) points."""
        return sum(
            self.masked_vector(wire, subset).bit_count() for wire in self.fault_wires
        )

    def masked_fraction(self, subset: Sequence[int] | None = None) -> float:
        """Fraction of the fault space proven benign ("Masked Faults")."""
        if self.fault_space_size == 0:
            return 0.0
        return self.masked_pairs(subset) / self.fault_space_size

    def average_inputs(
        self, subset: Sequence[int] | None = None
    ) -> tuple[float, float]:
        """(mean, std) of #inputs over *effective* MATEs ("Avg. #inputs")."""
        counts = [self.mates[i].num_inputs for i in self.effective_indices(subset)]
        if not counts:
            return (0.0, 0.0)
        mean = sum(counts) / len(counts)
        variance = sum((count - mean) ** 2 for count in counts) / len(counts)
        return (mean, math.sqrt(variance))

    def __repr__(self) -> str:
        return (
            f"ReplayResult({self.num_mates} mates, {len(self.fault_wires)} fault "
            f"wires, {self.num_cycles} cycles)"
        )


def trigger_vector(mate: Mate, trace: Trace) -> int:
    """Cycle vector of the cycles in which ``mate``'s conjunction holds."""
    mask = (1 << trace.num_cycles) - 1
    triggered = mask
    for wire, value in mate.literals:
        vector = trace.vector(wire)
        triggered &= vector if value else vector ^ mask
    return triggered


def replay_mates(
    mates: Sequence[Mate],
    trace: Trace,
    fault_wires: Sequence[str],
) -> ReplayResult:
    """Evaluate every MATE on every cycle of ``trace``.

    ``fault_wires`` is the fault-space wire set (e.g. all FF Q wires, or the
    non-register-file subset); it defines the denominator of the masked
    percentage and restricts which covered faults count.
    """
    with span("replay", mates=len(mates), cycles=trace.num_cycles):
        vectors = [trigger_vector(mate, trace) for mate in mates]
        counter("replay.mates.evaluated").inc(len(mates))
        counter("replay.cycles.replayed").inc(trace.num_cycles)
        counter("replay.mate.triggers").inc(
            sum(vector.bit_count() for vector in vectors)
        )
    return ReplayResult(mates, fault_wires, trace.num_cycles, vectors)
