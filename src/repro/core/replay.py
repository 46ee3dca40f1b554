"""Vectorized MATE replay over recorded traces (paper Sec. 5.3, step 1).

For every cycle of a trace we compute which MATEs trigger; a triggered MATE
marks the (fault wire, cycle) points of all its covered fault wires as
benign. A MATE's trigger vector is the AND of its literals' cycle vectors
(complemented for a 0 literal), so all cycles are evaluated at once.
Trigger vectors are kept bit-packed so that whole campaigns stay in a few
tens of megabytes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.mate import Mate
from repro.obs import counter, span
from repro.trace.trace import Trace

#: Byte population-count lookup table.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)

#: Byte bit-reversal table: little-endian cycle-vector bytes to the
#: big-endian bit order of :attr:`ReplayResult.triggered_packed`.
_REVERSED = np.array([int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8)


def _popcount(packed: np.ndarray) -> int:
    return int(_POPCOUNT[packed].sum())


class ReplayResult:
    """Per-cycle trigger information for a MATE list on one trace."""

    def __init__(
        self,
        mates: Sequence[Mate],
        fault_wires: Sequence[str],
        num_cycles: int,
        triggered_packed: np.ndarray,
        trigger_counts: np.ndarray,
    ) -> None:
        self.mates = list(mates)
        #: The fault-space wires considered (defines the denominator).
        self.fault_wires = list(fault_wires)
        self.num_cycles = num_cycles
        #: (num_mates × ceil(cycles/8)) bit-packed trigger vectors.
        self.triggered_packed = triggered_packed
        #: Per-MATE number of cycles in which it triggers.
        self.trigger_counts = trigger_counts
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

    def masked_pairs_per_mate(self) -> np.ndarray:
        """Total (fault wire, cycle) pairs each MATE masks on this trace."""
        pairs = np.zeros(self.num_mates, dtype=np.int64)
        for index, mate in enumerate(self.mates):
            covered = len(mate.fault_wires & self._fault_wire_set)
            pairs[index] = int(self.trigger_counts[index]) * covered
        return pairs

    def masked_vector(
        self, fault_wire: str, subset: Sequence[int] | None = None
    ) -> np.ndarray:
        """Bit-packed benign-cycle vector for one fault wire."""
        allowed = None if subset is None else set(subset)
        accumulator = np.zeros(self.triggered_packed.shape[1], dtype=np.uint8)
        for index in self.mates_of_fault.get(fault_wire, ()):
            if allowed is not None and index not in allowed:
                continue
            accumulator |= self.triggered_packed[index]
        return accumulator

    def masked_pairs(self, subset: Sequence[int] | None = None) -> int:
        """Number of distinct benign (fault wire, cycle) points."""
        total = 0
        for wire in self.fault_wires:
            total += _popcount(self.masked_vector(wire, subset))
        return total

    def masked_fraction(self, subset: Sequence[int] | None = None) -> float:
        """Fraction of the fault space proven benign ("Masked Faults")."""
        if self.fault_space_size == 0:
            return 0.0
        return self.masked_pairs(subset) / self.fault_space_size

    def benign_grid(self, subset: Sequence[int] | None = None) -> np.ndarray:
        """Dense (fault wires × cycles) benign matrix (Figure 1b)."""
        grid = np.zeros((len(self.fault_wires), self.num_cycles), dtype=np.uint8)
        for row, wire in enumerate(self.fault_wires):
            packed = self.masked_vector(wire, subset)
            grid[row] = np.unpackbits(packed)[: self.num_cycles]
        return grid

    def average_inputs(
        self, subset: Sequence[int] | None = None
    ) -> tuple[float, float]:
        """(mean, std) of #inputs over *effective* MATEs ("Avg. #inputs")."""
        effective = self.effective_indices(subset)
        if not effective:
            return (0.0, 0.0)
        counts = np.array([self.mates[i].num_inputs for i in effective], dtype=float)
        return (float(counts.mean()), float(counts.std()))

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
    num_cycles = trace.num_cycles
    packed_len = (num_cycles + 7) // 8
    triggered_packed = np.zeros((len(mates), packed_len), dtype=np.uint8)
    trigger_counts = np.zeros(len(mates), dtype=np.int64)

    with span("replay", mates=len(mates), cycles=num_cycles):
        for index, mate in enumerate(mates):
            triggered = trigger_vector(mate, trace)
            trigger_counts[index] = triggered.bit_count()
            little = triggered.to_bytes(packed_len, "little")
            triggered_packed[index] = _REVERSED[np.frombuffer(little, np.uint8)]
        counter("replay.mates.evaluated").inc(len(mates))
        counter("replay.cycles.replayed").inc(num_cycles)
        counter("replay.mate.triggers").inc(int(trigger_counts.sum()))

    return ReplayResult(
        mates=mates,
        fault_wires=fault_wires,
        num_cycles=num_cycles,
        triggered_packed=triggered_packed,
        trigger_counts=trigger_counts,
    )
