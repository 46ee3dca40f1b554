"""Fault-space accounting: the (flip-flop × cycle) SEU grid of Sec. 2.

Each fault wire's row of the grid is one *cycle vector*: a Python int whose
bit ``c`` is set when the point at cycle ``c`` is benign. A union of
pruning layers is ``|``, an overlap ``&`` and a count ``bit_count()``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.util.bits import set_bits


class FaultSpace:
    """The flip-flop × cycle fault space with benign-point bookkeeping.

    Every cell starts as a *possibly effective* injection point; MATE replay
    (or any other pruning technique) marks cells benign. This is the model
    behind Figure 1b, where filled dots are remaining injection points and
    empty dots are pruned ones.
    """

    def __init__(self, fault_wires: Sequence[str], num_cycles: int) -> None:
        if num_cycles < 0:
            raise ValueError("num_cycles must be non-negative")
        self.fault_wires = list(fault_wires)
        self.num_cycles = num_cycles
        self._row = {wire: i for i, wire in enumerate(self.fault_wires)}
        #: Per-row benign cycle vectors: the union of every mark.
        self.benign = [0] * len(self.fault_wires)
        # Per-layer rows (e.g. "mate", "defuse"); ``benign`` is their union
        # plus any unattributed marks.
        self._layers: dict[str, list[int]] = {}

    @property
    def size(self) -> int:
        """Total number of (wire, cycle) injection points."""
        return len(self.fault_wires) * self.num_cycles

    def _mark(self, fault_wire: str, vector: int, layer: str | None) -> None:
        row = self._row[fault_wire]
        self.benign[row] |= vector
        if layer is not None:
            rows = self._layers.setdefault(layer, [0] * len(self.fault_wires))
            rows[row] |= vector

    def _cycle(self, cycle: int) -> int:
        if not 0 <= cycle < self.num_cycles:
            raise IndexError(f"cycle {cycle} outside [0, {self.num_cycles})")
        return cycle

    def mark_benign(self, fault_wire: str, cycle: int, layer: str | None = None) -> None:
        """Prune one injection point as provably benign."""
        self._mark(fault_wire, 1 << self._cycle(cycle), layer)

    def mark_benign_cycles(
        self, fault_wire: str, cycles: int, layer: str | None = None
    ) -> None:
        """Mark a cycle vector of benign points for one wire.

        Raises ``ValueError`` for a bit at or past :attr:`num_cycles`: a
        vector from a longer run belongs to a different fault space.
        """
        if cycles < 0 or cycles >> self.num_cycles:
            raise ValueError(
                f"cycle vector for {fault_wire!r} has bits beyond "
                f"{self.num_cycles} cycles"
            )
        self._mark(fault_wire, cycles, layer)

    @property
    def layers(self) -> tuple[str, ...]:
        """Names of the pruning layers that marked at least one point."""
        return tuple(sorted(self._layers))

    def layer_benign(self, layer: str) -> int:
        """Points pruned by one named layer (independent of other layers)."""
        return sum(vector.bit_count() for vector in self._layers.get(layer, ()))

    def layer_overlap(self, a: str, b: str) -> int:
        """Points pruned by *both* named layers."""
        rows_a = self._layers.get(a, ())
        rows_b = self._layers.get(b, ())
        return sum((x & y).bit_count() for x, y in zip(rows_a, rows_b))

    def pruned_by(self, fault_wire: str, cycle: int) -> tuple[str, ...]:
        """Sorted layer names that pruned this point (empty if unpruned)."""
        row = self._row[fault_wire]
        bit = 1 << self._cycle(cycle)
        return tuple(name for name in self.layers if self._layers[name][row] & bit)

    def attribution(self) -> dict[str, int]:
        """Per-layer pruned-point totals plus the cross-layer overlaps.

        Returns ``{layer: count, ...}`` with an extra ``"both"`` entry when
        exactly two layers are present (the mate/defuse case). With three or
        more layers every pairwise overlap is reported as ``"a&b"`` (sorted
        names) plus an ``"all"`` entry for the points every layer pruned.
        """
        counts = {name: self.layer_benign(name) for name in self.layers}
        if len(counts) == 2:
            a, b = self.layers
            counts["both"] = self.layer_overlap(a, b)
        elif len(counts) > 2:
            names = self.layers
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    counts[f"{a}&{b}"] = self.layer_overlap(a, b)
            every = 0
            for rows in zip(*(self._layers[name] for name in names)):
                common = rows[0]
                for vector in rows[1:]:
                    common &= vector
                every += common.bit_count()
            counts["all"] = every
        return counts

    def is_benign(self, fault_wire: str, cycle: int) -> bool:
        """True if the point has been pruned."""
        return bool(self.benign[self._row[fault_wire]] >> self._cycle(cycle) & 1)

    @property
    def num_benign(self) -> int:
        """Number of pruned points."""
        return sum(vector.bit_count() for vector in self.benign)

    @property
    def num_remaining(self) -> int:
        """Injection points still to be run in a campaign."""
        return self.size - self.num_benign

    @property
    def benign_fraction(self) -> float:
        """Pruned fraction of the whole fault space."""
        return self.num_benign / self.size if self.size else 0.0

    def remaining_points(self) -> list[tuple[str, int]]:
        """All (fault wire, cycle) points not pruned (campaign fault list)."""
        every = (1 << self.num_cycles) - 1
        return [
            (wire, cycle)
            for wire in self.fault_wires
            for cycle in set_bits(every & ~self.benign[self._row[wire]])
        ]

    def render_grid(self, filled: str = "●", empty: str = "○") -> str:
        """ASCII art of the fault space (Figure 1b style)."""
        width = max((len(w) for w in self.fault_wires), default=0)
        lines = []
        for wire in self.fault_wires:
            row = self.benign[self._row[wire]]
            dots = " ".join(
                empty if row >> cycle & 1 else filled
                for cycle in range(self.num_cycles)
            )
            lines.append(f"{wire:>{width}} {dots}")
        header = " " * width + " " + " ".join(
            str(c % 10) for c in range(self.num_cycles)
        )
        return "\n".join([header, *lines])

    def __repr__(self) -> str:
        return (
            f"FaultSpace({len(self.fault_wires)} wires x {self.num_cycles} cycles, "
            f"{self.num_benign}/{self.size} benign)"
        )
