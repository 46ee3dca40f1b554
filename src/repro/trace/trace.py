"""The :class:`Trace` container: one bit per (cycle, wire).

A trace is the reproduction of the paper's VCD dumps: for every simulated
clock cycle, the value of every wire of the netlist. Values of flip-flop Q
wires are the state *during* the cycle (i.e. what the combinational logic
saw); D wires therefore hold the next state.

Each wire is stored as one *cycle vector*: a Python int whose bit ``c`` is
the wire's value in cycle ``c``. A full 8500-cycle CPU trace is then a few
megabytes, and whole-trace questions (does a MATE trigger, where does a
fault go) are a handful of bitwise operations per wire. Per-cycle reads go
through a little-endian byte copy of the vectors, made on first use, and
numpy is imported only by the methods that return arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class Trace:
    """Per-cycle values of a fixed, ordered set of wires, one cycle vector
    per wire."""

    def __init__(
        self, wire_names: Sequence[str], vectors: Sequence[int], num_cycles: int
    ) -> None:
        if len(vectors) != len(wire_names):
            raise ValueError(
                f"{len(vectors)} cycle vectors but {len(wire_names)} wire names"
            )
        if num_cycles < 0:
            raise ValueError(f"negative cycle count {num_cycles}")
        for wire, vector in zip(wire_names, vectors):
            if vector < 0 or vector >> num_cycles:
                raise ValueError(
                    f"cycle vector of {wire!r} has bits beyond {num_cycles} cycles"
                )
        self.wire_names: tuple[str, ...] = tuple(wire_names)
        self._vectors: list[int] = list(vectors)
        self._num_cycles = num_cycles
        self._index: dict[str, int] = {w: i for i, w in enumerate(self.wire_names)}

    @classmethod
    def from_matrix(cls, wire_names: Sequence[str], matrix) -> Trace:
        """A trace from a dense (cycles x wires) 0/1 matrix."""
        import numpy as np

        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError(f"trace matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[1] != len(wire_names):
            raise ValueError(
                f"matrix has {matrix.shape[1]} columns but {len(wire_names)} wire names"
            )
        if matrix.size and matrix.max() > 1:
            raise ValueError("trace matrix contains non-binary values")
        packed = np.packbits(matrix, axis=0, bitorder="little")
        vectors = [int.from_bytes(column.tobytes(), "little") for column in packed.T]
        return cls(wire_names, vectors, matrix.shape[0])

    @property
    def num_cycles(self) -> int:
        """Number of recorded clock cycles."""
        return self._num_cycles

    @property
    def num_wires(self) -> int:
        """Number of traced wires."""
        return len(self.wire_names)

    def __contains__(self, wire: str) -> bool:
        return wire in self._index

    def column_index(self, wire: str) -> int:
        """Position of a wire in :attr:`wire_names` (KeyError if untraced)."""
        try:
            return self._index[wire]
        except KeyError:
            raise KeyError(f"wire {wire!r} not in trace") from None

    def vector(self, wire: str) -> int:
        """The wire's cycle vector: bit ``c`` is its value in cycle ``c``."""
        return self._vectors[self.column_index(wire)]

    @cached_property
    def _bytes(self) -> list[bytes]:
        """Every vector as little-endian bytes, for O(1) per-cycle reads."""
        size = (self._num_cycles + 7) // 8
        return [vector.to_bytes(size, "little") for vector in self._vectors]

    def _cycle(self, cycle: int) -> int:
        if not 0 <= cycle < self._num_cycles:
            raise IndexError(f"cycle {cycle} outside trace of {self._num_cycles}")
        return cycle

    def value(self, cycle: int, wire: str) -> int:
        """Value of one wire in one cycle."""
        cycle = self._cycle(cycle)
        return (self._bytes[self.column_index(wire)][cycle >> 3] >> (cycle & 7)) & 1

    def cycle_values(self, cycle: int) -> dict[str, int]:
        """All wire values of one cycle as a dict (debug/verify helper)."""
        cycle = self._cycle(cycle)
        byte, shift = cycle >> 3, cycle & 7
        return {
            wire: (data[byte] >> shift) & 1
            for wire, data in zip(self.wire_names, self._bytes)
        }

    def wire(self, wire: str) -> np.ndarray:
        """All per-cycle values of one wire (length ``num_cycles``)."""
        return self.columns([wire])[:, 0]

    def columns(self, wires: Iterable[str]) -> np.ndarray:
        """(cycles x wires) ``uint8`` matrix of the given wires, in order."""
        import numpy as np

        data = [self._bytes[self.column_index(w)] for w in wires]
        size = (self._num_cycles + 7) // 8
        packed = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(len(data), size)
        bits = np.unpackbits(packed, axis=1, count=self._num_cycles, bitorder="little")
        return np.ascontiguousarray(bits.T)

    def word(self, cycle: int, wires: Sequence[str]) -> int:
        """Assemble an integer from wires given LSB-first (debug helper)."""
        value = 0
        for bit, wire in enumerate(wires):
            value |= self.value(cycle, wire) << bit
        return value

    def slice_cycles(self, start: int, stop: int) -> Trace:
        """A trace restricted to cycles [start, stop)."""
        start, stop, _ = slice(start, stop).indices(self._num_cycles)
        stop = max(start, stop)
        mask = (1 << (stop - start)) - 1
        vectors = [(vector >> start) & mask for vector in self._vectors]
        return Trace(self.wire_names, vectors, stop - start)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.wire_names == other.wire_names
            and self._num_cycles == other._num_cycles
            and self._vectors == other._vectors
        )

    def __repr__(self) -> str:
        return f"Trace({self.num_cycles} cycles x {self.num_wires} wires)"
