"""Testbench protocol for driving netlist simulations.

A testbench supplies word-level input values each cycle (it may inspect the
current register state, e.g. to model memories addressed by a PC register)
and observes word-level outputs at the end of each cycle (e.g. to commit
memory writes or detect a halt condition).

A testbench whose :meth:`Testbench.snapshot` returns a value is
*checkpointable*: a campaign snapshots it during the golden run and
restores the snapshot into a fresh testbench to inject from a golden
checkpoint instead of from cycle 0. The base class returns None ("not
checkpointable"), and such testbenches are always simulated from cycle 0.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


class Testbench:
    """Base testbench: drives all inputs to zero, never halts."""

    def drive(self, cycle: int, state: "StateReader") -> dict[str, int]:
        """Word-level input values for this cycle (missing inputs become 0)."""
        return {}

    def observe(self, cycle: int, outputs: Mapping[str, int]) -> bool:
        """Called with word-level outputs after the cycle; True halts the run."""
        return False

    def snapshot(self) -> object | None:
        """Immutable copy of all state ``drive``/``observe`` depend on or
        change, or None if the testbench is not checkpointable."""
        return None

    def restore(self, snapshot: object) -> None:
        """Return to the state captured by :meth:`snapshot`."""
        raise NotImplementedError(f"{type(self).__name__} is not checkpointable")


class StateReader:
    """Read-only view of register state offered to testbenches (protocol)."""

    def read_reg(self, name: str) -> int:
        """Word value of a named register."""
        raise NotImplementedError

    def read_ff(self, name: str) -> int:
        """Bit value of a named flip-flop."""
        raise NotImplementedError


class ConstantTestbench(Testbench):
    """Holds every input at a fixed word value."""

    def __init__(self, values: Mapping[str, int] | None = None) -> None:
        self.values = dict(values or {})

    def drive(self, cycle: int, state: StateReader) -> dict[str, int]:
        """Constant input words every cycle."""
        return dict(self.values)

    def snapshot(self) -> tuple[()]:
        """Stateless: nothing to save."""
        return ()

    def restore(self, snapshot: object) -> None:
        """Stateless: nothing to restore."""


class TableTestbench(Testbench):
    """Plays back a per-cycle table of input words (repeats the last row)."""

    def __init__(self, rows: Sequence[Mapping[str, int]]) -> None:
        if not rows:
            raise ValueError("TableTestbench needs at least one row")
        self.rows = [dict(row) for row in rows]

    def drive(self, cycle: int, state: StateReader) -> dict[str, int]:
        """Row for this cycle (last row repeats)."""
        index = min(cycle, len(self.rows) - 1)
        return dict(self.rows[index])

    def snapshot(self) -> tuple[()]:
        """Stateless: nothing to save."""
        return ()

    def restore(self, snapshot: object) -> None:
        """Stateless: nothing to restore."""
