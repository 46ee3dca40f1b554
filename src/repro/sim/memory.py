"""Simple word-addressed memory models for CPU testbenches.

The paper's system model puts program and data memory *outside* the netlist
(faults target CPU flip-flops); these classes model that external memory in
the testbench.
"""

from __future__ import annotations

from collections.abc import Iterable

#: Immutable (words, write log) copy of a :class:`RAM`.
RamImage = tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]


class ROM:
    """Read-only word memory; out-of-range reads return 0 (open bus)."""

    def __init__(self, words: Iterable[int], width: int) -> None:
        self.width = width
        self._mask = (1 << width) - 1
        self.words = [w & self._mask for w in words]

    def read(self, address: int) -> int:
        """Word at ``address`` (0 beyond the end — open bus)."""
        if 0 <= address < len(self.words):
            return self.words[address]
        return 0

    def __len__(self) -> int:
        return len(self.words)


class RAM:
    """Word-addressed RAM with a write log (for result checking)."""

    def __init__(self, size: int, width: int, fill: int = 0) -> None:
        self.width = width
        self._mask = (1 << width) - 1
        self.words = [fill & self._mask] * size
        #: Chronological (cycle, address, value) log of committed writes.
        self.write_log: list[tuple[int, int, int]] = []
        self._image: RamImage | None = None

    def read(self, address: int) -> int:
        """Word at ``address`` (0 beyond the end — open bus)."""
        if 0 <= address < len(self.words):
            return self.words[address]
        return 0

    def write(self, address: int, value: int, cycle: int = -1) -> None:
        """Commit a write (ignored out of range) and log it."""
        if 0 <= address < len(self.words):
            self.words[address] = value & self._mask
            self.write_log.append((cycle, address, value & self._mask))

    def load(self, address: int, values: Iterable[int]) -> None:
        """Bulk-initialize memory starting at ``address`` (not logged)."""
        for offset, value in enumerate(values):
            self.words[address + offset] = value & self._mask

    def snapshot(self) -> RamImage:
        """Immutable (words, write log) image of the memory.

        Reuses the previous image when no write was logged since it was
        taken, so checkpoints of a run that rarely writes share one copy.
        Writes that bypass :meth:`write` (``load``, direct ``words``
        assignment) must not happen between snapshots.
        """
        if self._image is None or len(self._image[1]) != len(self.write_log):
            self._image = (tuple(self.words), tuple(self.write_log))
        return self._image

    def restore(self, image: RamImage) -> None:
        """Return to a :meth:`snapshot` image."""
        self.words = list(image[0])
        self.write_log = list(image[1])
        self._image = image

    def __len__(self) -> int:
        return len(self.words)
