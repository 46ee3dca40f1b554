"""MSP430 system testbench: unified external memory served from MAR.

Byte addresses below ``ram_base`` map to the program ROM; addresses from
``ram_base`` upwards map to the data RAM (word granularity, like the real
part's SRAM at 0x0200). The memory read port is combinational from the
``mar`` register; writes commit from the EXEC-state outputs.
"""

from __future__ import annotations

from repro.sim.memory import RAM, ROM, RamImage
from repro.sim.simulator import StateView
from repro.sim.testbench import Testbench


class Msp430System(Testbench):
    """Drives the synthesized MSP430 core with a program and a data RAM."""

    def __init__(
        self,
        program: list[int],
        ram_words: int = 256,
        ram_base: int = 0x0200,
        ram_image: dict[int, int] | None = None,
        halt_on_cpuoff: bool = True,
    ) -> None:
        self.rom = ROM(program, width=16)
        self.ram = RAM(ram_words, width=16)
        self.ram_base = ram_base
        self.halt_on_cpuoff = halt_on_cpuoff
        for word_index, value in (ram_image or {}).items():
            self.ram.words[word_index] = value & 0xFFFF

    def read_word(self, byte_address: int) -> int:
        """Combinational memory read (ROM below ram_base, RAM above)."""
        byte_address &= 0xFFFF
        if byte_address >= self.ram_base:
            return self.ram.read(((byte_address - self.ram_base) >> 1) % len(self.ram))
        return self.rom.read(byte_address >> 1)

    def drive(self, cycle: int, state: StateView) -> dict[str, int]:
        """Serve the memory read addressed by the MAR register."""
        return {"mem_rdata": self.read_word(state.read_reg("mar"))}

    def observe(self, cycle: int, outputs: dict[str, int]) -> bool:
        """Commit memory writes; halt on CPUOFF if configured."""
        if outputs.get("mem_we"):
            address = outputs["mem_wr_addr"] & 0xFFFF
            if address >= self.ram_base:
                word_index = ((address - self.ram_base) >> 1) % len(self.ram)
                self.ram.write(word_index, outputs["mem_wdata"], cycle=cycle)
        return bool(outputs.get("halted")) and self.halt_on_cpuoff

    def snapshot(self) -> RamImage:
        """RAM words and write log (the ROM is read-only)."""
        return self.ram.snapshot()

    def restore(self, snapshot: RamImage) -> None:
        """Return to a :meth:`snapshot`."""
        self.ram.restore(snapshot)
