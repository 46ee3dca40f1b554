"""AVR system testbench: external program ROM, data RAM, and i/o port.

The paper's fault model targets CPU flip-flops only; program and data
memory live outside the netlist, in this testbench. Program memory is
addressed by the ``pc`` register, data memory by the X pointer registers
(r27:r26) — both read directly from flip-flop state, exactly as an FPGA
HAFI platform wires block RAMs to the emulated core.
"""

from __future__ import annotations

from repro.cpu.avr.core import PC_BITS
from repro.sim.memory import RAM, ROM, RamImage
from repro.sim.simulator import StateView
from repro.sim.testbench import Testbench

#: RAM image plus the (cycle, port, value) port log.
AvrSnapshot = tuple[RamImage, tuple[tuple[int, int, int], ...]]


class AvrSystem(Testbench):
    """Drives the synthesized AVR core with a program and a data RAM."""

    def __init__(
        self,
        program: list[int],
        ram_size: int = 256,
        ram_image: dict[int, int] | None = None,
        halt_on_sleep: bool = True,
        pin_in: int = 0,
    ) -> None:
        self.rom = ROM(program, width=16)
        self.ram = RAM(ram_size, width=8)
        for address, value in (ram_image or {}).items():
            self.ram.words[address] = value & 0xFF
        self.halt_on_sleep = halt_on_sleep
        #: Value presented on the external input port (IN isa.IO_PIN).
        self.pin_in = pin_in & 0xFF
        #: Chronological (cycle, port, value) log of OUT writes.
        self.port_log: list[tuple[int, int, int]] = []

    def drive(self, cycle: int, state: StateView) -> dict[str, int]:
        """Serve instruction/data reads from the PC and X registers."""
        pc = state.read_reg("pc") & ((1 << PC_BITS) - 1)
        x_pointer = state.read_reg("rf_r26") | (state.read_reg("rf_r27") << 8)
        return {
            "instr_in": self.rom.read(pc),
            "dmem_rdata": self.ram.read(x_pointer % len(self.ram)),
            "pin_in": self.pin_in,
        }

    def observe(self, cycle: int, outputs: dict[str, int]) -> bool:
        """Commit memory/port writes; halt on SLEEP if configured."""
        if outputs.get("dmem_we"):
            address = outputs["dmem_addr"] % len(self.ram)
            self.ram.write(address, outputs["dmem_wdata"], cycle=cycle)
        if outputs.get("port_we"):
            self.port_log.append((cycle, outputs["port_addr"], outputs["port_wdata"]))
        return bool(outputs.get("halted")) and self.halt_on_sleep

    def snapshot(self) -> AvrSnapshot:
        """RAM words, write log and port log (the ROM is read-only)."""
        return self.ram.snapshot(), tuple(self.port_log)

    def restore(self, snapshot: AvrSnapshot) -> None:
        """Return to a :meth:`snapshot`."""
        ram, ports = snapshot
        self.ram.restore(ram)
        self.port_log = list(ports)
